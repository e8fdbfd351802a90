"""Symbolic limits of one-parameter matrix actions on subspaces.

The limit of the shear family that replaces basis index i by j is computed in
closed form (image of the index-replacement map plus the part of the space
whose image falls back inside it); the limit of the doubly exponential
diagonal family is the span of the pivot monomials.  A round-robin drive
composes the shear limits, directly or after an initial-monomial
degeneration, and stops at the first monomial state whose support family is
shifted (or after a round that changes nothing), under a cap counted in
rounds.  The stop is exact: a monomial row's replacement image is plus or
minus a monomial, which lies in the span exactly when its support is in the
family, so "every decreasing shear fixes the span" and "the family is
shifted" are the same condition.  On a monomial subspace each shear limit is
the combinatorial shift of the support family.  An independent oracle
recomputes shear limits through Plücker coordinates: the leading coefficient,
in the shear parameter t, of the wedge of the sheared rows.  It sets t = 2^L
with 2^(L-1) > B = prod(|r|_1 + |x|_1), a bound on every coefficient, so one
integer per coordinate holds every power of t as a base-2^L digit; the top
power is read from the bit lengths and its coefficient off the top digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import Any, Callable, Iterator, Mapping, Optional, Union

from .errors import FalsificationError, IterationLimitError
from .exterior import Support, wedge_core
from .families import ShiftPair, _check_pair, is_shifted
from .subspace import PlueckerVector, Subspace, _check_pluecker_size, _lift, _pluecker_vector

PairLike = Union[ShiftPair, tuple[int, int]]


def _as_pair(pair: PairLike, n: int) -> ShiftPair:
    p = pair if isinstance(pair, ShiftPair) else ShiftPair(*pair)
    _check_pair(p, n)
    return p


def _replaced(terms: Mapping[Support, Any], i: int, j: int) -> dict[Support, Any]:
    """The replacement map on a term map with any coefficients: each monomial
    with factor e_i goes to the same monomial with e_i replaced by e_j (zero
    when j is already a factor), and every monomial without i to zero.
    Applying it twice gives zero.  The image's coefficients are a signed
    subset of the input's."""
    acc = {}
    for sup, c in terms.items():
        if i not in sup or j in sup:
            continue
        rest = tuple(a for a in sup if a != i)
        eps = -1 if sup.index(i) % 2 else 1
        sig = -1 if sum(1 for a in rest if a < j) % 2 else 1
        acc[tuple(sorted(rest + (j,)))] = eps * sig * c  # the target determines sup: no collisions
    return acc


def limit_shift(V: Subspace, pair: PairLike) -> Subspace:
    """Limit of the shear action replacing index i by j, as the parameter grows
    without bound: the image of the replacement map plus the members of V whose
    image lands back in V.  When every image already lies in V the limit is V
    itself, returned as is.  Dimension is preserved; the result is idempotent
    under the same pair.  Images, residues and members are integer term maps
    built from V's integer rows."""
    p = _as_pair(pair, V.n)
    images = [_replaced(r, p.i, p.j) for r in V._rows]
    members = V._members_mapped_into(images)
    if len(members) == V.dim:
        return V
    out = Subspace._trusted(V.order, images + members)
    if out.dim != V.dim:
        raise FalsificationError(
            f"shear limit changed dimension: {V.dim} -> {out.dim} at pair ({p.i}, {p.j})"
        )
    return out


def initial_subspace(V: Subspace) -> Subspace:
    """Span of the pivot monomials of the canonical rows: the limit of the
    weight-diagonal action under V's own coordinate order.  Always a monomial
    subspace of the same dimension."""
    return Subspace._trusted(V.order, [{piv: 1} for piv in V.pivots()])


def pluecker_limit(V: Subspace, pair: PairLike) -> PlueckerVector:
    """Projective limit of the Plücker vector of the sheared subspace.

    Each canonical row r picks up the parameter t times its replacement image
    x.  The wedge of the rows r + t*x is a polynomial in t whose coefficients
    are wedges of grade m, and the coefficient of the top power present is
    the limit point.  Must agree with the Plücker vector of limit_shift
    projectively.

    The polynomial is one integer map (Kronecker substitution): t = 2^L,
    each lifted row is r + (x << L), and wedge_core chains the rows.  Each
    coefficient of each power of t is at most B = prod(|r|_1 + |x|_1) in
    size, below 2^(L-1) for L = bitlen(B) + 1, so a packed value v sums
    balanced base-2^L digits.  With the top one, c, at degree e, the lower
    ones sum below 2^(L*e-1) in size, so 2^(L*e-1) < |v| < 2^(L*(e+1)-1):
    e = bitlen(|v|) // L, and c = (v + 2^(L*e-1)) >> (L*e).  The read takes
    a leading coefficient in t, sharing no step with limit_shift's residues.

    r is V's integer row, a multiple of its pivot-1 row, and x its image,
    a signed subset of r's coefficients; the projective normalization
    divides out the product of the row factors."""
    p = _as_pair(pair, V.n)
    if V.is_zero:
        raise ValueError("zero subspace has no Pluecker vector")
    _check_pluecker_size(comb(comb(V.n, V.k), V.dim))
    rows = V._rows
    images = [_replaced(r, p.i, p.j) for r in rows]
    B = prod(sum(map(abs, r.values())) + sum(map(abs, x.values())) for r, x in zip(rows, images))
    L = B.bit_length() + 1
    columns, lifted = _lift(V.order, [
        {s: r.get(s, 0) + (x.get(s, 0) << L) for s in r.keys() | x.keys()} for r, x in zip(rows, images)
    ])
    product = lifted[0]
    for row in lifted[1:]:
        product = wedge_core(len(columns), product, row)
    top = max(abs(v).bit_length() // L for v in product.values())
    half = (1 << L * top) >> 1
    return _pluecker_vector(V.order, columns, {
        sup: (v + half) >> L * top for sup, v in product.items() if abs(v).bit_length() // L == top
    })


@dataclass(frozen=True)
class TraceStep:
    """One applied step of a fixed-point drive; the state it produced is not kept."""

    step: int
    kind: str  # "limit_shift" | "comb_shift" | "init"
    pair: Optional[tuple[int, int]]
    dim: int
    monomial: bool
    shifted: bool

    def record(self) -> dict:
        return {**vars(self), "pair": list(self.pair) if self.pair else None}


def _walk_pairs(n: int) -> Iterator[ShiftPair]:
    """Every pair (i, j) with i > j, ordered lexicographically by (j, i), made
    one at a time."""
    for j in range(1, n):
        for i in range(j + 1, n + 1):
            yield ShiftPair(i, j)


def decreasing_pairs(n: int) -> list[ShiftPair]:
    """All pairs (i, j) with i > j, ordered lexicographically by (j, i)."""
    return list(_walk_pairs(n))


def _status(V: Subspace) -> tuple[bool, bool]:
    fam = V.monomial_basis()
    if fam is None:
        return False, False
    return True, is_shifted(fam)


ROUTES = ("iterate", "init-then-shift")


def triangular_fixed_point(
    V: Subspace,
    route: str = "init-then-shift",
    max_rounds: Optional[int] = None,
    *,
    on_step: Optional[Callable[[TraceStep, Subspace], None]] = None,
) -> tuple[Subspace, list[TraceStep]]:
    """Drive V to a subspace fixed by every decreasing shear limit.

    Both routes round-robin limit_shift over all pairs i > j and stop at
    the first monomial state whose support family is shifted, checked on
    the starting state and after every applied step, or after a round that
    applies no change.  The stop is exact: a monomial row's replacement
    image is a signed monomial, in V exactly when its support is in the
    family, so a shifted monomial span is fixed by every decreasing shear.
    Route ``init-then-shift`` first degenerates to the initial monomial
    subspace, where each shear limit is the combinatorial shift of the
    support family, so its steps are recorded as ``comb_shift``.  On
    either route the round cap (default 10*n^2) turns a runaway drive into
    IterationLimitError instead of a loop; the fixed point must be seen in
    a round within the cap, so a state first shifted during the last
    allowed round still raises.  The result has a monomial basis whose
    support family is shifted, and the trace lists every applied step.
    The pairs are walked one at a time, never listed, so a state that is
    shifted on entry costs no pair at all; the zero subspace is returned as
    is, with an empty trace.  The drive holds only its current state;
    ``on_step(step, state)``, when given, sees each applied step and the
    state it produced before any further pair, and what it raises ends the
    drive."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if V.is_zero:  # every map fixes the zero subspace: no pairs, no steps
        return V, []
    n = V.n
    steps: list[TraceStep] = []
    current = initial_subspace(V) if route == "init-then-shift" else V
    mono, shif = _status(current)
    if current != V:
        steps.append(TraceStep(0, "init", None, current.dim, mono, shif))
        if on_step:
            on_step(steps[-1], current)
    if route == "init-then-shift" and not mono:
        raise FalsificationError("initial-monomial degeneration is not monomial")
    kind = "limit_shift" if route == "iterate" else "comb_shift"
    cap = 10 * n * n if max_rounds is None else max_rounds
    for _ in range(cap):
        if shif:
            break
        changed = False
        for p in _walk_pairs(n):
            moved = limit_shift(current, p)
            if moved != current:
                current = moved
                changed = True
                mono, shif = _status(current)
                steps.append(TraceStep(len(steps), kind, (p.i, p.j), current.dim, mono, shif))
                if on_step:
                    on_step(steps[-1], current)
                if shif:
                    break
        if not changed:
            break
    else:
        raise IterationLimitError(
            f"no fixed point after {cap} round-robin rounds ({len(steps)} applied steps)"
        )
    # mono and shif hold current's status on every path here
    if not mono:
        raise FalsificationError("fixed point of all decreasing shears lacks a monomial basis")
    if not shif:
        raise FalsificationError("fixed point of all decreasing shears is not shifted")
    return current, steps
