"""Symbolic limits of one-parameter matrix actions on subspaces.

The limit of the shear family that replaces basis index i by j is computed in
closed form (image of the index-replacement map plus the part of the space
whose image falls back inside it); the limit of the doubly exponential
diagonal family is the span of the pivot monomials.  A round-robin drive
composes the shear limits, directly or after an initial-monomial
degeneration, until the result is fixed by every decreasing pair; on a
monomial subspace each shear limit is the combinatorial shift of the support
family.  An independent oracle recomputes shear limits through Plücker
coordinates: the leading coefficient, in the shear parameter, of the wedge of
the sheared rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional, Union

from .errors import FalsificationError, IterationLimitError
from .exterior import Multivector, wedge
from .families import ShiftPair, is_shifted
from .subspace import PlueckerVector, Subspace, _check_pluecker_size, _lift, _pluecker_vector

PairLike = Union[ShiftPair, tuple[int, int]]


def _as_pair(pair: PairLike, n: int) -> ShiftPair:
    p = pair if isinstance(pair, ShiftPair) else ShiftPair(*pair)
    if p.i > n or p.j > n:
        raise ValueError(f"shift pair ({p.i}, {p.j}) out of range for ground dimension {n}")
    return p


def shift_map(x: Multivector, pair: PairLike) -> Multivector:
    """Linear map sending each monomial with factor e_i to the same monomial with
    e_i replaced by e_j (zero when j is already a factor), and every monomial
    without i to zero.  Applying it twice gives zero."""
    p = _as_pair(pair, x.n)
    i, j = p.i, p.j
    acc: dict[tuple[int, ...], Fraction] = {}
    for sup, c in x.terms.items():
        if i not in sup or j in sup:
            continue
        rest = tuple(a for a in sup if a != i)
        eps = -1 if sup.index(i) % 2 else 1
        sig = -1 if sum(1 for a in rest if a < j) % 2 else 1
        acc[tuple(sorted(rest + (j,)))] = eps * sig * c  # the target determines sup: no collisions
    return Multivector._trusted(x.n, acc)


def limit_shift(V: Subspace, pair: PairLike) -> Subspace:
    """Limit of the shear action replacing index i by j, as the parameter grows
    without bound: the image of the replacement map plus the members of V whose
    image lands back in V.  When every image already lies in V the limit is V
    itself, returned as is.  Dimension is preserved; the result is idempotent
    under the same pair."""
    p = _as_pair(pair, V.n)
    images = [shift_map(r, p) for r in V.rows]
    members = V._members_mapped_into(images, V)
    if len(members) == V.dim:
        return V
    out = Subspace(V.order, images + members)
    if out.dim != V.dim:
        raise FalsificationError(
            f"shear limit changed dimension: {V.dim} -> {out.dim} at pair ({p.i}, {p.j})"
        )
    return out


def initial_subspace(V: Subspace) -> Subspace:
    """Span of the pivot monomials of the canonical rows: the limit of the
    weight-diagonal action under V's own coordinate order.  Always a monomial
    subspace of the same dimension."""
    rows = [Multivector.monomial(V.n, piv) for piv in V.pivots()]
    return Subspace(V.order, rows)


def pluecker_limit(V: Subspace, pair: PairLike) -> PlueckerVector:
    """Projective limit of the Plücker vector of the sheared subspace.

    Each canonical row r picks up the parameter t times its replacement image
    x.  The wedge of the rows r + t*x is a polynomial in t whose coefficients
    are wedges of grade m, and the coefficient of the top power present is
    the limit point.  Must agree with the Plücker vector of limit_shift
    projectively."""
    p = _as_pair(pair, V.n)
    m = V.dim
    if m == 0:
        raise ValueError("zero subspace has no Pluecker vector")
    _check_pluecker_size(comb(comb(V.n, V.k), m))
    rows = list(V.rows)
    columns, lifted = _lift(V.order, rows + [shift_map(r, p) for r in rows])
    zero = Multivector.zero(len(columns))
    # by_degree[d] is the coefficient of t^d in the wedge of the rows so far
    by_degree = [Multivector(len(columns), {(): 1})]
    for r, x in zip(lifted[:m], lifted[m:]):
        by_degree = [
            wedge(same, r) + wedge(lower, x)
            for same, lower in zip(by_degree + [zero], [zero] + by_degree)
        ]
    top = max(d for d, c in enumerate(by_degree) if not c.is_zero)
    return _pluecker_vector(V.order, columns, by_degree[top])


@dataclass(frozen=True)
class TraceStep:
    """One applied step of a fixed-point drive, with the state it produced."""

    step: int
    kind: str  # "limit_shift" | "comb_shift" | "init"
    pair: Optional[tuple[int, int]]
    dim: int
    monomial: bool
    shifted: bool
    state: Subspace = field(compare=False, repr=False)

    def record(self) -> dict:
        return {
            "step": self.step,
            "kind": self.kind,
            "pair": list(self.pair) if self.pair else None,
            "dim": self.dim,
            "monomial": self.monomial,
            "shifted": self.shifted,
        }


def decreasing_pairs(n: int) -> list[ShiftPair]:
    """All pairs (i, j) with i > j, ordered lexicographically by (j, i)."""
    return [ShiftPair(i, j) for j in range(1, n) for i in range(j + 1, n + 1)]


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
) -> tuple[Subspace, list[TraceStep]]:
    """Drive V to a subspace fixed by every decreasing shear limit.

    Both routes round-robin limit_shift over all pairs i > j until a full
    round applies no change.  Route ``init-then-shift`` first degenerates to
    the initial monomial subspace, where each shear limit is the
    combinatorial shift of the support family, so its steps are recorded as
    ``comb_shift``.  On either route the round cap (default 10*n^2) turns a
    runaway drive into IterationLimitError instead of a loop.  The result
    has a monomial basis whose support family is shifted, and the trace
    lists every applied step.  The zero subspace is returned as is, with an
    empty trace, before any pair is listed."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if V.is_zero:  # every map fixes the zero subspace: no pairs, no steps
        return V, []
    n = V.n
    pairs = decreasing_pairs(n)
    steps: list[TraceStep] = []
    current = V
    if route == "init-then-shift":
        current = initial_subspace(V)
        mono, shif = _status(current)
        if current != V:
            steps.append(TraceStep(0, "init", None, current.dim, mono, shif, current))
        if not mono:
            raise FalsificationError("initial-monomial degeneration is not monomial")
    kind = "limit_shift" if route == "iterate" else "comb_shift"
    cap = 10 * n * n if max_rounds is None else max_rounds
    for _ in range(cap):
        changed = False
        for p in pairs:
            moved = limit_shift(current, p)
            if moved != current:
                current = moved
                changed = True
                mono, shif = _status(current)
                steps.append(TraceStep(len(steps), kind, (p.i, p.j), current.dim, mono, shif, current))
        if not changed:
            break
    else:
        raise IterationLimitError(
            f"no fixed point after {cap} round-robin rounds ({len(steps)} applied steps)"
        )
    mono, shif = _status(current)
    if not mono:
        raise FalsificationError("fixed point of all decreasing shears lacks a monomial basis")
    if not shif:
        raise FalsificationError("fixed point of all decreasing shears is not shifted")
    return current, steps
