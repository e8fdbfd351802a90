"""Extremal bounds and end-to-end verification for intersecting families.

The shifted-family bound is certified by the deletion/link induction
(decompose at the top element, recurse on both parts, add the binomials);
general self-annihilating subspaces are handled by driving them to a shifted
monomial fixed point first and certifying the resulting family.  Desk-scale
enumeration backs the non-star bound check.

Self-annihilation takes one packed product per row: the rows from j on ride
as base-2^L digits of one term map (Kronecker substitution), 2^L above twice
the largest digit a product can make, so the packed product is zero exactly
when every digit is: the lowest nonzero digit is nonzero mod 2^L.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod
from typing import Optional

from .errors import BudgetExceededError, FalsificationError
from .exterior import wedge_core
from .families import (
    DEFAULT_BUDGET,
    SetFamily,
    _mask_sets,
    _walk,
    family_decompose,
    is_intersecting,
    is_shifted,
    is_star,
)
from .limits import TraceStep, triangular_fixed_point
from .subspace import Subspace


# The shifted certificate nests one level per ground element on its deletion
# chain; above this n, building or encoding it outgrows the recursion limit.
MAX_CERT_N = 300


def _check_cert_depth(n: int, k: int, size: int) -> None:
    if size and k >= 2 and 2 * k < n and n > MAX_CERT_N:
        raise BudgetExceededError(f"certificate depth cap n <= {MAX_CERT_N} exceeded: n={n}, k={k}")


def ekr_bound(n: int, k: int) -> int:
    """Largest possible intersecting k-uniform family on [n] for k <= n/2."""
    if not (1 <= k and 2 * k <= n):
        raise ValueError(f"bound needs 1 <= k <= n/2, got n={n}, k={k}")
    return comb(n - 1, k - 1)


def hm_bound(n: int, k: int) -> int:
    """Size bound for intersecting k-uniform families with no common element."""
    if not (2 <= k and 2 * k <= n):
        raise ValueError(f"bound needs 2 <= k <= n/2, got n={n}, k={k}")
    return comb(n - 1, k - 1) - comb(n - k - 1, k - 1) + 1


@dataclass
class VerifyReport:
    """Outcome of a bound verification, with its certificate."""

    identifier: str
    size: int
    bound: int
    satisfied: bool
    certificate: dict
    star_element: Optional[int] = None

    def record(self) -> dict:
        return {
            "identifier": self.identifier,
            "size": self.size,
            "bound": self.bound,
            "satisfied": self.satisfied,
            "star_element": self.star_element,
            "certificate": self.certificate,
        }


def self_annihilating(V: Subspace, s: int = 2) -> bool:
    """True when every s-fold wedge of canonical rows vanishes.

    All multisets of rows are checked, the diagonal included; by
    multilinearity this settles the whole subspace, and the integer rows
    serve because scaling a row does not change whether a product vanishes.
    They are packed from the last, P_j = r_j + (P_{j+1} << L), so Q ^ P_j
    holds Q ^ r_l as its base-2^L digit at l - j for every l >= j, with Q = r_j
    times a multiset of s - 2 rows of index <= j.  A digit sums
    prod_{t=2..s} C(tk, k) terms of size at most M^s, M the largest
    |coefficient|, so it is below 2^(L-1); the lowest nonzero digit is then
    nonzero mod 2^L, and Q ^ P_j is zero exactly when every digit is."""
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    rows = V._rows
    M = max((abs(c) for row in rows for c in row.values()), default=0)
    L = (M**s * prod(comb(t * V.k, V.k) for t in range(2, s + 1))).bit_length() + 1
    packed: dict = {}
    for j in range(len(rows) - 1, -1, -1):
        r = rows[j]
        packed = {sup: r.get(sup, 0) + (packed.get(sup, 0) << L) for sup in r.keys() | packed.keys()}
        for prefix in itertools.combinations_with_replacement(rows[: j + 1], s - 2):
            acc = r
            for x in prefix:
                acc = wedge_core(V.n, x, acc)
                if not acc:
                    break
            if acc and wedge_core(V.n, acc, packed):
                return False
    return True


def _shifted_cert(n: int, k: int, sets: tuple[tuple[int, ...], ...]) -> dict:
    """Recursive certificate for the shifted intersecting bound."""
    size = len(sets)
    node: dict = {"n": n, "k": k, "size": size}
    if size == 0:
        node.update(bound=comb(n - 1, k - 1), case="empty", satisfied=True)
        return node
    if k == 1:
        node.update(bound=1, case="point", satisfied=size <= 1)
        return node
    if 2 * k == n:
        ground = set(range(1, n + 1))
        members = set(sets)
        complement_hit = any(tuple(sorted(ground.difference(s))) in members for s in sets)
        if complement_hit:
            raise FalsificationError("complementary pair inside an intersecting family")
        node.update(bound=comb(n - 1, k - 1), case="complement-pairs", satisfied=size <= comb(n - 1, k - 1))
        return node
    # the parts keep the labels of [n]: neither holds n, and no check reads n
    _, dele, link = family_decompose(SetFamily._trusted(n, k, sets), n)
    if not is_intersecting(link):
        raise FalsificationError("link of a shifted intersecting family failed to intersect")
    if not is_shifted(link):
        raise FalsificationError("link of a shifted family is not shifted")
    if not is_shifted(dele):
        raise FalsificationError("deletion of a shifted family is not shifted")
    link_cert = _shifted_cert(n - 1, k - 1, link.sets)
    dele_cert = _shifted_cert(n - 1, k, dele.sets)
    bound = comb(n - 2, k - 2) + comb(n - 2, k - 1)
    node.update(
        bound=bound,
        case="induction",
        satisfied=size <= bound and link_cert["satisfied"] and dele_cert["satisfied"],
        children={"link": link_cert, "deletion": dele_cert},
    )
    return node


def shifted_ekr_verify(F: SetFamily, identifier: Optional[str] = None) -> VerifyReport:
    """Certify |F| <= C(n-1, k-1) for a shifted intersecting family by induction.

    Decomposes at the top element; the link is re-checked intersecting at each
    level rather than trusted.  Base cases are singleton grade (bound 1) and
    k = n/2 (complementary pairs give exactly half the sets)."""
    n, k = F.n, F.k
    if not (1 <= k and 2 * k <= n):
        raise ValueError(f"verification needs k <= n/2, got n={n}, k={k}")
    _check_cert_depth(n, k, F.size)
    if not is_shifted(F):
        raise ValueError("family is not shifted")
    if not is_intersecting(F):
        raise ValueError("family is not intersecting")
    cert = _shifted_cert(n, k, F.sets)
    return VerifyReport(
        identifier=identifier or f"family(n={n},k={k},size={F.size})",
        size=F.size,
        bound=ekr_bound(n, k),
        satisfied=cert["satisfied"],
        certificate=cert,
        star_element=is_star(F),
    )


def ekr_pipeline(
    V: Subspace, route: str = "init-then-shift", identifier: Optional[str] = None
) -> VerifyReport:
    """Bound the dimension of a self-annihilating subspace of grade k <= n/2.

    Drives V to a fixed point of every decreasing shear limit, which the
    drive checks monomial and shifted, checks its support family
    intersecting, and certifies the size by the shifted induction.
    Dimension and self-annihilation are re-verified on each state as the
    drive applies it; any breakage raises FalsificationError since each is
    a certified invariant of the limits."""
    n, k = V.n, V.k
    if not (1 <= k and 2 * k <= n):
        raise ValueError(f"pipeline needs 1 <= k <= n/2, got n={n}, k={k}")
    _check_cert_depth(n, k, V.dim)
    if not self_annihilating(V):
        raise ValueError("subspace is not self-annihilating")

    def recheck(st: TraceStep, state: Subspace) -> None:
        if st.dim != V.dim:
            raise FalsificationError(f"dimension changed at step {st.step}: {V.dim} -> {st.dim}")
        if not self_annihilating(state):
            raise FalsificationError(f"self-annihilation lost at step {st.step}")

    result, trace = triangular_fixed_point(V, route=route, on_step=recheck)
    fam = result.monomial_basis()
    if not is_intersecting(fam):  # falsifies the limits: exit 2, where bad input exits 1
        raise FalsificationError("fixed-point support family is not intersecting")
    cert = _shifted_cert(n, k, fam.sets)
    bound = ekr_bound(n, k)
    certificate = {
        "route": route,
        "steps": [st.record() for st in trace],
        "family": [list(s) for s in fam.sets],
        "recursion": cert,
    }
    return VerifyReport(
        identifier=identifier or f"pipeline(n={n},k={k},dim={V.dim})",
        size=V.dim,
        bound=bound,
        satisfied=V.dim <= bound and cert["satisfied"],
        certificate=certificate,
        star_element=is_star(fam),
    )


def hilton_milner_verify(n: int, k: int, budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Check every non-star shifted intersecting family against the no-common-element
    bound by exhaustive enumeration; reports the maximum achieved and its witnesses.

    A family above the bound would falsify the theorem and raises
    FalsificationError."""
    bound = hm_bound(n, k)
    # A nonempty shifted family is a star iff every set holds 1: were v common
    # to all sets and 1 missing from some A, shifting v to 1 would put
    # A - v + 1, a set without v, in the family.  The sets holding 1 are the
    # first C(n-1, k-1) in lex order, so the stars (and the empty family) are
    # exactly the lex masks below 2^C(n-1, k-1): those of at most that many bits.
    star_bits = comb(n - 1, k - 1)
    enumerated = checked = max_size = 0
    witnesses: list[int] = []  # lex masks of the families of maximum size
    for lex in _walk(n, k, "shifted_intersecting", budget):
        enumerated += 1
        if lex.bit_length() <= star_bits:
            continue
        checked += 1
        size = lex.bit_count()
        if size > bound:
            raise FalsificationError(
                f"non-star shifted intersecting family of size {size} > bound {bound}: "
                f"{_mask_sets(n, k, lex)}"
            )
        if size > max_size:
            max_size, witnesses = size, [lex]
        elif size == max_size:
            witnesses.append(lex)
    return VerifyReport(
        identifier=f"hilton-milner(n={n},k={k})",
        size=max_size,
        bound=bound,
        satisfied=max_size <= bound,
        certificate={
            "enumerated": enumerated,
            "non_star_checked": checked,
            "max_size": max_size,
            "witness_count": len(witnesses),
            "witnesses": [[list(s) for s in _mask_sets(n, k, lex)] for lex in witnesses[:10]],
        },
    )
