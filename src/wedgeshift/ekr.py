"""Extremal bounds and end-to-end verification for intersecting families.

The shifted-family bound is certified by the deletion/link induction
(decompose at the top element, recurse on both parts, add the binomials);
general self-annihilating subspaces are handled by driving them to a shifted
monomial fixed point first and certifying the resulting family.  Desk-scale
enumeration backs the non-star bound check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

from .errors import FalsificationError
from .exterior import wedge
from .families import (
    DEFAULT_BUDGET,
    SetFamily,
    enumerate_families,
    family_decompose,
    is_intersecting,
    is_shifted,
    is_star,
)
from .limits import triangular_fixed_point
from .subspace import Subspace


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

    All multisets of rows are checked (the diagonal included, which is
    automatic for odd grade); by multilinearity this settles the condition
    for the whole subspace."""
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    for combo in itertools.combinations_with_replacement(V.rows, s):
        acc = combo[0]
        for x in combo[1:]:
            acc = wedge(acc, x)
            if acc.is_zero:
                break
        if not acc.is_zero:
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
    _, dele, link = family_decompose(SetFamily(n, k, sets), n)
    link = SetFamily(n - 1, k - 1, link.sets)
    dele = SetFamily(n - 1, k, dele.sets)
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

    Drives V to a fixed point of every decreasing shear limit, extracts the
    monomial support family, checks it shifted and intersecting, and certifies
    the size by the shifted induction.  Dimension and self-annihilation are
    re-verified after every applied step; any breakage raises
    FalsificationError since each is a certified invariant of the limits."""
    n, k = V.n, V.k
    if not (1 <= k and 2 * k <= n):
        raise ValueError(f"pipeline needs 1 <= k <= n/2, got n={n}, k={k}")
    if not self_annihilating(V):
        raise ValueError("subspace is not self-annihilating")
    result, trace = triangular_fixed_point(V, route=route)
    for st in trace:
        if st.dim != V.dim:
            raise FalsificationError(f"dimension changed at step {st.step}: {V.dim} -> {st.dim}")
        if not self_annihilating(st.state):
            raise FalsificationError(f"self-annihilation lost at step {st.step}")
    fam = result.monomial_basis()
    if fam is None:
        raise FalsificationError("fixed point lacks a monomial basis")
    if not is_shifted(fam):
        raise FalsificationError("fixed-point support family is not shifted")
    if not is_intersecting(fam):
        raise FalsificationError("fixed-point support family is not intersecting")
    sub = shifted_ekr_verify(fam)
    bound = ekr_bound(n, k)
    certificate = {
        "route": route,
        "steps": [st.record() for st in trace],
        "family": [list(s) for s in fam.sets],
        "recursion": sub.certificate,
    }
    return VerifyReport(
        identifier=identifier or f"pipeline(n={n},k={k},dim={V.dim})",
        size=V.dim,
        bound=bound,
        satisfied=V.dim <= bound and sub.satisfied,
        certificate=certificate,
        star_element=is_star(fam),
    )


def hilton_milner_verify(n: int, k: int, budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Check every non-star shifted intersecting family against the no-common-element
    bound by exhaustive enumeration; reports the maximum achieved and its witnesses.

    A family above the bound would falsify the theorem and raises
    FalsificationError."""
    bound = hm_bound(n, k)
    enumerated = 0
    checked = 0
    max_size = 0
    witnesses: list[list[list[int]]] = []
    for fam in enumerate_families(n, k, "shifted_intersecting", budget=budget):
        enumerated += 1
        # A nonempty shifted family is a star iff every set holds 1, which in
        # lex order is iff the last set starts with 1: were v common to all
        # sets and 1 missing from some A, shifting v to 1 would put
        # A - v + 1, a set without v, in the family.
        size = len(fam.sets)
        if size == 0 or fam.sets[-1][0] == 1:
            continue
        checked += 1
        if size > bound:
            raise FalsificationError(
                f"non-star shifted intersecting family of size {size} > bound {bound}: {fam.sets}"
            )
        if size > max_size:
            max_size = size
            witnesses = [[list(s) for s in fam.sets]]
        elif size == max_size:
            witnesses.append([list(s) for s in fam.sets])
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
            "witnesses": witnesses[:10],
        },
    )
