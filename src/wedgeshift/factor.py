"""Linear-factor and annihilator analysis in the exterior algebra.

A grade-one element a is a linear factor of v exactly when a wedge v
vanishes, so factor spaces are kernels of explicit multiplication matrices
and the cofactor of a factor a is v contracted by the dual of the first
basis vector at which a is nonzero.  On top of that sit the common
annihilator of a subspace and the complement-pair construction of a
factor-free self-annihilating space of maximal dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

from .errors import BudgetExceededError, FalsificationError, HomogeneityError
from .exterior import Multivector, Support, integer_terms, wedge, wedge_core
from .ekr import self_annihilating
from .families import _SIZE_CAP
from .linalg import column_kernel
from .subspace import MonomialOrder, Subspace, span


def _annihilator(n: int, vectors: Sequence[Mapping[Support, int]]) -> Subspace:
    """Grade-one elements a with a wedge v = 0 for every given integer term
    map v: the kernel of the columns e_i -> (e_i wedge v for each v), keyed
    by (position of v, support), held as integer wedges.  The kernel's
    integer vectors span the result.  No vectors, or grade n, leave every
    column empty and the whole space."""
    columns = []
    for i in range(1, n + 1):
        e = {(i,): 1}
        col: dict = {}
        for pos, v in enumerate(vectors):
            for sup, c in wedge_core(n, e, v).items():
                col[(pos, sup)] = c
        columns.append(col)
    kernel = [{(i + 1,): c for i, c in enumerate(vec) if c} for vec in column_kernel(columns)]
    return Subspace._trusted(MonomialOrder("lex", n, 1), kernel)


def linear_factors(v: Multivector) -> Subspace:
    """Grade-one kernel of wedging with v: the space of linear factors of v.

    For nonzero homogeneous v of grade k this is the nullspace of the map
    a -> a wedge v into grade k+1; its dimension is at most k, with equality
    exactly when v is a wedge of grade-one elements."""
    if v.is_zero:
        raise ValueError("zero multivector: every grade-one element is a factor")
    if not v.is_homogeneous:
        raise HomogeneityError("linear factors need a homogeneous multivector")
    return _annihilator(v.n, [integer_terms(v)[0]])


def extract_cofactor(v: Multivector, a: Multivector) -> Multivector:
    """Constructive factorization: returns w with a wedge w = v, given a wedge v = 0.

    With p the first index where a_p is nonzero, w is the contraction of v by
    the dual basis vector e_p*, divided by a_p: the unique cofactor with no
    e_p term.  Each term of v whose support holds p loses it, with the sign
    of p's position in the support; the other terms contribute nothing."""
    if a.is_zero:
        raise ValueError("zero is not a valid factor")
    if a.grades() != frozenset({1}):
        raise HomogeneityError("factor must be homogeneous of grade one")
    if v.is_zero or not v.is_homogeneous:
        raise HomogeneityError("cofactor extraction needs nonzero homogeneous input")
    if not wedge(a, v).is_zero:
        raise ValueError("not a factor: a wedge v is nonzero")
    (p,) = min(a.terms)
    ap = a.terms[(p,)]
    contracted: dict[tuple[int, ...], Fraction] = {}
    for sup, c in v.terms.items():
        if p in sup:
            at = sup.index(p)
            contracted[sup[:at] + sup[at + 1:]] = (-c if at % 2 else c) / ap
    w = Multivector._trusted(v.n, contracted)
    if wedge(a, w) != v:
        raise FalsificationError("cofactor failed to wedge back to the input")
    return w


def common_annihilator(V: Subspace) -> Subspace:
    """Grade-one elements wedging every canonical row to zero.

    Equals the space of common linear factors of V; the zero subspace is
    annihilated by everything."""
    return _annihilator(V.n, V._rows)


@dataclass
class FactorReport:
    """Factor-space summary for one multivector."""

    identifier: str
    factor_space: Subspace
    factor_dim: int
    decomposable: bool
    cofactors: tuple[Multivector, ...]

    def record(self) -> dict:
        return {
            "identifier": self.identifier,
            "factor_dim": self.factor_dim,
            "decomposable": self.decomposable,
            "factors": [str(r) for r in self.factor_space.rows],
            "cofactors": [str(w) for w in self.cofactors],
        }


def factor_report(v: Multivector, identifier: str = "") -> FactorReport:
    """Assemble the factor space of v with one cofactor witness per basis factor."""
    space = linear_factors(v)
    cofactors = tuple(extract_cofactor(v, a) for a in space.rows)
    return FactorReport(
        identifier=identifier or str(v),
        factor_space=space,
        factor_dim=space.dim,
        decomposable=space.dim == v.grade,
        cofactors=cofactors,
    )


def complement_pair_space(k: int) -> Subspace:
    """Self-annihilating span of monomial-plus-complement pairs on 2k indices.

    For odd k >= 3 the k-sets containing 1 pair with their complements; the
    span has the maximal dimension C(2k-1, k-1), yet no spanning element has
    any linear factor and the common annihilator is zero.  The construction
    re-verifies all four guarantees before returning."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"construction needs odd k >= 3, got {k}")
    if comb(2 * k - 1, k - 1) * comb(2 * k, k) > _SIZE_CAP:
        raise BudgetExceededError(f"complement-pair space at k={k} exceeds the dense size cap")
    n = 2 * k
    ground = set(range(1, n + 1))
    rows = []
    for combo in itertools.combinations(range(2, n + 1), k - 1):
        a = tuple(sorted((1,) + combo))
        ac = tuple(sorted(ground - set(a)))
        rows.append(Multivector(n, {a: 1, ac: 1}))
    V = span(rows, MonomialOrder("lex", n, k))
    if V.dim != comb(n - 1, k - 1):
        raise FalsificationError(f"complement-pair span has dimension {V.dim}")
    if not self_annihilating(V):
        raise FalsificationError("complement-pair span is not self-annihilating")
    for r in V.rows:  # equal to the built rows: each pivot is the row's 1-containing set
        if linear_factors(r).dim != 0:
            raise FalsificationError(f"spanning element {r} has a linear factor")
    if common_annihilator(V).dim != 0:
        raise FalsificationError("complement-pair span has a nonzero common annihilator")
    return V

