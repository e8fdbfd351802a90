"""Both Plücker layers against maximal minors taken by sympy, not by wedge."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from wedgeshift import (
    MonomialOrder,
    Multivector,
    decreasing_pairs,
    limit_shift,
    pluecker_limit,
    span,
)
from linear_maps import shift_map
from wedgeshift.sampling import random_subspace

sympy = pytest.importorskip("sympy")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
t = sympy.Symbol("t")

SHAPES = [(4, 2), (5, 2), (5, 3)]


def dense(row, supports):
    return [sympy.Rational(c.numerator, c.denominator) for c in (row.terms.get(s, Fraction(0)) for s in supports)]


def normalized(order, values):
    """Nonzero minors keyed by their supports, in position order, scaled so
    the first one is 1; ``values`` yields (column positions, minor)."""
    supports = sorted(itertools.combinations(range(1, order.n + 1), order.k), key=order.key)
    items = [(tuple(supports[c] for c in cols), v) for cols, v in values if v != 0]
    lead = items[0][1]
    return tuple((key, Fraction(str(v / lead))) for key, v in items)


def minors(matrix):
    """Every maximal minor of a sympy matrix, by increasing column positions.
    The determinants run over the matrix's own polynomial domain (QQ or
    QQ[t]), which is much faster than symbolic expressions."""
    m, ncols = matrix.shape
    dm = DomainMatrix.from_Matrix(matrix)
    for cols in itertools.combinations(range(ncols), m):
        yield cols, dm.domain.to_sympy(dm.extract(list(range(m)), list(cols)).det())


def subspaces(rng):
    for kind in ("lex", "weight2"):
        for n, k in SHAPES:
            order = MonomialOrder(kind, n, k)
            for m in (1, 2, 3):
                yield random_subspace(rng, order, m)


@pytest.mark.parametrize("seed", [1, 2])
def test_pluecker_is_sympy_minors(seed):
    for V in subspaces(random.Random(seed)):
        supports = sorted(itertools.combinations(range(1, V.n + 1), V.k), key=V.order.key)
        matrix = sympy.Matrix([dense(r, supports) for r in V.rows])
        assert V.pluecker().items == normalized(V.order, minors(matrix)), V


def test_pluecker_limit_is_leading_sympy_coefficients():
    # three seeded pairs per subspace keep the sympy minors under a second
    rng = random.Random(3)
    for V in subspaces(rng):
        supports = sorted(itertools.combinations(range(1, V.n + 1), V.k), key=V.order.key)
        for p in rng.sample(decreasing_pairs(V.n), 3):
            matrix = sympy.Matrix([
                [a + t * b for a, b in zip(dense(r, supports), dense(shift_map(r, p), supports))]
                for r in V.rows
            ])
            polys = [(cols, sympy.Poly(d, t)) for cols, d in minors(matrix) if d != 0]
            top = max(q.degree() for _, q in polys)
            leading = [(cols, q.coeff_monomial(t**top)) for cols, q in polys]
            expected = normalized(V.order, leading)
            assert pluecker_limit(V, p).items == expected, (V, p)
            assert limit_shift(V, p).pluecker().items == expected, (V, p)


def test_no_support_table_at_20_10():
    # C(20, 10) = 184,756 coordinates pass the size cap at m = 1
    V = span([Multivector.monomial(20, range(1, 11))])
    tracemalloc.start()
    try:
        P = V.pluecker()
        Q = pluecker_limit(V, (10, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert P.items == (((tuple(range(1, 11)),), 1),)
    assert Q.items == (((tuple(range(1, 10)) + (11,),), 1),)
