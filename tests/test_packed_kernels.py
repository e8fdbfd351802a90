"""The packed kernels against unpacked references kept here.

``pluecker_limit`` substitutes t = 2^L and chains the rows in integer wedges;
``self_annihilating`` packs the rows from the first one in place;
``factor._annihilator`` builds every column in one pass per vector.  Each is
checked against a plain, unpacked loop written out in this file, and on
fixed cases where too narrow a packing, an unrounded digit read or a dropped
diagonal pair gives a wrong answer.  ``random_subspace`` is checked to draw
what the checked constructor draws.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from wedgeshift import (
    MonomialOrder,
    Multivector,
    Subspace,
    decreasing_pairs,
    limit_shift,
    pluecker_limit,
    self_annihilating,
)
from wedgeshift.exterior import wedge_core
from wedgeshift.factor import _annihilator
from wedgeshift.limits import _replaced
from wedgeshift.linalg import column_kernel
from wedgeshift.sampling import random_rational, random_subspace
from wedgeshift.subspace import _lift, _pluecker_vector


def reference_pluecker_limit(V, p):
    """The coefficient of the top power of t in the wedge of the rows
    r + t*x, one term map per power of t, one wedge per power and row."""
    m = V.dim
    rows = list(V._rows)
    columns, lifted = _lift(V.order, rows + [_replaced(r, p.i, p.j) for r in rows])
    by_degree = [{(): 1}]
    for rs, xs in zip(lifted[:m], lifted[m:]):
        step = [wedge_core(len(columns), same, rs) for same in by_degree] + [{}]
        for deg, lower in enumerate(by_degree, 1):
            for sup, v in wedge_core(len(columns), lower, xs).items():
                step[deg][sup] = step[deg].get(sup, 0) + v
        by_degree = [{sup: v for sup, v in c.items() if v} for c in step]
    top = max(deg for deg, c in enumerate(by_degree) if c)
    return _pluecker_vector(V.order, columns, by_degree[top])


def reference_self_annihilating(V, s):
    """Every s-fold product of integer rows, each taken in full, unpacked."""
    for combo in itertools.combinations_with_replacement(V._rows, s):
        acc = combo[0]
        for x in combo[1:]:
            acc = wedge_core(V.n, acc, x)
        if acc:
            return False
    return True


def reference_annihilator(n, vectors):
    """One wedge_core call per column e_i and vector v."""
    columns = []
    for i in range(1, n + 1):
        col = {}
        for pos, v in enumerate(vectors):
            for sup, c in wedge_core(n, {(i,): 1}, v).items():
                col[(pos, sup)] = c
        columns.append(col)
    kernel = [{(i + 1,): c for i, c in enumerate(vec) if c} for vec in column_kernel(columns)]
    return Subspace._trusted(MonomialOrder("lex", n, 1), kernel)


def scaled(V, shifts):
    """V's rows, row i times 2^shifts[i]: the same span, not in its
    canonical integer form, which only a projective answer can ignore."""
    W = object.__new__(Subspace)
    W.order = V.order
    W._rows = tuple({s: c << e for s, c in row.items()} for row, e in zip(V._rows, shifts))
    return W


def lex(n, k, *rows):
    return Subspace(MonomialOrder("lex", n, k), [Multivector(n, r) for r in rows])


class TestPlueckerLimitKnown:
    """Fixed limits, read off by hand from the rows r + t*x."""

    def test_low_digit_below_zero_rounds_away(self):
        # r = e1 - e2 + e3, pair (3, 2): x = e2, so the e2 coordinate is
        # t - 1, whose top digit 1 has a negative digit below it
        V = lex(3, 1, {(1,): 1, (2,): -1, (3,): 1})
        assert pluecker_limit(V, (3, 2)).items == ((((2,),), Fraction(1)),)

    def test_top_coefficients_of_either_sign(self):
        # rows e1 + 2e3 - 3e4 and e2 + e3 + e4, pair (4, 3): the images are
        # -3e3 and e3, and the wedge of the lifted rows has e1^e3 at t + 1,
        # e2^e3 at 3t - 2, and no t elsewhere
        V = lex(4, 1, {(1,): 1, (3,): 2, (4,): -3}, {(2,): 1, (3,): 1, (4,): 1})
        got = pluecker_limit(V, (4, 3))
        assert got.items == ((((1,), (3,)), Fraction(1)), (((2,), (3,)), Fraction(3)))
        assert got == limit_shift(V, (4, 3)).pluecker()

    def test_carries_need_wide_digits(self):
        # complement pairs at n = 6: most coordinates of the wedge are
        # polynomials in t with two or more nonzero coefficients, which
        # digits of one bit cannot hold apart
        V = lex(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1}, {(1, 2, 4): 1, (3, 5, 6): 1},
                {(1, 2, 5): 1, (3, 4, 6): -1})
        for p in decreasing_pairs(6):
            assert pluecker_limit(V, p) == limit_shift(V, p).pluecker(), p

    def test_scaled_rows_give_the_same_limit(self):
        V = lex(4, 2, {(1, 2): 3, (1, 4): 2, (3, 4): -5}, {(1, 3): 1, (2, 4): -1})
        W = scaled(V, [200, 3])
        for p in decreasing_pairs(4):
            assert pluecker_limit(W, p) == pluecker_limit(V, p) == reference_pluecker_limit(W, p)


class TestSelfAnnihilatingKnown:
    @pytest.mark.parametrize("kind", ["lex", "weight2"])
    def test_sum_that_cancels_in_narrow_digits(self, kind):
        # the only nonzero products are r1 ^ r3 = 2 e1^e2^e3^e4 and
        # r2 ^ r3 = -e1^e2^e3^e4; with one-bit digits the last packed
        # product, r3 ^ (r1 + 2 r2 + 4 r3), adds them up to zero
        rows = [{(1, 2): 3, (1, 4): 2}, {(1, 3): 1, (1, 4): -1}, {(2, 3): 1}]
        V = Subspace(MonomialOrder(kind, 4, 2), [Multivector(4, r) for r in rows])
        assert [dict(r) for r in V._rows] == rows
        assert not reference_self_annihilating(V, 2)
        assert not self_annihilating(V)

    @pytest.mark.parametrize("s", [2, 3])
    def test_only_the_diagonal_is_nonzero(self, s):
        # one row, so every product is a power of it: u = e1^e2 + e3^e4 +
        # e5^e6 has u^u = 2(e1^e2^e3^e4 + e1^e2^e5^e6 + e3^e4^e5^e6) and
        # u^u^u = 6 e1^...^e6; all products of e1^e2 and e1^e3 repeat e1
        u = {(1, 2): 1, (3, 4): 1, (5, 6): 1}
        assert not self_annihilating(lex(6, 2, u), s)
        assert self_annihilating(lex(6, 2, {(1, 2): 1}, {(1, 3): 1}), s)


def _subspaces(st, max_k, max_m, wide):
    """Subspaces of grade k <= max_k over n <= 6, dimension <= max_m, in
    either order, with small coefficients or, when ``wide``, some of up to
    200 bits."""
    small = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4)])
    big = st.builds(Fraction, st.integers(-2**200, 2**200), st.sampled_from([1, 3, 2**100 + 1]))
    coefficients = st.one_of(small, big) if wide else small

    @st.composite
    def draw_subspace(draw):
        n = draw(st.integers(2, 6))
        k = draw(st.integers(1, min(max_k, n - 1)))
        supports = list(itertools.combinations(range(1, n + 1), k))
        m = draw(st.integers(1, min(max_m, len(supports))))
        rows = draw(st.lists(st.lists(coefficients, min_size=len(supports), max_size=len(supports)),
                             min_size=m, max_size=m))
        order = MonomialOrder(draw(st.sampled_from(("lex", "weight2"))), n, k)
        return Subspace(order, [Multivector(n, dict(zip(supports, row))) for row in rows])

    return draw_subspace()


class TestPackedDifferential:
    def test_pluecker_limit_matches_the_per_degree_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(_subspaces(st, 3, 4, wide=True), st.data())
        def check(V, data):
            hypothesis.assume(V.dim)
            p = data.draw(st.sampled_from(decreasing_pairs(V.n)))
            expected = reference_pluecker_limit(V, p)
            assert pluecker_limit(V, p) == expected, (V, p)
            shifts = data.draw(st.lists(st.sampled_from([0, 1, 200]), min_size=V.dim, max_size=V.dim))
            assert pluecker_limit(scaled(V, shifts), p) == expected, (V, p, shifts)

        check()

    def test_self_annihilating_matches_unpacked_products(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        outcomes = set()

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(_subspaces(st, 3, 5, wide=True))
        @hypothesis.example(lex(4, 2, {(1, 2): 3, (1, 4): 2}, {(1, 3): 1, (1, 4): -1}, {(2, 3): 1}))
        @hypothesis.example(lex(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1}))
        @hypothesis.example(lex(6, 3, {(1, 2, 3): 1}, {(1, 4, 5): 1}, {(1, 2, 6): -2}))
        def check(V):
            for s in (2, 3):
                got = self_annihilating(V, s)
                assert got == reference_self_annihilating(V, s), (V, s)
                outcomes.add((s, got))

        check()
        assert outcomes == {(2, True), (2, False), (3, True), (3, False)}

    def test_annihilator_matches_per_column_wedges(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def vector_lists(draw):
            n = draw(st.integers(1, 6))
            grades = st.integers(0, n)
            supports = st.lists(st.integers(1, n), unique=True).map(lambda s: tuple(sorted(s)))
            vectors = draw(st.lists(st.dictionaries(supports, st.integers(-5, 5).filter(bool), max_size=6),
                                    max_size=3))
            for _ in range(draw(st.integers(0, 1))):  # a whole grade, 0 and n included
                g = draw(grades)
                vectors.append({s: 1 for s in itertools.combinations(range(1, n + 1), g)})
            return n, vectors

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(vector_lists())
        @hypothesis.example((5, [{(1, 2): 1, (3, 4): 1}, {(1, 3): 2}]))
        @hypothesis.example((4, [{(1, 2): 1}, {(1, 2): 1, (1, 3): 1}]))  # one support, two vectors
        def check(case):
            n, vectors = case
            assert _annihilator(n, vectors) == reference_annihilator(n, vectors), case

        check()

    @pytest.mark.parametrize("n, vectors, dim", [
        (4, [], 4), (4, [{(): 3}], 0), (4, [{(1, 2, 3, 4): -1}], 4), (4, [{(1, 2): 1}], 2),
    ])
    def test_annihilator_edges(self, n, vectors, dim):
        assert _annihilator(n, vectors).dim == dim
        assert _annihilator(n, vectors) == reference_annihilator(n, vectors)


def replica_random_subspace(rng, order, m, attempts=100):
    """The draws of sampling.random_subspace, spanned by the checked
    constructor from checked Multivectors."""
    supports = list(itertools.combinations(range(1, order.n + 1), order.k))
    for _ in range(attempts):
        vecs = []
        for _ in range(m):
            terms = {}
            for s in supports:
                if rng.random() < 0.5:
                    c = random_rational(rng)
                    if c:
                        terms[s] = c
            if not terms:
                terms[rng.choice(supports)] = random_rational(rng, nonzero=True)
            vecs.append(Multivector(order.n, terms))
        V = Subspace(order, vecs)
        if V.dim == m:
            return V
    raise RuntimeError("no subspace")


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_random_subspace_draws_what_the_checked_constructor_draws(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for kind in ("lex", "weight2"):
        for n, k in [(4, 2), (5, 2), (6, 3), (4, 4)]:
            order = MonomialOrder(kind, n, k)
            for m in range(1, min(4, comb(n, k)) + 1):
                got = random_subspace(ours, order, m)
                assert got._rows == replica_random_subspace(theirs, order, m)._rows
                assert ours.getstate() == theirs.getstate()
