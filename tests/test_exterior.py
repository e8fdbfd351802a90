"""Multivectors, the wedge product, and extended matrix actions."""

import itertools
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

import wedgeshift.exterior as exterior

from wedgeshift import (
    GroundMismatchError,
    HomogeneityError,
    LinearMap,
    MonomialOrder,
    Multivector,
    ParseError,
    Subspace,
    apply_linear,
    format_multivector,
    merge_sign,
    parse_multivector,
    self_annihilating,
    wedge,
)
from wedgeshift.exterior import integer_terms, wedge_core
from oracles import parent_wedge, reference_self_annihilating
from linear_maps import compose, diagonal, identity, is_invertible, shear, weight_diagonal
from wedgeshift.sampling import (
    random_invertible,
    random_multivector,
    random_rational,
)


def e(n, i):
    return Multivector(n, {(i,): 1})


class TestWedge:
    def test_anticommutes_on_generators(self, mv):
        assert wedge(e(3, 2), e(3, 1)) == mv(3, "-e1^e2")

    def test_repeated_index_kills(self, mv):
        assert wedge(mv(3, "e1^e2"), mv(3, "e1^e3")).is_zero

    def test_even_grade_square_doubles(self, mv):
        v = mv(4, "e1^e2 + e3^e4")
        assert wedge(v, v) == mv(4, "2*e1^e2^e3^e4")

    def test_mismatched_ground_dimension(self, mv):
        with pytest.raises(GroundMismatchError):
            wedge(mv(3, "e1"), mv(4, "e1"))

    def test_graded_anticommutativity(self, rng):
        for _ in range(40):
            n = rng.randint(2, 5)
            p = rng.randint(1, min(3, n))
            q = rng.randint(1, min(3, n))
            x = random_multivector(rng, n, p)
            y = random_multivector(rng, n, q)
            lhs = wedge(x, y)
            rhs = wedge(y, x).scale((-1) ** (p * q))
            assert lhs == rhs

    def test_associativity(self, rng):
        for _ in range(30):
            n = rng.randint(3, 5)
            x = random_multivector(rng, n, rng.randint(1, 2))
            y = random_multivector(rng, n, rng.randint(1, 2))
            z = random_multivector(rng, n, 1)
            assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))

    def test_odd_grade_squares_vanish(self, rng):
        for _ in range(30):
            n = rng.randint(3, 6)
            k = rng.choice([g for g in (1, 3) if g <= n])
            x = random_multivector(rng, n, k)
            assert wedge(x, x).is_zero


def _pairwise_wedge(x, y):
    """Reference product: every pair of supports is tested for overlap and the
    Fraction products of the disjoint ones are added up one by one."""
    acc = {}
    for sx, cx in x.terms.items():
        for sy, cy in y.terms.items():
            if set(sx).intersection(sy):
                continue
            inversions = sum(1 for s in sx for t in sy if t < s)
            sup = tuple(sorted(sx + sy))
            c = acc.get(sup, Fraction(0)) + (-1) ** inversions * cx * cy
            if c == 0:
                acc.pop(sup, None)
            else:
                acc[sup] = c
    return acc


def _mixed(rng, n, grades, density):
    """Random rational combination of supports of the given grades (0 included)."""
    return Multivector(n, {
        s: random_rational(rng)
        for g in grades for s in itertools.combinations(range(1, n + 1), g)
        if rng.random() < density
    })


def _differential_cases(rng):
    for n in range(1, 9):
        grades = range(n + 1)
        for _ in range(6):
            x = _mixed(rng, n, rng.sample(grades, rng.randint(1, min(3, n + 1))), rng.random())
            y = _mixed(rng, n, rng.sample(grades, rng.randint(1, min(3, n + 1))), rng.random())
            yield x, y
        dense = _mixed(rng, n, [n // 2, (n + 1) // 2], 1.0)
        support = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        one = Multivector.monomial(n, support, random_rational(rng, nonzero=True))
        yield one, dense
        yield dense, one
        yield dense, dense
        yield Multivector.zero(n), dense
        yield dense, Multivector.zero(n)
        yield Multivector(n, {(): Fraction(-3, 7)}), dense
        integral = Multivector(n, {s: rng.randint(-3, 3) for s in dense.terms})
        yield integral, integral


class TestWedgeDifferential:
    def test_matches_pairwise_product(self, monkeypatch):
        calls = []
        real = exterior._partners

        def recording(n, sx, g):
            calls.append((sx, g))
            return real(n, sx, g)

        monkeypatch.setattr(exterior, "_partners", recording)
        rng = random.Random(4242)
        tables = walks = 0
        for x, y in _differential_cases(rng):
            calls.clear()
            product = wedge(x, y)
            assert dict(product.terms) == _pairwise_wedge(x, y), (x, y)
            assert all(type(c) is Fraction for c in product.terms.values())
            tables += len(calls)
            walks += len(x.terms) * len(y.grades()) - len(calls)
        assert tables > 0 and walks > 0

    def test_no_table_beyond_the_other_factor(self):
        n = 30
        v = Multivector(n, {tuple(range(2, 17)): 1, tuple(range(16, 31)): 2})
        tracemalloc.start()
        try:
            product = wedge(e(n, 1), v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert product == Multivector(n, {tuple(range(1, 17)): 1, (1,) + tuple(range(16, 31)): 2})


def _coefficients(st):
    return st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


def _multivectors(st, n, grades):
    supports = [s for g in grades for s in itertools.combinations(range(1, n + 1), g)]
    return st.lists(_coefficients(st), min_size=len(supports), max_size=len(supports)).map(
        lambda cs: Multivector(n, dict(zip(supports, cs)))
    )


def _given(strategy, check):
    hypothesis = pytest.importorskip("hypothesis")
    hypothesis.settings(max_examples=60, deadline=None, database=None)(
        hypothesis.given(strategy(hypothesis.strategies))(check)
    )()


class TestWedgeProperties:
    def test_associative(self):
        def cases(st):
            return st.integers(1, 6).flatmap(lambda n: st.tuples(
                *[_multivectors(st, n, range(n + 1)) for _ in range(3)]))

        def check(case):
            x, y, z = case
            assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))

        _given(cases, check)

    def test_graded_commutative(self):
        def cases(st):
            @st.composite
            def homogeneous_pair(draw):
                n = draw(st.integers(1, 6))
                p, q = draw(st.integers(0, n)), draw(st.integers(0, n))
                return p, q, draw(_multivectors(st, n, [p])), draw(_multivectors(st, n, [q]))

            return homogeneous_pair()

        def check(case):
            p, q, x, y = case
            assert wedge(x, y) == wedge(y, x).scale((-1) ** (p * q))

        _given(cases, check)

    def test_apply_linear_is_multiplicative(self):
        def cases(st):
            def shaped(n):
                entries = st.lists(st.lists(_coefficients(st), min_size=n, max_size=n),
                                   min_size=n, max_size=n).map(LinearMap)
                mv = _multivectors(st, n, range(n + 1))
                return st.tuples(entries, mv, mv)

            return st.integers(1, 6).flatmap(shaped)

        def check(case):
            g, x, y = case
            assert apply_linear(g, wedge(x, y)) == wedge(apply_linear(g, x), apply_linear(g, y))

        _given(cases, check)


# Large primes: coefficients over them have pairwise coprime denominators.
_PRIMES = (1009, 10007, 100003, 1000003, 10000019, 2**31 - 1, 2**61 - 1)


def _coprime(rng, n, grades, density):
    """Random combination whose denominators are large, distinct primes."""
    supports = [s for g in grades for s in itertools.combinations(range(1, n + 1), g)
                if rng.random() < density]
    primes = rng.sample(_PRIMES, min(len(supports), len(_PRIMES)))
    return Multivector(n, {
        s: Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**12), primes[i % len(primes)])
        for i, s in enumerate(supports)
    })


def _core_cases(rng):
    yield from _differential_cases(rng)
    for n in range(1, 8):
        grades = range(n + 1)
        for _ in range(8):
            x = _coprime(rng, n, rng.sample(grades, rng.randint(1, min(3, n + 1))), rng.random())
            y = _coprime(rng, n, rng.sample(grades, rng.randint(1, min(3, n + 1))), rng.random())
            yield x, y
            yield x, _mixed(rng, n, grades, 0.5)
        yield Multivector.zero(n), Multivector.zero(n)


class TestIntegerCore:
    def test_integer_terms_scale_by_the_common_denominator(self):
        x = Multivector(3, {(): Fraction(1, 6), (1,): Fraction(-3, 4), (1, 3): 2})
        assert integer_terms(x) == ({(): 2, (1,): -9, (1, 3): 24}, 12)
        assert integer_terms(Multivector.zero(3)) == ({}, 1)

    def test_core_drops_cancelled_terms(self):
        # (e1 + e2) ^ (e1 + e2): the two products of e1^e2 cancel
        v = {(1,): 1, (2,): 1}
        assert wedge_core(2, v, v) == {}
        assert wedge_core(3, {(): 5}, {(2,): -2}) == {(2,): -10}

    def test_matches_parent_wedge(self):
        rng = random.Random(1212)
        coprime = 0
        for x, y in _core_cases(rng):
            got, ref = wedge(x, y), parent_wedge(x, y)
            assert got == ref and format_multivector(got) == format_multivector(ref), (x, y)
            assert all(type(c) is Fraction for c in got.terms.values())
            coprime += any(c.denominator > 10**6 for c in got.terms.values())
        assert coprime > 50

    def test_many_factors_match_the_binary_chain(self):
        rng = random.Random(1313)
        cases = list(_core_cases(rng))
        triples = [(x, y, z) for (x, y), (z, _) in zip(cases, cases[1:]) if x.n == z.n]
        assert len(triples) > 100
        for x, y, z in triples:
            got, ref = wedge(x, y, z), parent_wedge(parent_wedge(x, y), z)
            assert got == ref and all(type(c) is Fraction for c in got.terms.values())
        with pytest.raises(GroundMismatchError):
            wedge(e(3, 1), e(3, 2), e(4, 3))


class TestSelfAnnihilatingDifferential:
    def test_matches_parent_wedge(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        outcomes = set()

        @st.composite
        def subspaces(draw):
            n = draw(st.integers(2, 6))
            k = draw(st.integers(1, n))
            kind = draw(st.sampled_from(("lex", "weight2")))
            supports = list(itertools.combinations(range(1, n + 1), k))
            if draw(st.booleans()):  # every product of such rows repeats e1
                supports = [s for s in supports if 1 in s]
            m = draw(st.integers(1, 6))
            # wide numerators of either sign make wide canonical rows, hence wide digits
            wide = st.builds(Fraction, st.integers(-2**128, 2**128), st.sampled_from([1, 3]))
            coefficients = st.one_of(_coefficients(st), wide)
            rows = draw(st.lists(st.lists(coefficients, min_size=len(supports),
                                          max_size=len(supports)), min_size=m, max_size=m))
            return Subspace(MonomialOrder(kind, n, k),
                            [Multivector(n, dict(zip(supports, row))) for row in rows])

        def monomials(*sets):
            return Subspace(MonomialOrder("lex", 6, 2), [Multivector.monomial(6, s) for s in sets])

        # explicit examples pin both outcomes; the drawn ones vary by run
        @hypothesis.settings(max_examples=80, deadline=None, database=None)
        @hypothesis.given(subspaces())
        @hypothesis.example(monomials((1, 2), (1, 3), (1, 4)))
        @hypothesis.example(monomials((1, 2), (3, 4), (5, 6)))
        def check(V):
            got = self_annihilating(V)
            assert got == reference_self_annihilating(V), V
            outcomes.add(got)

        check()
        assert outcomes == {True, False}

    def test_images_and_near_misses(self):
        """Images of intersecting monomial spans under invertible maps are
        self-annihilating.  Their near misses add +-e_T to one row, for
        every support T.  The maps have entries in -1..1, so the products
        of the canonical rows are small and, among the near misses, some
        cancel in a sum: what a packing of too few bits, or none, would
        read as zero.  Failures are not shrunk, to keep the mutant register
        fast."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def images(draw):
            # (6, 3) twice: its squares vanish, and sums that cancel unshifted turn up most there
            n, k = draw(st.sampled_from([(4, 2), (5, 2), (6, 3), (6, 3)]))
            supports = list(itertools.combinations(range(1, n + 1), k))
            family = []
            for s in draw(st.permutations(supports))[: draw(st.integers(1, 6))]:
                if all(set(s) & set(t) for t in family):
                    family.append(s)
            # a row permutation of a unit upper-triangular map: always invertible
            perm = draw(st.permutations(range(n)))
            upper = [[1 if r == c else draw(st.integers(-1, 1)) if r < c else 0 for c in range(n)]
                     for r in range(n)]
            g = LinearMap([upper[p] for p in perm])
            order = MonomialOrder(draw(st.sampled_from(("lex", "weight2"))), n, k)
            rows = [apply_linear(g, Multivector.monomial(n, s)) for s in family]
            return order, rows, draw(st.integers(0, len(rows) - 1))

        outcomes = set()

        def compare(V, near):
            got = self_annihilating(V)
            assert got == reference_self_annihilating(V), V
            assert got or near, V
            outcomes.add((near, got))

        @hypothesis.settings(max_examples=80, deadline=None, database=None, derandomize=True,
                             phases=[hypothesis.Phase.generate])
        @hypothesis.given(images())
        def check(case):
            order, rows, i = case
            compare(Subspace(order, rows), False)
            for sup in itertools.combinations(range(1, order.n + 1), order.k):
                for c in (-1, 1):
                    bumped = rows[i] + Multivector(order.n, {sup: c})
                    compare(Subspace(order, rows[:i] + [bumped] + rows[i + 1:]), True)

        check()
        assert outcomes == {(False, True), (True, True), (True, False)}


class TestApplyLinear:
    def test_identity(self, rng):
        g = identity(4)
        for _ in range(5):
            x = random_multivector(rng, 4, rng.randint(1, 3))
            assert apply_linear(g, x) == x

    def test_shear_on_monomial(self, mv):
        g = shear(3, 2, 1, 1)
        assert apply_linear(g, mv(3, "e2^e3")) == mv(3, "e1^e3 + e2^e3")

    def test_diagonal_scaling(self, mv):
        g = diagonal([2, 1, 1])
        assert apply_linear(g, mv(3, "e1^e2")) == mv(3, "2*e1^e2")

    def test_multiplicative_over_wedge(self, rng):
        for _ in range(15):
            n = rng.randint(3, 5)
            g = random_invertible(rng, n)
            x = random_multivector(rng, n, rng.randint(1, 2))
            y = random_multivector(rng, n, rng.randint(1, 2))
            assert apply_linear(g, wedge(x, y)) == wedge(apply_linear(g, x), apply_linear(g, y))

    def test_composition(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            g = random_invertible(rng, n)
            h = random_invertible(rng, n)
            x = random_multivector(rng, n, rng.randint(1, n))
            assert apply_linear(compose(g, h), x) == apply_linear(g, apply_linear(h, x))

    def test_mismatched_n(self, mv):
        with pytest.raises(GroundMismatchError):
            apply_linear(identity(3), mv(4, "e1"))


class TestMultivector:
    def test_zero_coefficients_dropped(self):
        x = Multivector(3, {(1, 2): 1, (2, 3): 0})
        assert list(x.terms) == [(1, 2)]

    def test_grades_and_homogeneity(self, mv):
        x = mv(4, "e1 + e1^e2")
        assert x.grades() == frozenset({1, 2})
        assert not x.is_homogeneous
        with pytest.raises(HomogeneityError):
            x.grade
        assert mv(4, "0").grade is None

    def test_unsorted_support_rejected(self):
        with pytest.raises(ValueError):
            Multivector(3, {(2, 1): 1})

    def test_out_of_range_support(self):
        with pytest.raises(ValueError):
            Multivector(3, {(1, 4): 1})

    def test_merge_sign(self):
        assert merge_sign((2,), (1,)) == -1
        assert merge_sign((1, 2), (3, 4)) == 1
        assert merge_sign((3, 4), (1, 2)) == 1


class TestLinearMapPredicates:
    def test_shear_is_unipotent(self):
        g = shear(4, 3, 1, 5)
        assert is_invertible(g)
        assert compose(g, shear(4, 3, 1, -5)) == identity(4)

    def test_diagonal(self):
        assert is_invertible(diagonal([1, 2, 3]))
        assert not is_invertible(diagonal([1, 0, 3]))

    def test_weight_diagonal_entries(self):
        g = weight_diagonal(3, 2)
        assert g.entries[0][0] == Fraction(1, 4)
        assert g.entries[1][1] == Fraction(1, 16)
        assert g.entries[2][2] == Fraction(1, 256)


class TestTextForm:
    def test_spec_shape(self, mv):
        x = mv(6, "e1^e2^e3 - 1/2*e4^e5^e6")
        assert format_multivector(x) == "e1^e2^e3 - 1/2*e4^e5^e6"

    def test_roundtrip(self, rng):
        for _ in range(40):
            n = rng.randint(2, 6)
            x = random_multivector(rng, n, rng.randint(1, min(3, n)), nonzero=False)
            assert parse_multivector(format_multivector(x), n) == x

    def test_zero(self):
        assert format_multivector(Multivector.zero(3)) == "0"
        assert parse_multivector("0", 3).is_zero

    def test_unsorted_input_normalized(self, mv):
        assert parse_multivector("e2^e1", 3) == mv(3, "-e1^e2")

    def test_parse_errors(self):
        for bad in ["", "e1^e1", "e1 %", "x3", "2**e1", "e1^", "e9", "1/0",
                    "\u0663*e1", "e\u0661", "2\n*e1"]:
            with pytest.raises(ParseError):
                parse_multivector(bad, 4)

    def test_scalar_term(self):
        x = parse_multivector("3/2", 3)
        assert x.terms == {(): Fraction(3, 2)}
        assert format_multivector(x) == "3/2"


class TestFloatsRejected:
    def test_multivector(self):
        with pytest.raises(TypeError, match="float"):
            Multivector(2, {(1,): 0.1})

    def test_linear_map(self):
        with pytest.raises(TypeError, match="float"):
            LinearMap([[1, 0], [0.5, 1]])
        with pytest.raises(TypeError, match="float"):
            shear(2, 1, 2, 0.5)

    def test_exact_values_still_accepted(self):
        assert Multivector(2, {(1,): Fraction(1, 10)}).terms == {(1,): Fraction(1, 10)}
        assert LinearMap([[1, 0], [Fraction(1, 2), 1]]).entries[1][0] == Fraction(1, 2)


class TestExactTypesOnly:
    """An exact coefficient is an int or a Fraction.  Fraction() also reads a
    str, a bool or a Decimal; each is refused with its type named."""

    BAD = ["3/4", True, Decimal("0.1")]

    @pytest.mark.parametrize("bad", BAD)
    def test_multivector(self, bad):
        with pytest.raises(TypeError, match=type(bad).__name__):
            Multivector(2, {(1,): bad})

    @pytest.mark.parametrize("bad", BAD)
    def test_linear_map(self, bad):
        with pytest.raises(TypeError, match=type(bad).__name__):
            LinearMap([[1, 0], [bad, 1]])

    @pytest.mark.parametrize("bad", BAD)
    def test_subspace_term_map(self, bad):
        # used to build e1 + 4/3*e2 from {(1,): "3/4", (2,): True}
        with pytest.raises(TypeError, match=type(bad).__name__):
            Subspace(MonomialOrder("lex", 3, 1), [{(1,): 1, (2,): bad}])


class TestScalarContract:
    def test_fraction_invariants(self, rng):
        from math import gcd

        for _ in range(50):
            c = random_rational(rng) + random_rational(rng) * random_rational(rng)
            assert c.denominator > 0
            assert gcd(abs(c.numerator), c.denominator) == 1
        assert Fraction(0) == Fraction(0, 1)
        assert (Fraction(0)).denominator == 1

    def test_exact_field_axioms(self, rng):
        for _ in range(30):
            a, b, c = (random_rational(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            if a != 0:
                assert a * (1 / a) == 1
