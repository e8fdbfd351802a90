"""Linear factors, cofactor extraction and annihilators."""

import functools
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from wedgeshift import (
    BudgetExceededError,
    HomogeneityError,
    LinearMap,
    MonomialOrder,
    Multivector,
    apply_linear,
    common_annihilator,
    complement_pair_space,
    ekr_bound,
    extract_cofactor,
    factor_report,
    format_multivector,
    linear_factors,
    self_annihilating,
    span,
    wedge,
)
from oracles import apply_map, contains, intersect
from samplers import random_upper_triangular, star_family
from wedgeshift.sampling import random_invertible, random_multivector, random_rational


def monomial_span(n, k, sets):
    order = MonomialOrder("lex", n, k)
    return span([Multivector.monomial(n, s) for s in sets], order) if sets else span([], order)


class TestLinearFactors:
    def test_decomposable_monomial(self, mv):
        assert linear_factors(mv(4, "e1^e2")) == span([mv(4, "e1"), mv(4, "e2")])

    def test_indecomposable_sum(self, mv):
        assert linear_factors(mv(4, "e1^e2 + e3^e4")).is_zero

    def test_shared_factor(self, mv):
        V = linear_factors(mv(3, "e1^e2 + e1^e3"))
        assert V == span([mv(3, "e1"), mv(3, "e2 + e3")])

    def test_zero_input(self):
        with pytest.raises(ValueError, match="zero"):
            linear_factors(Multivector.zero(3))

    def test_inhomogeneous_input(self, mv):
        with pytest.raises(HomogeneityError):
            linear_factors(mv(3, "e1 + e1^e2"))

    def test_top_grade_everything_factors(self, mv):
        V = linear_factors(mv(3, "e1^e2^e3"))
        assert V.dim == 3

    def test_factor_dim_bounded_by_grade(self, rng):
        for _ in range(20):
            v = random_multivector(rng, 5, 2)
            assert linear_factors(v).dim <= 2

    def test_invariance(self, rng):
        for _ in range(10):
            v = random_multivector(rng, 4, 2)
            g = random_invertible(rng, 4)
            left = linear_factors(apply_linear(g, v))
            right = apply_map(linear_factors(v), lambda x: apply_linear(g, x))
            assert left == right


class TestExtractCofactor:
    def test_simple(self, mv):
        assert extract_cofactor(mv(3, "e1^e2"), mv(3, "e1")) == mv(3, "e2")

    def test_sign(self, mv):
        assert extract_cofactor(mv(3, "e1^e2"), mv(3, "e2")) == mv(3, "-e1")

    def test_shared(self, mv):
        assert extract_cofactor(mv(3, "e1^e2 + e1^e3"), mv(3, "e1")) == mv(3, "e2 + e3")

    def test_not_a_factor(self, mv):
        with pytest.raises(ValueError, match="not a factor"):
            extract_cofactor(mv(4, "e1^e2 + e3^e4"), mv(4, "e1"))

    def test_zero_factor_rejected(self, mv):
        with pytest.raises(ValueError):
            extract_cofactor(mv(3, "e1^e2"), Multivector.zero(3))

    def test_roundtrip(self, rng):
        trials = 0
        while trials < 60:
            n = rng.randint(2, 6)
            k = rng.randint(1, min(3, n))
            a = random_multivector(rng, n, 1)
            w = random_multivector(rng, n, k - 1) if k > 1 else Multivector(n, {(): 1})
            v = wedge(a, w)
            if v.is_zero:
                continue
            trials += 1
            assert contains(linear_factors(v), a)
            assert wedge(a, extract_cofactor(v, a)) == v

    def test_converse_every_factor_extracts(self, rng):
        for _ in range(30):
            v = random_multivector(rng, 5, 2)
            for a in linear_factors(v).rows:
                w = extract_cofactor(v, a)
                assert wedge(a, w) == v


def change_of_basis_cofactor(v, a):
    """Reference cofactor by a change of basis: g is the identity with column p
    (a's first nonzero index) replaced by a, inverted in closed form.  In g's
    basis every term of v carries e_p; strip it and map back by g."""
    n = v.n
    p = min(a.terms)[0]
    ap = a.terms[(p,)]
    g = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    g_inv = [row[:] for row in g]
    for r in range(n):
        g[r][p - 1] = a.terms.get((r + 1,), Fraction(0))
        g_inv[r][p - 1] = 1 / ap if r == p - 1 else -a.terms.get((r + 1,), Fraction(0)) / ap
    u = apply_linear(LinearMap(g_inv), v)
    stripped = {}
    for sup, c in u.terms.items():
        assert p in sup
        rest = tuple(x for x in sup if x != p)
        stripped[rest] = -c if sum(x < p for x in rest) % 2 else c
    return apply_linear(LinearMap(g), Multivector(n, stripped))


class TestContractionCofactor:
    def test_matches_change_of_basis(self):
        rng = random.Random(4040)
        pairs = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            k = rng.randint(1, min(4, n))
            v = functools.reduce(wedge, [random_multivector(rng, n, 1) for _ in range(k)])
            if v.is_zero:
                continue
            for a in linear_factors(v).rows:
                for b in (a, a.scale(random_rational(rng, nonzero=True))):
                    w = extract_cofactor(v, b)
                    ref = change_of_basis_cofactor(v, b)
                    assert w == ref and format_multivector(w) == format_multivector(ref)
                    p = min(b.terms)[0]
                    assert all(p not in sup for sup in w.terms)
                    pairs += 1
        assert pairs > 500


class TestDecomposability:
    def test_exhaustive_pair_sums_4_2(self):
        pool = list(itertools.combinations(range(1, 5), 2))
        for A, B in itertools.combinations(pool, 2):
            v = Multivector(4, {A: 1, B: 1})
            report = factor_report(v)
            overlap = len(set(A) & set(B))
            assert report.decomposable == (report.factor_dim == 2) == (overlap == 1)
            if report.decomposable:
                a, b = report.factor_space.rows
                product = wedge(a, b)
                # v is the wedge of any factor-space basis, up to a scalar
                ratio = next(iter(v.terms.values())) / next(iter(product.terms.values()))
                assert product.scale(ratio) == v


class TestCommonAnnihilator:
    def test_star_annihilated_by_center(self, mv):
        V = monomial_span(4, 2, star_family(4, 2, 1).sets)
        assert common_annihilator(V) == span([mv(4, "e1")])

    def test_disjoint_monomials(self, mv):
        V = monomial_span(4, 2, [(1, 2), (3, 4)])
        assert common_annihilator(V).is_zero

    def test_star_and_triangle_6_2(self, rng):
        star = monomial_span(6, 2, star_family(6, 2, 1).sets)
        triangle = monomial_span(6, 2, [(1, 2), (1, 3), (2, 3)])
        for V, dim in ((star, 1), (triangle, 0)):
            assert common_annihilator(V).dim == dim
            # an invertible upper-triangular image keeps the dimension
            for _ in range(3):
                g = random_upper_triangular(rng, 6)
                image = apply_map(V, lambda x: apply_linear(g, x))
                assert common_annihilator(image).dim == dim

    def test_zero_subspace_fully_annihilated(self):
        V = span([], MonomialOrder("lex", 4, 2))
        assert common_annihilator(V).dim == 4

    def test_matches_factor_intersection(self, rng):
        order = MonomialOrder("lex", 4, 2)
        from wedgeshift.sampling import random_subspace

        for _ in range(10):
            V = random_subspace(rng, order, 2)
            expected = intersect(linear_factors(V.rows[0]), linear_factors(V.rows[1]))
            assert common_annihilator(V) == expected


class TestComplementPairSpace:
    def test_guarantees_k3(self):
        V = complement_pair_space(3)
        assert V.n == 6 and V.dim == 10 == ekr_bound(6, 3)
        assert self_annihilating(V)
        assert all(linear_factors(r).dim == 0 for r in V.rows)
        assert common_annihilator(V).is_zero
        assert Multivector(6, {(1, 2, 3): 1, (4, 5, 6): 1}) in list(V.rows)

    @pytest.mark.slow
    def test_guarantees_k5(self):
        V = complement_pair_space(5)
        assert V.n == 10 and V.dim == ekr_bound(10, 5) == 126

    def test_rejects_bad_k(self):
        for bad in (1, 2, 4):
            with pytest.raises(ValueError):
                complement_pair_space(bad)

    @pytest.mark.parametrize("k", [7, 1001])
    def test_size_cap_before_allocation(self, k):
        # C(13, 6) * C(14, 7) = 5.9 M dense cells at k = 7 already pass the cap
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="size cap"):
                complement_pair_space(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

