"""Canonical subspaces, their calculus, and the Plücker embedding."""

import contextlib
import functools
import io
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from linear_maps import diagonal, is_invertible, shear, shift_map
from oracles import apply_map, intersect
from wedgeshift import (
    BudgetExceededError,
    GroundMismatchError,
    HomogeneityError,
    LinearMap,
    MonomialOrder,
    Multivector,
    SetFamily,
    Subspace,
    apply_linear,
    limit_shift,
    span,
    wedge,
)
import wedgeshift.subspace as subspace
from wedgeshift.cli import main
from wedgeshift.ekr import ekr_pipeline
from wedgeshift.exterior import integer_terms
from wedgeshift.factor import _annihilator, common_annihilator, linear_factors
from wedgeshift.limits import decreasing_pairs, initial_subspace, pluecker_limit
from wedgeshift.linalg import reduce_row
from wedgeshift.serialize import subspace_from_record, subspace_record
from wedgeshift.sampling import (
    random_multivector,
    random_rational,
    random_subspace,
)


class TestSpan:
    def test_scaled_duplicates_collapse(self, mv):
        V = span([mv(3, "e1^e2"), mv(3, "2*e1^e2")])
        assert V.dim == 1 and V.rows == (mv(3, "e1^e2"),)

    def test_one_elimination_step(self, mv):
        V = span([mv(3, "e1^e2 + e2^e3"), mv(3, "e2^e3")])
        assert V.rows == (mv(3, "e1^e2"), mv(3, "e2^e3"))

    def test_empty(self):
        V = span([], MonomialOrder("lex", 3, 2))
        assert V.dim == 0 and V.is_zero

    def test_empty_needs_order(self):
        with pytest.raises(ValueError):
            span([])

    def test_inhomogeneous_rejected(self, mv):
        with pytest.raises(HomogeneityError):
            span([mv(3, "e1 + e1^e2")])

    def test_mixed_grades_rejected(self, mv):
        with pytest.raises(HomogeneityError):
            span([mv(3, "e1"), mv(3, "e1^e2")])

    def test_mixed_n_rejected(self, mv):
        with pytest.raises(GroundMismatchError):
            span([mv(4, "e1^e2")], MonomialOrder("lex", 3, 2))

    def test_canonical_idempotence(self, rng):
        for _ in range(20):
            order = MonomialOrder("lex", 4, 2)
            V = random_subspace(rng, order, rng.randint(1, 3))
            assert span(list(V.rows), order) == V

    def test_pivots_strictly_increasing(self, rng):
        order = MonomialOrder("lex", 5, 2)
        for _ in range(10):
            V = random_subspace(rng, order, 3)
            idx = [order.key(p) for p in V.pivots()]
            assert idx == sorted(idx)
            for row, piv in zip(V.rows, V.pivots()):
                assert row.terms[piv] == 1
                for other in V.rows:
                    if other is not row:
                        assert piv not in other.terms


class TestCheckedDoor:
    """The public constructor checks raw term maps as Multivector does; the
    package's own callers go through Subspace._trusted and skip the checks."""

    ORDER = MonomialOrder("lex", 4, 2)

    @pytest.mark.parametrize("bad, error", [
        ({(1, 9): 1}, ValueError),  # out of range: used to print as e1^e9
        ({(2, 1): 1}, ValueError),  # unsorted: used to print as e2^e1
        ({(1, 2, 3): 1}, HomogeneityError),  # grade 3: used to be taken at grade 2
        ({(1, 2): 0.5}, TypeError),  # a float: used to end in an AttributeError
    ])
    def test_bad_maps_rejected(self, bad, error):
        with pytest.raises(error):
            Subspace(self.ORDER, [{(1, 2): 1}, bad])

    def test_maps_span_as_multivectors(self):
        maps = [{(1, 2): 2, (3, 4): Fraction(-1, 3)}, {(1, 3): 1, (1, 2): 4}, {}]
        V = Subspace(self.ORDER, maps)
        assert V == Subspace(self.ORDER, [Multivector(4, m) for m in maps])
        # _trusted takes integer maps: the first one times 3 has the same span
        integer_maps = [{(1, 2): 6, (3, 4): -1}, maps[1], {}]
        assert V == Subspace._trusted(self.ORDER, integer_maps) and V.dim == 2

    def test_package_callers_skip_the_checks(self, monkeypatch):
        V = span([Multivector(5, {(1, 2): 1, (3, 4): 2}), Multivector(5, {(1, 3): 1, (2, 5): -1})])
        record = subspace_record(V)
        W = span([Multivector(5, {(2, 3): 1}), Multivector(5, {(2, 4): 1})])

        def refuse(order, v):
            raise AssertionError("a package caller went through the checked constructor")

        monkeypatch.setattr(subspace, "_checked_terms", refuse)
        assert subspace_from_record(record) == V
        for p in decreasing_pairs(5):
            assert limit_shift(V, p).dim == 2
        assert initial_subspace(V).dim == 2
        assert common_annihilator(V).dim == 0
        assert linear_factors(Multivector(5, {(1, 2): 1})).dim == 2
        for route in ("iterate", "init-then-shift"):
            assert ekr_pipeline(W, route=route).satisfied
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["init", json.dumps(record), "--order", "weight2"]) == 0


def _canonical_cases(st):
    """Hypothesis strategy: an order at n <= 6, spanning vectors of its grade,
    and a permutation, nonzero scales and combination coefficients for them."""
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 6))
        k = draw(st.integers(0, n))
        order = MonomialOrder(draw(st.sampled_from(["lex", "weight2"])), n, k)
        supports = list(itertools.combinations(range(1, n + 1), k))
        vecs = [Multivector(n, dict(zip(supports, cs))) for cs in draw(st.lists(
            st.lists(coeff, min_size=len(supports), max_size=len(supports)), max_size=4))]
        perm = draw(st.permutations(range(len(vecs))))
        scales = draw(st.lists(coeff.filter(bool), min_size=len(vecs), max_size=len(vecs)))
        combos = draw(st.lists(st.lists(coeff, min_size=len(vecs), max_size=len(vecs)),
                               max_size=3))
        return order, vecs, perm, scales, combos

    return cases()


class TestCanonicalForm:
    def test_rows_and_pivots_depend_only_on_the_span(self):
        hypothesis = pytest.importorskip("hypothesis")

        def check(case):
            order, vecs, perm, scales, combos = case
            V = Subspace(order, vecs)
            keys = [order.key(p) for p in V.pivots()]
            assert keys == sorted(set(keys))
            for row, piv in zip(V.rows, V.pivots()):
                assert min(row.terms, key=order.key) == piv and row.terms[piv] == 1
                assert all(piv not in other.terms for other in V.rows if other is not row)
            combined = [sum((v.scale(c) for v, c in zip(vecs, cs)), Multivector.zero(order.n))
                        for cs in combos]
            for spanning in ([vecs[i] for i in perm],
                             [v.scale(c) for v, c in zip(vecs, scales)],
                             vecs + combined):
                W = Subspace(order, spanning)
                assert W.rows == V.rows and W.pivots() == V.pivots()

        hypothesis.settings(max_examples=80, deadline=None, database=None)(
            hypothesis.given(_canonical_cases(hypothesis.strategies))(check)
        )()


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoCoordinateTable:
    """At (n, k) = (30, 15) one dense row would have C(30,15) = 155 M entries."""

    @pytest.mark.parametrize("kind", ["lex", "weight2"])
    def test_span_contains_and_limit_at_30_15(self, kind):
        n, low, high = 30, tuple(range(1, 16)), tuple(range(16, 31))
        mixed = Multivector(n, {low: 1, high: Fraction(-2, 3), (1,) + high[1:]: 5})
        order = MonomialOrder(kind, n, 15)

        def work():
            for vecs in ([Multivector.monomial(n, low), Multivector.monomial(n, high),
                          Multivector.monomial(n, tuple(range(2, 17)))],
                         [mixed, Multivector.monomial(n, high), mixed.scale(3)]):
                V = Subspace(order, vecs)
                assert not reduce_row(integer_terms(vecs[0])[0], V._by_pivot)[0]
                assert reduce_row({low[1:] + (30,): 1}, V._by_pivot)[0]
                W = limit_shift(V, (30, 1))
                assert W.dim == V.dim and W != V

        assert _peak_bytes(work) < 1 << 20


class TestContains:
    """x lies in V exactly when its residue against the canonical rows vanishes."""

    def test_scaled_member(self, mv):
        assert not reduce_row({(1, 2): 3}, span([mv(3, "e1^e2")])._by_pivot)[0]

    def test_non_member(self, mv):
        assert reduce_row({(1, 3): 1}, span([mv(3, "e1^e2")])._by_pivot)[0] == {(1, 3): 1}

    def test_reduction(self, mv):
        V = span([mv(3, "e1^e2 + e2^e3"), mv(3, "e2^e3")])
        assert not reduce_row({(1, 2): 1}, V._by_pivot)[0]

    def test_zero_member(self, mv):
        assert not reduce_row({}, span([mv(3, "e1^e2")])._by_pivot)[0]


def scan_residue(V, x):
    """The residue by a scan of every canonical row, each row's pivot read
    off the row itself: the reference for the pivot look-up."""
    hits = [(row, piv, x[piv]) for row in V._rows for piv in [min(row, key=V.order.key)]
            if piv in x]
    s = math.lcm(*(row[piv] for row, piv, _ in hits))
    acc = {sup: s * v for sup, v in x.items()}
    for row, piv, c in hits:
        f = c * (s // row[piv])
        for sup, v in row.items():
            w = acc.get(sup, 0) - f * v
            if w:
                acc[sup] = w
            else:
                del acc[sup]
    return acc, s


class TestResidueDifferential:
    def test_lookup_matches_the_row_scan(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeff = st.integers(-6, 6)

        @st.composite
        def cases(draw):
            n = draw(st.integers(2, 7))
            k = draw(st.integers(1, n - 1))
            order = MonomialOrder(draw(st.sampled_from(["lex", "weight2"])), n, k)
            supports = list(itertools.combinations(range(1, n + 1), k))
            terms = st.dictionaries(st.sampled_from(supports), coeff.filter(bool), max_size=6)
            V = Subspace(order, [Multivector(n, t) for t in draw(st.lists(terms, max_size=5))])
            xs = draw(st.lists(terms, max_size=3))
            for _ in range(draw(st.integers(0, 3))):
                # a combination of the rows plus a little noise: many hits
                acc = draw(terms)
                for row in V._rows:
                    c = draw(coeff)
                    for sup, v in row.items():
                        acc[sup] = acc.get(sup, 0) + c * v
                xs.append({sup: v for sup, v in acc.items() if v})
            for p in decreasing_pairs(n):
                xs.extend(shift_map(Multivector._trusted(n, row), p).terms for row in V._rows)
            return V, xs

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(cases())
        def check(case):
            V, xs = case
            for x in xs:
                assert reduce_row(x, V._by_pivot) == scan_residue(V, x), (V, x)

        check()


class TestSumIntersect:
    """Spans of joined rows, and the intersection oracle the factor tests rely on."""

    def test_intersection_example(self, mv):
        V = span([mv(3, "e1^e2"), mv(3, "e1^e3")])
        W = span([mv(3, "e1^e2"), mv(3, "e2^e3")])
        assert intersect(V, W) == span([mv(3, "e1^e2")])

    def test_sum_idempotent(self, mv):
        V = span([mv(3, "e1^e2 + e2^e3")])
        assert Subspace(V.order, V.rows + V.rows) == V

    def test_intersect_with_zero(self, mv):
        V = span([mv(3, "e1^e2")])
        Z = span([], V.order)
        assert intersect(V, Z).is_zero

    def test_grassmann_dimension_formula(self, rng):
        order = MonomialOrder("lex", 4, 2)
        for _ in range(25):
            V = random_subspace(rng, order, rng.randint(1, 3))
            W = random_subspace(rng, order, rng.randint(1, 3))
            assert Subspace(order, V.rows + W.rows).dim + intersect(V, W).dim == V.dim + W.dim

    def test_intersect_against_sympy_ranks(self, rng):
        sympy = pytest.importorskip("sympy")

        def rank(rows, supports):
            if not rows:
                return 0
            return sympy.Matrix([
                [sympy.Rational(c.numerator, c.denominator)
                 for c in (r.terms.get(s, Fraction(0)) for s in supports)]
                for r in rows
            ]).rank()

        hits = 0
        for n, k in ((4, 2), (5, 2)):
            order = MonomialOrder("lex", n, k)
            supports = tuple(sorted(itertools.combinations(range(1, n + 1), k), key=order.key))
            for _ in range(12):
                V = random_subspace(rng, order, rng.randint(1, len(supports) - 1))
                # share some of V's rows so the intersection is often nonzero
                shared = [r for r in V.rows if rng.random() < 0.5]
                extra = [random_multivector(rng, n, k) for _ in range(rng.randint(0, 3))]
                W = span(shared + extra, order)
                meet = intersect(V, W)
                assert rank(V.rows, supports) == V.dim and rank(W.rows, supports) == W.dim
                assert meet.dim == V.dim + W.dim - rank(V.rows + W.rows, supports)
                for x in meet.rows:
                    assert rank(V.rows + (x,), supports) == V.dim
                    assert rank(W.rows + (x,), supports) == W.dim
                hits += meet.dim > 0
        assert hits


class TestApplyMap:
    """Spans of the images of the canonical rows."""

    def test_identity(self, rng):
        order = MonomialOrder("lex", 4, 2)
        V = random_subspace(rng, order, 2)
        assert apply_map(V, lambda x: x) == V

    def test_shear_image(self, mv):
        g = shear(3, 2, 1, 1)
        V = span([mv(3, "e2^e3")])
        assert apply_map(V, lambda x: apply_linear(g, x)) == span([mv(3, "e1^e3 + e2^e3")])

    def test_zero_map(self, mv):
        V = span([mv(3, "e2^e3")])
        assert apply_map(V, lambda x: Multivector.zero(3)).is_zero

    def test_inhomogeneous_output_rejected(self, mv):
        V = span([mv(3, "e2^e3")])
        with pytest.raises(HomogeneityError):
            apply_map(V, lambda x: mv(3, "e1"))


class TestMonomialBasis:
    def test_plain_monomials(self, mv):
        V = span([mv(3, "e1^e2"), mv(3, "e2^e3")])
        assert V.monomial_basis() == SetFamily(3, 2, ((1, 2), (2, 3)))

    def test_two_term_row(self, mv):
        assert span([mv(3, "e1^e2 + e2^e3")]).monomial_basis() is None

    def test_elimination_reveals_monomials(self, mv):
        V = span([mv(3, "e1^e2 + e2^e3"), mv(3, "e2^e3")])
        assert V.monomial_basis() == SetFamily(3, 2, ((1, 2), (2, 3)))

    def test_diagonal_fixed_characterization(self, rng):
        # monomial basis exists iff every sampled invertible diagonal map fixes V
        order = MonomialOrder("lex", 4, 2)
        for _ in range(20):
            V = random_subspace(rng, order, rng.randint(1, 3))
            fixed = all(
                apply_map(
                    V,
                    lambda x, g=diagonal(
                        [random_rational(rng, nonzero=True) for _ in range(4)]
                    ): apply_linear(g, x),
                ) == V
                for _ in range(6)
            )
            assert fixed == (V.monomial_basis() is not None)


class TestMonomialOrder:
    def test_lex_sequence(self):
        order = MonomialOrder("lex", 4, 2)
        supports = tuple(sorted(itertools.combinations(range(1, 5), 2), key=order.key))
        assert supports == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_weight2_sequence(self):
        order = MonomialOrder("weight2", 4, 2)
        supports = tuple(sorted(itertools.combinations(range(1, 5), 2), key=order.key))
        assert supports == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))

    def test_orders_disagree_on_14_vs_23(self):
        lex = MonomialOrder("lex", 4, 2)
        w2 = MonomialOrder("weight2", 4, 2)
        assert lex.key((1, 4)) < lex.key((2, 3))
        assert w2.key((1, 4)) > w2.key((2, 3))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            MonomialOrder("colex", 4, 2)


class TestPluecker:
    def test_single_monomial(self, mv):
        P = span([mv(3, "e1^e2")]).pluecker()
        assert P.items == ((((1, 2),), Fraction(1)),)

    def test_two_term_row(self, mv):
        P = span([mv(3, "e1^e2 + e2^e3")]).pluecker()
        assert dict(P.items) == {((1, 2),): 1, ((2, 3),): 1}

    def test_monomial_pair(self, mv):
        P = span([mv(3, "e1^e2"), mv(3, "e2^e3")]).pluecker()
        assert P.items == ((((1, 2), (2, 3)), Fraction(1)),)

    def test_zero_subspace_rejected(self):
        with pytest.raises(ValueError):
            span([], MonomialOrder("lex", 3, 2)).pluecker()

    def test_projective_invariance(self, rng):
        order = MonomialOrder("lex", 4, 2)
        for _ in range(15):
            m = rng.randint(1, 3)
            V = random_subspace(rng, order, m)
            # recombine the rows by a random invertible coefficient matrix
            while True:
                coeffs = [[random_rational(rng) for _ in range(m)] for _ in range(m)]
                if is_invertible(LinearMap(coeffs)) if m > 0 else True:
                    break
            new_rows = []
            for r in range(m):
                acc = Multivector.zero(4)
                for c in range(m):
                    acc = acc + V.rows[c].scale(coeffs[r][c])
                new_rows.append(acc)
            assert span(new_rows, order).pluecker() == V.pluecker()

    def test_cap(self, rng):
        order = MonomialOrder("lex", 8, 4)  # 70 coordinates
        V = random_subspace(rng, order, 5)  # C(70,5) > 12e6
        with pytest.raises(BudgetExceededError):
            V.pluecker()

    def test_cap_before_any_table(self):
        # C(C(20,10), 2) coordinates; the support table alone would be 184,756 tuples
        V = span([Multivector.monomial(20, range(1, 11)), Multivector.monomial(20, range(11, 21))])

        def attempt():
            with pytest.raises(BudgetExceededError):
                V.pluecker()

        assert _peak_bytes(attempt) < 1 << 20


def _assert_well_formed(x):
    """x is what the validating constructor would build from its own terms."""
    rebuilt = Multivector(x.n, dict(x.terms))
    assert rebuilt == x and dict(rebuilt.terms) == dict(x.terms)
    for sup, c in x.terms.items():
        assert type(c) is Fraction and c != 0
        assert all(a < b for a, b in zip(sup, sup[1:]))
        assert all(1 <= i <= x.n for i in sup)


class TestTrustedSites:
    """Kernel outputs wrapped without checks agree with the validating
    constructor: nonzero Fractions on strictly increasing, in-range supports."""

    @pytest.mark.parametrize("kind", ["lex", "weight2"])
    @pytest.mark.parametrize("n, k", [(5, 2), (6, 3)])
    def test_outputs_pass_validation(self, monkeypatch, kind, n, k):
        built = []  # every Multivector the unchecked constructor wraps
        trusted = Multivector._trusted.__func__

        def recording(cls, n, terms):
            built.append(trusted(cls, n, terms))
            return built[-1]

        monkeypatch.setattr(Multivector, "_trusted", classmethod(recording))
        rng = random.Random(1000 * n + k)
        order = MonomialOrder(kind, n, k)
        outputs = []
        for m in (1, 2, 3):
            V = random_subspace(rng, order, m)
            rows = list(V.rows)
            lines = [random_multivector(rng, n, 1) for _ in range(k)]
            decomposable = functools.reduce(wedge, lines)
            outputs += rows + [decomposable]
            for x, y in itertools.product(rows, repeat=2):
                c = random_rational(rng, nonzero=True)
                outputs += [wedge(x, y), x.scale(c), x + y, x - y, x + x.scale(-1)]
            for p in decreasing_pairs(n):
                outputs += [shift_map(r, p) for r in rows]
                outputs += limit_shift(V, p).rows
            V.pluecker()
            pluecker_limit(V, (n, 1))
            factors = _annihilator(n, [integer_terms(decomposable)[0]])
            assert factors.dim == k
            outputs += factors.rows + _annihilator(n, V._rows).rows
            outputs += _annihilator(n, [integer_terms(x)[0] for x in lines]).rows
        assert any(x.is_zero for x in outputs)
        assert {x.n for x in built} > {n}  # the lifts over their own positions
        for x in {id(x): x for x in outputs + built}.values():
            _assert_well_formed(x)
