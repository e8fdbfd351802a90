"""Shear limits, initial degenerations, fixed-point drives, and their oracles."""

import contextlib
import io
import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from linear_maps import shear, shift_map, weight_diagonal
from oracles import apply_map, kernel, parent_wedge
from samplers import monomial_span, random_intersecting_family, random_upper_triangular, star_family
from wedgeshift import (
    BudgetExceededError,
    IterationLimitError,
    MonomialOrder,
    Multivector,
    SetFamily,
    ShiftPair,
    Subspace,
    apply_linear,
    combinatorial_shift,
    decreasing_pairs,
    initial_subspace,
    is_shifted,
    limit_shift,
    pluecker_limit,
    self_annihilating,
    span,
    triangular_fixed_point,
)
from wedgeshift.cli import main
from wedgeshift.limits import ROUTES, _status
from wedgeshift.sampling import random_invertible, random_rational, random_subspace
from wedgeshift.subspace import _lift, _pluecker_vector


def all_pairs(n):
    return [ShiftPair(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


class TestShiftMap:
    def test_moves_index(self, mv):
        assert shift_map(mv(3, "e2^e3"), ShiftPair(2, 1)) == mv(3, "e1^e3")

    def test_kills_when_target_present(self, mv):
        assert shift_map(mv(3, "e1^e2"), ShiftPair(2, 1)).is_zero

    def test_kills_without_source(self, mv):
        assert shift_map(mv(4, "e3^e4"), ShiftPair(2, 1)).is_zero

    def test_nilpotent(self, rng):
        from wedgeshift.sampling import random_multivector

        for _ in range(20):
            x = random_multivector(rng, 5, 2)
            p = ShiftPair(3, 1)
            assert shift_map(shift_map(x, p), p).is_zero

    def test_kernel_contains_rows_away_from_source(self, mv):
        # members supported away from i are killed
        V = span([mv(4, "e1^e3 + e3^e4")])
        assert shift_map(V.rows[0], ShiftPair(2, 1)).is_zero


class TestLimitShift:
    def test_plain_move(self, mv):
        V = span([mv(3, "e2^e3")])
        assert limit_shift(V, ShiftPair(2, 1)) == span([mv(3, "e1^e3")])

    def test_fixed_when_image_inside(self, mv):
        V = span([mv(3, "e2^e3"), mv(3, "e1^e3")])
        assert limit_shift(V, ShiftPair(2, 1)) == V

    def test_fixed_kernel_case(self, mv):
        V = span([mv(3, "e1^e2")])
        assert limit_shift(V, ShiftPair(2, 1)) == V

    def test_fixed_limit_is_the_input(self, mv):
        V = span([mv(4, "e1^e2"), mv(4, "e1^e3 + e2^e4"), mv(4, "e1^e4")])
        assert limit_shift(V, ShiftPair(3, 2)) is V

    def test_dimension_preserved(self, rng):
        order = MonomialOrder("lex", 4, 2)
        for _ in range(25):
            V = random_subspace(rng, order, rng.randint(1, 3))
            for p in all_pairs(4):
                assert limit_shift(V, p).dim == V.dim

    def test_idempotent(self, rng):
        order = MonomialOrder("lex", 4, 2)
        for _ in range(15):
            V = random_subspace(rng, order, rng.randint(1, 3))
            for p in all_pairs(4):
                W = limit_shift(V, p)
                assert limit_shift(W, p) == W

    def test_monomial_compatibility_random(self, rng):
        for _ in range(20):
            F = random_intersecting_family(rng, 5, 2)
            V = monomial_span(5, 2, F.sets)
            for p in all_pairs(5):
                assert limit_shift(V, p).monomial_basis() == combinatorial_shift(F, p)

    def test_self_annihilation_closed(self, rng):
        for _ in range(10):
            F = random_intersecting_family(rng, 5, 2)
            g = random_upper_triangular(rng, 5)
            V = apply_map(monomial_span(5, 2, F.sets), lambda x: apply_linear(g, x))
            assert self_annihilating(V)
            for p in decreasing_pairs(5):
                assert self_annihilating(limit_shift(V, p))
            assert self_annihilating(initial_subspace(V))


def reference_limit_shift(V, p):
    """The stacked-column formula: phi(V) plus the members sum c_i r_i for which
    sum c_i phi(r_i) + sum d_j r_j = 0, from a dense kernel of the 2*dim
    stacked columns over all C(n,k) coordinates."""
    supports = sorted(itertools.combinations(range(1, V.n + 1), V.k), key=V.order.key)
    images = [shift_map(r, p) for r in V.rows]
    cols = [[x.terms.get(s, 0) for s in supports] for x in images + list(V.rows)]
    matrix = [list(row) for row in zip(*cols)]
    members = list(images)
    for vec in kernel(matrix, len(cols)) if cols else []:
        acc = Multivector.zero(V.n)
        for c, row in zip(vec, V.rows):
            acc = acc + row.scale(c)
        members.append(acc)
    return Subspace(V.order, members)


class TestLimitShiftDifferential:
    @pytest.mark.parametrize("n, k, size", [(6, 3, 7), (7, 3, 9)])
    def test_against_stacked_columns(self, rng, n, k, size):
        # general-position images move under every shear limit; the drive's
        # last round is fixed by every one, so both branches run at each pair
        order = MonomialOrder("lex", n, k)
        pairs = decreasing_pairs(n)
        noop, changed = Counter(), Counter()

        def check(V, p):
            got = limit_shift(V, p)
            assert got == reference_limit_shift(V, p)
            (noop if got == V else changed)[p] += 1
            return got

        for F in (star_family(n, k, 1), random_intersecting_family(rng, n, k, size)):
            g = random_invertible(rng, n)
            current = span([apply_linear(g, Multivector.monomial(n, s)) for s in F.sets], order)
            for p in pairs:
                check(current, p)
            moved = True
            while moved:
                moved = False
                for p in pairs:
                    nxt = check(current, p)
                    moved = moved or nxt != current
                    current = nxt
        for p in pairs:
            assert noop[p] and changed[p], p


def _subspace_cases(st):
    """Hypothesis strategy: a small subspace (sparse rows, so fixed cases are
    common) with a shear pair, at ground dimension at most 5."""

    @st.composite
    def cases(draw):
        n = draw(st.integers(3, 5))
        k = draw(st.integers(1, n - 1))
        supports = list(itertools.combinations(range(1, n + 1), k))
        coeff = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2)])
        m = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(coeff, min_size=len(supports), max_size=len(supports)),
                             min_size=m, max_size=m))
        V = Subspace(MonomialOrder("lex", n, k),
                     [Multivector(n, dict(zip(supports, row))) for row in rows])
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        return V, ShiftPair(i, j)

    return cases()


def _given_cases(check):
    hypothesis = pytest.importorskip("hypothesis")
    runner = hypothesis.settings(max_examples=80, deadline=None, database=None)(
        hypothesis.given(_subspace_cases(hypothesis.strategies))(check)
    )
    runner()


class TestLimitShiftProperties:
    def test_dimension_preserved(self):
        def check(case):
            V, p = case
            assert limit_shift(V, p).dim == V.dim

        _given_cases(check)

    def test_idempotent(self):
        def check(case):
            V, p = case
            W = limit_shift(V, p)
            assert limit_shift(W, p) == W

        _given_cases(check)

    def test_agrees_with_pluecker_limit(self):
        def check(case):
            V, p = case
            if V.dim:
                assert pluecker_limit(V, p) == limit_shift(V, p).pluecker()

        _given_cases(check)


class TestCombinatorialShift:
    def test_moves(self):
        F = SetFamily(3, 2, ((2, 3),))
        assert combinatorial_shift(F, ShiftPair(2, 1)).sets == ((1, 3),)

    def test_blocked_by_present_target(self):
        F = SetFamily(3, 2, ((2, 3), (1, 3)))
        assert combinatorial_shift(F, ShiftPair(2, 1)) == F

    def test_target_inside_set(self):
        F = SetFamily(3, 2, ((1, 2),))
        assert combinatorial_shift(F, ShiftPair(2, 1)) == F

    def test_size_preserved(self, rng):
        for _ in range(20):
            F = random_intersecting_family(rng, 5, 2)
            for p in all_pairs(5):
                assert combinatorial_shift(F, p).size == F.size


class TestIsShifted:
    def test_examples(self):
        assert is_shifted(SetFamily(3, 2, ((1, 2), (1, 3))))
        assert not is_shifted(SetFamily(3, 2, ((2, 3),)))
        assert is_shifted(SetFamily(3, 2, ()))


class TestInitialSubspace:
    def test_monomial_fixed(self, mv):
        V = monomial_span(4, 2, [(1, 2), (3, 4)])
        assert initial_subspace(V) == V

    def test_lex_earliest_pivot(self, mv):
        assert initial_subspace(span([mv(3, "e1^e2 + e2^e3")])) == span([mv(3, "e1^e2")])

    def test_cancellation_reveals_monomials(self, mv):
        V = span([mv(4, "e1^e2 + e3^e4"), mv(4, "e1^e2 - e3^e4")])
        assert initial_subspace(V) == monomial_span(4, 2, [(1, 2), (3, 4)])

    def test_dimension_preserved(self, rng):
        for kind in ("lex", "weight2"):
            order = MonomialOrder(kind, 4, 2)
            for _ in range(15):
                V = random_subspace(rng, order, rng.randint(1, 3))
                W = initial_subspace(V)
                assert W.dim == V.dim
                assert W.monomial_basis() is not None

    def test_initial_oracle_via_pluecker(self, rng):
        # earliest nonvanishing Pluecker coordinate indexes the initial monomials
        for kind in ("lex", "weight2"):
            order = MonomialOrder(kind, 5, 2)
            for _ in range(15):
                V = random_subspace(rng, order, rng.randint(1, 3))
                lead = V.pluecker().items[0][0]
                assert set(lead) == set(initial_subspace(V).pivots())


class TestWeightDiagonalOrder:
    def test_weight_diagonal_matches_weight2_order(self, mv):
        # {1,4} is lex-earliest but carries the smaller diagonal weight than {2,3}:
        # the literal matrix action converges onto the weight2 pivot.
        v = mv(4, "e1^e4 + e2^e3")
        lex_init = initial_subspace(span([v], MonomialOrder("lex", 4, 2)))
        w2_init = initial_subspace(span([v], MonomialOrder("weight2", 4, 2)))
        assert lex_init.rows == (mv(4, "e1^e4"),)
        assert w2_init.rows == (mv(4, "e2^e3"),)
        for t in (2, 3):
            img = apply_linear(weight_diagonal(4, t), v)
            rescaled = img.scale(t ** (2 ** 2 + 2 ** 3))  # clear the {2,3} weight
            assert rescaled.terms[(2, 3)] == 1
            assert abs(rescaled.terms[(1, 4)]) < 1
        # and the dominant coefficient shrinks as t grows: the limit is the weight2 pivot
        small = apply_linear(weight_diagonal(4, 2), v).scale(2 ** 12)
        big = apply_linear(weight_diagonal(4, 4), v).scale(4 ** 12)
        assert abs(big.terms[(1, 4)]) < abs(small.terms[(1, 4)])


def shear_image(V, i, j, t):
    g = shear(V.n, i, j, t)
    return apply_map(V, lambda x: apply_linear(g, x))


class TestApplyShear:
    def test_finite_parameter(self, mv):
        V = span([mv(3, "e2^e3")])
        assert shear_image(V, 2, 1, 5) == span([mv(3, "e2^e3 + 5*e1^e3")])

    def test_zero_parameter(self, rng):
        order = MonomialOrder("lex", 4, 2)
        V = random_subspace(rng, order, 2)
        assert shear_image(V, 2, 1, 0) == V

    def test_fixed_case(self, mv):
        V = span([mv(3, "e1^e2")])
        for t in (1, 2, 7):
            assert shear_image(V, 2, 1, t) == V


class TestPlueckerLimit:
    def test_single_row(self, mv):
        V = span([mv(3, "e2^e3")])
        P = pluecker_limit(V, ShiftPair(2, 1))
        assert P.items == ((((1, 3),), 1),)
        assert P == limit_shift(V, ShiftPair(2, 1)).pluecker()

    def test_monomial_fixed(self, mv):
        V = span([mv(3, "e1^e2")])
        assert pluecker_limit(V, ShiftPair(2, 1)) == V.pluecker()

    def test_two_row_fixed(self, mv):
        V = span([mv(3, "e2^e3"), mv(3, "e1^e3")])
        assert pluecker_limit(V, ShiftPair(2, 1)) == V.pluecker()

    def test_oracle_equivalence_random(self, rng):
        order = MonomialOrder("lex", 4, 2)
        for _ in range(20):
            V = random_subspace(rng, order, rng.randint(1, 3))
            for p in all_pairs(4):
                assert pluecker_limit(V, p) == limit_shift(V, p).pluecker()

    def test_cap_before_any_table(self):
        # C(C(20,10), 2) coordinates; the dense rows alone would be 2 x 184,756
        V = monomial_span(20, 10, [tuple(range(1, 11)), tuple(range(11, 21))])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                pluecker_limit(V, ShiftPair(11, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_oracle_equivalence_exhaustive_tiny(self):
        import itertools

        pool = list(itertools.combinations(range(1, 4), 2))
        for r in range(1, len(pool) + 1):
            for sets in itertools.combinations(pool, r):
                V = monomial_span(3, 2, list(sets))
                for p in all_pairs(3):
                    assert pluecker_limit(V, p) == limit_shift(V, p).pluecker()


def parent_pluecker_limit(V, p):
    """pluecker_limit before the integer core: every power of t is a
    Multivector of Fractions, built with parent_wedge and Multivector sums."""
    m = V.dim
    rows = list(V.rows)
    columns, lifted = _lift(V.order, [x.terms for x in rows + [shift_map(r, p) for r in rows]])
    lifted = [Multivector(len(columns), x) for x in lifted]
    zero = Multivector.zero(len(columns))
    by_degree = [Multivector(len(columns), {(): 1})]
    for r, x in zip(lifted[:m], lifted[m:]):
        by_degree = [
            parent_wedge(same, r) + parent_wedge(lower, x)
            for same, lower in zip(by_degree + [zero], [zero] + by_degree)
        ]
    top = max(d for d, c in enumerate(by_degree) if not c.is_zero)
    return _pluecker_vector(V.order, columns, by_degree[top].terms)


def _denominator(x):
    return lcm(*(c.denominator for c in x.terms.values()))


def _rows_losing_their_largest_denominator(rng, order, m, p, shared=False):
    """A subspace given by m rows already in canonical form, or None when no
    such rows were found.  Each row has one coefficient over 97 on a support
    the shear p drops (one without i, or with j) and denominators below 10
    elsewhere, so 97 divides the row's common denominator but not its
    image's.  With ``shared`` the pivots are dropped too and every row keeps
    just one common support, so the images are proportional and the top
    power of t sums over several rows: there, scaling an image apart from
    its row changes the limit point."""
    supports = sorted(itertools.combinations(range(1, order.n + 1), order.k), key=order.key)
    dropped = {b for b, s in enumerate(supports) if p.i not in s or p.j in s}
    for _ in range(100):
        pivots = sorted(rng.sample(sorted(dropped) if shared else range(len(supports)), m))
        later = [[b for b in range(a + 1, len(supports)) if b not in pivots] for a in pivots]
        kept = [b for b in later[-1] if b not in dropped]
        if all(dropped.intersection(bs) for bs in later) and (kept or not shared):
            break
    else:
        return None
    common = rng.choice(kept) if shared else None
    rows = []
    for a, bs in zip(pivots, later):
        free = [b for b in bs if b in dropped] if shared else bs
        terms = {supports[b]: random_rational(rng) for b in free if rng.random() < 0.4}
        if shared:
            terms[supports[common]] = random_rational(rng, nonzero=True)
        terms[supports[a]] = 1
        big = rng.choice([b for b in bs if b in dropped])
        terms[supports[big]] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 96), 97)
        rows.append(Multivector(order.n, terms))
    V = Subspace(order, rows)
    assert V.rows == tuple(rows)
    return V


class TestPlueckerLimitDifferential:
    @pytest.mark.parametrize("kind", ["lex", "weight2"])
    @pytest.mark.parametrize("n, k", [(5, 2), (6, 3)])
    def test_matches_fraction_implementation(self, kind, n, k):
        rng = random.Random(100 * n + k + (kind == "weight2"))
        order = MonomialOrder(kind, n, k)
        differ = proportional = 0
        for p in decreasing_pairs(n):
            for m in (1, 2, 3):
                cases = [random_subspace(rng, order, m)] + [
                    _rows_losing_their_largest_denominator(rng, order, m, p, shared)
                    for shared in (False, False, True, True)
                ]
                proportional += m > 1 and cases[-1] is not None
                for V in filter(None, cases):
                    assert pluecker_limit(V, p) == parent_pluecker_limit(V, p), (V, p)
                    images = [(r, shift_map(r, p)) for r in V.rows]
                    differ += any(
                        not x.is_zero and _denominator(x) != _denominator(r) for r, x in images
                    )
        assert differ >= 4 * len(decreasing_pairs(n))
        assert proportional >= len(decreasing_pairs(n))


class TestTriangularFixedPoint:
    def test_star_at_two(self):
        V = monomial_span(4, 2, [(2, 3), (2, 4), (1, 2)])
        for route in ("iterate", "init-then-shift"):
            W, trace = triangular_fixed_point(V, route=route)
            assert W.monomial_basis() == SetFamily(4, 2, ((1, 2), (1, 3), (1, 4)))
            assert trace

    def test_already_shifted_empty_trace(self):
        V = monomial_span(4, 2, [(1, 2), (1, 3)])
        for route in ("iterate", "init-then-shift"):
            W, trace = triangular_fixed_point(V, route=route)
            assert W == V and trace == []

    def test_tail_killed_by_either_route(self, mv):
        V = span([mv(3, "e1^e2 + e2^e3")])
        for route in ("iterate", "init-then-shift"):
            W, _ = triangular_fixed_point(V, route=route)
            assert W == span([mv(3, "e1^e2")])

    def test_endpoint_fixed_by_everything(self, rng):
        for _ in range(8):
            F = random_intersecting_family(rng, 5, 2)
            g = random_upper_triangular(rng, 5)
            V = apply_map(monomial_span(5, 2, F.sets), lambda x: apply_linear(g, x))
            W, trace = triangular_fixed_point(V, route="iterate")
            fam = W.monomial_basis()
            assert fam is not None and is_shifted(fam)
            for p in decreasing_pairs(5):
                assert limit_shift(W, p) == W
            for _ in range(5):
                h = random_upper_triangular(rng, 5)
                assert apply_map(W, lambda x: apply_linear(h, x)) == W
            for st in trace:
                assert st.dim == V.dim

    def test_round_cap(self):
        V = monomial_span(4, 2, [(2, 3), (2, 4)])
        for route in ("iterate", "init-then-shift"):
            with pytest.raises(IterationLimitError):
                triangular_fixed_point(V, route=route, max_rounds=0)

    def test_bad_route(self):
        V = monomial_span(4, 2, [(1, 2)])
        with pytest.raises(ValueError):
            triangular_fixed_point(V, route="sideways")

    def test_zero_subspace_lists_no_pairs(self, monkeypatch):
        # the zero subspace is fixed by every map: neither route may list the
        # n(n-1)/2 pairs or take a limit, whatever n is
        import wedgeshift.limits as limits

        def refuse(*args, **kwargs):
            raise AssertionError("zero subspace reached the pair loop")

        monkeypatch.setattr(limits, "limit_shift", refuse)
        monkeypatch.setattr(limits, "decreasing_pairs", refuse)
        V = monomial_span(1200, 600, [])
        for route in ("iterate", "init-then-shift"):
            W, trace = triangular_fixed_point(V, route=route)
            assert W == V and W.is_zero and trace == []

    def test_shifted_start_walks_no_pair_list(self):
        # a record shifted on entry needs no pair; listing all n(n-1)/2 pairs
        # first took 143 MB at n = 1500
        record = json.dumps({"n": 1500, "k": 1, "basis": ["e1"]})
        for route in ROUTES:
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["pipeline", record, "--route", route]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, (route, peak)

    def test_trace_records(self):
        V = monomial_span(4, 2, [(2, 3), (2, 4), (1, 2)])
        _, trace = triangular_fixed_point(V, route="iterate")
        for st in trace:
            rec = st.record()
            assert set(rec) == {"step", "kind", "pair", "dim", "monomial", "shifted"}
            assert rec["kind"] in {"limit_shift", "comb_shift", "init"}


def reference_init_then_shift(V):
    """The init route as its own loop: the initial monomial subspace, then
    combinatorial shifts of its support family, with a monomial span per
    applied step, until a full round of decreasing pairs changes nothing."""

    def monomials(fam):
        return Subspace(V.order, [Multivector.monomial(V.n, s) for s in fam.sets])

    records = []
    current = initial_subspace(V)
    fam = current.monomial_basis()
    if current != V:
        records.append({"step": 0, "kind": "init", "pair": None, "dim": current.dim,
                        "monomial": True, "shifted": is_shifted(fam)})
    changed = True
    while changed:
        changed = False
        for p in decreasing_pairs(V.n):
            moved = combinatorial_shift(fam, p)
            if moved != fam:
                fam, changed = moved, True
                records.append({"step": len(records), "kind": "comb_shift", "pair": [p.i, p.j],
                                "dim": monomials(fam).dim, "monomial": True,
                                "shifted": is_shifted(fam)})
    return monomials(fam), records


class TestInitThenShiftDifferential:
    @pytest.mark.parametrize("n, k", [(5, 2), (6, 3), (7, 3)])
    def test_against_combinatorial_shift_loop(self, rng, n, k):
        # general-position images degenerate to shifted families at once;
        # non-shifted monomial spans take comb_shift steps in the loop
        order = MonomialOrder("lex", n, k)
        kinds = Counter()
        for _ in range(4):
            F = random_intersecting_family(rng, n, k)
            g = random_invertible(rng, n)
            image = span([apply_linear(g, Multivector.monomial(n, s)) for s in F.sets], order)
            F = random_intersecting_family(rng, n, k)
            while is_shifted(F):
                F = random_intersecting_family(rng, n, k)
            for V in (image, monomial_span(n, k, F.sets)):
                W, trace = triangular_fixed_point(V, route="init-then-shift")
                ref, records = reference_init_then_shift(V)
                assert W == ref
                assert [st.record() for st in trace] == records
                kinds.update(st.kind for st in trace)
        assert kinds["comb_shift"] and kinds["init"]


def _gale_down_set(n, k, generators):
    """Every k-subset lying below some generator componentwise: a shifted family."""
    return [s for s in itertools.combinations(range(1, n + 1), k)
            if any(all(a <= b for a, b in zip(s, g)) for g in generators)]


class TestShiftedIsFixed:
    """The stop rule's oracle: a monomial span is fixed by limit_shift under
    every decreasing pair exactly when its support family is shifted."""

    def test_fixed_by_every_decreasing_shear_iff_shifted(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def families(draw):
            n = draw(st.integers(2, 7))
            k = draw(st.integers(1, n - 1))
            supports = list(itertools.combinations(range(1, n + 1), k))
            picks = draw(st.lists(st.sampled_from(supports), min_size=1, max_size=4, unique=True))
            sets = _gale_down_set(n, k, picks) if draw(st.booleans()) else picks
            return draw(st.sampled_from(["lex", "weight2"])), n, k, sets

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(families())
        def check(case):
            kind, n, k, sets = case
            V = monomial_span(n, k, sets, kind)
            moved = [p for p in decreasing_pairs(n) if limit_shift(V, p) != V]
            assert (not moved) == is_shifted(SetFamily(n, k, tuple(sets))), (kind, sets, moved)

        check()


def parent_triangular_fixed_point(V, route="init-then-shift", max_rounds=None):
    """The drive without the stop rule: round-robin limit_shift until a whole
    round changes nothing, under the same round cap."""
    if V.is_zero:
        return V, []
    steps = []
    current = V
    if route == "init-then-shift":
        current = initial_subspace(V)
        mono, shif = _status(current)
        if current != V:
            steps.append({"step": 0, "kind": "init", "pair": None, "dim": current.dim,
                          "monomial": mono, "shifted": shif})
        assert mono
    kind = "limit_shift" if route == "iterate" else "comb_shift"
    cap = 10 * V.n * V.n if max_rounds is None else max_rounds
    for _ in range(cap):
        changed = False
        for p in decreasing_pairs(V.n):
            moved = limit_shift(current, p)
            if moved != current:
                current, changed = moved, True
                mono, shif = _status(current)
                steps.append({"step": len(steps), "kind": kind, "pair": [p.i, p.j],
                              "dim": current.dim, "monomial": mono, "shifted": shif})
        if not changed:
            break
    else:
        raise IterationLimitError(
            f"no fixed point after {cap} round-robin rounds ({len(steps)} applied steps)"
        )
    return current, steps


def _drive_outcome(drive, V, route, max_rounds):
    try:
        W, trace = drive(V, route=route, max_rounds=max_rounds)
    except IterationLimitError as exc:
        return "raises", str(exc)
    return W, [st if isinstance(st, dict) else st.record() for st in trace]


class TestShiftedStop:
    def test_matches_the_drive_without_the_stop_rule(self, rng):
        cases = []
        for n, k in ((4, 2), (5, 2), (5, 3)):
            for kind in ("lex", "weight2"):
                order = MonomialOrder(kind, n, k)
                for _ in range(3):
                    F = random_intersecting_family(rng, n, k)
                    g = random_upper_triangular(rng, n)
                    cases.append(span([apply_linear(g, Multivector.monomial(n, s)) for s in F.sets],
                                      order))
                    sets = rng.sample(list(itertools.combinations(range(1, n + 1), k)),
                                      rng.randint(1, 4))
                    cases.append(monomial_span(n, k, sets, kind))
                cases.append(random_subspace(rng, order, 2))
        raised = Counter()
        for V in cases:
            for route in ROUTES:
                for max_rounds in (0, 1, 2, 3, None):
                    got = _drive_outcome(triangular_fixed_point, V, route, max_rounds)
                    want = _drive_outcome(parent_triangular_fixed_point, V, route, max_rounds)
                    assert got == want, (V, route, max_rounds)
                    raised[max_rounds] += got[0] == "raises"
        # every zero-round drive reaches the cap, and a one-round cap is
        # reached by some drives and not by others
        assert raised[0] == 2 * len(cases) and 0 < raised[1] < 2 * len(cases) and not raised[None]

    def test_round_cap_counts_the_round_that_reaches_a_shifted_state(self):
        # (2,1), (3,2), (4,3) in round one make {12, 13}, shifted at its last pair
        V = monomial_span(4, 2, [(2, 3), (2, 4)])
        for route in ROUTES:
            with pytest.raises(IterationLimitError):
                triangular_fixed_point(V, route=route, max_rounds=1)
            W, trace = triangular_fixed_point(V, route=route, max_rounds=2)
            assert W.monomial_basis() == SetFamily(4, 2, ((1, 2), (1, 3)))
            assert trace[-1].shifted and not any(st.shifted for st in trace[:-1])

    def test_status_once_per_state(self, rng, monkeypatch):
        # mono and shif are kept with the current state, so the status of
        # each state the drive holds is computed once: the starting state's,
        # then one per applied limit or shift
        import wedgeshift.limits as limits

        seen = []

        def counting(V):
            seen.append(V)
            return _status(V)

        monkeypatch.setattr(limits, "_status", counting)
        for n, k in ((5, 2), (6, 3)):
            order = MonomialOrder("lex", n, k)
            for _ in range(3):
                F = random_intersecting_family(rng, n, k)
                g = random_upper_triangular(rng, n)
                image = span([apply_linear(g, Multivector.monomial(n, s)) for s in F.sets], order)
                star = monomial_span(n, k, star_family(n, k, 1).sets)
                for V in (image, monomial_span(n, k, F.sets), star):
                    for route in ROUTES:
                        seen.clear()
                        _, trace = triangular_fixed_point(V, route=route)
                        assert len(seen) == 1 + sum(st.kind != "init" for st in trace)
                        assert all(a is not b for a, b in itertools.combinations(seen, 2))

    def _counted(self, monkeypatch):
        import wedgeshift.limits as limits

        calls = []

        def counting(V, pair):
            calls.append(V)
            return limit_shift(V, pair)

        monkeypatch.setattr(limits, "limit_shift", counting)
        return calls

    def test_star_makes_no_limit_call(self, monkeypatch):
        calls = self._counted(monkeypatch)
        for n, k in ((5, 2), (6, 3)):
            for kind in ("lex", "weight2"):
                V = monomial_span(n, k, star_family(n, k, 1).sets, kind)
                for route in ROUTES:
                    W, trace = triangular_fixed_point(V, route=route)
                    assert W == V and trace == [] and calls == []

    def test_no_limit_call_on_a_shifted_state(self, rng, monkeypatch):
        calls = self._counted(monkeypatch)
        for n, k in ((5, 2), (6, 3)):
            order = MonomialOrder("lex", n, k)
            for _ in range(3):
                F = random_intersecting_family(rng, n, k)
                g = random_invertible(rng, n)
                image = span([apply_linear(g, Multivector.monomial(n, s)) for s in F.sets], order)
                for V in (image, monomial_span(n, k, F.sets)):
                    for route in ROUTES:
                        calls.clear()
                        W, trace = triangular_fixed_point(V, route=route)
                        # the drive stops at the first shifted state, which
                        # is then the returned W; no limit call may see it
                        assert sum(st.shifted for st in trace) <= 1
                        assert not any(st.shifted for st in trace[:-1])
                        assert all(C is not W for C in calls)
                        for C in calls:
                            fam = C.monomial_basis()
                            assert fam is None or not is_shifted(fam)
