"""Set-family combinatorics and enumeration."""

import itertools
import tracemalloc
from math import comb

import pytest

from wedgeshift import (
    BudgetExceededError,
    MonomialOrder,
    Multivector,
    SetFamily,
    ShiftPair,
    combinatorial_shift,
    enumerate_families,
    family_decompose,
    hilton_milner_verify,
    is_intersecting,
    is_shifted,
    is_star,
    span,
)
from wedgeshift.families import DEFAULT_BUDGET, ENUMERATION_MODES, _mask_sets, _walk
from samplers import star_family


def fam(n, k, *sets):
    return SetFamily(n, k, tuple(tuple(s) for s in sets))


class TestSetFamily:
    def test_sorted_and_validated(self):
        F = fam(4, 2, (3, 1), (1, 2))
        assert F.sets == ((1, 2), (1, 3))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            fam(4, 2, (1, 2), (2, 1))

    def test_uniformity_enforced(self):
        with pytest.raises(ValueError):
            fam(4, 2, (1, 2, 3))

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            fam(4, 2, (1, 5))

    def test_contains(self):
        F = fam(5, 2, (1, 2), (1, 4), (2, 5))
        assert (1, 4) in F and [4, 1] in F and (5, 2) in F
        assert (1, 3) not in F and (3, 5) not in F and (4, 5) not in F
        assert (1, 2) not in fam(5, 2)

    def test_shift_pair_validation(self):
        with pytest.raises(ValueError):
            ShiftPair(2, 2)


class TestIntersecting:
    def test_star_like(self):
        assert is_intersecting(fam(4, 2, (1, 2), (1, 3)))

    def test_disjoint_pair(self):
        assert not is_intersecting(fam(4, 2, (1, 2), (3, 4)))

    def test_empty_vacuous(self):
        assert is_intersecting(fam(4, 2))


class TestDecompose:
    def test_triangle_at_three(self):
        F = fam(3, 2, (1, 2), (2, 3), (1, 3))
        star, dele, link = family_decompose(F, 3)
        assert star.sets == ((1, 3), (2, 3))
        assert dele.sets == ((1, 2),)
        assert link.sets == ((1,), (2,))
        assert star.size == link.size and F.size == star.size + dele.size

    def test_empty(self):
        star, dele, link = family_decompose(fam(3, 2), 3)
        assert star.size == dele.size == link.size == 0

    def test_absent_element(self):
        F = fam(3, 2, (1, 2))
        star, dele, link = family_decompose(F, 3)
        assert star.size == 0 and dele == F and link.size == 0

    def test_zero_uniform_has_no_link(self):
        for F in (fam(3, 0), fam(3, 0, ())):
            with pytest.raises(ValueError, match="no link"):
                family_decompose(F, 1)


class TestStar:
    def test_least_common_element(self):
        assert is_star(fam(4, 2, (1, 2), (1, 3))) == 1

    def test_triangle_is_not_a_star(self):
        assert is_star(fam(4, 2, (1, 2), (1, 3), (2, 3))) is None

    def test_empty_has_none(self):
        assert is_star(fam(4, 2)) is None

    def test_star_family_size(self):
        for n in range(2, 8):
            for k in range(1, n + 1):
                for v in (1, n):
                    assert star_family(n, k, v).size == comb(n - 1, k - 1)


class TestEnumerate:
    def test_smallest_shifted_listing(self):
        fams = list(enumerate_families(2, 1, "shifted_intersecting"))
        assert fams == [fam(2, 1), fam(2, 1, (1,))]

    def test_shifted_4_2_contains_expected(self):
        fams = set(f.sets for f in enumerate_families(4, 2, "shifted_intersecting"))
        assert ((1, 2), (1, 3), (1, 4)) in fams
        assert ((1, 2), (1, 3), (2, 3)) in fams

    def test_all_intersecting_4_2(self):
        fams = list(enumerate_families(4, 2, "all_intersecting"))
        assert len(fams) == 27  # three complement pairs, three choices each
        assert max(f.size for f in fams) == 3

    def test_kneser_matching_count_6_3(self):
        count = sum(1 for _ in enumerate_families(6, 3, "all_intersecting"))
        assert count == 3 ** 10

    def test_maximal_mode(self):
        fams = list(enumerate_families(4, 2, "maximal_intersecting"))
        # a maximal intersecting family of 2-sets of [4] picks one from each pair
        assert all(f.size == 3 for f in fams)
        assert len(fams) == 8
        full = list(enumerate_families(4, 2, "all_intersecting"))
        assert set(f.sets for f in fams) <= set(f.sets for f in full)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_families(6, 3, "all_intersecting", budget=100))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            list(enumerate_families(4, 2, "everything"))

    @pytest.mark.parametrize("n,k,budget", [(30, 15, 10), (12, 6, comb(12, 6))])
    def test_budget_checked_before_allocation(self, n, k, budget):
        # a budget below C(n, k) + 1 is refused before the disjointness
        # table, which would need C(n, k)^2 bits (C(30, 15)^2 does not fit in memory)
        tracemalloc.start()
        try:
            walk = enumerate_families(n, k, "all_intersecting", budget=budget)
            with pytest.raises(BudgetExceededError, match="budget"):
                next(walk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("mode", ENUMERATION_MODES)
    @pytest.mark.parametrize("n,k", [(1001, 1), (14, 4), (46, 2), (1001, 1000)])
    def test_table_cap(self, n, k, mode):
        # C(n, k)^2 > 10^6: the table is refused on the first next(), even
        # where the budget admits the walk and the walk is short; the CLI
        # test of the cap guards the memory
        bits = comb(n, k) ** 2
        walk = enumerate_families(n, k, mode)
        with pytest.raises(BudgetExceededError, match=f"^disjointness table would have {bits} bits"):
            next(walk)

    def test_table_cap_is_exact(self):
        # C(1000, 1)^2 = 10^6 is at the cap: the walk yields the empty family
        # and the 1000 singletons
        assert sum(1 for _ in enumerate_families(1000, 1, "all_intersecting")) == 1001
        assert next(enumerate_families(45, 2, "shifted_intersecting")).sets == ()

    def test_budget_guard_is_exact(self):
        # C(4, 2) + 1 = 7 passes the up-front guard; the first node yields the empty family
        first = next(enumerate_families(4, 2, "all_intersecting", budget=7))
        assert first.sets == ()

    def test_deterministic_order(self):
        a = [f.sets for f in enumerate_families(5, 2, "shifted_intersecting")]
        b = [f.sets for f in enumerate_families(5, 2, "shifted_intersecting")]
        assert a == b


def _reference_walk(n, k, mode):
    """The include/skip recursion: one node per (position, mask) on every
    path, so nodes run to about families x C(n, k).  Kept as the oracle for
    the order and content of enumerate_families."""
    base = list(itertools.combinations(range(1, n + 1), k))
    if mode == "shifted_intersecting":
        base.sort(key=lambda s: (sum(s), s))
    index = {s: t for t, s in enumerate(base)}
    N = len(base)
    disjoint = [sum(1 << u for u, o in enumerate(base) if not set(s) & set(o)) for s in base]
    covers = [0] * N
    if mode == "shifted_intersecting":
        for t, s in enumerate(base):
            for idx, a in enumerate(s):
                if a > 1 and a - 1 not in s:
                    covers[t] |= 1 << index[tuple(sorted(s[:idx] + (a - 1,) + s[idx + 1:]))]

    def walk(t, mask, chosen):
        if t == N:
            if mode == "maximal_intersecting" and any(
                not (mask >> u) & 1 and not disjoint[u] & mask for u in range(N)
            ):
                return
            yield tuple(sorted(chosen))
            return
        yield from walk(t + 1, mask, chosen)
        if disjoint[t] & mask or covers[t] & ~mask:
            return
        yield from walk(t + 1, mask | (1 << t), chosen + [base[t]])

    return list(walk(0, 0, []))


class TestWalkDifferential:
    @pytest.mark.parametrize("n,k,mode", [
        *((n, k, mode) for n, k in [(4, 2), (5, 2), (6, 3)] for mode in ENUMERATION_MODES),
        (7, 3, "shifted_intersecting"),
        (8, 4, "shifted_intersecting"),
    ])
    def test_same_families_same_order(self, n, k, mode):
        got = [f.sets for f in enumerate_families(n, k, mode)]
        assert got == _reference_walk(n, k, mode)

    @pytest.mark.parametrize("n,k,mode,count", [
        (7, 3, "shifted_intersecting", 72),
        (4, 2, "all_intersecting", 27),
    ])
    def test_budget_is_exact_node_count(self, n, k, mode, count):
        # every visited node is a yielded family in these two modes
        assert sum(1 for _ in enumerate_families(n, k, mode, budget=count)) == count
        walk = enumerate_families(n, k, mode, budget=count - 1)
        with pytest.raises(BudgetExceededError,
                           match=f"budget of {count - 1} nodes after {count - 1} families"):
            list(walk)

    @pytest.mark.parametrize("n,k", [(6, 3), (7, 3), (8, 4)])
    def test_mask_star_test_matches_is_star(self, n, k):
        # the test hilton_milner_verify applies: a shifted family's lex mask is
        # below 2^C(n-1, k-1), of at most that many bits, iff the family is
        # empty or a star
        star_bits = comb(n - 1, k - 1)
        for lex in _walk(n, k, "shifted_intersecting", DEFAULT_BUDGET):
            F = SetFamily(n, k, _mask_sets(n, k, lex))
            assert F.sets == _mask_sets(n, k, lex) and len(F) == lex.bit_count()
            assert (lex.bit_length() <= star_bits) == (F.size == 0 or is_star(F) is not None)

    def test_hm_verify_builds_no_family(self, monkeypatch):
        # hilton_milner_verify reads the walk's masks: neither the checked nor
        # the trusted door of SetFamily is entered
        built = []
        post_init, trusted = SetFamily.__post_init__, SetFamily._trusted.__func__
        monkeypatch.setattr(SetFamily, "__post_init__",
                            lambda self: built.append("checked") or post_init(self))
        monkeypatch.setattr(SetFamily, "_trusted",
                            classmethod(lambda cls, *a: built.append("trusted") or trusted(cls, *a)))
        assert hilton_milner_verify(7, 3).certificate["enumerated"] == 72
        assert built == []
        next(enumerate_families(7, 3, "shifted_intersecting"))
        fam(3, 1, (1,))
        assert built == ["trusted", "checked"]

    @pytest.mark.parametrize("n,k,mode", [
        *((n, k, mode) for n, k in [(5, 2), (6, 3)] for mode in ENUMERATION_MODES),
        (8, 4, "shifted_intersecting"),
    ])
    def test_yielded_families_pass_validation(self, n, k, mode):
        # enumerate_families decodes families unchecked; each must rebuild
        # equal through the validating constructor and come lex-sorted
        for F in enumerate_families(n, k, mode):
            assert SetFamily(F.n, F.k, F.sets) == F
            assert list(F.sets) == sorted(F.sets)

    def test_hm_certificate_matches_reference_walk(self):
        # 71 witnesses of size 35 at (8, 4), more than the 10 reported, so the
        # reported ones pin the order of the walk
        enumerated = checked = max_size = 0
        witnesses = []
        for sets in _reference_walk(8, 4, "shifted_intersecting"):
            enumerated += 1
            if not sets or set(sets[0]).intersection(*sets[1:]):
                continue
            checked += 1
            if len(sets) > max_size:
                max_size, witnesses = len(sets), [sets]
            elif len(sets) == max_size:
                witnesses.append(sets)
        assert (enumerated, max_size, len(witnesses)) == (3978, 35, 71)
        cert = hilton_milner_verify(8, 4).certificate
        assert cert["enumerated"] == enumerated
        assert cert["non_star_checked"] == checked
        assert cert["max_size"] == max_size
        assert cert["witness_count"] == len(witnesses)
        assert cert["witnesses"] == [[list(s) for s in w] for w in witnesses[:10]]


def _closed_under_replacements(F):
    """The definition of shifted: replacing any member's element i by any
    smaller absent j gives a member."""
    members = set(F.sets)
    return all(tuple(sorted(set(s) - {i} | {j})) in members
               for s in F.sets for i in s for j in range(1, i) if j not in s)


def _subfamilies(n, k):
    pool = list(itertools.combinations(range(1, n + 1), k))
    for mask in range(1 << len(pool)):
        yield SetFamily(n, k, tuple(s for t, s in enumerate(pool) if mask >> t & 1))


class TestShiftedCoverRule:
    """is_shifted checks one-step covers only; it must agree with the
    all-replacements definition."""

    @pytest.mark.parametrize("n,k,shifted", [(4, 2, 8), (5, 2, 16)])
    def test_every_family(self, n, k, shifted):
        # 2^6 and 2^10 families; the shifted ones are the down-sets of the
        # componentwise order, at (4, 2) those of 12 < 13 < {14, 23} < 24 < 34
        verdicts = [is_shifted(F) for F in _subfamilies(n, k)]
        assert verdicts == [_closed_under_replacements(F) for F in _subfamilies(n, k)]
        assert verdicts.count(True) == shifted

    @pytest.mark.parametrize("F", [fam(4, 0), fam(4, 0, ()), fam(4, 2), fam(3, 3, (1, 2, 3)),
                                   fam(1, 1, (1,)), fam(5, 1, (1,), (2,)), fam(5, 1, (1,), (3,))])
    def test_edge_shapes(self, F):
        assert is_shifted(F) == _closed_under_replacements(F)

    def test_random_families(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def families(draw):
            n = draw(st.integers(1, 8))
            k = draw(st.integers(0, n))
            pool = list(itertools.combinations(range(1, n + 1), k))
            sets = set(draw(st.lists(st.sampled_from(pool), max_size=12)))
            if draw(st.booleans()):  # close downward, then maybe drop one member
                todo = list(sets)
                while todo:
                    s = todo.pop()
                    for i in s:
                        for j in range(1, i):
                            low = tuple(sorted(set(s) - {i} | {j}))
                            if j not in s and low not in sets:
                                sets.add(low)
                                todo.append(low)
                if sets and draw(st.booleans()):
                    sets.discard(draw(st.sampled_from(sorted(sets))))
            return SetFamily(n, k, tuple(sets))

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(families())
        def check(F):
            assert is_shifted(F) == _closed_under_replacements(F)

        check()


def _assert_checked_rebuild(F):
    assert SetFamily(F.n, F.k, F.sets) == F
    assert list(F.sets) == sorted(F.sets)


class TestTrustedPaths:
    """Families the package builds skip the validating constructor; each must
    rebuild equal through it and come lex-sorted."""

    @pytest.mark.parametrize("kind", ["lex", "weight2"])
    def test_monomial_basis(self, kind, rng):
        # under weight2, {2,3} (weight 12) is the pivot before {1,4} (18)
        V = span([Multivector.monomial(4, s) for s in [(1, 4), (2, 3)]], MonomialOrder(kind, 4, 2))
        F = V.monomial_basis()
        _assert_checked_rebuild(F)
        assert F.sets == ((1, 4), (2, 3))
        for _ in range(30):
            n = rng.randint(2, 7)
            k = rng.randint(1, min(3, n))
            pool = list(itertools.combinations(range(1, n + 1), k))
            sets = rng.sample(pool, rng.randint(0, len(pool)))
            F = span([Multivector.monomial(n, s) for s in sets], MonomialOrder(kind, n, k)).monomial_basis()
            _assert_checked_rebuild(F)
            assert set(F.sets) == set(sets)

    def test_family_decompose(self, rng):
        pool = list(itertools.combinations(range(1, 7), 3))
        randoms = [SetFamily(6, 3, tuple(rng.sample(pool, rng.randint(0, 20)))) for _ in range(50)]
        for F in [*enumerate_families(6, 3, "shifted_intersecting"), *randoms]:
            for v in range(1, 7):
                for part in family_decompose(F, v):
                    _assert_checked_rebuild(part)

    def test_combinatorial_shift(self):
        # (2, 3) moves to (1, 2), which lands before the unmoved (1, 3)
        out = combinatorial_shift(fam(4, 2, (1, 3), (2, 3)), ShiftPair(3, 1))
        _assert_checked_rebuild(out)
        assert out.sets == ((1, 2), (1, 3))
        for F in _subfamilies(4, 2):
            for i, j in itertools.permutations(range(1, 5), 2):
                _assert_checked_rebuild(combinatorial_shift(F, ShiftPair(i, j)))
