"""Set-family combinatorics and enumeration."""

import itertools
import tracemalloc
from math import comb

import pytest

from wedgeshift import (
    BudgetExceededError,
    SetFamily,
    ShiftPair,
    enumerate_families,
    family_decompose,
    hilton_milner_verify,
    is_intersecting,
    is_star,
    star_family,
)
from wedgeshift.families import ENUMERATION_MODES


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
    def test_last_set_star_test_matches_is_star(self, n, k):
        # the O(1) star test hilton_milner_verify applies to shifted families
        for F in enumerate_families(n, k, "shifted_intersecting"):
            if F.size:
                assert (F.sets[-1][0] == 1) == (is_star(F) is not None)

    @pytest.mark.parametrize("n,k,mode", [
        *((n, k, mode) for n, k in [(5, 2), (6, 3)] for mode in ENUMERATION_MODES),
        (8, 4, "shifted_intersecting"),
    ])
    def test_yielded_families_pass_validation(self, n, k, mode):
        # the walk builds families unchecked; each must rebuild equal through
        # the validating constructor, and stay lex-sorted for the star test
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
