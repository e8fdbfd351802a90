"""Acceptance suite: one test per criterion, exact tolerances, desk scale.

Every expected number is either reproduced exactly by an independent oracle
(enumeration, finite differences of nothing here -- everything is finite and
exact) or is a binomial identity computed by math.comb.  Run with ``-s`` to
see one line per criterion.
"""

import itertools
import random
from math import comb

import pytest

from oracles import apply_map, contains
from samplers import random_intersecting_family, random_upper_triangular
from wedgeshift import (
    MonomialOrder,
    Multivector,
    SetFamily,
    apply_linear,
    combinatorial_shift,
    common_annihilator,
    complement_pair_space,
    decreasing_pairs,
    ekr_bound,
    ekr_pipeline,
    enumerate_families,
    extract_cofactor,
    factor_report,
    hm_bound,
    initial_subspace,
    is_intersecting,
    is_shifted,
    is_star,
    limit_shift,
    linear_factors,
    pluecker_limit,
    self_annihilating,
    shifted_ekr_verify,
    span,
    wedge,
)
from wedgeshift.families import ShiftPair
from wedgeshift.sampling import random_multivector, random_subspace


def monomial_span(n, k, sets, kind="lex"):
    order = MonomialOrder(kind, n, k)
    vecs = [Multivector.monomial(n, s) for s in sets]
    return span(vecs, order) if vecs else span([], order)


def all_ordered_pairs(n):
    return [ShiftPair(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


@pytest.fixture(scope="module")
def shifted_enumerations():
    return {
        (n, k): list(enumerate_families(n, k, "shifted_intersecting"))
        for (n, k) in [(5, 2), (6, 2), (6, 3), (7, 3), (8, 3)]
    }


def test_criterion_1_ekr_exhaustive():
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        bound = ekr_bound(n, k)
        count = 0
        max_size = 0
        for fam in enumerate_families(n, k, "all_intersecting"):
            count += 1
            max_size = max(max_size, fam.size)
            assert fam.size <= bound, (n, k, fam.sets)
        if (n, k) == (6, 3):
            assert count == 3 ** 10 == 59049
            assert max_size == 10 == comb(5, 2)
    print("ACCEPTANCE 1 PASS: all intersecting families at (4,2),(5,2),(6,3) obey "
          "the bound; (6,3) has exactly 59049 families with maximum 10")


def test_criterion_2_shifted_ekr(shifted_enumerations):
    for n, k in [(6, 2), (7, 3), (8, 3)]:
        attained_stars = 0
        for fam in shifted_enumerations[(n, k)]:
            report = shifted_ekr_verify(fam)
            assert report.satisfied, (n, k, fam.sets)
            if 2 * k < n and fam.size == ekr_bound(n, k):
                assert is_star(fam) is not None, (n, k, fam.sets)
                attained_stars += 1
        assert attained_stars >= 1  # the full star itself is enumerated
    print("ACCEPTANCE 2 PASS: shifted induction certifies every shifted "
          "intersecting family at (6,2),(7,3),(8,3); bound-attaining ones are stars")


def test_criterion_3_hilton_milner(shifted_enumerations):
    for n, k in [(6, 2), (7, 3), (8, 3)]:
        bound = hm_bound(n, k)
        max_non_star = 0
        for fam in shifted_enumerations[(n, k)]:
            if fam.size and is_star(fam) is None:
                assert fam.size <= bound, (n, k, fam.sets)
                max_non_star = max(max_non_star, fam.size)
        if (n, k) == (6, 2):
            assert max_non_star == 3 == 5 - 3 + 1
            triangle = SetFamily(6, 2, ((1, 2), (1, 3), (2, 3)))
            assert triangle in [f for f in shifted_enumerations[(6, 2)]]
    print("ACCEPTANCE 3 PASS: every non-star shifted intersecting family at "
          "(6,2),(7,3),(8,3) obeys the no-common-element bound; the triangle attains 3 at (6,2)")


def test_criterion_4_limit_oracles():
    # exhaustive: every subset of the six 2-subsets of [4], every pair
    pool = list(itertools.combinations(range(1, 5), 2))
    pairs = all_ordered_pairs(4)
    for r in range(len(pool) + 1):
        for sets in itertools.combinations(pool, r):
            F = SetFamily(4, 2, sets)
            V = monomial_span(4, 2, sets)
            for p in pairs:
                assert limit_shift(V, p).monomial_basis() == combinatorial_shift(F, p)
    # randomized: Pluecker vector of the limit equals the limit of Pluecker vectors
    rng = random.Random(40202)
    order = MonomialOrder("lex", 4, 2)
    for trial in range(200):
        V = random_subspace(rng, order, 1 + trial % 3)
        for p in pairs:
            assert limit_shift(V, p).pluecker() == pluecker_limit(V, p), (trial, p)
    print("ACCEPTANCE 4 PASS: limit/shift compatibility exhaustive on 64 monomial "
          "subspaces x 12 pairs; Pluecker oracle agrees on 200 random subspaces x 12 pairs")


def test_criterion_5_initial_degeneration():
    rng = random.Random(50505)
    shapes = [(n, k) for n in (3, 4, 5) for k in (1, 2)]
    checked = 0
    for trial in range(500):
        n, k = shapes[trial % len(shapes)]
        kind = ("lex", "weight2")[trial % 2]
        order = MonomialOrder(kind, n, k)
        m = 1 + trial % min(3, comb(n, k))
        V = random_subspace(rng, order, m)
        W = initial_subspace(V)
        assert W.dim == V.dim
        fam = W.monomial_basis()
        assert fam is not None
        assert set(V.pluecker().items[0][0]) == set(W.pivots())
        checked += 1
    assert checked == 500
    print("ACCEPTANCE 5 PASS: 500 random subspaces, both orders: initial "
          "degeneration keeps dimension, is monomial, and matches the earliest "
          "nonvanishing Pluecker coordinate")


def test_criterion_6_pipeline():
    rng = random.Random(60606)
    trials_per_shape = 34
    total = 0
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        for _ in range(trials_per_shape):
            F = random_intersecting_family(rng, n, k)
            g = random_upper_triangular(rng, n)
            V = apply_map(monomial_span(n, k, F.sets), lambda x: apply_linear(g, x))
            assert V.dim == F.size
            for route in ("iterate", "init-then-shift"):
                report = ekr_pipeline(V, route=route)
                assert report.satisfied
                assert report.size == V.dim <= ekr_bound(n, k)
                out = SetFamily(n, k, tuple(tuple(s) for s in report.certificate["family"]))
                assert is_shifted(out) and is_intersecting(out)
                assert out.size == V.dim
                # every applied step kept the dimension; self-annihilation is
                # re-verified against the traced states inside the pipeline
                assert all(st["dim"] == V.dim for st in report.certificate["steps"])
            total += 1
    assert total == 102
    print("ACCEPTANCE 6 PASS: 102 random triangular images of intersecting "
          "monomial families at (4,2),(5,2),(6,3) pipeline to shifted "
          "intersecting families within the bound on both routes")


def test_criterion_7_complement_pair_space():
    V = complement_pair_space(3)  # construction re-verifies its own guarantees
    assert V.n == 6
    assert V.dim == 10 == comb(5, 2)
    assert self_annihilating(V)
    assert len(V.rows) == 10
    for row in V.rows:
        assert len(row.terms) == 2
        assert linear_factors(row).dim == 0
    assert common_annihilator(V).dim == 0
    print("ACCEPTANCE 7 PASS: complement-pair space at k=3 has n=6, dim 10, "
          "annihilates itself, and is factor-free with zero common annihilator")


def test_criterion_8_factor_roundtrips():
    rng = random.Random(80808)
    done = 0
    while done < 1000:
        n = rng.randint(2, 6)
        k = rng.randint(1, min(3, n))
        a = random_multivector(rng, n, 1)
        w = random_multivector(rng, n, k - 1) if k > 1 else Multivector(n, {(): 1})
        v = wedge(a, w)
        if v.is_zero:
            continue
        assert contains(linear_factors(v), a)
        assert wedge(a, extract_cofactor(v, a)) == v
        done += 1
    # exhaustive decomposability on monomial-pair sums over [4]
    pool = list(itertools.combinations(range(1, 5), 2))
    for A, B in itertools.combinations(pool, 2):
        v = Multivector(4, {A: 1, B: 1})
        report = factor_report(v)
        assert report.decomposable == (len(set(A) & set(B)) == 1)
        assert report.decomposable == (report.factor_dim == 2)
        if report.decomposable:
            a, b = report.factor_space.rows
            product = wedge(a, b)
            ratio = next(iter(v.terms.values())) / next(iter(product.terms.values()))
            assert product.scale(ratio) == v
    print("ACCEPTANCE 8 PASS: 1000 factor/cofactor round trips verified by exact "
          "wedge-back; decomposability detection exhaustive on (4,2) pair sums")


def test_criterion_9_fixed_point_characterization(shifted_enumerations):
    rng = random.Random(90909)
    for n, k in [(5, 2), (6, 3)]:
        maps = [random_upper_triangular(rng, n) for _ in range(50)]
        pairs = decreasing_pairs(n)
        for fam in shifted_enumerations[(n, k)]:
            V = monomial_span(n, k, fam.sets)
            if V.dim == 0:
                continue
            for p in pairs:
                assert limit_shift(V, p) == V, (n, k, fam.sets, p)
            for g in maps:
                assert apply_map(V, lambda x: apply_linear(g, x)) == V, (n, k, fam.sets)
        # non-shifted monomial families move under some decreasing pair
        moved_checked = 0
        pool = list(itertools.combinations(range(1, n + 1), k))
        while moved_checked < 50:
            sets = tuple(s for s in pool if rng.random() < 0.4)
            fam = SetFamily(n, k, sets)
            if not sets or is_shifted(fam):
                continue
            V = monomial_span(n, k, sets)
            assert any(limit_shift(V, p) != V for p in pairs), sets
            moved_checked += 1
    print("ACCEPTANCE 9 PASS: every shifted family span at (5,2),(6,3) is fixed by "
          "all decreasing limits and 50 triangular maps; 50 non-shifted samples each move")
