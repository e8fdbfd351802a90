"""Bounds, the shifted induction, self-annihilation, and the full pipeline."""

from math import comb

import pytest

from oracles import apply_map
from samplers import random_intersecting_family, random_upper_triangular, star_family
from wedgeshift import (
    FalsificationError,
    LinearMap,
    MonomialOrder,
    Multivector,
    SetFamily,
    apply_linear,
    ekr_bound,
    ekr_pipeline,
    hilton_milner_verify,
    hm_bound,
    is_intersecting,
    is_shifted,
    self_annihilating,
    shifted_ekr_verify,
    span,
)
import wedgeshift.ekr as ekr
import wedgeshift.limits as limits
from wedgeshift.ekr import _shifted_cert
from wedgeshift.cli import main
from wedgeshift.limits import ROUTES, triangular_fixed_point
from wedgeshift.sampling import random_invertible


def monomial_span(n, k, sets, kind="lex"):
    order = MonomialOrder(kind, n, k)
    return span([Multivector.monomial(n, s) for s in sets], order) if sets else span([], order)


class TestBounds:
    def test_ekr_values(self):
        assert ekr_bound(6, 3) == 10
        assert ekr_bound(4, 2) == 3

    def test_hm_values(self):
        assert hm_bound(6, 2) == 5 - 3 + 1 == 3
        assert hm_bound(7, 3) == 13
        assert hm_bound(4, 2) == 3

    def test_half_identity(self):
        for k in range(1, 6):
            assert ekr_bound(2 * k, k) == comb(2 * k, k) // 2 == comb(2 * k - 1, k - 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ekr_bound(4, 3)
        with pytest.raises(ValueError):
            hm_bound(6, 1)
        with pytest.raises(ValueError):
            ekr_bound(3, 0)


class TestSelfAnnihilating:
    def test_common_index(self, mv):
        assert self_annihilating(span([mv(4, "e1^e2"), mv(4, "e1^e3")]))

    def test_disjoint_pair(self, mv):
        assert not self_annihilating(span([mv(4, "e1^e2"), mv(4, "e3^e4")]))

    def test_digits_that_cancel_under_a_one_bit_shift(self, mv):
        # r0^r0 = 2*e1^e2^e3^e4 and r0^r1 = -e1^e2^e3^e4: 2 + (-1 << 1) = 0
        assert not self_annihilating(span([mv(4, "e1^e2 + e3^e4"), mv(4, "e1^e3 - e3^e4")]))

    def test_digits_that_cancel_with_no_shift(self, mv):
        # r0^r0 = 2*e1^e2^e3^e4 and r0^r1 = -2*e1^e2^e3^e4: 2 + -2 = 0
        assert not self_annihilating(span([mv(4, "e1^e2 + e3^e4"), mv(4, "e1^e3 - 2*e3^e4")]))

    def test_one_row_whose_powers_do_not_vanish(self, mv):
        # only the diagonal products r^r and r^r^r are nonzero
        assert not self_annihilating(span([mv(4, "e1^e2 + e3^e4")]))
        assert not self_annihilating(span([mv(6, "e1^e2 + e3^e4 + e5^e6"), mv(6, "e1^e3")]), s=3)

    def test_complement_pair_element(self, mv):
        assert self_annihilating(span([mv(6, "e1^e2^e3 + e4^e5^e6")]))

    def test_s_fold(self, mv):
        V = span([mv(6, "e1^e2"), mv(6, "e3^e4"), mv(6, "e5^e6")])
        assert not self_annihilating(V, s=2)
        assert not self_annihilating(V, s=3)
        W = span([mv(6, "e1^e2"), mv(6, "e1^e3"), mv(6, "e1^e4")])
        assert self_annihilating(W, s=3)
        with pytest.raises(ValueError):
            self_annihilating(W, s=1)

    def test_monomial_correspondence(self, rng):
        # span of monomials annihilates itself exactly when the family intersects
        import itertools

        for _ in range(30):
            pool = list(itertools.combinations(range(1, 6), 2))
            sets = tuple(s for s in pool if rng.random() < 0.4)
            F = SetFamily(5, 2, sets)
            V = monomial_span(5, 2, F.sets)
            assert self_annihilating(V) == is_intersecting(F)

    def test_invariance_under_invertible_maps(self, rng):
        for _ in range(10):
            F = random_intersecting_family(rng, 5, 2)
            V = monomial_span(5, 2, F.sets)
            g = random_invertible(rng, 5)
            W = apply_map(V, lambda x: apply_linear(g, x))
            assert self_annihilating(W) == self_annihilating(V) == True  # noqa: E712


class TestShiftedVerify:
    def test_full_star(self):
        F = star_family(6, 3, 1)
        report = shifted_ekr_verify(F)
        assert report.size == 10 == report.bound
        assert report.satisfied and report.star_element == 1

    def test_empty(self):
        report = shifted_ekr_verify(SetFamily(6, 3, ()))
        assert report.size == 0 and report.satisfied

    def test_triangle_recursion_depth(self):
        F = SetFamily(6, 2, ((1, 2), (1, 3), (2, 3)))
        report = shifted_ekr_verify(F)
        assert report.size == 3 <= report.bound == 5
        cert = report.certificate
        depth = 0
        while "children" in cert:
            cert = cert["children"]["deletion"]
            depth += 1
        assert depth == 2  # 6 -> 5 -> 4 hits the half base case
        assert cert["case"] == "complement-pairs"

    def test_error_kinds_distinct(self):
        with pytest.raises(ValueError, match="not shifted"):
            shifted_ekr_verify(SetFamily(4, 2, ((2, 3),)))
        with pytest.raises(ValueError, match="not intersecting"):
            shifted_ekr_verify(SetFamily(4, 2, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))))
        with pytest.raises(ValueError, match="n/2"):
            shifted_ekr_verify(star_family(4, 3, 1))

    def test_complement_pairs_base_case(self):
        # unreachable through shifted_ekr_verify, which rejects non-intersecting
        # input first; the base case still refuses a complementary pair itself
        with pytest.raises(FalsificationError, match="complementary pair"):
            _shifted_cert(6, 3, ((1, 2, 3), (1, 2, 4), (4, 5, 6)))
        cert = _shifted_cert(6, 3, ((1, 2, 3), (1, 2, 4), (1, 3, 4)))
        assert cert == {"n": 6, "k": 3, "size": 3, "bound": 10,
                        "case": "complement-pairs", "satisfied": True}

    def test_every_small_shifted_family(self):
        from wedgeshift import enumerate_families

        for n, k in [(4, 2), (5, 2), (6, 3)]:
            for F in enumerate_families(n, k, "shifted_intersecting"):
                assert shifted_ekr_verify(F).satisfied


class TestPipeline:
    def test_star_at_two(self):
        V = monomial_span(4, 2, [(1, 2), (2, 3), (2, 4)])
        report = ekr_pipeline(V)
        assert report.certificate["family"] == [[1, 2], [1, 3], [1, 4]]
        assert report.size == 3 == report.bound and report.satisfied
        assert report.star_element == 1

    def test_zero_subspace(self):
        report = ekr_pipeline(span([], MonomialOrder("lex", 4, 2)))
        assert report.size == 0 and report.satisfied

    def test_transformed_star(self, rng):
        F = star_family(5, 2, 1)
        g = random_upper_triangular(rng, 5)
        V = apply_map(monomial_span(5, 2, F.sets), lambda x: apply_linear(g, x))
        for route in ("iterate", "init-then-shift"):
            report = ekr_pipeline(V, route=route)
            assert report.size == 4 == report.bound and report.satisfied
            out = SetFamily(5, 2, tuple(tuple(s) for s in report.certificate["family"]))
            assert is_shifted(out) and is_intersecting(out)

    def test_rejects_non_annihilating(self, mv):
        V = span([mv(4, "e1^e2"), mv(4, "e3^e4")])
        with pytest.raises(ValueError, match="self-annihilating"):
            ekr_pipeline(V)

    def test_rejects_large_grade(self):
        V = monomial_span(4, 3, [(1, 2, 3)])
        with pytest.raises(ValueError, match="n/2"):
            ekr_pipeline(V)

    def test_preserves_invariants_stepwise(self, rng):
        for _ in range(5):
            F = random_intersecting_family(rng, 5, 2)
            g = random_upper_triangular(rng, 5)
            V = apply_map(monomial_span(5, 2, F.sets), lambda x: apply_linear(g, x))
            report = ekr_pipeline(V, route="iterate")
            assert all(st["dim"] == V.dim for st in report.certificate["steps"])
            assert report.satisfied


    @pytest.mark.parametrize("route", ROUTES)
    def test_builds_no_checked_family(self, rng, monkeypatch, route):
        # the fixed-point family and the certificate's parts are package
        # built: none goes through the validating constructor
        V = TestStepwiseRecheck.source(rng)
        built = []
        post_init = SetFamily.__post_init__
        monkeypatch.setattr(SetFamily, "__post_init__", lambda self: built.append(self) or post_init(self))
        report = ekr_pipeline(V, route=route)
        assert report.satisfied and len(report.certificate["steps"]) > 1
        assert built == []


class TestFixedPointIntersecting:
    """The drive certifies the fixed point monomial and shifted; the pipeline
    itself checks its family intersecting, and a failure falsifies (exit 2)."""

    @pytest.fixture
    def disjoint_fixed_point(self, monkeypatch):
        # {12, 13, 14, 23} is shifted, but 14 and 23 are disjoint
        W = monomial_span(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3)])
        assert is_shifted(W.monomial_basis()) and not is_intersecting(W.monomial_basis())
        monkeypatch.setattr(ekr, "triangular_fixed_point", lambda V, route, on_step: (W, []))

    def test_library_raises(self, disjoint_fixed_point):
        with pytest.raises(FalsificationError, match="fixed-point support family is not intersecting"):
            ekr_pipeline(monomial_span(4, 2, [(1, 2)]))

    def test_cli_exits_2(self, disjoint_fixed_point, capsys):
        code = main(["pipeline", '{"n": 4, "k": 2, "basis": ["e1^e2"]}'])
        assert code == 2
        assert "fixed-point support family is not intersecting" in capsys.readouterr().err


class TestStepwiseRecheck:
    """ekr_pipeline rechecks dimension and self-annihilation on each state the
    drive produces, as the drive applies it."""

    @staticmethod
    def source(rng):
        # e_c goes to e_c plus larger indices, so the initial family is the
        # unshifted triangle itself and both routes apply limit steps
        V = monomial_span(5, 2, [(2, 4), (2, 5), (4, 5)])
        g = LinearMap(zip(*random_upper_triangular(rng, 5).entries))
        return apply_map(V, lambda x: apply_linear(g, x))

    @staticmethod
    def first_limit_step(V, route):
        _, trace = triangular_fixed_point(V, route=route)
        return next(st.step for st in trace if st.kind != "init")

    @staticmethod
    def corrupt_first_change(monkeypatch, bad):
        # the first limit call that changes its input returns bad instead
        real = limits.limit_shift
        changed = []

        def patched(V, pair):
            out = real(V, pair)
            if out != V and not changed:
                changed.append(pair)
                return bad
            return out

        monkeypatch.setattr(limits, "limit_shift", patched)

    @pytest.mark.parametrize("route", ROUTES)
    def test_lost_self_annihilation_raises_at_its_step(self, rng, mv, monkeypatch, route):
        V = self.source(rng)
        t = self.first_limit_step(V, route)
        bad = span([mv(5, "e1^e2"), mv(5, "e3^e4"), mv(5, "e1^e5")])
        assert bad.dim == V.dim and not self_annihilating(bad)
        self.corrupt_first_change(monkeypatch, bad)
        with pytest.raises(FalsificationError, match=f"^self-annihilation lost at step {t}$"):
            ekr_pipeline(V, route=route)

    @pytest.mark.parametrize("route", ROUTES)
    def test_changed_dimension_raises_at_its_step(self, rng, mv, monkeypatch, route):
        V = self.source(rng)
        t = self.first_limit_step(V, route)
        self.corrupt_first_change(monkeypatch, span([mv(5, "e1^e2")]))
        with pytest.raises(FalsificationError, match=f"^dimension changed at step {t}: 3 -> 1$"):
            ekr_pipeline(V, route=route)

    @pytest.mark.parametrize("route", ROUTES)
    def test_every_state_is_rechecked_in_full(self, rng, monkeypatch, route):
        V = self.source(rng)
        seen = []

        def counting(W, s=2):
            seen.append(W)
            return self_annihilating(W, s)

        monkeypatch.setattr(ekr, "self_annihilating", counting)
        report = ekr_pipeline(V, route=route)
        steps = report.certificate["steps"]
        assert steps and len(seen) == 1 + len(steps)
        assert seen[0] is V and len({id(W) for W in seen}) == len(seen)

    @pytest.mark.parametrize("route", ROUTES)
    def test_no_limit_call_after_a_raising_step(self, rng, monkeypatch, route):
        V = self.source(rng)
        real = limits.limit_shift
        calls = []

        def counting(W, pair):
            calls.append(pair)
            return real(W, pair)

        monkeypatch.setattr(limits, "limit_shift", counting)
        _, trace = triangular_fixed_point(V, route=route)
        assert len(trace) >= 2
        for t in range(len(trace)):
            seen = []

            def stop(st, state):
                seen.append((st, state.dim, len(calls)))
                if st.step == t:
                    raise RuntimeError("stop")

            calls.clear()
            with pytest.raises(RuntimeError, match="stop"):
                triangular_fixed_point(V, route=route, on_step=stop)
            assert [st for st, _, _ in seen] == trace[: t + 1]
            assert all(dim == V.dim for _, dim, _ in seen)
            assert len(calls) == seen[-1][2]


class TestHiltonMilner:
    def test_triangle_attains_6_2(self):
        report = hilton_milner_verify(6, 2)
        assert report.size == 3 == report.bound and report.satisfied
        assert report.certificate["witnesses"] == [[[1, 2], [1, 3], [2, 3]]]

    def test_4_2(self):
        report = hilton_milner_verify(4, 2)
        assert report.bound == 3 and report.size == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hilton_milner_verify(6, 1)


class TestEqualityStructure:
    def test_maximal_shifted_below_half_is_star(self):
        from wedgeshift import enumerate_families, is_star

        for n, k in [(6, 2), (7, 3)]:
            for F in enumerate_families(n, k, "shifted_intersecting"):
                if F.size == ekr_bound(n, k):
                    assert is_star(F) is not None

    def test_half_case_has_non_star_maximum(self):
        from wedgeshift import enumerate_families, is_star

        hits = [
            F
            for F in enumerate_families(6, 3, "shifted_intersecting")
            if F.size == ekr_bound(6, 3) and is_star(F) is None
        ]
        assert hits  # complement selections beat the star structure at k = n/2
