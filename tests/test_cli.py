"""Command-line surface: verbs, exit codes, determinism."""

import itertools
import json
import sys
import time
import tracemalloc

import pytest

from wedgeshift import FalsificationError
from wedgeshift.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star63.json"
    sets = [sorted({1} | set(c)) for c in
            __import__("itertools").combinations(range(2, 7), 2)]
    p.write_text(json.dumps({"n": 6, "k": 3, "sets": sets}))
    return str(p)


@pytest.fixture
def subspace_file(tmp_path):
    p = tmp_path / "sub.json"
    p.write_text(json.dumps({"n": 4, "k": 2, "order": "lex",
                             "basis": ["e1^e2", "e2^e3", "e2^e4"]}))
    return str(p)


class TestVerifyFamily:
    def test_star(self, capsys, star_file):
        code, out, _ = run(capsys, "verify-family", star_file)
        assert code == 0
        assert "size 10 <= bound 10: satisfied" in out

    def test_duplicate_set(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 4, "k": 2, "sets": [[1, 2], [1, 2]]}))
        code, _, err = run(capsys, "verify-family", str(p))
        assert code == 1 and "duplicate" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify-family", "nowhere.json")
        assert code == 1


class TestPipeline:
    def test_star_subspace(self, capsys, subspace_file, tmp_path):
        trace = tmp_path / "trace.json"
        code, out, _ = run(capsys, "pipeline", subspace_file, "--trace", str(trace))
        assert code == 0 and "dim 3 <= bound 3: satisfied" in out
        steps = json.loads(trace.read_text())
        assert all(st["dim"] == 3 for st in steps)

    def test_both_routes(self, capsys, subspace_file):
        for route in ("iterate", "init-then-shift"):
            code, out, _ = run(capsys, "pipeline", subspace_file, "--route", route)
            assert code == 0

    def test_route_choices_are_the_library_routes(self):
        from wedgeshift.cli import build_parser
        from wedgeshift.limits import ROUTES

        verbs = next(a for a in build_parser()._actions if a.dest == "verb")
        route = next(a for a in verbs.choices["pipeline"]._actions if a.dest == "route")
        assert tuple(route.choices) == ROUTES
        assert route.default in ROUTES

    @pytest.mark.parametrize("route", ["iterate", "init-then-shift"])
    def test_zero_subspace_at_large_n(self, capsys, route):
        # no n(n-1)/2 pair list for a subspace every shear fixes
        code, out, _ = run(capsys, "pipeline", '{"n":1200,"k":600,"basis":[]}', "--route", route)
        report = json.loads(out[out.index("{"):])
        assert code == 0 and report["size"] == 0 and report["certificate"]["steps"] == []

    def test_unwritable_trace_leaves_stdout_empty(self, capsys, subspace_file, tmp_path):
        trace = tmp_path / "missing" / "trace.json"
        code, out, err = run(capsys, "pipeline", subspace_file, "--trace", str(trace))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_non_annihilating_input(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 4, "k": 2, "basis": ["e1^e2", "e3^e4"]}))
        code, _, err = run(capsys, "pipeline", str(p))
        assert code == 1 and "self-annihilating" in err


class TestSmallVerbs:
    def test_shift(self, capsys, tmp_path):
        p = tmp_path / "fam.json"
        p.write_text(json.dumps({"n": 3, "k": 2, "sets": [[2, 3]]}))
        code, out, _ = run(capsys, "shift", str(p), "--pair", "2,1")
        assert code == 0 and json.loads(out)["sets"] == [[1, 3]]

    def test_limit(self, capsys, tmp_path):
        p = tmp_path / "sub.json"
        p.write_text(json.dumps({"n": 3, "k": 2, "basis": ["e2^e3"]}))
        code, out, _ = run(capsys, "limit", str(p), "--pair", "2,1")
        assert code == 0 and json.loads(out)["basis"] == ["e1^e3"]

    def test_init_both_orders(self, capsys, tmp_path):
        p = tmp_path / "sub.json"
        p.write_text(json.dumps({"n": 4, "k": 2, "basis": ["e1^e4 + e2^e3"]}))
        code, out, _ = run(capsys, "init", str(p))
        assert code == 0 and json.loads(out)["basis"] == ["e1^e4"]
        code, out, _ = run(capsys, "init", str(p), "--order", "weight2")
        assert code == 0 and json.loads(out)["basis"] == ["e2^e3"]

    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "e1^e2 + e1^e3", "--n", "4")
        report = json.loads(out)
        assert code == 0 and report["factor_dim"] == 2 and report["decomposable"]

    def test_annihilator(self, capsys, tmp_path):
        p = tmp_path / "sub.json"
        p.write_text(json.dumps({"n": 4, "k": 2,
                                 "basis": ["e1^e2", "e1^e3", "e1^e4"]}))
        code, out, _ = run(capsys, "annihilator", str(p))
        assert code == 0 and "annihilator dimension 1" in out

    def test_example_cross(self, capsys):
        code, out, _ = run(capsys, "example-cross", "--k", "3", "--check")
        report = json.loads(out)
        assert code == 0 and report["dim"] == 10 and report["annihilator_dim"] == 0

    def test_example_cross_size_cap(self, capsys):
        code, out, err = run(capsys, "example-cross", "--k", "1001", "--check")
        assert code == 3 and out == "" and "size cap" in err
        assert len(err.splitlines()) == 1 and len(err) < 100

    def test_factor_literal_with_leading_minus(self, capsys):
        code, out, err = run(capsys, "factor", "--n", "2", "--", "-1/2*e2")
        report = json.loads(out)
        assert code == 0 and err == ""
        assert report["factors"] == ["e2"] and report["cofactors"] == ["-1/2"]

    def test_factor_zero_denominator(self, capsys):
        code, out, err = run(capsys, "factor", "1/0*e1", "--n", "2")
        assert code == 1 and out == "" and "zero denominator" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_factor_non_ascii_digit(self, capsys):
        code, out, err = run(capsys, "factor", "--n", "3", "--", "\u0663*e1^e2")
        assert (code, out, err) == (1, "", "error: bad coefficient in term '\u0663*e1^e2'\n")

    def test_factor_number_past_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "factor", "--n", "2", "--", "e2 + " + "1" * (limit + 700) + "*e1")
        assert (code, out) == (1, "")
        assert err == f"error: term #2 has a number of more than {limit} digits\n"

    def test_pipeline_record_number_past_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        record = {"n": 4, "k": 2, "basis": ["e1^e2", "e1^e" + "3" * (limit + 1)]}
        code, out, err = run(capsys, "pipeline", json.dumps(record))
        assert (code, out) == (1, "")
        assert err == f"error: basis row #2: term #1 has a number of more than {limit} digits\n"

    def test_bad_pair(self, capsys, tmp_path):
        p = tmp_path / "fam.json"
        p.write_text(json.dumps({"n": 3, "k": 2, "sets": [[2, 3]]}))
        code, _, err = run(capsys, "shift", str(p), "--pair", "2,2")
        assert code == 1

    @pytest.mark.parametrize("pair", ["9,1", "1,9"])
    def test_pair_out_of_range(self, capsys, tmp_path, pair):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"n": 3, "k": 1, "sets": [[1]]}))
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({"n": 3, "k": 1, "basis": ["e1"]}))
        i, j = pair.split(",")
        expected = f"error: shift pair ({i}, {j}) out of range for ground dimension 3\n"
        for verb, path in (("shift", fam), ("limit", sub)):
            code, out, err = run(capsys, verb, str(path), "--pair", pair)
            assert (code, out, err) == (1, "", expected), verb


class TestCertificateDepthCap:
    """A valid record whose shifted certificate would nest past the recursion
    limit ends in one budget line; a record at the cap still encodes."""

    @pytest.mark.parametrize("verb, record", [
        ("verify-family", {"n": 499, "k": 2, "sets": [[1, 2], [1, 3]]}),
        ("verify-family", {"n": 5000, "k": 2, "sets": [[1, 2], [1, 3]]}),
        ("pipeline", {"n": 499, "k": 2, "basis": ["e1^e2", "e1^e3"]}),
    ])
    def test_above_cap_is_budget(self, capsys, verb, record):
        code, out, err = run(capsys, verb, json.dumps(record))
        assert code == 3 and out == ""
        assert err.startswith("budget: ") and len(err.splitlines()) == 1

    def test_at_cap_encodes(self, capsys):
        from wedgeshift.ekr import MAX_CERT_N

        record = {"n": MAX_CERT_N, "k": 2, "sets": [[1, 2], [1, 3]]}
        code, out, _ = run(capsys, "verify-family", json.dumps(record))
        assert code == 0 and json.loads(out[out.index("{"):])["bound"] == MAX_CERT_N - 1


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--k", "2",
                           "--mode", "all-intersecting", "--count-only")
        assert code == 0 and json.loads(out)["count"] == 27

    @pytest.mark.parametrize("mode", ["all-intersecting", "shifted-intersecting", "maximal-intersecting"])
    def test_count_only_matches_printing_summary(self, capsys, mode):
        # --count-only counts masks without decoding them; its summary must
        # close the printing run, after one line per family
        argv = ("enumerate", "--n", "6", "--k", "3", "--mode", mode)
        code, printed, _ = run(capsys, *argv)
        assert code == 0
        code, counted, _ = run(capsys, *argv, "--count-only")
        assert code == 0 and printed.endswith(counted)
        assert printed[: -len(counted)].count("\n") == json.loads(counted)["count"] > 1

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "6", "--k", "3",
                           "--mode", "all-intersecting", "--budget", "10",
                           "--count-only")
        assert code == 3 and "budget" in err

    def test_budget_before_allocation(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "30", "--k", "15",
                             "--mode", "all-intersecting", "--budget", "10",
                             "--count-only")
        assert code == 3 and "budget" in err and out == ""
        code, out, err = run(capsys, "enumerate", "--n", "30", "--k", "15",
                             "--mode", "all-intersecting", "--count-only")
        assert code == 3 and "budget" in err and out == ""

    def test_table_cap(self, capsys):
        # C(1001, 1)^2 bits is above the 10^6 cap: exit 3 before the table is built
        tracemalloc.start()
        started = time.perf_counter()
        try:
            code, out, err = run(capsys, "enumerate", "--n", "1001", "--k", "1", "--count-only")
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "") and "1002001 bits (cap 1000000)" in err
        assert elapsed < 0.5 and peak < 1 << 20
        code, out, _ = run(capsys, "enumerate", "--n", "1000", "--k", "1", "--count-only")
        assert code == 0 and json.loads(out)["count"] == 1001

    def test_negative_budget_is_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "4", "--k", "2", "--budget", "-1")
        assert (code, out) == (1, "")
        assert err == "usage error: --budget must be at least 1, got -1\n"

    def test_streams_families(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--k", "1",
                           "--mode", "shifted-intersecting")
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["sets"] == []
        assert json.loads(lines[1])["sets"] == [[1]]


class TestHmVerify:
    def test_6_2(self, capsys):
        code, out, _ = run(capsys, "hm-verify", "--n", "6", "--k", "2")
        assert code == 0 and "max non-star size 3 <= bound 3" in out

    def test_negative_budget_is_usage_error(self, capsys):
        code, out, err = run(capsys, "hm-verify", "--n", "6", "--k", "2", "--budget", "-1")
        assert (code, out) == (1, "")
        assert err == "usage error: --budget must be at least 1, got -1\n"

    @pytest.mark.parametrize("n,k", [(5000, 4), (100, 50)])
    def test_walk_guards_come_first(self, capsys, n, k):
        # the star threshold C(n-1, k-1) is never built as a 2^C(n-1, k-1)
        # mask: shapes past the budget exit 3 at once, in little memory
        tracemalloc.start()
        started = time.perf_counter()
        try:
            code, out, err = run(capsys, "hm-verify", "--n", str(n), "--k", str(k))
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "") and "exceeds budget of 10000000 nodes" in err
        assert elapsed < 0.5 and peak < 1 << 20


class TestOracle:
    def test_file_mode(self, capsys, tmp_path):
        p = tmp_path / "sub.json"
        p.write_text(json.dumps({"n": 4, "k": 2, "basis": ["e2^e3 + e1^e4"]}))
        code, out, _ = run(capsys, "oracle-pluecker", str(p), "--pair", "2,1")
        assert code == 0 and json.loads(out)["match"]

    def test_random_mode(self, capsys):
        code, out, _ = run(capsys, "oracle-pluecker", "--random", "5", "--seed", "11",
                           "--n", "4", "--k", "2", "--m", "3")
        assert code == 0 and json.loads(out)["match"]

    def test_random_needs_shape(self, capsys):
        code, _, err = run(capsys, "oracle-pluecker", "--random", "5")
        assert code == 1 and "usage error" in err

    @pytest.mark.parametrize("flags", [
        ("--random", "-2", "--m", "2"),
        ("--random", "5", "--m", "0"),
        ("--random", "5", "--m", "7"),
    ])
    def test_random_bad_counts_are_usage_errors(self, capsys, flags):
        code, out, err = run(capsys, "oracle-pluecker", "--n", "4", "--k", "2", *flags)
        assert code == 1 and out == ""
        assert err.startswith("usage error") and err.count("\n") == 1

    def test_random_size_cap_before_sampling(self, capsys, monkeypatch):
        import wedgeshift.cli as cli

        def sample(*args, **kwargs):  # listing C(40, 20) supports would not finish
            raise AssertionError("sampled before the size cap was checked")

        monkeypatch.setattr(cli, "random_subspace", sample)
        code, out, err = run(capsys, "oracle-pluecker", "--random", "1",
                             "--n", "40", "--k", "20", "--m", "1")
        assert code == 3 and out == ""
        assert err.startswith("budget") and err.count("\n") == 1
        # C(20, 10) = 184,756 coordinates pass at dimension 1, not at dimension 2
        code, out, err = run(capsys, "oracle-pluecker", "--random", "2",
                             "--n", "20", "--k", "10", "--m", "2")
        assert code == 3 and out == "" and "17067297390 coordinates" in err
        code, out, _ = run(capsys, "oracle-pluecker", "--random", "0",
                           "--n", "40", "--k", "20", "--m", "1")
        assert code == 0 and json.loads(out)["trials"] == 0

    def test_file_mode_size_cap_at_30_15(self, capsys, tmp_path):
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"n": 30, "k": 15, "basis": [
            "^".join(f"e{i}" for i in range(1, 16)), "^".join(f"e{i}" for i in range(16, 31))]}))
        code, out, err = run(capsys, "oracle-pluecker", str(p), "--pair", "16,2")
        assert code == 3 and out == ""
        assert err.startswith("budget") and err.count("\n") == 1


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run(capsys, "no-such-verb")[0] == 1
        assert run(capsys)[0] == 1

    @pytest.mark.parametrize("bad", [("no-such-verb",), ("enumerate", "--n", "x", "--k", "2"),
                                     ("pipeline",), ("hm-verify", "--n", "6", "--k", "2", "--budget", "0")])
    def test_shared_parser_repeats_a_usage_error(self, capsys, bad):
        first = run(capsys, *bad)
        assert run(capsys, "factor", "--n", "3", "e1^e2")[0] == 0
        assert first[0] == 1 and first[2].startswith("usage error") and run(capsys, *bad) == first

    def test_falsification_is_two(self, capsys, star_file, monkeypatch):
        import wedgeshift.cli as cli

        def boom(*a, **k):
            raise FalsificationError("synthetic")

        monkeypatch.setitem(cli._HANDLERS, "verify-family", boom)
        code, _, err = run(capsys, "verify-family", star_file)
        assert code == 2 and "falsification" in err

    @pytest.mark.parametrize("error", [MemoryError, RecursionError, OverflowError])
    @pytest.mark.parametrize("target, argv", [
        ("factor_report", ("factor", "--n", "3", "e1^e2")),
        ("hilton_milner_verify", ("hm-verify", "--n", "6", "--k", "2")),
    ])
    def test_resource_exhaustion_is_three(self, capsys, monkeypatch, error, target, argv):
        import wedgeshift.cli as cli

        # the repr names the exception and escapes a newline in its message
        for exc in (error(), error("two\nlines")):
            def exhausted(*a, **k):
                raise exc

            monkeypatch.setattr(cli, target, exhausted)
            assert run(capsys, *argv) == (3, "", f"budget: {exc!r}\n")


class TestRecordValidation:
    """Mistyped record fields exit 1 with a message, never a traceback."""

    @pytest.mark.parametrize("verb, record", [
        ("pipeline", {"n": "6", "k": 3, "basis": ["e1^e2^e3"]}),
        ("pipeline", {"n": 6, "k": True, "basis": ["e1^e2^e3"]}),
        ("pipeline", {"n": 4, "k": 2, "basis": "e1^e2"}),
        ("pipeline", {"n": 4, "k": 2, "order": ["lex"], "basis": ["e1^e2"]}),
        ("verify-family", {"n": 4, "k": "2", "sets": [[1, 2]]}),
        ("verify-family", {"n": 4, "k": 2, "sets": "12"}),
        ("verify-family", {"n": 4, "k": 2, "sets": [[True, 2], [1, 3]]}),
        ("pipeline", {"n": 4, "k": 2, "basis": ["1/0*e1^e2"]}),
    ])
    def test_mistyped_field_is_one(self, capsys, tmp_path, verb, record):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(record))
        code, _, err = run(capsys, verb, str(p))
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err


DEEP_RECORD = '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"


class TestMalformedInput:
    """Every record verb reads a path or inline JSON; what cannot be read or
    decoded exits 1 with one stderr line, never a traceback."""

    VERBS = {
        "verify-family": (),
        "pipeline": (),
        "shift": ("--pair", "2,1"),
        "limit": ("--pair", "2,1"),
        "init": (),
        "annihilator": (),
        "oracle-pluecker": ("--pair", "2,1"),
    }

    @pytest.fixture(params=["missing", "directory", "not-utf8", "deep-file", "deep-inline"])
    def source(self, request, tmp_path):
        if request.param == "missing":
            return str(tmp_path / "nowhere.json")
        if request.param == "directory":
            return str(tmp_path)
        if request.param == "deep-inline":
            return DEEP_RECORD
        p = tmp_path / "input.json"
        if request.param == "not-utf8":
            p.write_bytes(b'{"n": 4, "k": 2, "sets": [[1, 2]], "x": "\xff"}')
        else:
            p.write_text(DEEP_RECORD)
        return str(p)

    @pytest.mark.parametrize("verb", VERBS)
    def test_exits_one(self, capsys, verb, source):
        code, out, err = run(capsys, verb, source, *self.VERBS[verb])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_missing_path_is_not_a_literal(self, capsys):
        code, _, err = run(capsys, "pipeline", "/nonexistent.json")
        assert code == 1 and "cannot read /nonexistent.json" in err

    def test_factor_long_literal(self, capsys):
        # all 56 supports at (8,3): longer than a file name may be
        literal = " + ".join("^".join(f"e{i}" for i in s)
                             for s in itertools.combinations(range(1, 9), 3))
        assert len(literal) == 613
        code, out, _ = run(capsys, "factor", literal, "--n", "8")
        report = json.loads(out)
        assert code == 0 and report["factor_dim"] == 1
        assert report["factors"] == [" + ".join(f"e{i}" for i in range(1, 9))]

    def test_factor_literal_naming_a_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e1^e2").write_text(json.dumps({"n": 3, "k": 2, "sets": [[1, 2]]}))
        code, out, _ = run(capsys, "factor", "e1^e2", "--n", "3")
        assert code == 0 and json.loads(out)["factor_dim"] == 2


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, capsys, subspace_file):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "pipeline", subspace_file, "--route", "iterate")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_seeded_random_suite_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "oracle-pluecker", "--random", "3",
                               "--seed", "5", "--n", "4", "--k", "2")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
