"""Golden CLI digests of every verb that reads a record or a literal, byte for byte.

A small seeded set of subspace and family records is built here, with
integer images computed by this file's own minors, and written under
relative names.  Each call's (argv, exit code, stdout, stderr) is hashed.
``golden_cli.json`` holds the digests of `pipeline` on both routes and
`limit`; ``golden_cli_readers.json`` those of `init` (both orders),
`annihilator`, `factor`, `oracle-pluecker FILE`, `verify-family` and
`shift`, plus exit-1 calls on malformed rows; ``golden_cli_checks.json``
those of the verbs that read no record (`example-cross --check`,
`hm-verify`, `enumerate` in every mode, `oracle-pluecker --random`), the
bytes of the file that `pipeline --trace` writes, and one call for each way
to exit 3.  A change that is meant to keep the output bytes must leave them
alone; on a mismatch the test names the first call that differs.  After a
change that is meant to alter the output, rewrite all three files with
``python tests/test_golden_cli.py`` from the root of a source checkout.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_cli.json")
READERS_GOLDEN = Path(__file__).with_name("golden_cli_readers.json")
SEED = 20261019
READERS_SEED = 20261020
CHECKS_GOLDEN = Path(__file__).with_name("golden_cli_checks.json")
CHECKS_SEED = 20261021
SHAPES = ((5, 2), (6, 3), (7, 3))


def _det(m):
    """Determinant of a small square integer matrix, by the Leibniz formula."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        prod = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            prod *= m[r][c]
        total += prod
    return total


def _unimodular(rng, n):
    """Lower unit triangular times upper unit triangular, entries in [-2, 2]."""
    low = [[1 if r == c else (rng.randint(-2, 2) if r > c else 0) for c in range(n)] for r in range(n)]
    up = [[1 if r == c else (rng.randint(-2, 2) if r < c else 0) for c in range(n)] for r in range(n)]
    return [[sum(low[r][t] * up[t][c] for t in range(n)) for c in range(n)] for r in range(n)]


def _text(terms):
    """Multivector text of an integer term map over supports."""
    parts = []
    for sup, c in sorted(terms.items()):
        parts.append(f"{'-' if c < 0 else '+'} {abs(c)}*" + "^".join(f"e{i}" for i in sup))
    return " ".join(parts) if parts else "0"


def _image(g, sup, k):
    """The image of e_sup under the map whose column j is g e_j: the
    coefficient at e_B is the minor of g at rows B and columns sup."""
    n = len(g)
    terms = {}
    for rows in itertools.combinations(range(1, n + 1), k):
        v = _det([[g[r - 1][c - 1] for c in sup] for r in rows])
        if v:
            terms[rows] = v
    return terms


def _intersecting(rng, n, k, target):
    pool = list(itertools.combinations(range(1, n + 1), k))
    rng.shuffle(pool)
    chosen = []
    for s in pool:
        if len(chosen) < target and all(set(s) & set(t) for t in chosen):
            chosen.append(s)
    return chosen


def _is_shifted(sets):
    fam = set(sets)
    return all(
        tuple(sorted((set(s) - {i}) | {j})) in fam
        for s in fam for i in s for j in range(1, i) if j not in s
    )


def _records(rng):
    """Named subspace records: images of intersecting families and of a
    star, monomial spans of non-shifted intersecting families, and one
    image of a family that is not intersecting."""
    out = []
    for n, k in SHAPES:
        star = [s for s in itertools.combinations(range(1, n + 1), k) if 1 in s]
        kinds = [("image", _intersecting(rng, n, k, rng.randint(2, len(star)))) for _ in range(2)]
        kinds.append(("star", star))
        for _ in range(2):
            sets = _intersecting(rng, n, k, rng.randint(3, len(star)))
            while _is_shifted(sets):
                sets = _intersecting(rng, n, k, rng.randint(3, len(star)))
            kinds.append(("monomial", sets))
        kinds.append(("disjoint", [tuple(range(1, k + 1)), tuple(range(k + 1, 2 * k + 1))]))
        for pos, (kind, sets) in enumerate(kinds):
            if kind == "monomial":
                basis = [_text({s: 1}) for s in sets]
            else:
                g = _unimodular(rng, n)
                basis = [_text(_image(g, s, k)) for s in sets]
            order = ("lex", "weight2")[pos % 2]
            out.append((f"{kind}-{n}-{k}-{pos}.json", {"n": n, "k": k, "order": order, "basis": basis}))
    return out


def _calls(rng, records):
    calls = []
    for name, rec in records:
        calls.append(["pipeline", name, "--route", "iterate"])
        calls.append(["pipeline", name, "--route", "init-then-shift"])
        for _ in range(2):
            i, j = rng.sample(range(1, rec["n"] + 1), 2)
            calls.append(["limit", name, "--pair", f"{i},{j}"])
    return calls


def _families(rng):
    """Named family records: shifted intersecting families (a star and the
    sets meeting {1, 2, 3} at least twice), random intersecting families
    that need not be shifted, and one family that is not intersecting."""
    out = []
    for n, k in SHAPES:
        sets = list(itertools.combinations(range(1, n + 1), k))
        kinds = [
            ("star", [s for s in sets if 1 in s]),
            ("triangle", [s for s in sets if len(set(s) & {1, 2, 3}) >= 2]),
            ("random", sorted(_intersecting(rng, n, k, rng.randint(3, 8)))),
            ("random", sorted(_intersecting(rng, n, k, rng.randint(3, 8)))),
            ("disjoint", [tuple(range(1, k + 1)), tuple(range(k + 1, 2 * k + 1))]),
        ]
        for pos, (kind, fam) in enumerate(kinds):
            out.append((f"family-{kind}-{n}-{k}-{pos}.json", {"n": n, "k": k, "sets": [list(s) for s in fam]}))
    return out


# Records whose rows break the reader's contract, each an exit-1 call: a bad
# term, a mixed-grade row, a row of the wrong grade, an out-of-range support,
# and a wrong-grade row before a later row that does not parse (the parse
# error wins).
BAD_RECORDS = (
    ("bad-term.json", {"n": 5, "k": 2, "basis": ["e1^e2", "e1^e3 + 2**e4^e5"]}),
    ("bad-mixed.json", {"n": 5, "k": 2, "basis": ["e1^e2 - 1/2*e3^e4", "e1^e3 + 3/4*e2"]}),
    ("bad-grade.json", {"n": 5, "k": 2, "basis": ["e1^e2", "e2^e3", "7/2*e4 - e5"]}),
    ("bad-range.json", {"n": 5, "k": 2, "basis": ["e1^e2", "e2^e3 - 5/6*e1^e9"]}),
    ("bad-order.json", {"n": 5, "k": 2, "basis": ["e1^e2^e3", "e1^e2 + 1/0*e3^e4"]}),
)


def _reader_calls(rng, records, families):
    calls = []
    for name, rec in records:
        n = rec["n"]
        calls.append(["init", name, "--order", "lex"])
        calls.append(["init", name, "--order", "weight2"])
        calls.append(["annihilator", name])
        calls.append(["factor", "--n", str(n), "--", rec["basis"][0]])
        if len(rec["basis"]) <= 4:
            i, j = rng.sample(range(1, n + 1), 2)
            calls.append(["oracle-pluecker", name, "--pair", f"{i},{j}"])
    for name, rec in families:
        calls.append(["verify-family", name])
        i, j = rng.sample(range(1, rec["n"] + 1), 2)
        calls.append(["shift", name, "--pair", f"{i},{j}"])
    for name, _ in BAD_RECORDS:
        calls.append(["pipeline", name])
        calls.append(["init", name, "--order", "weight2"])
    calls.append(["factor", "--n", "5", "--", "e1^e2 - 2**e3"])
    calls.append(["factor", "--n", "5", "--", "1/2*e1^e2 + e4^e9"])
    calls.append(["factor", "--n", "5", "--", "2/3*e3^e1 - 1/6*e2^e1 + 5/4*e1^e4"])
    return calls


# Verbs that read no record, and one call for each way to exit 3: the
# enumeration budget, the certificate depth cap (n = 301 > MAX_CERT_N) and
# the Pluecker size cap, checked before any trial is sampled.
CHECK_CALLS = (
    ["example-cross", "--k", "3", "--check"],
    ["example-cross", "--k", "5", "--check"],
    ["hm-verify", "--n", "6", "--k", "3"],
    ["hm-verify", "--n", "7", "--k", "3"],
    *(
        ["enumerate", "--n", str(n), "--k", str(k), "--mode", mode, *extra]
        for mode in ("all-intersecting", "shifted-intersecting", "maximal-intersecting")
        for n, k, extra in ((5, 2, []), (5, 2, ["--count-only"]), (6, 3, ["--count-only"]))
    ),
    ["oracle-pluecker", "--random", "5", "--n", "4", "--k", "2", "--m", "3", "--seed", "1"],
    ["oracle-pluecker", "--random", "4", "--n", "5", "--k", "2", "--m", "2", "--seed", "7"],
    ["enumerate", "--n", "5", "--k", "2", "--budget", "5"],
    ["pipeline", "deep.json"],
    ["oracle-pluecker", "--random", "3", "--n", "10", "--k", "5", "--m", "3"],
)
DEEP_RECORD = ("deep.json", {"n": 301, "k": 2, "basis": ["e1^e2", "e1^e3"]})


def _run(workdir, files, calls):
    """Write the files into workdir and run every call there; return one
    (argv, sha256) per input file and per call, in order, and after a call
    with ``--trace PATH`` one more for the bytes of PATH, or "absent" when
    the call wrote no file."""
    from wedgeshift.cli import main

    out = []
    for name, rec in files:
        text = json.dumps(rec)
        (Path(workdir) / name).write_text(text)
        out.append((["write", name], hashlib.sha256(text.encode()).hexdigest()))
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in calls:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(list(argv))
            blob = json.dumps([argv, code, stdout.getvalue(), stderr.getvalue()])
            out.append((argv, hashlib.sha256(blob.encode()).hexdigest()))
            if "--trace" in argv:
                path = Path(argv[argv.index("--trace") + 1])
                digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "absent"
                out.append((["read", path.name], digest))
    finally:
        os.chdir(here)
    return out


def call_digests(workdir):
    """Digests of `pipeline` and `limit` over the seeded subspace records."""
    rng = random.Random(SEED)
    records = _records(rng)
    return _run(workdir, records, _calls(rng, records))


def reader_call_digests(workdir):
    """Digests of the other reading verbs over their own seeded records."""
    rng = random.Random(READERS_SEED)
    records = _records(rng)
    families = _families(rng)
    calls = _reader_calls(rng, records, families)
    return _run(workdir, records + families + list(BAD_RECORDS), calls)


def check_call_digests(workdir):
    """Digests of the verbs that read no record, of `pipeline --trace` with
    its trace file on both routes over seeded records, and of the exit-3
    calls."""
    records = _records(random.Random(CHECKS_SEED))
    calls = [list(argv) for argv in CHECK_CALLS]
    for name, _ in records:
        for route in ("iterate", "init-then-shift"):
            calls.append(["pipeline", name, "--route", route, "--trace", f"trace-{route}-{name}"])
    return _run(workdir, records + [DEEP_RECORD], calls)


def total(digests):
    return hashlib.sha256("".join(d for _, d in digests).encode()).hexdigest()


def assert_matches(golden_path, got):
    golden = json.loads(golden_path.read_text())
    assert [argv for argv, _ in got] == [argv for argv, _ in golden["calls"]], "the call list changed"
    for (argv, d), (_, want) in zip(got, golden["calls"]):
        if d != want:
            pytest.fail(f"first call that differs: {' '.join(argv)}")
    assert total(got) == golden["digest"]


def test_cli_bytes_match_the_recorded_digest(tmp_path):
    assert_matches(GOLDEN, call_digests(tmp_path))


def test_reading_verbs_match_the_recorded_digest(tmp_path):
    assert_matches(READERS_GOLDEN, reader_call_digests(tmp_path))


def test_check_verbs_and_exit_3_match_the_recorded_digest(tmp_path):
    assert_matches(CHECKS_GOLDEN, check_call_digests(tmp_path))


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    for path, make in (
        (GOLDEN, call_digests),
        (READERS_GOLDEN, reader_call_digests),
        (CHECKS_GOLDEN, check_call_digests),
    ):
        with tempfile.TemporaryDirectory() as tmp:
            digests = make(tmp)
        path.write_text(json.dumps({"digest": total(digests), "calls": digests}, indent=1) + "\n")
        print(f"{path.name}: {len(digests)} entries, digest {total(digests)}")
