"""Fuzzing the command line: any input ends in a documented exit code.

``main`` must return 0 to 3 and never raise.  Exit 0 leaves stderr empty;
any other exit writes exactly one stderr line whose prefix names the exit:
``usage error:`` or ``error:`` for 1, ``falsification:`` for 2, ``budget:``
for 3.
"""

import contextlib
import io
import json

import pytest

from wedgeshift.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PREFIXES = {1: ("usage error: ", "error: "), 2: ("falsification: ",), 3: ("budget: ",)}
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, database=None)


def assert_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 0:
        assert err == "", argv
    else:
        assert err.startswith(PREFIXES[code]), (argv, err)
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)


TOKENS = list("0123456789e^*/+- \t") + ["e1", "e2", "e3", "e12", "1/0", "1.5*e1", "e0", "٣"]
literals = st.one_of(st.text(max_size=30), st.lists(st.sampled_from(TOKENS), max_size=16).map("".join))


@SETTINGS
@hypothesis.given(literals, st.integers(-1, 7))
def test_factor_literals(text, n):
    assert_documented_exit(["factor", "--n", str(n), "--", text])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "k", "sets", "basis", "order", "x"]), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def family_records(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 499, 5000]))
    k = draw(st.integers(0, 4))
    if k <= min(n, 8) and draw(st.integers(0, 3)):  # mostly well-formed sets
        sets = st.sets(st.integers(1, min(n, 8)), min_size=k, max_size=k).map(sorted)
    else:
        sets = st.lists(st.integers(0, 9) | st.sampled_from([n - 1, n, n + 1]), min_size=k, max_size=k)
    return {"n": n, "k": k, "sets": draw(st.lists(sets, max_size=5, unique_by=tuple))}


@st.composite
def subspace_records(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            c = draw(st.sampled_from(["1", "2", "1/2", "3/4"]))
            run = "^".join(f"e{i}" for i in draw(st.permutations(range(1, n + 1)))[:k])
            terms.append(f"{c}*{run}" if run else c)
        row = draw(st.sampled_from([" + ", " - "])).join(terms)
        rows.append(row if draw(st.integers(0, 5)) else draw(literals))
    record = {"n": n, "k": k, "basis": rows}
    if draw(st.booleans()):
        record["order"] = draw(st.sampled_from(["lex", "weight2", "revlex"]))
    return record


VERBS = {
    "verify-family": st.just(()),
    "pipeline": st.sampled_from([(), ("--route", "iterate")]),
    "shift": st.tuples(st.just("--pair"), st.sampled_from(["2,1", "3,1", "4,2", "1,1", "9,1", "x"])),
    "limit": st.tuples(st.just("--pair"), st.sampled_from(["2,1", "3,1", "4,2", "1,1", "9,1", "x"])),
    "init": st.sampled_from([(), ("--order", "lex"), ("--order", "weight2")]),
    "annihilator": st.just(()),
    "oracle-pluecker": st.tuples(st.just("--pair"), st.sampled_from(["2,1", "3,1", "4,2", "9,1"])),
}


@st.composite
def record_calls(draw):
    verb = draw(st.sampled_from(sorted(VERBS)))
    record = draw(st.one_of(json_values, family_records(), subspace_records(), subspace_records()))
    return [verb, json.dumps(record), *draw(VERBS[verb])]


@SETTINGS
@hypothesis.given(record_calls())
@hypothesis.example(["verify-family", '{"n": 499, "k": 2, "sets": [[1, 2], [1, 3]]}'])
@hypothesis.example(["verify-family", '{"n": 5000, "k": 2, "sets": [[1, 2], [1, 3]]}'])
@hypothesis.example(["pipeline", '{"n": 6, "k": 3, "basis": ["e1^e2^e3", "e1^e2^e4"]}'])
@hypothesis.example(["pipeline", '{"n": 499, "k": 2, "basis": ["e1^e2", "e1^e3"]}', "--route", "iterate"])
def test_record_verbs(argv):
    assert_documented_exit(argv)
