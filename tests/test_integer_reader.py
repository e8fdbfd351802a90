"""The integer-core record reader against the Fraction reader it replaced.

``fraction_parse_multivector`` below is that reader, verbatim but for its
name: one full match and one Fraction per term, summed in Fractions.
``fraction_subspace`` reads a record's rows with it and spans them through
the public, checking ``Subspace`` constructor.  The package reads rows as
integers over one common denominator (``parse_terms``), wraps them in one
Fraction per output term for ``parse_multivector``, and hands the integer
maps of a record to ``Subspace._trusted`` after its own grade checks.  On
every input both sides must give the same multivector (same terms in the
same order), the same subspace and record, or a ValueError with the same
message.

Rows are drawn with mixed denominators, unsorted index runs, repeated
supports that cancel, zero rows, wrong and mixed grades, and faulty rows,
in any order, so a wrong-grade row often comes before a later row that does
not parse: the parse error must win.
"""

import random
import re
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from wedgeshift import Multivector, ParseError, format_multivector, parse_multivector
from wedgeshift.serialize import subspace_from_record, subspace_record
from wedgeshift.subspace import ORDER_KINDS, MonomialOrder, Subspace

_SIGNED_RE = re.compile(r"([+-]?)([^+-]*)")
_TERM_RE = re.compile(r"(?:([0-9]+)(?:/([0-9]+))?(\*|\Z))?((?:e[0-9]+(?:\^e[0-9]+)*)?)(.*)", re.S)


def fraction_parse_multivector(text: str, n: int) -> Multivector:
    s = text.strip()
    if not s:
        raise ParseError("empty multivector text")
    chunks = [(sign, body.replace(" ", "").strip()) for sign, body in _SIGNED_RE.findall(s)]
    if any(sign == "-" and not body for sign, body in chunks):
        raise ParseError(f"dangling sign in {s!r}")
    acc = {}
    outside = None
    for pos, (sign, body) in enumerate([c for c in chunks if c[1]], 1):
        num, den, star, run, rest = _TERM_RE.fullmatch(body).groups()
        if num is None and "*" in body:
            raise ParseError(f"bad coefficient in term {body!r}")
        try:
            p, q = int(num or 1), int(den or 1)
            idx = [int(i) for i in run[1:].split("^e")] if run else []
        except ValueError:  # only a digit run past sys.get_int_max_str_digits() fails
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"term #{pos} has a number of more than {limit} digits") from None
        if not q:
            raise ParseError(f"zero denominator in term {body!r}")
        if rest or (star and not run):
            raise ParseError(f"bad monomial in term {body!r}")
        sup = tuple(sorted(idx))
        if len(set(sup)) < len(sup):
            raise ParseError(f"repeated index in term {body!r}")
        flips = (sign == "-") + sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:])
        c = Fraction(-p if flips % 2 else p, q)
        acc[sup] = c = acc[sup] + c if sup in acc else c
        if not c:
            del acc[sup]
        if outside is None and sup and (sup[0] < 1 or sup[-1] > n):
            outside = sup
    if n < 1:
        raise ParseError("ground dimension must be positive")
    if outside is not None:
        raise ParseError(f"support {outside} out of range for ground dimension {n}")
    return Multivector._trusted(n, acc)


def fraction_subspace(obj: dict) -> Subspace:
    order = MonomialOrder(obj["order"], obj["n"], obj["k"])
    rows = []
    for pos, text in enumerate(obj["basis"]):
        try:
            rows.append(fraction_parse_multivector(text, obj["n"]))
        except ParseError as exc:
            raise ParseError(f"basis row #{pos + 1}: {exc}") from exc
    try:
        return Subspace(order, rows)
    except ValueError as exc:
        raise ParseError(f"basis rows violate the subspace contract: {exc}") from exc


def row_outcome(parse, text, n):
    try:
        x = parse(text, n)
    except ValueError as exc:
        return "error", str(exc)
    return list(x.terms.items()), format_multivector(x)


def record_outcome(read, obj):
    try:
        V = read(obj)
    except ValueError as exc:
        return "error", str(exc)
    return V.order, V._rows, V.pivots(), subspace_record(V)


def assert_same(obj):
    for text in obj["basis"]:
        got = row_outcome(parse_multivector, text, obj["n"])
        assert got == row_outcome(fraction_parse_multivector, text, obj["n"]), (text, obj["n"])
    assert record_outcome(subspace_from_record, obj) == record_outcome(fraction_subspace, obj), obj


class Draws:
    """The few random.Random methods the row builder uses, drawn by hypothesis."""

    def __init__(self, data, st):
        self.data, self.st = data, st

    def randint(self, a, b):
        return self.data.draw(self.st.integers(a, b))

    def choice(self, seq):
        return self.data.draw(self.st.sampled_from(seq))

    def shuffle(self, items):
        items[:] = self.data.draw(self.st.permutations(items))


DENOMINATORS = (1, 1, 2, 3, 4, 6, 12, 35, 10**20 + 39, 2**64 * 3**5)
FAULTS = ("1/0*e1", "e1^e1", "2**e1", "*e2", "e1*e2", "2e1", "e0", "e99", "-", "1/2/3")


def term(rng, run, coeff):
    """Signed text of coeff times the monomial on the sorted support of run,
    written in run's order with the sign fixed up by its parity, and with
    numerator and denominator both scaled by 1 to 3."""
    odd = sum(a > b for i, a in enumerate(run) for b in run[i + 1:]) % 2
    c = -coeff if odd else coeff
    a, m = abs(c), rng.randint(1, 3)
    mono = "^".join(f"e{i}" for i in run)
    frac = f"{a.numerator * m}/{a.denominator * m}"
    body = frac if not run else (mono if a == 1 and m == 1 else f"{frac}*{mono}")
    return ("- " if c < 0 else "+ ") + body


def random_row(rng, n, k):
    """Mostly grade-k terms with mixed denominators; sometimes a term of
    another grade, a pair of terms on one support that cancel, a zero row or
    a fault."""
    kind = rng.randint(0, 19)
    if kind == 0:
        return rng.choice(["0", "0*e1", f"e1 - e1 + 0/{rng.randint(1, 9)}"])
    if kind == 1:
        return rng.choice(FAULTS) + rng.choice(["", " + e1"])
    parts = []
    for _ in range(rng.randint(1, 6)):
        grade = k if rng.randint(0, 9) else rng.randint(0, n)
        run = rng.choice([list(s) for s in combinations(range(1, n + 1), grade)])
        rng.shuffle(run)
        coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 30)), rng.choice(DENOMINATORS))
        parts.append(term(rng, run, coeff))
        if not rng.randint(0, 4):  # the same support again, cancelling the first
            rng.shuffle(run)
            parts.append(term(rng, run, -coeff))
    rng.shuffle(parts)
    return " ".join(parts).removeprefix("+ ")


def random_record(rng):
    n = rng.randint(1, 7)
    k = rng.randint(0, n)
    basis = [random_row(rng, n, k) for _ in range(rng.randint(0, 5))]
    return {"n": n, "k": k, "order": rng.choice(ORDER_KINDS), "basis": basis}


def test_seeded_records():
    rng = random.Random(20261021)
    errors = 0
    for _ in range(600):
        obj = random_record(rng)
        assert_same(obj)
        errors += record_outcome(fraction_subspace, obj)[0] == "error"
    assert 100 < errors < 500  # both clean and faulty records were drawn


@pytest.mark.parametrize("basis", [
    ["e1", "e1^e2 + 1/0*e3^e4"],  # a wrong grade, then a zero denominator: the parse error wins
    ["e1 + e1^e2", "2**e3^e4"],  # a mixed grade, then a bad coefficient
    ["e1^e2^e3", "e2^e1 - e1^e9"],  # a wrong grade, then a support out of range
    ["e1^e9", "e1^e1"],  # the first row's fault wins
    ["e1^e2 - e2^e1 - 2*e1^e2", "e3"],  # a row that cancels to zero, then a wrong grade
    ["1/6*e2^e1 + 1/10*e3^e4 - 1/15*e1^e3", "e3^e4 + 7/4*e4^e1"],
    ["0", "e2^e1 + e1^e2", "e1^e2 + 1/3*e1^e3 - 2/6*e1^e3"],
])
def test_fault_order(basis):
    assert_same({"n": 5, "k": 2, "order": "lex", "basis": basis})
    assert_same({"n": 5, "k": 2, "order": "weight2", "basis": basis[::-1]})


def test_hypothesis_records():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=120, deadline=None, database=None)
    @hypothesis.given(hypothesis.strategies.data())
    def check(data):
        assert_same(random_record(Draws(data, hypothesis.strategies)))

    check()
