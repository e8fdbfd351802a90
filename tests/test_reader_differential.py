"""The one-pass multivector reader against the split-on-signs parser it replaced.

``parent_parse_multivector`` below is that parser, verbatim but for its name:
it splits on signs, strips and partitions each chunk, matches two patterns,
builds several Fractions per term and validates everything again through the
checking ``Multivector`` constructor.  On every input both must return the
same multivector (same terms in the same order, same text) or raise a
ValueError with the same message.
"""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from wedgeshift import Multivector, ParseError, format_multivector, parse_multivector
from wedgeshift.exterior import Support

_MONOMIAL_RE = re.compile(r"^e\d+(?:\^e\d+)*$")
_COEFF_RE = re.compile(r"^\d+(?:/\d+)?$")


def _signed_chunks(text: str) -> list[tuple[int, str]]:
    chunks: list[tuple[int, str]] = []
    for raw in text.replace("-", "+-").split("+"):
        body = raw.strip()
        if not body:
            continue
        sign = 1
        if body.startswith("-"):
            sign = -1
            body = body[1:].strip()
        if not body:
            raise ParseError(f"dangling sign in {text!r}")
        chunks.append((sign, body))
    return chunks


def _parse_coefficient(text: str, term: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in term {term!r}") from None


def parent_parse_multivector(text: str, n: int) -> Multivector:
    """Parse the canonical text form (unsorted index runs are normalized by parity)."""
    s = text.strip()
    if not s:
        raise ParseError("empty multivector text")
    if s == "0":
        return Multivector.zero(n)
    pairs: list[tuple[Support, Fraction]] = []
    for sign, body in _signed_chunks(s):
        body = body.replace(" ", "")
        coeff = Fraction(sign)
        mono = body
        if "*" in body:
            head, _, mono = body.partition("*")
            if not _COEFF_RE.match(head):
                raise ParseError(f"bad coefficient in term {body!r}")
            coeff *= _parse_coefficient(head, body)
        elif _COEFF_RE.match(body):
            pairs.append(((), coeff * _parse_coefficient(body, body)))
            continue
        if not _MONOMIAL_RE.match(mono):
            raise ParseError(f"bad monomial in term {body!r}")
        indices = [int(tok[1:]) for tok in mono.split("^")]
        if len(set(indices)) != len(indices):
            raise ParseError(f"repeated index in term {body!r}")
        inversions = sum(
            1 for a in range(len(indices)) for b in range(a + 1, len(indices))
            if indices[a] > indices[b]
        )
        if inversions % 2:
            coeff = -coeff
        pairs.append((tuple(sorted(indices)), coeff))
    try:
        return Multivector(n, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def outcome(parse, text, n):
    """Terms in order and text of the result, or the message of the ValueError."""
    try:
        x = parse(text, n)
    except ValueError as exc:
        return "error", str(exc)
    return list(x.terms.items()), format_multivector(x)


def assert_same(text, n):
    assert outcome(parse_multivector, text, n) == outcome(parent_parse_multivector, text, n), (text, n)


def random_terms(rng):
    """A seeded multivector at n <= 8: mixed grades, large coprime coefficients."""
    n = rng.randint(1, 8)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        sup = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        den = rng.choice([1, 1, rng.randint(1, 10**25)])
        terms[sup] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**30), den)
    return n, Multivector(n, terms)


def rewrite(rng, x):
    """x's terms written loosely: unsorted runs, spaces, repeats, stacked signs."""
    parts = []
    for sup, c in x.terms.items():
        for _ in range(rng.choice([1, 1, 2])):
            run = list(sup)
            rng.shuffle(run)
            inversions = sum(a > b for a, b in combinations(run, 2))
            body = "^".join(f"e{i}" for i in run)
            a = abs(c)
            if not run:
                body = str(a)
            elif a != 1 or rng.random() < 0.3:
                body = f"{a}*{body}"
            body = "".join(ch + " " * rng.choice([0, 0, 0, 1, 2]) for ch in body)
            negative = (c < 0) != (inversions % 2 == 1)
            sign = rng.choice(["-", "+-", " + - "] if negative else ["+", "++", " + "])
            if rng.random() < 0.05:
                sign = "-+" if negative else "+-"
            parts.append(sign + body)
    return rng.choice(["", " ", "\t"]).join(parts) or "0"


class TestAgainstParent:
    def test_canonical_text(self):
        rng = random.Random(13013)
        for _ in range(400):
            n, x = random_terms(rng)
            text = format_multivector(x)
            assert_same(text, n)
            assert parse_multivector(text, n) == x
        assert_same("0", 3)

    def test_loose_text(self):
        rng = random.Random(13014)
        for _ in range(400):
            n, x = random_terms(rng)
            assert_same(rewrite(rng, x), n)
            assert_same(rewrite(rng, x), max(1, n - 1))

    @pytest.mark.parametrize("text", [
        "e5 - e5", "e1 - e5 + 1/0", "1/0 - e5", "e5 + e1^e1", "e1 -", "e1 - + e2",
        "--e1", "+", " + + ", "2*", "*e1", "e1*e2", "2/3/4*e1", "2e1", "1/0*ex",
        "2*3*e1", "e1^e01", "e0", "0*e9", "e2^e1 + e1^e2", "1/2 + 1/2 - 1",
    ])
    def test_fault_order(self, text):
        for n in (1, 4):
            assert_same(text, n)

    def test_hypothesis_text(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        tokens = list("0123456789e^*/+- \t") + ["e1", "e12", "1/0", "1.5*e1", "1e5*e1", "e0"]

        @hypothesis.settings(max_examples=600, deadline=None, database=None)
        @hypothesis.given(st.lists(st.sampled_from(tokens), max_size=24).map("".join),
                          st.integers(1, 5))
        def check(text, n):
            assert_same(text, n)

        check()
