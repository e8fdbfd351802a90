"""Exact exterior algebra over the rationals.

Monomials are wedges of distinct 1-based basis vectors stored with sorted
support; multivectors are sparse rational combinations of monomials over a
fixed ground dimension; square rational matrices act on grade one and extend
multiplicatively to every graded component.  No floating point anywhere.

The wedge product has one integer core.  ``integer_terms`` scales an operand
once to integers over its common denominator; ``wedge_core`` multiplies two
such integer term maps, visiting only the disjoint partner supports of each
term.  ``wedge`` takes two or more factors: it scales each once, chains the
core, then makes one Fraction per output term; ``apply_linear`` is one such
wedge per term of its argument.  Loops over canonical subspace rows
(self-annihilation, annihilators, the Plücker limit) read the rows' integer
form and stay in integers.

The canonical text form orders terms by lexicographic support and writes each
as ``c*e{i}^e{j}...`` with unit coefficients omitted, e.g.
``e1^e2^e3 - 1/2*e4^e5^e6``.  The reader has one integer core too:
``parse_terms`` reads it, and looser text, with one regular-expression pass
per text, and returns the terms as integers over one common denominator, the
lcm of the term denominators; index runs are looked up in a bounded cache of
their sorted supports and signs.  ``parse_multivector`` wraps that in one
Fraction per output term; a record's subspace rows stay integer maps.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import comb, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import GroundMismatchError, HomogeneityError, ParseError

Rational = Union[int, Fraction]
Support = tuple[int, ...]


def _exact(c: Rational) -> Fraction:
    """Fraction of an exact coefficient: an int or a Fraction.  A float has
    already lost exactness; a bool, str or Decimal is refused too."""
    if type(c) is bool or not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient {c!r} is a {type(c).__name__}; pass an int or a Fraction")
    return Fraction(c)


def _check_support(n: int, support: Sequence[int]) -> Support:
    sup = tuple(int(i) for i in support)
    for a, b in zip(sup, sup[1:]):
        if a >= b:
            raise ValueError(f"support must be strictly increasing, got {sup}")
    if sup and (sup[0] < 1 or sup[-1] > n):
        raise ValueError(f"support {sup} out of range for ground dimension {n}")
    return sup


def merge_sign(left: Sequence[int], right: Sequence[int]) -> int:
    """Parity sign of sorting the concatenation of two sorted disjoint runs."""
    inversions = 0
    for s in left:
        for t in right:
            if t < s:
                inversions += 1
    return -1 if inversions % 2 else 1


class Multivector:
    """Sparse exact-rational linear combination of exterior monomials."""

    __slots__ = ("n", "_terms", "_key")

    def __init__(
        self,
        n: int,
        terms: Union[Mapping[Sequence[int], Rational], Iterable[tuple[Sequence[int], Rational]]] = (),
    ):
        if n < 1:
            raise ValueError("ground dimension must be positive")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Support, Fraction] = {}
        for support, coeff in items:
            c = _exact(coeff)
            sup = _check_support(n, support)
            c += acc.get(sup, 0)
            if c == 0:
                acc.pop(sup, None)
            else:
                acc[sup] = c
        self.n = n
        self._terms = acc
        self._key: Optional[tuple] = None

    @classmethod
    def _trusted(cls, n: int, terms: dict[Support, Fraction]) -> "Multivector":
        """Wrap nonzero Fractions on sorted, in-range supports, unchecked."""
        out = object.__new__(cls)
        out.n, out._terms, out._key = n, terms, None
        return out

    @classmethod
    def zero(cls, n: int) -> "Multivector":
        return cls(n)

    @classmethod
    def monomial(cls, n: int, support: Sequence[int], coeff: Rational = 1) -> "Multivector":
        return cls(n, {tuple(support): coeff})

    @property
    def terms(self) -> Mapping[Support, Fraction]:
        """Read-only view of the nonzero terms."""
        return MappingProxyType(self._terms)

    def grades(self) -> frozenset[int]:
        return frozenset(len(s) for s in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_homogeneous(self) -> bool:
        return len(self.grades()) <= 1

    @property
    def grade(self) -> Optional[int]:
        """Grade of a homogeneous multivector; None for zero."""
        gs = self.grades()
        if not gs:
            return None
        if len(gs) > 1:
            raise HomogeneityError(f"multivector has mixed grades {sorted(gs)}")
        return next(iter(gs))

    def _merge(self, other: "Multivector", flip: int) -> "Multivector":
        if self.n != other.n:
            raise GroundMismatchError(f"ground dimensions differ: {self.n} vs {other.n}")
        acc = dict(self._terms)
        for sup, c in other._terms.items():
            v = acc.get(sup, Fraction(0)) + flip * c
            if v == 0:
                acc.pop(sup, None)
            else:
                acc[sup] = v
        return Multivector._trusted(self.n, acc)

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._merge(other, 1)

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._merge(other, -1)

    def __neg__(self) -> "Multivector":
        return self.scale(-1)

    def scale(self, c: Rational) -> "Multivector":
        c = _exact(c)
        if c == 0:
            return Multivector.zero(self.n)
        return Multivector._trusted(self.n, {s: v * c for s, v in self._terms.items()})

    def __mul__(self, c: Rational) -> "Multivector":
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return self.scale(c)

    __rmul__ = __mul__

    def _sort_key(self) -> tuple:
        if self._key is None:
            self._key = (self.n, tuple(sorted(self._terms.items())))
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multivector) and self._sort_key() == other._sort_key()

    def __hash__(self) -> int:
        return hash(self._sort_key())

    def __str__(self) -> str:
        return format_multivector(self)

    def __repr__(self) -> str:
        return f"Multivector({self.n}, {format_multivector(self)!r})"


@lru_cache(maxsize=1024)
def _partners(n: int, sx: Support, g: int) -> tuple[tuple[Support, Support, int], ...]:
    """Every g-subset of 1..n disjoint from sx, with its union support and merge sign."""
    rest = [i for i in range(1, n + 1) if i not in sx]
    return tuple(
        (sy, tuple(sorted(sx + sy)), merge_sign(sx, sy)) for sy in combinations(rest, g)
    )


def integer_terms(x: Multivector) -> tuple[dict[Support, int], int]:
    """x's terms times d as integers, with d the least common denominator of
    x's coefficients."""
    d = lcm(*(c.denominator for c in x._terms.values()))
    return {s: c.numerator * (d // c.denominator) for s, c in x._terms.items()}, d


def wedge_core(n: int, x: Mapping[Support, int], y: Mapping[Support, int]) -> dict[Support, int]:
    """Exterior product of integer term maps over ground dimension n, zeros dropped.

    For each support of x and each grade of y, the shorter candidate list is
    walked: y's terms of that grade, or the table of every disjoint support of
    that grade.  A table is built only when it is shorter than y's terms of
    that grade, so no table outgrows a multivector the caller already holds.
    """
    by_grade: dict[int, dict[Support, int]] = {}
    for sy, cy in y.items():
        by_grade.setdefault(len(sy), {})[sy] = cy
    acc: dict[Support, int] = {}
    for sx, cx in x.items():
        free = n - len(sx)
        for g, ys in by_grade.items():
            if comb(free, g) < len(ys):
                for sy, sup, sign in _partners(n, sx, g):
                    cy = ys.get(sy)
                    if cy is not None:
                        acc[sup] = acc.get(sup, 0) + sign * cx * cy
            else:
                setx = set(sx)
                for sy, cy in ys.items():
                    if setx.isdisjoint(sy):
                        sup = tuple(sorted(sx + sy))
                        acc[sup] = acc.get(sup, 0) + merge_sign(sx, sy) * cx * cy
    return {sup: v for sup, v in acc.items() if v}


def wedge(x: Multivector, y: Multivector, *more: Multivector) -> Multivector:
    """Exterior product of two or more factors, extended multilinearly from
    the merge-parity monomial rule.

    Monomials with intersecting supports multiply to zero; otherwise the
    product is the monomial on the union with the sign of the permutation
    that sorts the concatenated index sequence.

    Each factor is scaled to integers over its own common denominator
    (``integer_terms``), ``wedge_core`` chains the integer products, and each
    output term is one Fraction over the product of the denominators.  Loops
    that wedge the same operand many times scale it once and call the core
    themselves.
    """
    product, d = integer_terms(x)
    for f in (y,) + more:
        if f.n != x.n:
            raise GroundMismatchError(f"ground dimensions differ: {x.n} vs {f.n}")
        terms, b = integer_terms(f)
        product = wedge_core(x.n, product, terms)
        d *= b
    return Multivector._trusted(x.n, {sup: Fraction(v, d) for sup, v in product.items()})


class LinearMap:
    """Exact square matrix acting on grade one; column j holds the image of e_j.

    Entries are row-major Fractions with 0-based indexing: ``entries[r - 1][c - 1]``
    is the coefficient of e_r in the image of e_c.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries: Iterable[Iterable[Rational]]):
        rows = tuple(tuple(_exact(c) for c in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("entries must form a nonempty square matrix")
        self.n = n
        self.entries = rows

    def __call__(self, x: Multivector) -> Multivector:
        return apply_linear(self, x)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearMap) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(("LinearMap", self.entries))

    def __repr__(self) -> str:
        return f"LinearMap({[list(map(str, row)) for row in self.entries]})"


def apply_linear(g: LinearMap, x: Multivector) -> Multivector:
    """Extend the grade-one action of g multiplicatively and linearly.

    Each term c*e_S maps to the wedge of c with the images of its factors,
    one ``wedge`` call that chains them in integers, so
    apply_linear(g, wedge(x, y)) = wedge(apply_linear(g, x), apply_linear(g, y)).
    """
    if g.n != x.n:
        raise GroundMismatchError(f"ground dimensions differ: {g.n} vs {x.n}")
    columns = {
        i: Multivector._trusted(x.n, {(r + 1,): row[i - 1] for r, row in enumerate(g.entries) if row[i - 1]})
        for i in {i for sup in x._terms for i in sup}
    }
    images = []
    for sup, c in x._terms.items():
        scalar = Multivector._trusted(x.n, {(): c})
        images.append(wedge(scalar, *(columns[i] for i in sup)) if sup else scalar)
    return reduce(Multivector.__add__, images) if images else Multivector.zero(x.n)


def format_multivector(x: Multivector) -> str:
    """Canonical text form: lex-ordered supports, unit coefficients omitted."""
    if x.is_zero:
        return "0"
    parts: list[str] = []
    for sup, c in sorted(x._terms.items()):
        mono = "^".join(f"e{i}" for i in sup)
        a = abs(c)
        if not sup:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"{' - ' if c < 0 else ' + '}{body}")
    return "".join(parts)


# Both match the text with its spaces removed.  A term is a sign and what
# follows it up to the next sign; its body, that stretch stripped of
# whitespace, holds a numerator, denominator, "*" or end of term, index run,
# and what is left over.  A dangling sign is a minus whose body is empty.
_TERM_RE = re.compile(
    r"([+-]?)\s*((?:([0-9]+)(?:/([0-9]+))?(\*|(?=\s*(?:[+-]|\Z))))?"
    r"((?:e[0-9]+(?:\^e[0-9]+)*)?)([^+-]*?))\s*(?=[+-]|\Z)"
)
_DANGLING_RE = re.compile(r"-\s*(?:[+-]|\Z)")


@lru_cache(maxsize=4096)
def _run_support(run: str) -> tuple[Optional[Support], bool]:
    """The sorted support of an index run ``e<i>^e<j>...`` and whether
    sorting it is an odd permutation; None for a repeated index.  Inversions
    are counted only when the run is not already increasing."""
    idx = [int(i) for i in run[1:].split("^e")] if run else []
    ordered = sorted(set(idx))
    if len(ordered) < len(idx):
        return None, False
    odd = ordered != idx and sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:]) % 2 == 1
    return tuple(ordered), odd


def parse_terms(text: str, n: int) -> tuple[dict[Support, int], int]:
    """Read a sum of signed terms ``p``, ``p/q``, ``e<i>^e<j>...`` or
    ``p[/q]*e...`` as integers over one common denominator: (terms, d) with
    the value at each support times d, d the lcm of the term denominators,
    and terms that cancel dropped.

    Digits are ASCII, spaces inside a term are ignored, an unsorted index run
    is normalized by parity, and terms on one support add.  Faults, in order:
    a dangling sign anywhere; then, term by term from the left, a bad
    coefficient, a number past the interpreter's digit limit, zero
    denominator, bad monomial or repeated index; then n < 1; then the first
    support out of range, even one whose terms cancel."""
    s = text.strip()
    if not s:
        raise ParseError("empty multivector text")
    t = s.replace(" ", "")
    if _DANGLING_RE.search(t):
        raise ParseError(f"dangling sign in {s!r}")
    read: list[tuple[Support, int, int]] = []
    outside = None
    terms = [m for m in _TERM_RE.findall(t) if m[1]]
    for pos, (sign, body, num, den, star, run, rest) in enumerate(terms, 1):
        if not num and "*" in rest:
            raise ParseError(f"bad coefficient in term {body!r}")
        try:
            p, q = int(num or 1), int(den or 1)
            sup, odd = _run_support(run)
        except ValueError:  # only a digit run past sys.get_int_max_str_digits() fails
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"term #{pos} has a number of more than {limit} digits") from None
        if not q:
            raise ParseError(f"zero denominator in term {body!r}")
        if rest or (star and not run):
            raise ParseError(f"bad monomial in term {body!r}")
        if sup is None:
            raise ParseError(f"repeated index in term {body!r}")
        read.append((sup, -p if (sign == "-") ^ odd else p, q))
        if outside is None and sup and (sup[0] < 1 or sup[-1] > n):
            outside = sup
    if n < 1:
        raise ParseError("ground dimension must be positive")
    if outside is not None:
        raise ParseError(f"support {outside} out of range for ground dimension {n}")
    d = lcm(*(q for _, _, q in read))
    acc: dict[Support, int] = {}
    for sup, p, q in read:
        v = p * (d // q)
        acc[sup] = v = acc[sup] + v if sup in acc else v
        if not v:
            del acc[sup]
    return acc, d


def parse_multivector(text: str, n: int) -> Multivector:
    """Read multivector text (see ``parse_terms``): one Fraction per term."""
    terms, d = parse_terms(text, n)
    return Multivector._trusted(n, {sup: Fraction(v, d) for sup, v in terms.items()})
