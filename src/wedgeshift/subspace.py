"""Canonical subspaces of a fixed graded component, plus the Plücker embedding.

A subspace is stored as the reduced echelon basis of its row space with
respect to an explicit ordering of the monomial coordinates, each row in its
unique integer form (primitive, positive pivot), so subspace equality is
literal equality of those rows.  The package computes on the integer rows;
the public ``rows``, divided by their pivots, are built on first read.  Two
coordinate orders are available: ``lex`` compares supports as sorted index
sequences, and ``weight2`` orders supports by increasing binary weight (the
sum of 2^i over the support), which is what a diagonal action with doubly
exponential parameter weights separates.  The two differ: {1,4} precedes
{2,3} in lex but has the larger binary weight (18 against 12).  Rows stay
sparse, keyed by support, and nothing here lists all C(n, k) coordinates:
the Plücker embedding is the wedge of the rows lifted to grade one over the
supports they touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from .errors import BudgetExceededError, GroundMismatchError, HomogeneityError
from .exterior import Multivector, Rational, Support, integer_terms, wedge
from .families import _SIZE_CAP, SetFamily
from .linalg import column_kernel, reduce_row, rref

ORDER_KINDS = ("lex", "weight2")


def _check_pluecker_size(ncoords: int) -> None:
    """BudgetExceededError when a Pluecker vector would exceed the size cap."""
    if ncoords > _SIZE_CAP:
        raise BudgetExceededError(f"Pluecker vector would have {ncoords} coordinates (cap {_SIZE_CAP})")


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on the grade-k monomial coordinates over ground dimension n."""

    kind: str
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.kind not in ORDER_KINDS:
            raise ValueError(f"unknown monomial order {self.kind!r}")
        if not (1 <= self.n) or not (0 <= self.k <= self.n):
            raise ValueError(f"bad order parameters n={self.n}, k={self.k}")

    def key(self, support: Sequence[int]) -> Union[Support, int]:
        """Sort key of a support: the support itself (lex) or its binary weight."""
        return tuple(support) if self.kind == "lex" else sum(1 << i for i in support)


@dataclass(frozen=True)
class PlueckerVector:
    """Projective vector of maximal minors: nonzero coordinates in coordinate
    order, scaled so the first one is 1.  Keys are tuples of monomial supports."""

    m: int
    order: MonomialOrder
    items: tuple[tuple[tuple[Support, ...], Fraction], ...]


def _check_grade(order: MonomialOrder, supports: Iterable[Support]) -> None:
    """HomogeneityError unless the supports of one spanning vector's terms
    all have grade order.k (or there are none)."""
    grades = {len(sup) for sup in supports}
    if len(grades) > 1:
        raise HomogeneityError("spanning vectors must be homogeneous")
    for g in grades:
        if g != order.k:
            raise HomogeneityError(f"spanning vector of grade {g}, order expects {order.k}")


def _checked_terms(order: MonomialOrder, v: Union[Multivector, Mapping]) -> dict[Support, int]:
    """The terms of one spanning vector of the public constructor, checked,
    as integers over their common denominator: a term map goes through the
    checking Multivector constructor (a value not an int or a Fraction is a
    TypeError, an unsorted or out-of-range support a ValueError), then
    ground dimension and grade are checked."""
    if not isinstance(v, Multivector):
        v = Multivector(order.n, v)
    if v.n != order.n:
        raise GroundMismatchError(f"vector over ground dimension {v.n}, order expects {order.n}")
    _check_grade(order, v.terms)
    return integer_terms(v)[0]


class _CheckedCall(type):
    """Calling Subspace checks its spanning vectors and scales each to
    integers once; __init__ takes integer term maps as they are.  Package
    code that already holds grade-k integer term maps reaches __init__
    through Subspace._trusted, so every construction, checked or not, runs
    __init__ exactly once."""

    def __call__(cls, order: MonomialOrder, vectors: Iterable[Union[Multivector, Mapping]] = ()):
        return super().__call__(order, [_checked_terms(order, v) for v in vectors])


class Subspace(metaclass=_CheckedCall):
    """Row space in reduced echelon form over an explicit monomial order.

    Construction re-canonicalizes any spanning set.  The public constructor
    takes Multivectors or term maps with int or Fraction values and checks
    them as the Multivector constructor does (exact values, sorted in-range
    supports), plus ground dimension and grade k, then scales each to
    integers; ``_trusted`` takes the package's own integer term maps of
    grade k on sorted, in-range supports unchecked.  Each canonical row is
    kept primitive with a positive pivot, the one integer form of its
    pivot-1 row, so equal subspaces have equal rows and pivots; pivot
    monomials are the order-earliest supports of the rows.  One map from
    each pivot to its row, in coordinate order, serves pivots() and the row
    look-ups of ``linalg.reduce_row`` when shear images are reduced modulo
    the span.
    """

    __slots__ = ("order", "_rows", "_by_pivot", "_fraction_rows")

    def __init__(self, order: MonomialOrder, vectors: Iterable[Mapping[Support, int]] = ()):
        rows, pivots = rref(list(vectors), order.key)
        self.order = order
        self._rows = tuple(rows)
        self._by_pivot = dict(zip(pivots, self._rows))
        self._fraction_rows: Optional[tuple[Multivector, ...]] = None

    @classmethod
    def _trusted(cls, order: MonomialOrder, rows: Iterable[Mapping[Support, int]]) -> "Subspace":
        """Canonical span of grade-k term maps on sorted, in-range supports
        with int values, unchecked."""
        out = cls.__new__(cls)
        out.__init__(order, rows)
        return out

    @property
    def rows(self) -> tuple[Multivector, ...]:
        """The canonical rows divided by their pivots: pivot 1, Fraction values.
        Built on first read and kept."""
        if self._fraction_rows is None:
            self._fraction_rows = tuple(
                Multivector._trusted(self.n, {s: Fraction(v, row[piv]) for s, v in row.items()})
                for piv, row in self._by_pivot.items()
            )
        return self._fraction_rows

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def k(self) -> int:
        return self.order.k

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def pivots(self) -> tuple[Support, ...]:
        """Pivot supports of the canonical rows, in coordinate order."""
        return tuple(self._by_pivot)

    def _members_mapped_into(self, images: Sequence[Mapping[Support, int]]) -> list[dict[Support, int]]:
        """Basis of the integer combinations sum c_i r_i of the canonical rows
        r_i whose image sum c_i images[i] lies in V: the kernel of the
        residues modulo V (``reduce_row`` on the pivot map), a dim-column
        matrix over only the supports those residues touch.  A kernel vector u of the scaled residues gives
        c_i = u_i s_i.  When every image lies in V this is the rows."""
        residues = [reduce_row(x, self._by_pivot) for x in images]
        if not any(res for res, _ in residues):
            return list(self._rows)
        members = []
        for vec in column_kernel([res for res, _ in residues]):
            acc: dict[Support, int] = {}
            for u, (_, scale), row in zip(vec, residues, self._rows):
                if u:
                    c = u * scale
                    for sup, v in row.items():
                        acc[sup] = acc.get(sup, 0) + c * v
            members.append({sup: v for sup, v in acc.items() if v})
        return members

    def monomial_basis(self) -> Optional[SetFamily]:
        """Support family when every canonical row is a single monomial, else
        None; the pivots, sorted into lex order (weight2's is not), need no check."""
        if any(len(row) != 1 for row in self._rows):
            return None
        return SetFamily._trusted(self.n, self.k, tuple(sorted(next(iter(row)) for row in self._rows)))

    def pluecker(self) -> PlueckerVector:
        """All maximal minors of the canonical row matrix, projectively normalized.

        The minors are the coefficients of the wedge of the rows lifted to
        grade one; coordinates are indexed by m-subsets of the monomial
        coordinates, in lexicographic order of their positions in the
        monomial order.  It goes through the public ``rows`` and one ``wedge``
        call, not the integer rows that ``pluecker_limit`` reads.
        """
        m = self.dim
        if m == 0:
            raise ValueError("zero subspace has no Pluecker vector")
        _check_pluecker_size(comb(comb(self.n, self.k), m))
        columns, lifted = _lift(self.order, [r.terms for r in self.rows])
        factors = [Multivector._trusted(len(columns), row) for row in lifted]
        product = wedge(*factors) if m > 1 else factors[0]
        return _pluecker_vector(self.order, columns, product.terms)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Subspace)
            and self.order == other.order
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.order, tuple(frozenset(row.items()) for row in self._rows)))

    def __repr__(self) -> str:
        basis = ", ".join(str(r) for r in self.rows)
        return f"Subspace(n={self.n}, k={self.k}, {self.order.kind}, [{basis}])"


def _lift(
    order: MonomialOrder, rows: Sequence[Mapping[Support, Any]]
) -> tuple[list[Support], list[dict[Support, Any]]]:
    """Grade-one copies of grade-k term maps over the supports they touch.

    The touched supports, sorted by the order, become the positions 1..N, and
    each map becomes the grade-one map with its coefficient of the support
    at each position.  The coefficient of e_c1^...^e_cm (c1 < ... < cm) in
    the wedge of m lifted maps is their maximal minor at columns c1, ..., cm;
    every minor at an untouched column is zero."""
    columns = sorted({s for row in rows for s in row}, key=order.key)
    position = {s: p for p, s in enumerate(columns, 1)}
    lifted = [{(position[s],): c for s, c in row.items()} for row in rows]
    return columns, lifted


def _pluecker_vector(
    order: MonomialOrder, columns: Sequence[Support], product: Mapping[Support, Rational]
) -> PlueckerVector:
    """The nonzero coordinates of a nonzero wedge of lifted vectors (a term
    map), back on their supports, in position order, the first scaled to 1."""
    items = sorted(product.items())
    lead = items[0][1]
    return PlueckerVector(
        len(items[0][0]),
        order,
        tuple((tuple(columns[p - 1] for p in key), Fraction(v, lead)) for key, v in items),
    )


def span(vectors: Iterable[Multivector], order: Optional[MonomialOrder] = None) -> Subspace:
    """Reduced echelon span; the order is inferred from the first nonzero vector
    (lex) when not supplied."""
    vecs = list(vectors)
    if order is None:
        probe = next((v for v in vecs if not v.is_zero), None)
        if probe is None:
            raise ValueError("monomial order required to span an empty set")
        if not probe.is_homogeneous:
            raise HomogeneityError("spanning vectors must be homogeneous")
        order = MonomialOrder("lex", probe.n, probe.grade)
    return Subspace(order, vecs)
