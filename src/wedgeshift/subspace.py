"""Canonical subspaces of a fixed graded component, plus the Plücker embedding.

A subspace is stored as the reduced echelon basis of its row space with
respect to an explicit ordering of the monomial coordinates, so subspace
equality is literal equality of canonical rows.  Two coordinate orders are
available: ``lex`` compares supports as sorted index sequences, and
``weight2`` orders supports by increasing binary weight (the sum of 2^i over
the support), which is what a diagonal action with doubly exponential
parameter weights separates.  The two differ: {1,4} precedes {2,3} in lex
but has the larger binary weight (18 against 12).  Rows stay sparse, keyed by
support, and nothing here lists all C(n, k) coordinates: the Plücker embedding
is the wedge of the rows lifted to grade one over the supports they touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb
from typing import Iterable, Optional, Sequence, Union

from .errors import BudgetExceededError, GroundMismatchError, HomogeneityError
from .exterior import Multivector, Support, wedge
from .families import SetFamily
from .linalg import column_kernel, rref

ORDER_KINDS = ("lex", "weight2")

# One cap on dense work: Pluecker coordinates of a subspace and of a shear
# limit, and rows times coordinates of the complement-pair space.
_SIZE_CAP = 1_000_000


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


class Subspace:
    """Row space in reduced echelon form over an explicit monomial order.

    Construction re-canonicalizes any spanning set, so equal subspaces are
    structurally equal; pivot monomials are the order-earliest supports of
    the canonical rows.
    """

    __slots__ = ("order", "rows", "_pivots")

    def __init__(self, order: MonomialOrder, vectors: Iterable[Multivector] = ()):
        vecs = list(vectors)
        for v in vecs:
            if v.n != order.n:
                raise GroundMismatchError(
                    f"vector over ground dimension {v.n}, order expects {order.n}"
                )
            if not v.is_homogeneous:
                raise HomogeneityError("spanning vectors must be homogeneous")
            if not v.is_zero and v.grade != order.k:
                raise HomogeneityError(
                    f"spanning vector of grade {v.grade}, order expects {order.k}"
                )
        reduced, pivots = rref([v.terms for v in vecs], order.key)
        self.order = order
        self.rows = tuple(Multivector._trusted(order.n, row) for row in reduced)
        self._pivots = tuple(pivots)

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def k(self) -> int:
        return self.order.k

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def pivots(self) -> tuple[Support, ...]:
        """Pivot supports of the canonical rows, in coordinate order."""
        return self._pivots

    def _residue(self, x: Multivector) -> dict[Support, Fraction]:
        """Terms of x reduced against the canonical rows: zero exactly on V.

        Each row vanishes at every other row's pivot, so one pass clears all
        pivots and the map x -> residue is linear with kernel V."""
        acc = dict(x.terms)
        for row, piv in zip(self.rows, self._pivots):
            c = acc.get(piv)
            if c:
                for sup, v in row.terms.items():
                    w = acc.get(sup, 0) - c * v
                    if w:
                        acc[sup] = w
                    else:
                        del acc[sup]
        return acc

    def _members_mapped_into(self, images: Sequence[Multivector]) -> list[Multivector]:
        """Basis of the combinations sum c_i r_i of the canonical rows r_i whose
        image sum c_i images[i] lies in V: the kernel of the residues modulo V,
        a dim-column matrix over only the supports those residues touch.  When
        every image lies in V this is the rows themselves."""
        residues = [self._residue(x) for x in images]
        if not any(residues):
            return list(self.rows)
        members = []
        for vec in column_kernel(residues):
            acc = Multivector.zero(self.n)
            for coeff, row in zip(vec, self.rows):
                if coeff:
                    acc = acc + row.scale(coeff)
            members.append(acc)
        return members

    def monomial_basis(self) -> Optional[SetFamily]:
        """Support family when every canonical row is a single monomial, else None."""
        sets = []
        for row in self.rows:
            terms = row.terms
            if len(terms) != 1:
                return None
            sets.append(next(iter(terms)))
        return SetFamily(self.n, self.k, tuple(sets))

    def pluecker(self) -> PlueckerVector:
        """All maximal minors of the canonical row matrix, projectively normalized.

        The minors are the coefficients of the wedge of the rows lifted to
        grade one; coordinates are indexed by m-subsets of the monomial
        coordinates, in lexicographic order of their positions in the
        monomial order.
        """
        m = self.dim
        if m == 0:
            raise ValueError("zero subspace has no Pluecker vector")
        _check_pluecker_size(comb(comb(self.n, self.k), m))
        columns, lifted = _lift(self.order, self.rows)
        return _pluecker_vector(self.order, columns, reduce(wedge, lifted))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.order == other.order
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.order, self.rows))

    def __repr__(self) -> str:
        basis = ", ".join(str(r) for r in self.rows)
        return f"Subspace(n={self.n}, k={self.k}, {self.order.kind}, [{basis}])"


def _lift(
    order: MonomialOrder, vectors: Sequence[Multivector]
) -> tuple[list[Support], list[Multivector]]:
    """Grade-one copies of grade-k vectors over the supports they touch.

    The touched supports, sorted by the order, become the positions 1..N, and
    each vector becomes the grade-one vector with its coefficient of the
    support at each position.  The coefficient of e_c1^...^e_cm (c1 < ... < cm)
    in the wedge of m lifted vectors is their maximal minor at columns
    c1, ..., cm; every minor at an untouched column is zero."""
    columns = sorted({s for v in vectors for s in v.terms}, key=order.key)
    position = {s: p for p, s in enumerate(columns, 1)}
    lifted = [
        Multivector._trusted(len(columns), {(position[s],): c for s, c in v.terms.items()})
        for v in vectors
    ]
    return columns, lifted


def _pluecker_vector(
    order: MonomialOrder, columns: Sequence[Support], product: Multivector
) -> PlueckerVector:
    """The nonzero coordinates of a nonzero wedge of lifted vectors, back on
    their supports, in position order and scaled so the first one is 1."""
    items = sorted(product.terms.items())
    lead = items[0][1]
    return PlueckerVector(
        len(items[0][0]),
        order,
        tuple((tuple(columns[p - 1] for p in key), v / lead) for key, v in items),
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
