"""Exact Gauss–Jordan elimination over the rationals: the package's one kernel.

Rows are sparse maps ``{column: value}`` over any orderable columns, and the
pivot of a row is its smallest column under an optional sort key.
Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): each row is
cleared of denominators once, rows are combined without division and every
changed row is divided by its content, so the work follows the nonzeros and
no row is ever widened to all columns.  Canonical subspace rows, kernels,
determinants and inverses all come from ``rref``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Any, Callable, Hashable, Mapping, Optional, Sequence

Matrix = list[list[Fraction]]
Row = dict[Hashable, int]


def _primitive(row: Row) -> tuple[Row, int]:
    """The integer row divided by its content, and that content (1 when zero)."""
    g = gcd(*row.values())
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row, g or 1


def _combine(a: Row, p: int, b: Row, f: int) -> tuple[Row, int]:
    """Primitive part and content of p*a - f*b, zeros dropped."""
    out = {c: p * v for c, v in a.items()}
    for c, v in b.items():
        w = out.get(c, 0) - f * v
        if w:
            out[c] = w
        else:
            del out[c]
    return _primitive(out)


def rref(
    rows: Sequence[Mapping[Hashable, Fraction]],
    key: Optional[Callable[[Any], Any]] = None,
) -> tuple[list[dict[Hashable, Fraction]], list, Fraction]:
    """Reduced row echelon form: (nonzero rows, pivot columns, factor), in
    pivot order.

    ``factor`` is the determinant when the rows form a square matrix of full
    rank over columns 0..n-1.  Each combination scales one row by a pivot and
    each content division by its inverse; ``num``/``den`` is the product of
    those scales, and the parity of input order against pivot order gives
    the sign."""
    echelon: dict[Hashable, Row] = {}  # pivot -> primitive row, zero at the other pivots
    origin: dict[Hashable, int] = {}  # pivot -> position of its input row
    num = den = 1
    for pos, row in enumerate(rows):
        d = lcm(*(v.denominator for v in row.values()))
        cur, g = _primitive({c: v.numerator * (d // v.denominator) for c, v in row.items() if v})
        num, den = num * d, den * g
        for c in [c for c in cur if c in echelon]:
            p = echelon[c][c]
            cur, g = _combine(cur, p, echelon[c], cur[c])
            num, den = num * p, den * g
        if not cur:
            continue
        piv = min(cur, key=key)
        p = cur[piv]
        for c, other in echelon.items():
            f = other.get(piv)
            if f:
                echelon[c], g = _combine(other, p, cur, f)
                num, den = num * p, den * g
        echelon[piv] = cur
        origin[piv] = pos
    pivots = sorted(echelon, key=key)
    order = [origin[c] for c in pivots]
    swaps = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    factor = Fraction((-1) ** swaps * den * prod(echelon[c][c] for c in pivots), num)
    reduced = []
    for c in pivots:
        p = echelon[c][c]
        reduced.append({col: Fraction(v, p) for col, v in echelon[c].items()})
    return reduced, pivots, factor


def column_kernel(columns: Sequence[Mapping[Hashable, Fraction]]) -> Matrix:
    """Nullspace of the matrix whose columns are sparse coordinate maps, in
    free-column order: one sparse row per coordinate some column touches.  No
    columns touching any coordinate leaves the whole space."""
    rows: dict[Hashable, dict[int, Fraction]] = {}
    for j, col in enumerate(columns):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    reduced, pivots, _ = rref(list(rows.values()))
    pivot_set = set(pivots)
    basis = []
    for f in range(len(columns)):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * len(columns)
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            if f in row:
                vec[p] = -row[f]
        basis.append(vec)
    return basis


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix: the elimination factor at full rank, else 0."""
    _, pivots, factor = rref([dict(enumerate(row)) for row in rows])
    return factor if len(pivots) == len(rows) else Fraction(0)


def inverse(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    """Inverse of a square matrix, by reducing [A | I]; ValueError when singular."""
    n = len(rows)
    aug = [{**dict(enumerate(row)), n + r: Fraction(1)} for r, row in enumerate(rows)]
    reduced, pivots, _ = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(n + c, Fraction(0)) for c in range(n)] for row in reduced]
