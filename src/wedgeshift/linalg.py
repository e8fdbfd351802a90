"""Exact Gauss–Jordan elimination over the integers: the package's one kernel.

Rows are sparse integer maps ``{column: value}`` over any orderable columns,
and the pivot of a row is its smallest column under an optional sort key.
A caller that holds rational rows scales each one to integers first, which
keeps the row space and the kernel.  Elimination is fraction-free (Bareiss,
Math. Comp. 22, 1968): rows are combined without division and every changed
row is divided by its content, so the work follows the nonzeros and no row
is ever widened to all columns.  Each output row is the row's unique
integer form: primitive, with a positive pivot.  Canonical subspace rows and
kernels both come from ``rref``, and neither leaves the integers.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Any, Callable, Hashable, Mapping, Optional, Sequence

Row = dict[Hashable, int]


def _primitive(row: Row) -> Row:
    """The integer row divided by its content."""
    g = gcd(*row.values())
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _combine(a: Row, p: int, b: Row, f: int) -> Row:
    """Primitive part of p*a - f*b, zeros dropped."""
    out = {c: p * v for c, v in a.items()}
    for c, v in b.items():
        w = out.get(c, 0) - f * v
        if w:
            out[c] = w
        else:
            del out[c]
    return _primitive(out)


def rref(
    rows: Sequence[Mapping[Hashable, int]],
    key: Optional[Callable[[Any], Any]] = None,
) -> tuple[list[Row], list]:
    """Reduced row echelon form: (nonzero rows, pivot columns), in pivot order.

    Each row is primitive with a positive pivot and zero at the other pivots,
    so dividing it by its pivot gives the pivot-1 row: one form per span."""
    echelon: dict[Hashable, Row] = {}  # pivot -> primitive row, zero at the other pivots
    for row in rows:
        cur = _primitive({c: v for c, v in row.items() if v})
        for c in [c for c in cur if c in echelon]:
            cur = _combine(cur, echelon[c][c], echelon[c], cur[c])
        if not cur:
            continue
        piv = min(cur, key=key)
        p = cur[piv]
        for c, other in echelon.items():
            f = other.get(piv)
            if f:
                echelon[c] = _combine(other, p, cur, f)
        echelon[piv] = cur
    pivots = sorted(echelon, key=key)
    reduced = []
    for c in pivots:
        row = echelon[c]
        reduced.append(row if row[c] > 0 else {col: -v for col, v in row.items()})
    return reduced, pivots


def column_kernel(columns: Sequence[Mapping[Hashable, int]]) -> list[list[int]]:
    """Integer nullspace basis of the matrix whose columns are sparse coordinate
    maps, in free-column order: one sparse row per coordinate some column
    touches.  The vector of free column f is f's pivot-1 kernel vector times
    the lcm of the pivots it meets.  No columns touching any coordinate
    leaves the whole space."""
    rows: dict[Hashable, Row] = {}
    for j, col in enumerate(columns):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    reduced, pivots = rref(list(rows.values()))
    pivot_set = set(pivots)
    basis = []
    for f in range(len(columns)):
        if f in pivot_set:
            continue
        hits = [(row[p], row[f], p) for row, p in zip(reduced, pivots) if f in row]
        scale = lcm(*(a for a, _, _ in hits))
        vec = [0] * len(columns)
        vec[f] = scale
        for a, b, p in hits:
            vec[p] = -b * (scale // a)
        basis.append(vec)
    return basis
