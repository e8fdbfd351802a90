"""Exact Gauss–Jordan elimination over the integers: the package's one kernel.

Rows are sparse integer maps ``{column: value}`` over any orderable columns,
and the pivot of a row is its smallest column under an optional sort key.
A caller that holds rational rows scales each one to integers first, which
keeps the row space and the kernel.  Elimination is fraction-free (Bareiss,
Math. Comp. 22, 1968): each reduction of a row against echelon rows
(``reduce_row``) is one pass, scaled by the lcm of the pivots it meets, and
is then divided by its content once, so the work follows the nonzeros and
no row is ever widened to all columns.  Each output row is the row's unique
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


def reduce_row(row: Mapping[Hashable, int], by_pivot: Mapping[Hashable, Row]) -> tuple[Row, int]:
    """s*row minus the combination of echelon rows that clears row at every
    pivot it holds, zeros dropped, and the scale s: the lcm of the pivot
    values met, 1 when none is.  ``by_pivot`` maps each pivot to its row.

    Each echelon row vanishes at every other pivot, so a value of row at a
    pivot is touched by that pivot's row only and one pass clears all
    pivots; scaling once by the lcm keeps growth from compounding.  The rows
    met are found by |row| look-ups in the pivot map, not a scan of the
    rows.  row -> residue/s is linear, with the echelon rows' span as its
    kernel."""
    hits = [(by_pivot[piv], piv, c) for piv, c in row.items() if c and piv in by_pivot]
    if not hits:
        return {col: v for col, v in row.items() if v}, 1
    s = lcm(*(r[piv] for r, piv, _ in hits))
    out = {col: s * v for col, v in row.items() if v}
    for r, piv, c in hits:
        f = c * (s // r[piv])
        for col, v in r.items():
            w = out.get(col, 0) - f * v
            if w:
                out[col] = w
            else:
                del out[col]
    return out, s


def rref(
    rows: Sequence[Mapping[Hashable, int]],
    key: Optional[Callable[[Any], Any]] = None,
) -> tuple[list[Row], list]:
    """Reduced row echelon form: (nonzero rows, pivot columns), in pivot order.

    Each row is primitive with a positive pivot and zero at the other pivots,
    so dividing it by its pivot gives the pivot-1 row: one form per span.
    Both passes are ``reduce_row`` and one content division: each new row
    against the echelon rows, then each echelon row holding the new pivot
    against the new row.  A row joins with a positive pivot and keeps it: the
    second pass scales it by a positive lcm, then subtracts a row zero there."""
    echelon: dict[Hashable, Row] = {}  # pivot -> primitive row, zero at the other pivots
    for row in rows:
        cur = _primitive(reduce_row(row, echelon)[0])
        if not cur:
            continue
        piv = min(cur, key=key)
        if cur[piv] < 0:
            cur = {col: -v for col, v in cur.items()}
        for c, other in echelon.items():
            if piv in other:
                echelon[c] = _primitive(reduce_row(other, {piv: cur})[0])
        echelon[piv] = cur
    pivots = sorted(echelon, key=key)
    return [echelon[c] for c in pivots], pivots


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
