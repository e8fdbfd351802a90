"""Exact Gauss–Jordan elimination over the rationals: the package's one kernel.

Matrices are dense lists of rows of rationals; the pivot of each column is
its first nonzero entry at or below the current row.  Canonical subspace
rows, kernels, determinants and inverses all come from ``rref``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

Matrix = list[list[Fraction]]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int], Fraction]:
    """Reduced row echelon form: (nonzero rows, pivot columns, factor).

    ``factor`` is the product of the pivots divided out, negated once per row
    swap; for a square matrix of full rank it is the determinant."""
    if not rows:
        return [], [], Fraction(1)
    ncols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    factor = Fraction(1)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            factor = -factor
        p = mat[r][c]
        factor *= p
        if p != 1:
            mat[r] = [v / p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots, factor


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> Matrix:
    """Basis of {x : A x = 0} for the matrix with the given rows, in free-column order."""
    reduced, pivots, _ = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def column_kernel(columns: Sequence[Mapping[Hashable, Fraction]]) -> Matrix:
    """Nullspace of the matrix whose columns are sparse coordinate maps, built
    only over the coordinates some column touches.  No columns touching any
    coordinate leaves the whole space."""
    touched = set().union(*columns)
    matrix = [[col.get(key, 0) for col in columns] for key in touched]
    return nullspace(matrix, len(columns))


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix: the elimination factor at full rank, else 0."""
    _, pivots, factor = rref(rows)
    return factor if len(pivots) == len(rows) else Fraction(0)


def inverse(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    """Inverse of a square matrix, by reducing [A | I]; ValueError when singular."""
    n = len(rows)
    aug = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(rows)]
    reduced, pivots, _ = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]
