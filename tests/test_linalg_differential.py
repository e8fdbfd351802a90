"""The sparse fraction-free kernel against the dense Gauss–Jordan loop it replaced."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import integer_row
from wedgeshift.linalg import rref
from wedgeshift.subspace import MonomialOrder


def dense_rref(rows):
    """The dense kernel as it was: a pivot is the first nonzero entry of its
    column at or below the current row, and every row update touches every
    column."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][c]
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
    return mat[:r], pivots


# (rows, columns, rank, zero rows); rank None means full random entries
SHAPES = {
    "square": (4, 4, None, ()),
    "square5": (5, 5, None, ()),
    "wide": (3, 7, None, ()),
    "tall": (7, 3, None, ()),
    "rank_deficient": (6, 6, 3, ()),
    "wide_deficient": (4, 8, 2, ()),
    "zero_rows": (5, 4, None, (0, 3)),
    "zero": (3, 3, 0, ()),
    "one_by_one": (1, 1, None, ()),
}


def entry(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() > 0.35 else Fraction(0)


def random_matrix(rng, shape):
    m, n, rank, zero_rows = SHAPES[shape]
    if rank is None:
        rows = [[entry(rng) for _ in range(n)] for _ in range(m)]
    else:
        left = [[entry(rng) for _ in range(rank)] for _ in range(m)]
        right = [[entry(rng) for _ in range(n)] for _ in range(rank)]
        rows = [[sum((a[t] * right[t][c] for t in range(rank)), Fraction(0)) for c in range(n)]
                for a in left]
    for i in zero_rows:
        rows[i] = [Fraction(0)] * n
    return rows


def labelings(n):
    """Column labels, in dense column order, with the key that sorts them so."""
    weight2 = MonomialOrder("weight2", 6, 3)
    yield list(range(n)), None
    # supports in binary-weight order, where (2, 3, 4) precedes (1, 2, 5)
    yield sorted(combinations(range(1, 7), 3), key=weight2.key)[:n], weight2.key
    # natural order the reverse of the key's
    yield [("col", n - c) for c in range(n)], lambda label: -label[1]


@pytest.mark.parametrize("shape", SHAPES)
def test_matches_dense_rref(shape):
    for seed in range(15):
        rows = random_matrix(random.Random(seed), shape)
        ncols = SHAPES[shape][1]
        expected_rows, expected_pivots = dense_rref(rows)
        for labels, key in labelings(ncols):
            sparse = [integer_row({labels[c]: v for c, v in enumerate(row)}) for row in rows]
            reduced, pivots = rref(sparse, key)
            reduced = [{c: Fraction(v, row[p]) for c, v in row.items()} for row, p in zip(reduced, pivots)]
            assert pivots == [labels[c] for c in expected_pivots]
            assert reduced == [{labels[c]: v for c, v in enumerate(row) if v}
                               for row in expected_rows]
            assert all(type(v) is Fraction for row in reduced for v in row.values())
