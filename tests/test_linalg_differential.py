"""The sparse fraction-free kernel against the dense Gauss–Jordan loop it
replaced, and against its own earlier form with one combine per pivot hit."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from oracles import integer_row, reduce_rows
from wedgeshift.linalg import rref
from wedgeshift.subspace import MonomialOrder


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
        expected_rows, expected_pivots = reduce_rows(rows, ncols)
        for labels, key in labelings(ncols):
            sparse = [integer_row({labels[c]: v for c, v in enumerate(row)}) for row in rows]
            reduced, pivots = rref(sparse, key)
            reduced = [{c: Fraction(v, row[p]) for c, v in row.items()} for row, p in zip(reduced, pivots)]
            assert pivots == [labels[c] for c in expected_pivots]
            assert reduced == [{labels[c]: v for c, v in enumerate(row) if v}
                               for row in expected_rows]
            assert all(type(v) is Fraction for row in reduced for v in row.values())


def sequential_rref(rows, key=None):
    """``rref`` as it was before one reduction routine served both passes:
    the new row is cleared at each pivot it holds by its own combine
    p*a - f*b, and every combine divides by the content."""

    def primitive(row):
        g = gcd(*row.values())
        return {c: v // g for c, v in row.items()} if g > 1 else row

    def combine(a, p, b, f):
        out = {c: p * v for c, v in a.items()}
        for c, v in b.items():
            w = out.get(c, 0) - f * v
            if w:
                out[c] = w
            else:
                del out[c]
        return primitive(out)

    echelon = {}
    for row in rows:
        cur = primitive({c: v for c, v in row.items() if v})
        for c in [c for c in cur if c in echelon]:
            cur = combine(cur, echelon[c][c], echelon[c], cur[c])
        if not cur:
            continue
        piv = min(cur, key=key)
        p = cur[piv]
        for c, other in echelon.items():
            f = other.get(piv)
            if f:
                echelon[c] = combine(other, p, cur, f)
        echelon[piv] = cur
    pivots = sorted(echelon, key=key)
    return [echelon[c] if echelon[c][c] > 0 else {col: -v for col, v in echelon[c].items()}
            for c in pivots], pivots


def sparse_rows(rng, columns):
    """Sparse integer rows over tuple columns: negative values (so negative
    pivots), explicit zeros, empty and all-zero rows, repeats, multiples and
    combinations of earlier rows."""
    rows = []
    for _ in range(rng.randint(1, 9)):
        kind = rng.random()
        if kind < 0.1:
            rows.append(rng.choice([{}, {rng.choice(columns): 0}]))
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append({c: p * a.get(c, 0) + q * b.get(c, 0) for c in a.keys() | b.keys()})
        else:
            cols = rng.sample(columns, rng.randint(1, 5))
            rows.append({c: rng.choice([0, -9, -2, -1, 1, 2, 3, 6, 12]) for c in cols})
    return rows


@pytest.mark.parametrize("kind", ["lex", "weight2"])
def test_matches_sequential_combines(kind):
    columns = list(combinations(range(1, 7), 3))
    key = MonomialOrder(kind, 6, 3).key
    rng = random.Random(2024)
    negative_pivots = dependent = 0
    for _ in range(400):
        rows = sparse_rows(rng, columns)
        got = rref(rows, key)
        assert got == sequential_rref(rows, key), rows
        for row in rows:
            support = [c for c, v in row.items() if v]
            negative_pivots += bool(support) and row[min(support, key=key)] < 0
        dependent += len(got[0]) < sum(1 for row in rows if any(row.values()))
    assert negative_pivots > 100 and dependent > 100
