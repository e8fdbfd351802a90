"""The elimination kernel against sympy's exact linear algebra."""

import random
from fractions import Fraction

import pytest

from oracles import integer_row
from wedgeshift import LinearMap
from wedgeshift.linalg import column_kernel, rref
from wedgeshift.sampling import random_invertible, random_rational

sympy = pytest.importorskip("sympy")

# (rows, columns, rank); rank None means full random entries
SHAPES = {
    "square": (4, 4, None),
    "wide": (3, 6, None),
    "tall": (6, 3, None),
    "rank_deficient": (5, 5, 2),
    "wide_deficient": (3, 7, 1),
    "zero_rows": (5, 4, None),
    "zero": (3, 3, 0),
    "one_by_one": (1, 1, None),
}
SEEDS = range(12)


def nullspace(rows, ncols):
    """Kernel of a dense matrix, its rows scaled to integers, transposed into
    column_kernel's sparse columns."""
    rows = sparse(rows)
    return column_kernel([{r: row[c] for r, row in enumerate(rows) if c in row} for c in range(ncols)])


def entry(rng):
    # a quarter of the entries vanish, so pivots are often not on the diagonal
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() > 0.25 else Fraction(0)


def random_matrix(rng, shape):
    m, n, rank = SHAPES[shape]
    if rank is None:
        rows = [[entry(rng) for _ in range(n)] for _ in range(m)]
    else:
        left = [[entry(rng) for _ in range(rank)] for _ in range(m)]
        right = [[entry(rng) for _ in range(n)] for _ in range(rank)]
        rows = [[sum((a[t] * right[t][c] for t in range(rank)), Fraction(0)) for c in range(n)]
                for a in left]
    if shape == "zero_rows":
        rows[1] = [Fraction(0)] * n
        rows[3] = [Fraction(0)] * n
    return rows


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator)
                                           for row in rows for x in row])


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def pivot_one(reduced, pivots):
    """rref's integer rows divided by their pivots."""
    return [{c: Fraction(v, row[p]) for c, v in row.items()} for row, p in zip(reduced, pivots)]


def rank_of(vectors, ncols):
    return to_sympy(vectors, ncols).rank() if vectors else 0


def sparse(rows):
    """Dense rational rows as the kernel's sparse integer rows: each row
    scaled by its own denominators, which keeps the span and the kernel."""
    return [integer_row(dict(enumerate(row))) for row in rows]


def dense(rows, ncols):
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]


def same_span(ours, theirs, ncols):
    theirs = [[from_sympy(x) for x in v] for v in theirs]
    r = rank_of(ours, ncols)
    return r == len(ours) == len(theirs) == rank_of(theirs, ncols) == rank_of(ours + theirs, ncols)


CASES = [(shape, seed) for shape in SHAPES for seed in SEEDS]


@pytest.mark.parametrize("shape,seed", CASES)
def test_rref_matches_sympy(shape, seed):
    rows = random_matrix(random.Random(seed), shape)
    ncols = SHAPES[shape][1]
    reduced, pivots = rref(sparse(rows))
    expected, expected_pivots = to_sympy(rows, ncols).rref()
    assert pivots == list(expected_pivots)
    assert dense(pivot_one(reduced, pivots), ncols) == [[from_sympy(expected[r, c]) for c in range(ncols)]
                                     for r in range(len(pivots))]


@pytest.mark.parametrize("shape,seed", CASES)
def test_kernels_match_sympy(shape, seed):
    rows = random_matrix(random.Random(seed), shape)
    ncols = SHAPES[shape][1]
    expected = [list(v) for v in to_sympy(rows, ncols).nullspace()]
    assert same_span(nullspace(rows, ncols), expected, ncols)
    # the same matrix as sparse columns over hashable, non-integer keys
    ints = sparse(rows)
    columns = [{("row", r): row[c] for r, row in enumerate(ints) if c in row}
               for c in range(ncols)]
    assert same_span(column_kernel(columns), expected, ncols)


@pytest.mark.parametrize("shape,seed", [(s, seed) for s, seed in CASES
                                        if SHAPES[s][0] == SHAPES[s][1]])
def test_det_and_inverse_match_sympy(shape, seed):
    """Elimination finds n pivots exactly when sympy's determinant is nonzero
    (the invertibility test of random_invertible), and reducing [A | I]
    leaves sympy's inverse in the right block."""
    rows = random_matrix(random.Random(seed), shape)
    n = len(rows)
    M = to_sympy(rows, n)
    aug = [integer_row({**dict(enumerate(row)), n + r: Fraction(1)}) for r, row in enumerate(rows)]
    reduced, pivots = rref(aug)
    reduced = pivot_one(reduced, pivots)
    invertible = M.det() != 0
    assert (len(rref(sparse(rows))[1]) == n) == invertible
    assert (pivots == list(range(n))) == invertible
    if invertible:
        expected = M.inv()
        assert [[row.get(n + c, Fraction(0)) for c in range(n)] for row in reduced] == [
            [from_sympy(expected[r, c]) for c in range(n)] for r in range(n)]


def test_empty_matrices():
    assert rref([]) == ([], [])
    assert nullspace([], 0) == column_kernel([]) == []
    # no rows, or columns touching nothing: the whole space
    identity = [[Fraction(int(r == c)) for c in range(3)] for r in range(3)]
    assert nullspace([], 3) == identity
    assert column_kernel([{}, {}, {}]) == identity
    assert same_span(identity, sympy.zeros(0, 3).nullspace(), 3)


def sympy_invertible(rng, n, attempts=100):
    """random_invertible's rejection loop, deciding invertibility by sympy's
    determinant: the same draws in the same sequence."""
    for _ in range(attempts):
        rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        if to_sympy(rows, n).det() != 0:
            return LinearMap(rows)
    raise RuntimeError("failed to sample an invertible map")


@pytest.mark.parametrize("n", range(1, 7))
def test_random_invertible_keeps_its_draws(n):
    # pins the maps behind the seeded benchmark inputs
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        assert random_invertible(rng, n) == sympy_invertible(ref, n)
        assert rng.random() == ref.random()
