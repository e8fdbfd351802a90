"""Finite-parameter maps that serve as test oracles for the limit code.

The package computes shear and weight limits directly; these build the
literal matrices for a fixed parameter t so tests can compare against them,
and test invertibility independently of the package.  ``shift_map`` is the
package's own replacement map, on a Multivector.
"""

from fractions import Fraction

from oracles import reduce_rows
from wedgeshift import GroundMismatchError, LinearMap, Multivector
from wedgeshift.limits import _as_pair, _replaced


def shift_map(x, pair):
    """The map that limit_shift applies to each row (``limits._replaced``):
    e_i becomes e_j in each monomial with factor e_i (zero when j is already
    a factor), and every monomial without i goes to zero."""
    p = _as_pair(pair, x.n)
    return Multivector._trusted(x.n, _replaced(x.terms, p.i, p.j))


def identity(n):
    return LinearMap([[1 if r == c else 0 for c in range(n)] for r in range(n)])


def diagonal(values):
    n = len(values)
    return LinearMap([[values[r] if r == c else 0 for c in range(n)] for r in range(n)])


def is_invertible(g):
    """Full rank under the oracle's own elimination."""
    return len(reduce_rows(g.entries, g.n)[1]) == g.n


def shear(n, i, j, t):
    """Identity plus t in row j, column i: sends e_i to e_i + t*e_j."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"shear needs distinct indices in [1, {n}], got ({i}, {j})")
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[j - 1][i - 1] = t
    return LinearMap(rows)


def weight_diagonal(n, t):
    """Diagonal entries t^(-2^1), ..., t^(-2^n).

    Weights every monomial by t to the negated binary weight of its
    support, so distinct supports get distinct powers of t.
    """
    t = Fraction(t)
    if t == 0:
        raise ValueError("weight diagonal needs a nonzero parameter")
    return diagonal([1 / t ** (2 ** i) for i in range(1, n + 1)])


def compose(g, h):
    """g after h, as a matrix product."""
    if g.n != h.n:
        raise GroundMismatchError(f"dimensions differ: {g.n} vs {h.n}")
    n = g.n
    a, b = g.entries, h.entries
    return LinearMap(
        [[sum(a[r][m] * b[m][c] for m in range(n)) for c in range(n)] for r in range(n)]
    )
