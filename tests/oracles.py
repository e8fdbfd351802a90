"""Independent subspace oracles for tests: rank, kernel, membership, intersection.

Vectors become dense Fraction rows over the supports they touch, and a plain
Gauss–Jordan loop written here ranks them and finds kernels, so nothing goes
through the package's elimination kernel or its reduction against canonical
rows.  Subspaces are compared by building the package's canonical form of the
oracle's answer.
"""

from fractions import Fraction
from math import lcm

from wedgeshift import Multivector, Subspace


def integer_row(row):
    """A sparse rational row times the lcm of its denominators, zeros dropped:
    the integer row the elimination kernel takes, with the same span and the
    same kernel."""
    d = lcm(*(Fraction(v).denominator for v in row.values()))
    return {c: int(v * d) for c, v in row.items() if v}


def reduce_rows(rows, ncols):
    """Reduced row echelon form of a dense matrix: (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def kernel(rows, ncols):
    """Basis of the vectors x with rows . x = 0, one per free column."""
    reduced, pivots = reduce_rows(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            x[p] = -row[f]
        basis.append(x)
    return basis


def rank(vectors):
    """Rank of multivectors over the supports they touch."""
    supports = sorted({s for v in vectors for s in v.terms})
    rows = [[v.terms.get(s, Fraction(0)) for s in supports] for v in vectors]
    return len(reduce_rows(rows, len(supports))[1])


def contains(V, x):
    """x lies in V: appending it leaves the rank unchanged."""
    return rank(list(V.rows) + [x]) == rank(list(V.rows))


def intersect(V, W):
    """V meet W: the combinations sum c_i v_i equal to some sum d_j w_j, read
    off the kernel of the matrix with columns v_1.., -w_1.. over all supports."""
    vs, ws = list(V.rows), list(W.rows)
    supports = sorted({s for v in vs + ws for s in v.terms})
    rows = [[v.terms.get(s, Fraction(0)) for v in vs] + [-w.terms.get(s, Fraction(0)) for w in ws]
            for s in supports]
    meet = [sum((v.scale(c) for c, v in zip(x, vs)), Multivector.zero(V.n))
            for x in kernel(rows, len(vs) + len(ws))]
    return Subspace(V.order, meet)


def apply_map(V, f):
    """Span of the images of V's canonical rows under a grade-preserving map."""
    return Subspace(V.order, [f(r) for r in V.rows])
