"""Independent oracles for tests: rank, kernel, membership, intersection, the
wedge and self-annihilation.

Vectors become dense Fraction rows over the supports they touch, and a plain
Gauss–Jordan loop written here ranks them and finds kernels, so nothing goes
through the package's elimination kernel or its reduction against canonical
rows.  Subspaces are compared by building the package's canonical form of the
oracle's answer.  The wedge is the package's as one function, before its
integer core was split out, and self-annihilation takes every product of two
rows in full with it, so neither goes through ``wedge_core`` or its packing.
"""

import itertools
from fractions import Fraction
from math import comb, lcm

import wedgeshift.exterior as exterior
from wedgeshift import GroundMismatchError, Multivector, Subspace, merge_sign


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


def parent_wedge(x, y):
    """The wedge as one function, before the integer core was split out:
    both factors are rescaled on every call.  Kept as the reference of the
    differential tests of the core."""
    if x.n != y.n:
        raise GroundMismatchError(f"ground dimensions differ: {x.n} vs {y.n}")
    n = x.n
    a = lcm(*(c.denominator for c in x.terms.values()))
    b = lcm(*(c.denominator for c in y.terms.values()))
    by_grade = {}
    for sy, c in y.terms.items():
        by_grade.setdefault(len(sy), {})[sy] = c.numerator * (b // c.denominator)
    acc = {}
    for sx, c in x.terms.items():
        cx = c.numerator * (a // c.denominator)
        free = n - len(sx)
        for g, ys in by_grade.items():
            if comb(free, g) < len(ys):
                for sy, sup, sign in exterior._partners(n, sx, g):
                    cy = ys.get(sy)
                    if cy is not None:
                        acc[sup] = acc.get(sup, 0) + sign * cx * cy
            else:
                setx = set(sx)
                for sy, cy in ys.items():
                    if setx.isdisjoint(sy):
                        sup = tuple(sorted(sx + sy))
                        acc[sup] = acc.get(sup, 0) + merge_sign(sx, sy) * cx * cy
    d = a * b
    return Multivector(n, {sup: Fraction(v, d) for sup, v in acc.items() if v})


def reference_self_annihilating(V):
    """Every product of two canonical rows, the diagonal included, taken in
    full by parent_wedge."""
    return all(parent_wedge(x, y).is_zero for x, y in itertools.combinations_with_replacement(V.rows, 2))
