"""Canonical rows in integer form against the Fraction path they replaced.

The reference below is the shear limit as it was computed on pivot-1
Fraction rows: shift_map, the residue modulo V, the Fraction kernel and a
Fraction Gauss–Jordan span.  The package's integer rows must give the same
public rows and pivots, and the same apply_linear as the chained Fraction
wedge."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from wedgeshift import LinearMap, MonomialOrder, Multivector, Subspace, apply_linear, wedge
from wedgeshift.limits import decreasing_pairs, limit_shift

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=120, deadline=None, database=None)


# -- the Fraction reference --------------------------------------------------


def _sub(a, f, b):
    """a - f*b on sparse Fraction rows, zeros dropped."""
    out = dict(a)
    for c, v in b.items():
        out[c] = out.get(c, 0) - f * v
        if not out[c]:
            del out[c]
    return out


def fraction_rref(rows, key=None):
    """Pivot-1 reduced rows over Fractions and their pivots, in pivot order."""
    echelon = {}  # pivot -> pivot-1 row, zero at the other pivots
    for row in rows:
        cur = {c: Fraction(v) for c, v in row.items() if v}
        for piv, other in echelon.items():
            if cur.get(piv):
                cur = _sub(cur, cur[piv], other)
        if not cur:
            continue
        piv = min(cur, key=key)
        cur = {c: v / cur[piv] for c, v in cur.items()}
        for c, other in echelon.items():
            if other.get(piv):
                echelon[c] = _sub(other, other[piv], cur)
        echelon[piv] = cur
    pivots = sorted(echelon, key=key)
    return [echelon[p] for p in pivots], pivots


def fraction_column_kernel(columns):
    rows = {}
    for j, col in enumerate(columns):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    reduced, pivots = fraction_rref(list(rows.values()))
    basis = []
    for f in range(len(columns)):
        if f in pivots:
            continue
        vec = [Fraction(0)] * len(columns)
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            if f in row:
                vec[p] = -row[f]
        basis.append(vec)
    return basis


def fraction_shift_map(terms, i, j):
    acc = {}
    for sup, c in terms.items():
        if i not in sup or j in sup:
            continue
        rest = tuple(a for a in sup if a != i)
        eps = -1 if sup.index(i) % 2 else 1
        sig = -1 if sum(1 for a in rest if a < j) % 2 else 1
        acc[tuple(sorted(rest + (j,)))] = eps * sig * c
    return acc


class FractionSubspace:
    def __init__(self, order, rows):
        self.order = order
        self.rows, self.pivots = fraction_rref(rows, order.key)

    def residue(self, x):
        acc = dict(x)
        for row, piv in zip(self.rows, self.pivots):
            if acc.get(piv):
                acc = _sub(acc, acc[piv], row)
        return acc

    def limit_shift(self, i, j):
        images = [fraction_shift_map(r, i, j) for r in self.rows]
        residues = [self.residue(x) for x in images]
        if not any(residues):
            return self
        members = []
        for vec in fraction_column_kernel(residues):
            acc = {}
            for coeff, row in zip(vec, self.rows):
                acc = _sub(acc, -coeff, row)
            members.append(acc)
        return FractionSubspace(self.order, images + members)


# -- strategies --------------------------------------------------------------

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def spanning_sets(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    order = MonomialOrder(draw(st.sampled_from(["lex", "weight2"])), n, k)
    supports = list(itertools.combinations(range(1, n + 1), k))
    rows = draw(st.lists(st.dictionaries(st.sampled_from(supports), coefficients, min_size=1, max_size=6),
                         min_size=1, max_size=4))
    return order, rows


def public_rows(V):
    return [dict(r.terms) for r in V.rows]


# -- integer rows --------------------------------------------------------------


@SETTINGS
@hypothesis.given(spanning_sets())
def test_limits_match_the_fraction_path(case):
    order, rows = case
    V = Subspace(order, [Multivector(order.n, r) for r in rows])
    R = FractionSubspace(order, rows)
    assert public_rows(V) == R.rows and list(V.pivots()) == R.pivots
    for p in decreasing_pairs(order.n):
        W = limit_shift(V, p)
        L = R.limit_shift(p.i, p.j)
        assert public_rows(W) == L.rows and list(W.pivots()) == L.pivots, (rows, p)
        assert (W is V) == (L is R)


@SETTINGS
@hypothesis.given(spanning_sets(), st.randoms(use_true_random=False))
def test_equal_spans_compare_and_hash_equal(case, rng):
    order, rows = case
    vecs = [Multivector(order.n, r) for r in rows]
    V = Subspace(order, vecs)
    scaled = [x.scale(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))) for x in vecs]
    rng.shuffle(scaled)
    combination = Multivector.zero(order.n)
    for x in scaled:
        combination = combination + x.scale(rng.randint(-3, 3))
    for W in (Subspace(order, scaled), Subspace(order, [combination] + scaled),
              Subspace(order, V.rows[::-1])):
        assert W == V and hash(W) == hash(V)


@SETTINGS
@hypothesis.given(spanning_sets())
def test_stored_rows_are_primitive_with_positive_pivots(case):
    order, rows = case
    V = Subspace(order, [Multivector(order.n, r) for r in rows])
    for W in [V] + [limit_shift(V, p) for p in decreasing_pairs(order.n)]:
        for row, piv in zip(W._rows, W.pivots()):
            assert all(type(v) is int and v for v in row.values())
            assert gcd(*row.values()) == 1 and row[piv] > 0
            assert all(other not in row for other in W.pivots() if other != piv)


# -- apply_linear --------------------------------------------------------------


def chained_apply_linear(g, x):
    """apply_linear as it was: the image of each monomial a chain of binary
    Fraction wedges of g's columns, the images summed as Multivectors."""
    columns = {i: Multivector(x.n, {(r + 1,): g.entries[r][i - 1] for r in range(x.n)})
               for i in {i for sup in x.terms for i in sup}}
    acc = Multivector.zero(x.n)
    one = Multivector(x.n, {(): 1})
    for sup, c in x.terms.items():
        image = one
        for i in sup:
            image = wedge(image, columns[i])
            if image.is_zero:
                break
        acc = acc + image.scale(c)
    return acc


PRIMES = (1_000_003, 998_244_353, 2**61 - 1)


def random_map(rng, n):
    return LinearMap([[Fraction(rng.randint(-10**6, 10**6), rng.choice(PRIMES + (1, 2, 9)))
                       if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(n)])


def random_terms(rng, n, grades):
    """Up to three terms of each given grade."""
    terms = {}
    for g in grades:
        supports = list(itertools.combinations(range(1, n + 1), g))
        for sup in rng.sample(supports, min(3, len(supports))):
            terms[sup] = Fraction(rng.randint(-50, 50), rng.choice((1, 3, 7, 1_000_003)))
    return Multivector(n, terms)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_apply_linear_matches_chained_fraction_wedges(n):
    rng = random.Random(n)
    for _ in range(10):
        g = random_map(rng, n)
        cases = [
            Multivector.zero(n),
            Multivector(n, {(): Fraction(-5, 1_000_003)}),
            random_terms(rng, n, range(n + 1)),  # every grade at once
            random_terms(rng, n, [rng.randint(1, n)]),
            Multivector.monomial(n, tuple(range(1, n + 1))),
        ]
        for x in cases:
            got = apply_linear(g, x)
            assert got == chained_apply_linear(g, x)
            assert all(type(c) is Fraction and c for c in got.terms.values())
