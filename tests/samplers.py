"""Seeded samplers only tests use, drawing from the generator in the same
sequence as before they left ``wedgeshift.sampling``, so seeded tests keep
their inputs, and the star family."""

import itertools
from fractions import Fraction

from wedgeshift import LinearMap, SetFamily
from wedgeshift.sampling import random_rational


def random_upper_triangular(rng, n):
    """Invertible upper-triangular map with random small rational entries."""
    rows = []
    for r in range(n):
        row = [Fraction(0)] * n
        row[r] = random_rational(rng, nonzero=True)
        for c in range(r + 1, n):
            row[c] = random_rational(rng)
        rows.append(row)
    return LinearMap(rows)


def star_family(n, k, v):
    """All k-subsets of [n] containing v."""
    rest = [i for i in range(1, n + 1) if i != v]
    sets = tuple(tuple(sorted((v,) + c)) for c in itertools.combinations(rest, k - 1))
    return SetFamily(n, k, sets)


def random_intersecting_family(rng, n, k, max_size=None):
    """Greedy random intersecting family of k-subsets of [n]; never empty."""
    pool = list(itertools.combinations(range(1, n + 1), k))
    rng.shuffle(pool)
    target = max_size or rng.randint(1, len(pool))
    chosen = []
    for s in pool:
        if len(chosen) >= target:
            break
        if all(set(s).intersection(t) for t in chosen):
            chosen.append(s)
    return SetFamily(n, k, tuple(chosen))
