"""Seeded generators for random exact test objects.

Numerators are drawn from [-9, 9] and denominators from [1, 9], keeping all
downstream arithmetic small and exact; every generator is deterministic in
the provided random.Random instance.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

from .exterior import LinearMap, Multivector
from .linalg import rref
from .subspace import MonomialOrder, Subspace


def random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if c != 0 or not nonzero:
            return c


def random_multivector(
    rng: random.Random, n: int, k: int, density: float = 0.5, nonzero: bool = True
) -> Multivector:
    supports = list(itertools.combinations(range(1, n + 1), k))
    terms = {}
    for s in supports:
        if rng.random() < density:
            c = random_rational(rng)
            if c:
                terms[s] = c
    if nonzero and not terms:
        terms[rng.choice(supports)] = random_rational(rng, nonzero=True)
    return Multivector(n, terms)


def random_subspace(
    rng: random.Random, order: MonomialOrder, m: int, attempts: int = 100
) -> Subspace:
    """Span of m random multivectors, resampled until the dimension is exactly m."""
    for _ in range(attempts):
        vecs = [random_multivector(rng, order.n, order.k) for _ in range(m)]
        V = Subspace(order, vecs)
        if V.dim == m:
            return V
    raise RuntimeError(f"failed to sample a {m}-dimensional subspace")


def random_invertible(rng: random.Random, n: int, attempts: int = 100) -> LinearMap:
    """Random n x n map, redrawn until elimination of its rows, each scaled
    to integers, finds n pivots (full rank)."""
    for _ in range(attempts):
        rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        scaled = [(row, lcm(*(c.denominator for c in row))) for row in rows]
        if len(rref([{j: int(c * d) for j, c in enumerate(row)} for row, d in scaled])[1]) == n:
            return LinearMap(rows)
    raise RuntimeError("failed to sample an invertible map")
