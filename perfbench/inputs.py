"""Seeded subspace inputs for the pipeline workloads.

Three kinds of k-uniform intersecting family F, each turned into a
self-annihilating subspace of dimension |F|:

* ``image``: a random intersecting family of fixed size, moved into general
  position by a random invertible map (``sampling.random_invertible`` and
  ``apply_linear``);
* ``star``: the full star at 1, moved the same way, which attains the bound;
* ``monomial``: the monomial span of a random intersecting family that is
  not shifted.

The families are drawn here with the standard library, so their sizes are
known apart from the program; the images, the canonical subspaces and the
records on disk are made by the package (``exterior``, ``subspace`` and
``serialize``), which is the set-up work the benchmark times.  The same seed
gives the same files.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import checker

KINDS = ("image", "star", "monomial")


@dataclass(frozen=True)
class Instance:
    path: str
    n: int
    k: int
    kind: str
    size: int


def random_intersecting(rng: random.Random, n: int, k: int, size: int) -> list[tuple[int, ...]]:
    """Greedy intersecting family of exactly `size` k-subsets of [n]."""
    pool = list(itertools.combinations(range(1, n + 1), k))
    while True:
        rng.shuffle(pool)
        chosen: list[tuple[int, ...]] = []
        for s in pool:
            if all(set(s) & set(t) for t in chosen):
                chosen.append(s)
                if len(chosen) == size:
                    return sorted(chosen)


def draw_family(rng: random.Random, n: int, k: int, kind: str, size: int):
    if kind == "star":
        return checker.star_sets(n, k, 1)
    while True:
        sets = random_intersecting(rng, n, k, size)
        if kind == "image" or not checker.is_shifted(sets):
            return sets


def write_batch(seed: int, batch: dict, workdir: Path) -> list[Instance]:
    """Generate and write every input of a batch.

    ``batch`` maps (n, k) to (family size, copies per kind); the star kind
    is written once per shape.  Returns the instances in a fixed order."""
    from wedgeshift.exterior import Multivector, apply_linear
    from wedgeshift.sampling import random_invertible
    from wedgeshift.serialize import save_json, subspace_record
    from wedgeshift.subspace import MonomialOrder, Subspace

    rng = random.Random(seed)
    out = []
    for (n, k), (size, copies) in batch.items():
        order = MonomialOrder("lex", n, k)
        for kind in KINDS:
            for copy in range(1 if kind == "star" else copies):
                sets = draw_family(rng, n, k, kind, size)
                vectors = [Multivector.monomial(n, s) for s in sets]
                if kind != "monomial":
                    g = random_invertible(rng, n)
                    vectors = [apply_linear(g, x) for x in vectors]
                path = workdir / f"n{n}k{k}-{kind}{copy}.json"
                save_json(path, subspace_record(Subspace(order, vectors)))
                out.append(Instance(str(path), n, k, kind, len(sets)))
    return out
