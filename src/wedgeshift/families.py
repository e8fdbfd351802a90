"""Families of k-element subsets of [n] and their combinatorics.

Intersecting and shifted predicates, single shift steps, star/deletion/link
decompositions, and guarded exhaustive enumeration of intersecting families
(arbitrary, shifted, or maximal).  Everything is exact set arithmetic; the
only knob is the enumeration node budget.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceededError

SetTuple = tuple[int, ...]

DEFAULT_BUDGET = 10 ** 7

ENUMERATION_MODES = ("all_intersecting", "shifted_intersecting", "maximal_intersecting")


@dataclass(frozen=True)
class ShiftPair:
    """Index pair naming the replace-i-by-j shift direction; i and j distinct.

    Shifting toward shiftedness uses i > j (the larger index is replaced by
    the smaller), but both directions are legal.
    """

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j or self.i < 1 or self.j < 1:
            raise ValueError(f"shift pair needs distinct positive indices, got ({self.i}, {self.j})")


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free family of k-subsets of [n], stored sorted lexicographically.

    k = 0 is tolerated only so links of singleton families are representable.
    """

    n: int
    k: int
    sets: tuple[SetTuple, ...]

    def __post_init__(self) -> None:
        if not (0 <= self.k <= self.n):
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        canon = tuple(sorted(tuple(sorted(s)) for s in self.sets))
        for s in canon:
            if len(s) != self.k:
                raise ValueError(f"set {s} is not {self.k}-uniform")
            if len(set(s)) != len(s):
                raise ValueError(f"set {s} has repeated elements")
            if s and (s[0] < 1 or s[-1] > self.n):
                raise ValueError(f"set {s} out of range for ground set [{self.n}]")
        if len(set(canon)) != len(canon):
            raise ValueError("family contains duplicate sets")
        object.__setattr__(self, "sets", canon)

    @classmethod
    def _trusted(cls, n: int, k: int, sets: tuple[SetTuple, ...]) -> "SetFamily":
        """Wrap sets already sorted, distinct, k-uniform and within [n], unchecked."""
        fam = object.__new__(cls)
        object.__setattr__(fam, "n", n)
        object.__setattr__(fam, "k", k)
        object.__setattr__(fam, "sets", sets)
        return fam

    @property
    def size(self) -> int:
        return len(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[SetTuple]:
        return iter(self.sets)

    def __contains__(self, s: Sequence[int]) -> bool:
        s = tuple(sorted(s))
        at = bisect_left(self.sets, s)
        return at < len(self.sets) and self.sets[at] == s


def star_family(n: int, k: int, v: int) -> SetFamily:
    """All k-subsets of [n] containing v."""
    rest = [i for i in range(1, n + 1) if i != v]
    sets = tuple(tuple(sorted((v,) + c)) for c in itertools.combinations(rest, k - 1))
    return SetFamily(n, k, sets)


def is_intersecting(F: SetFamily) -> bool:
    """Every pair of member sets (a set paired with itself included) intersects."""
    if F.k == 0:
        return F.size == 0
    return all(set(a).intersection(b) for a, b in itertools.combinations(F.sets, 2))


def is_shifted(F: SetFamily) -> bool:
    """Closed under replacing any element i by any smaller absent element j."""
    members = set(F.sets)
    for s in F.sets:
        present = set(s)
        for i in s:
            for j in range(1, i):
                if j in present:
                    continue
                if tuple(sorted(present.difference((i,)).union((j,)))) not in members:
                    return False
    return True


def combinatorial_shift(F: SetFamily, pair: ShiftPair) -> SetFamily:
    """One shift step: each set with i but not j moves to (A - i) + j unless that
    set is already present; sets containing j (or missing i) stay put.  Size is
    preserved."""
    i, j = pair.i, pair.j
    members = set(F.sets)
    out = []
    for s in F.sets:
        if i in s and j not in s:
            target = tuple(sorted(set(s).difference((i,)).union((j,))))
            out.append(target if target not in members else s)
        else:
            out.append(s)
    return SetFamily(F.n, F.k, tuple(out))


def family_decompose(F: SetFamily, v: int) -> tuple[SetFamily, SetFamily, SetFamily]:
    """Split into (star, deletion, link) at v.

    star holds the sets containing v, deletion the rest, and link the star
    sets with v removed; link keeps the original labels on [n] minus v.
    """
    if not (1 <= v <= F.n):
        raise ValueError(f"element {v} out of range for ground set [{F.n}]")
    star = tuple(s for s in F.sets if v in s)
    dele = tuple(s for s in F.sets if v not in s)
    link = tuple(tuple(a for a in s if a != v) for s in star)
    return (
        SetFamily(F.n, F.k, star),
        SetFamily(F.n, F.k, dele),
        SetFamily(F.n, F.k - 1, link),
    )


def is_star(F: SetFamily) -> Optional[int]:
    """Least element common to every set, or None (the empty family has none)."""
    if F.size == 0:
        return None
    common = set(F.sets[0])
    for s in F.sets[1:]:
        common.intersection_update(s)
        if not common:
            return None
    return min(common) if common else None


def _dominance_covers(s: SetTuple) -> list[SetTuple]:
    """Immediate predecessors under the componentwise order: one element down by one."""
    out = []
    present = set(s)
    for idx, a in enumerate(s):
        if a - 1 >= 1 and a - 1 not in present:
            out.append(tuple(sorted(s[:idx] + (a - 1,) + s[idx + 1:])))
    return out


def enumerate_families(
    n: int, k: int, mode: str, budget: int = DEFAULT_BUDGET
) -> Iterator[SetFamily]:
    """Stream every family of the requested kind, deterministically.

    all_intersecting walks independent sets of the disjointness graph on
    k-subsets; shifted_intersecting walks down-closed intersecting families
    over the dominance order (a set may join only once all its one-step
    decrements are in); maximal_intersecting filters the first mode for
    maximality.

    Each node of the walk is one family state: it yields that family, then
    extends it by each later addable base set in decreasing position, so the
    all and shifted modes visit exactly as many nodes as they yield.  A frame
    carries ``avail``, the positions whose dominance covers are all chosen
    (every position outside shifted mode); when u joins, only the sets that
    cover u can become available, so each node tests at most k of them, and
    every candidate the walk pops is addable.  A frame also carries its family
    as a lex-sorted tuple, the parent's with the new set spliced in, which is
    yielded as is.  Raises BudgetExceededError past ``budget`` visited nodes,
    and up front when C(n, k) + 1 > budget, before the C(n, k)^2-bit
    disjointness table is built.
    """
    if mode not in ENUMERATION_MODES:
        raise ValueError(f"unknown enumeration mode {mode!r}")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if comb(n, k) + 1 > budget:  # guards the C(n, k)^2-bit disjointness table
        raise BudgetExceededError(f"enumeration exceeds budget of {budget} nodes")
    base = list(itertools.combinations(range(1, n + 1), k))
    if mode == "shifted_intersecting":
        base.sort(key=lambda s: (sum(s), s))
    N = len(base)
    full = (1 << N) - 1
    bits = [sum(1 << a for a in s) for s in base]
    disjoint = [sum(1 << u for u, b in enumerate(bits) if not a & b) for a in bits]
    covers = [0] * N
    upper: list[list[int]] = [[] for _ in range(N)]  # upper[u]: positions that cover u
    if mode == "shifted_intersecting":
        index = {s: t for t, s in enumerate(base)}
        for t, s in enumerate(base):
            for c in _dominance_covers(s):
                covers[t] |= 1 << index[c]
                upper[index[c]].append(t)
        avail = sum(1 << t for t in range(N) if not covers[t])
    else:
        avail = full

    maximal_only = mode == "maximal_intersecting"
    nodes = 0
    families = 0
    # One frame per family on the current path: [candidates still to try,
    # mask of chosen positions, union of their disjointness rows, avail,
    # lex-sorted family].  Chosen positions increase along a path, so a
    # candidate is a later available position outside the union (disjointness
    # is symmetric), and each candidate popped is addable.
    stack = [[avail, 0, 0, avail, ()]]
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"enumeration exceeded budget of {budget} nodes after {families} families"
            )
        cands, mask, blocked, avail, sets = stack[-1]
        if not maximal_only or full & ~(mask | blocked) == 0:
            families += 1
            yield SetFamily._trusted(n, k, sets)
        while not cands:
            stack.pop()
            if not stack:
                return
            cands, mask, blocked, avail, sets = stack[-1]
        u = cands.bit_length() - 1
        stack[-1][0] = cands ^ (1 << u)
        mask |= 1 << u
        for v in upper[u]:
            if not covers[v] & ~mask:
                avail |= 1 << v
        blocked |= disjoint[u]
        s = base[u]
        at = bisect_left(sets, s)
        cands = avail & ~((2 << u) - 1) & ~blocked
        stack.append([cands, mask, blocked, avail, sets[:at] + (s,) + sets[at:]])
