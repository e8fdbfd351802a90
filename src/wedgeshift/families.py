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
from functools import lru_cache, reduce
from math import comb
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceededError

SetTuple = tuple[int, ...]

DEFAULT_BUDGET = 10 ** 7

# One cap on dense work: Pluecker coordinates of a subspace or shear limit,
# complement-pair rows times coordinates, and disjointness-table bits.
_SIZE_CAP = 1_000_000

ENUMERATION_MODES = ("all_intersecting", "shifted_intersecting", "maximal_intersecting")
_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to the bytes 0 and 1


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


def _check_pair(pair: ShiftPair, n: int) -> None:
    """ValueError unless both indices of the pair lie in the ground set [n]."""
    if pair.i > n or pair.j > n:
        raise ValueError(f"shift pair ({pair.i}, {pair.j}) out of range for ground dimension {n}")


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free family of k-subsets of [n], stored sorted lexicographically.

    k = 0 is tolerated only so links of singleton families are representable.
    Calling the class checks and sorts sets from outside the package; families
    the package builds itself, sorted and valid, go through ``_trusted``.
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


def is_intersecting(F: SetFamily) -> bool:
    """Every pair of member sets (a set paired with itself included) intersects."""
    if F.k == 0:
        return F.size == 0
    return all(set(a).intersection(b) for a, b in itertools.combinations(F.sets, 2))


def _dominance_covers(s: SetTuple) -> list[SetTuple]:
    """Immediate predecessors under the componentwise order: one element down
    by one, onto a value above the element before it, so the set stays sorted."""
    return [s[:t] + (a - 1,) + s[t + 1:] for t, a in enumerate(s) if a - 1 > (s[t - 1] if t else 0)]


def is_shifted(F: SetFamily) -> bool:
    """Closed under replacing any element i by any smaller absent element j,
    checked on the dominance covers alone as the walk does: each cover is such
    a replacement, and each replacement a chain of covers (a lower set)."""
    members = set(F.sets)
    return all(c in members for s in F.sets for c in _dominance_covers(s))


def combinatorial_shift(F: SetFamily, pair: ShiftPair) -> SetFamily:
    """One shift step: each set with i but not j moves to (A - i) + j unless that
    set is already present; sets containing j (or missing i) stay put.  Size is
    preserved."""
    _check_pair(pair, F.n)
    i, j = pair.i, pair.j
    members = set(F.sets)
    out = []
    for s in F.sets:
        if i in s and j not in s:
            target = tuple(sorted(set(s).difference((i,)).union((j,))))
            out.append(target if target not in members else s)
        else:
            out.append(s)
    return SetFamily._trusted(F.n, F.k, tuple(sorted(out)))


def family_decompose(F: SetFamily, v: int) -> tuple[SetFamily, SetFamily, SetFamily]:
    """Split into (star, deletion, link) at v.

    star holds the sets containing v, deletion the rest, and link the star
    sets with v removed; link keeps the original labels on [n] minus v.  The
    link stays lex-sorted: dropping v keeps each symmetric difference.
    """
    if not (1 <= v <= F.n):
        raise ValueError(f"element {v} out of range for ground set [{F.n}]")
    if F.k == 0:
        raise ValueError("a 0-uniform family has no link")
    star = tuple(s for s in F.sets if v in s)
    dele = tuple(s for s in F.sets if v not in s)
    link = tuple(tuple(a for a in s if a != v) for s in star)
    return (
        SetFamily._trusted(F.n, F.k, star),
        SetFamily._trusted(F.n, F.k, dele),
        SetFamily._trusted(F.n, F.k - 1, link),
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
    every candidate the walk pops is addable.  A frame also carries its
    family as a lex mask, bit t for the t-th k-subset in lex order: the
    parent's with u's bit set, decoded only as it is yielded here.  A set's
    disjointness row is every position outside the union of its elements'
    masks, an element's mask holding the positions of the sets with it.
    Raises BudgetExceededError past ``budget`` visited nodes, and up front,
    before any table is built, when C(n, k) + 1 > budget or the
    C(n, k)^2-bit disjointness table exceeds the size cap.
    """
    for lex in _walk(n, k, mode, budget):
        yield SetFamily._trusted(n, k, _mask_sets(n, k, lex))


@lru_cache(maxsize=4)
def _lex_subsets(n: int, k: int) -> tuple[SetTuple, ...]:
    return tuple(itertools.combinations(range(1, n + 1), k))


def _mask_sets(n: int, k: int, lex: int) -> tuple[SetTuple, ...]:
    """The k-subsets of [n] a lex mask picks: bit t for the t-th in lex order."""
    return tuple(itertools.compress(_lex_subsets(n, k), bin(lex)[:1:-1].encode().translate(_BITS)))


def _walk(n: int, k: int, mode: str, budget: int) -> Iterator[int]:
    """The walk of ``enumerate_families``, yielding each family's lex mask."""
    if mode not in ENUMERATION_MODES:
        raise ValueError(f"unknown enumeration mode {mode!r}")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    N = comb(n, k)
    if N + 1 > budget:  # guards the C(n, k)^2-bit disjointness table
        raise BudgetExceededError(f"enumeration exceeds budget of {budget} nodes")
    if N * N > _SIZE_CAP:
        raise BudgetExceededError(f"disjointness table would have {N * N} bits (cap {_SIZE_CAP})")
    base = list(_lex_subsets(n, k))
    lexpos = {s: t for t, s in enumerate(base)}
    if mode == "shifted_intersecting":
        base.sort(key=sum)  # by weight, then lex: the sort is stable
    lexbit = [1 << lexpos[s] for s in base]
    full = (1 << N) - 1
    holding = [0] * (n + 1)  # holding[e]: positions of the sets that contain e
    for u, s in enumerate(base):
        for e in s:
            holding[e] |= 1 << u
    disjoint = [full & ~reduce(int.__or__, [holding[e] for e in s]) for s in base]
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
    nodes = families = 0
    # The node in hand, and each frame stacked while it has candidates left,
    # hold [candidates still to try, mask of chosen positions, union of their
    # disjointness rows, avail, lex mask].  Chosen positions increase along a
    # path, so a candidate is a later available position outside the union
    # (disjointness is symmetric), and each candidate popped is addable.
    stack: list[list[int]] = []
    cands, mask, blocked, lex = avail, 0, 0, 0
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"enumeration exceeded budget of {budget} nodes after {families} families"
            )
        if not maximal_only or full & ~(mask | blocked) == 0:
            families += 1
            yield lex
        if cands:
            stack.append([cands, mask, blocked, avail, lex])
        elif not stack:
            return
        top = stack[-1]
        cands, mask, blocked, avail, lex = top
        u = cands.bit_length() - 1
        top[0] ^= 1 << u
        if not top[0]:
            stack.pop()
        mask |= 1 << u
        for v in upper[u]:
            if not covers[v] & ~mask:
                avail |= 1 << v
        blocked |= disjoint[u]
        lex |= lexbit[u]
        cands = avail & ~((2 << u) - 1) & ~blocked
