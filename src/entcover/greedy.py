"""Greedy marginal-gain solver with a full execution trace, and the
second-difference coefficient table derived from that trace."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from operator import sub
from typing import List, Tuple

from .core import Cover, PolymatroidOracle


@dataclass(frozen=True)
class GreedyTrace:
    """Everything the greedy run decided, in order.

    order:    chosen element indices i_1..i_l
    deltas:   marginal gains, deltas[r-1] = f(W_r) - f(W_{r-1}) >= 1
    prefixes: W_1..W_l as bitmasks (W_0 is the empty set, not stored)
    rank:     1-based total order on all m elements — chosen elements by
              selection step, unchosen elements after them by index
    cover:    allocation with x[i_r] = delta_r, zero elsewhere
    """

    order: Tuple[int, ...]
    deltas: Tuple[int, ...]
    prefixes: Tuple[int, ...]
    rank: Tuple[int, ...]
    cover: Cover

    def prefix(self, r: int) -> int:
        """W_r as a bitmask; r = 0 gives the empty set."""
        return 0 if r == 0 else self.prefixes[r - 1]

    @property
    def length(self) -> int:
        return len(self.order)

    @classmethod
    def from_chain(cls, m: int, order, deltas) -> "GreedyTrace":
        """The trace of an element order and its marginal gains on a
        ground set of size m; prefixes, rank and cover follow from them."""
        prefixes = []
        mask = 0
        for j in order:
            mask |= 1 << j
            prefixes.append(mask)
        rank = [0] * m
        for r, j in enumerate(order):
            rank[j] = r + 1
        nxt = len(order) + 1
        for j in range(m):
            if rank[j] == 0:
                rank[j] = nxt
                nxt += 1
        x = [0] * m
        for j, d in zip(order, deltas):
            x[j] = d
        return cls(tuple(order), tuple(deltas), tuple(prefixes),
                   tuple(rank), Cover(tuple(x)))


def _tie_key(policy: str, m: int) -> List[int]:
    # smaller key wins a marginal tie
    if policy == "lowest":
        return list(range(m))
    if policy == "highest":
        return [m - 1 - j for j in range(m)]
    if policy.startswith("random:"):
        seed = int(policy.split(":", 1)[1])
        key = list(range(m))
        random.Random(seed).shuffle(key)
        return key
    raise ValueError(f"unknown tie-break policy '{policy}'")


def run_greedy(oracle: PolymatroidOracle, tie_break: str = "lowest",
               lazy: bool = False) -> GreedyTrace:
    """Repeatedly pick the element with the largest marginal gain until
    f(S) reaches f(U).

    Ties in the argmax are broken by the policy: "lowest" (default),
    "highest", or "random:<seed>" (a seeded priority shuffle).  The naive
    variant reads one gain vector (oracle.gains) per step.  The lazy
    variant maintains a max-heap of stale marginals and recomputes one
    (oracle.gain) per pop; for a genuine polymatroid it produces the
    identical trace.
    """
    m = oracle.m
    f_empty = oracle.eval(0)
    if f_empty != 0:
        raise ValueError(f"f(∅) must be 0, got {f_empty}")
    total = oracle.total()
    if total < 1:
        raise ValueError("f(U) must be at least 1")
    key = _tie_key(tie_break, m)
    order: List[int] = []
    deltas: List[int] = []
    s = 0
    fs = 0
    if lazy:
        heap = []
        for j, g in enumerate(oracle.gains(0)):
            if g < 0:
                raise ValueError("non-monotone oracle")
            heap.append((-g, key[j], j))
        heapq.heapify(heap)
        while fs < total:
            if not heap:
                raise ValueError("oracle stalled before reaching f(U); not monotone submodular")
            _, k, j = heapq.heappop(heap)
            g = oracle.gain(s, j)
            if g < 0:
                raise ValueError("non-monotone oracle")
            if heap and (-g, k) > (heap[0][0], heap[0][1]):
                heapq.heappush(heap, (-g, k, j))  # stale; retry later
                continue
            if g == 0:
                raise ValueError("oracle stalled before reaching f(U); not monotone submodular")
            s |= 1 << j
            fs += g
            order.append(j)
            deltas.append(g)
    else:
        # chosen elements gain 0, so the first element in tie order that
        # attains a positive maximum is unchosen
        tie_order = sorted(range(m), key=key.__getitem__)
        while fs < total:
            gains = oracle.gains(s)
            if min(gains) < 0:
                raise ValueError("non-monotone oracle")
            g = max(gains)
            if g == 0:
                raise ValueError("oracle stalled before reaching f(U); not monotone submodular")
            best_j = next(j for j in tie_order if gains[j] == g)
            s |= 1 << best_j
            fs += g
            order.append(best_j)
            deltas.append(g)
    if fs != total:
        # overshot f(U): some f(W) > f(U) with W inside U
        raise ValueError("non-monotone oracle")
    return GreedyTrace.from_chain(m, order, deltas)


@dataclass(frozen=True)
class CoefficientTable:
    """l x m integer matrix; entry [r-1][j] measures how much of greedy
    step r the element j could have claimed."""

    a: Tuple[Tuple[int, ...], ...]

    def row(self, r: int) -> Tuple[int, ...]:
        """Row for greedy step r (1-based)."""
        return self.a[r - 1]

    @property
    def steps(self) -> int:
        return len(self.a)


def coefficients(oracle: PolymatroidOracle, trace: GreedyTrace) -> CoefficientTable:
    """Second differences of f along the greedy prefixes.

    a[r][j] = (f(W_r) - f(W_{r-1})) - (f(W_r + j) - f(W_{r-1} + j)),
    which is the gain of j at W_{r-1} minus its gain at W_r: one
    oracle.gains vector per prefix, l + 1 in all.  The j = i_r diagonal
    automatically equals delta_r and rows vanish on already-chosen
    elements; no case analysis is needed here.
    """
    rows: List[Tuple[int, ...]] = []
    prev = oracle.gains(0)
    for w in trace.prefixes:
        cur = oracle.gains(w)
        rows.append(tuple(map(sub, prev, cur)))
        prev = cur
    return CoefficientTable(tuple(rows))
