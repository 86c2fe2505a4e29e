"""Optimal covers by branch-and-bound over every cover, a route
independent of the subset DP behind exact_cover and exact_mest.

It enumerates the integer points of the cover polytope directly, so it
needs no polymatroid axiom and reaches the optima of any set function,
but its work grows with f(U) as well as with m.
"""

from operator import sub
from typing import List, Tuple

from entcover.core import (Cover, PolymatroidOracle, entropy_from_weight,
                           validate_cover)
from entcover.exact import Optimum


def optimal_covers(oracle: PolymatroidOracle) -> Optimum:
    """Enumerate all covers of the polymatroid and keep the best set.

    Depth-first over elements, with f read once into a table indexed by
    subset mask and the subset sums x(S) of the assigned prefix kept
    incrementally.  The upper bound for x_j is the tightest
    f(S + j) - x(S) over subsets S of the prefix; the lower bound makes
    the remaining elements able to absorb the remaining total.

    The last two elements are settled together: the last one takes the
    remainder, so its bounds turn into bounds on the one before, and of
    the values left only the two extremes can maximize the weight.

    Every leaf is therefore a cover, for any set function: each subset
    T is bounded when its largest element is assigned, and the last
    element takes exactly the remainder, so sum(x) = f(U).  So leaves
    are scored unchecked, and validate_cover runs once per returned
    optimum as an invariant check; a failure raises RuntimeError.
    """
    m = oracle.m
    total = oracle.total()
    if total < 1:
        raise ValueError("degenerate polymatroid: f(U) = 0")
    full = 1 << m
    f = [oracle.eval(mask) for mask in range(full)]
    suffix_cap = [f[full - (1 << j)] for j in range(m)]  # f(j .. m-1)
    sums = [0] * full  # x(S) for every S within the assigned prefix
    self_pow = [v ** v for v in range(total + 1)]  # 0^0 = 1
    x = [0] * m
    last = m - 1
    best_w = -1
    best: List[Tuple[int, ...]] = []

    def rec(j: int, remaining: int, w: int) -> None:
        nonlocal best_w, best
        bit = 1 << j
        low = sums[:bit]
        hi = min(remaining, min(map(sub, f[bit:2 * bit], low)))
        if j < last - 1:
            for v in range(max(0, remaining - suffix_cap[j + 1]), hi + 1):
                x[j] = v
                sums[bit:2 * bit] = [s + v for s in low]
                rec(j + 1, remaining - v, w * self_pow[v])
            return
        # j = m - 2, and the last element takes remaining - x_j: its
        # bounds f(S + last) and f(S + j + last), S within the prefix,
        # become a lower bound on x_j and a test that x_j does not affect
        top = 2 * bit  # the last element's bit
        if min(map(sub, f[top + bit:2 * top], low)) < remaining:
            return
        lo = max(0, remaining - min(map(sub, f[top:top + bit], low)))
        if lo > hi:
            return
        # log(v^v (r - v)^(r - v)) is strictly convex in v, so no v
        # strictly inside [lo, hi] can be optimal
        for v in (lo, hi) if lo < hi else (lo,):
            x[j], x[last] = v, remaining - v
            wv = w * self_pow[v] * self_pow[remaining - v]
            if wv > best_w:
                best_w, best = wv, []
            if wv == best_w:
                best.append(tuple(x))

    if m == 1:  # f({0}) = f(U): the one element takes the total
        best_w, best = self_pow[total], [(total,)]
    else:
        rec(0, total, 1)
    if not best:
        raise ValueError("no valid cover found; oracle is not a polymatroid")
    best.sort()
    covers = tuple(Cover(t) for t in best)
    for cover in covers:
        ok, witness = validate_cover(oracle, cover)
        if not ok:
            raise RuntimeError(f"invariant broken: optimal cover {cover.x} "
                               f"violates subset {witness}")
    return Optimum(entropy_from_weight(best_w, total), covers)
