"""Exhaustive ground-truth solvers for desk-scale instances.

Optima are selected by maximizing the integer weight prod x_j^{x_j},
which orders covers exactly opposite to entropy for a fixed total, so
ties are resolved without floating-point comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Dict, List, Optional, Tuple

from .core import (Cover, PolymatroidOracle, entropy_from_weight,
                   validate_cover, weight_product)
from .instances import (Edge, GraphInstance, OrientationSolution,
                        SetCoverInstance, TreeCoverSolution)

GUARD_MSG = "instance too large for exact solver"


class GuardError(ValueError):
    """An instance exceeds an exact solver's size guard; the message
    contains GUARD_MSG."""


@dataclass(frozen=True)
class Optimum:
    """Minimum entropy plus every integer cover vector achieving it."""

    entropy: float
    covers: Tuple[Cover, ...]
    solutions: Optional[tuple] = None  # one witness realization per cover, where applicable


def exact_cover(oracle: PolymatroidOracle) -> Optimum:
    """Enumerate all covers of the polymatroid and keep the best set.

    Depth-first over elements, with f read once into a table indexed by
    subset mask and the subset sums x(S) of the assigned prefix kept
    incrementally.  The upper bound for x_j is the tightest
    f(S + j) - x(S) over subsets S of the prefix; the lower bound makes
    the remaining elements able to absorb the remaining total.

    Every leaf is therefore a cover, for any set function: each subset
    T is bounded when its largest element is assigned, and the lower
    bound at the last element forces sum(x) = f(U).  So leaves are
    scored unchecked, and validate_cover runs once per returned optimum
    as an invariant check; a failure raises RuntimeError.
    """
    m = oracle.m
    total = oracle.total()
    if m > 8 or total > 20:
        raise GuardError(GUARD_MSG)
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
        if j == last:  # the lower bound here is the whole remainder
            if hi == remaining:
                x[j] = remaining
                w *= self_pow[remaining]
                if w > best_w:
                    best_w = w
                    best = [tuple(x)]
                elif w == best_w:
                    best.append(tuple(x))
            return
        for v in range(max(0, remaining - suffix_cap[j + 1]), hi + 1):
            x[j] = v
            sums[bit:2 * bit] = [s + v for s in low]
            rec(j + 1, remaining - v, w * self_pow[v])

    rec(0, total, 1)
    if not best:
        raise ValueError("no valid cover found; oracle is not a polymatroid")
    best.sort()
    covers = tuple(Cover(t) for t in best)
    for cover in covers:
        ok, witness = validate_cover(oracle, cover)
        if not ok:
            raise RuntimeError(f"invariant broken: exact_cover returned "
                               f"{cover.x}, which violates subset {witness}")
    return Optimum(entropy_from_weight(best_w, total), covers)


def exact_assignment_mesc(inst: SetCoverInstance) -> Optimum:
    """Set-cover optimum via the assignment formulation: every universe
    element picks one containing set; scores the induced count vectors."""
    n, m = inst.n_elements, inst.m
    owners = [[i for i, s in enumerate(inst.sets) if j in s] for j in range(n)]
    work = 1
    for o in owners:
        work *= len(o)
        if work > 5_000_000:
            raise GuardError(GUARD_MSG)
    best_w = -1
    best: set = set()
    counts = [0] * m
    seen: set = set()

    def rec(j: int) -> None:
        nonlocal best_w
        state = (j, tuple(counts))
        if state in seen:
            return
        seen.add(state)
        if j == n:
            w = weight_product(counts)
            if w > best_w:
                best_w = w
                best.clear()
                best.add(tuple(counts))
            elif w == best_w:
                best.add(tuple(counts))
            return
        for i in owners[j]:
            counts[i] += 1
            rec(j + 1)
            counts[i] -= 1

    rec(0)
    covers = tuple(Cover(t) for t in sorted(best))
    return Optimum(entropy_from_weight(best_w, n), covers)


def exact_orientation(inst: GraphInstance) -> Optimum:
    """All 2^|E| orientations; optimal per-vertex charge vectors."""
    ne = len(inst.edges)
    if ne > 16:
        raise GuardError(GUARD_MSG)
    if ne == 0:
        raise ValueError("graph has no edges")
    n = inst.n_vertices
    best_w = -1
    found: Dict[Tuple[int, ...], OrientationSolution] = {}
    for mask in range(1 << ne):
        c = [0] * n
        assign = []
        for i, (u, v) in enumerate(inst.edges):
            w = u if (mask >> i) & 1 else v
            assign.append(w)
            c[w] += 1
        wgt = weight_product(c)
        if wgt > best_w:
            best_w = wgt
            found = {tuple(c): OrientationSolution(inst.edges, tuple(assign))}
        elif wgt == best_w:
            found.setdefault(tuple(c), OrientationSolution(inst.edges, tuple(assign)))
    vecs = sorted(found)
    covers = tuple(Cover(t) for t in vecs)
    sols = tuple(found[t] for t in vecs)
    return Optimum(entropy_from_weight(best_w, ne), covers, sols)


def _spanning_trees(n: int, edges: Tuple[Edge, ...]):
    """Yield spanning trees (as edge-index tuples) by include/exclude
    backtracking with a remaining-edge-count prune."""
    need = n - 1
    ne = len(edges)

    def find(parent: List[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def rec(idx: int, chosen: List[int], parent: List[int]):
        if len(chosen) == need:
            yield tuple(chosen)
            return
        if idx == ne or len(chosen) + (ne - idx) < need:
            return
        u, v = edges[idx]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            p2 = list(parent)
            p2[ru] = rv
            chosen.append(idx)
            yield from rec(idx + 1, chosen, p2)
            chosen.pop()
        yield from rec(idx + 1, chosen, parent)

    yield from rec(0, [], list(range(n)))


def exact_mest(inst: GraphInstance) -> Optimum:
    """Spanning trees by backtracking; per-tree charge optimum by DP, so
    the 2^(n-1) charge sweep only runs on trees that attain the best
    weight (there are usually very few)."""
    n = inst.n_vertices
    if n > 9:
        raise GuardError(GUARD_MSG)
    if not inst.is_connected():
        raise ValueError("spanning-tree optimum requires a connected graph")
    if n == 1:
        raise ValueError("degenerate polymatroid: f(U) = 0")
    ne = n - 1
    best_w = -1
    best_trees: List[Tuple[int, ...]] = []
    for tree_idx in _spanning_trees(n, inst.edges):
        w = _best_charge_weight(n, [inst.edges[i] for i in tree_idx])
        if w > best_w:
            best_w = w
            best_trees = [tree_idx]
        elif w == best_w:
            best_trees.append(tree_idx)
    found: Dict[Tuple[int, ...], TreeCoverSolution] = {}
    for tree_idx in best_trees:
        tree = [inst.edges[i] for i in tree_idx]
        for mask in range(1 << ne):
            c = [0] * n
            charge = []
            for i, (u, v) in enumerate(tree):
                w = u if (mask >> i) & 1 else v
                charge.append(w)
                c[w] += 1
            if weight_product(c) == best_w:
                vec = tuple(c)
                if vec not in found:
                    found[vec] = TreeCoverSolution(n, tuple(tree), tuple(charge))
    vecs = sorted(found)
    covers = tuple(Cover(t) for t in vecs)
    sols = tuple(found[t] for t in vecs)
    return Optimum(entropy_from_weight(best_w, ne), covers, sols)


_SELF_POW = [1]  # j^j with the 0^0 = 1 convention


def _self_pow(j: int) -> int:
    while len(_SELF_POW) <= j:
        k = len(_SELF_POW)
        _SELF_POW.append(k ** k)
    return _SELF_POW[j]


def _best_charge_weight(n: int, tree: List[Edge]) -> int:
    """Max prod c_v^{c_v} over all charges of a FIXED tree, by dynamic
    programming rooted at 0.  dp[v][j] = best product over v's subtree
    with v's own factor excluded and j child edges charged into v."""
    adj: Dict[int, List[int]] = {v: [] for v in range(n)}
    for (u, v) in tree:
        adj[u].append(v)
        adj[v].append(u)

    def dfs(v: int, parent: int) -> List[int]:
        dp = [1]
        for c in adj[v]:
            if c == parent:
                continue
            dpc = dfs(c, v)
            # edge (v,c) -> c: c's count = j+1; -> v: c's count = j
            to_c = max(dpc[j] * _self_pow(j + 1) for j in range(len(dpc)))
            to_v = max(dpc[j] * _self_pow(j) for j in range(len(dpc)))
            ndp = [0] * (len(dp) + 1)
            for j, val in enumerate(dp):
                if val * to_c > ndp[j]:
                    ndp[j] = val * to_c
                if val * to_v > ndp[j + 1]:
                    ndp[j + 1] = val * to_v
            dp = ndp
        return dp

    droot = dfs(0, -1)
    return max(droot[j] * _self_pow(j) for j in range(len(droot)))


def exact_mest_entropy(inst: GraphInstance, max_vertices: int = 20) -> float:
    """Optimal tree-cover entropy only, for graphs past the witness
    solver's guard: per-tree charge optimization is a tree DP instead of
    a 2^(n-1) sweep, so only the spanning-tree count limits size."""
    n = inst.n_vertices
    if n > max_vertices:
        raise GuardError(GUARD_MSG)
    if not inst.is_connected():
        raise ValueError("spanning-tree optimum requires a connected graph")
    if n == 1:
        raise ValueError("degenerate polymatroid: f(U) = 0")
    best_w = -1
    for tree_idx in _spanning_trees(n, inst.edges):
        tree = [inst.edges[i] for i in tree_idx]
        w = _best_charge_weight(n, tree)
        if w > best_w:
            best_w = w
    return entropy_from_weight(best_w, n - 1)
