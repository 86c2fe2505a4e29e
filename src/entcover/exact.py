"""Exhaustive ground-truth solvers for desk-scale instances.

One enumerator finds the optimal cover vectors of any polymatroid
oracle: ``exact_cover`` runs it within its size guard, and
``exact_mest`` runs it on the spanning-tree oracle and realises each
optimal vector as a charged tree.  The set-cover assignment search,
the orientation sweep and the spanning-tree enumeration behind
``exact_mest_entropy`` are independent routes, kept as cross-checks.

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
from .greedy import GreedyTrace
from .instances import (Edge, GraphInstance, OrientationSolution,
                        SetCoverInstance, complete_mest_solution, find,
                        mest_oracle)

GUARD_MSG = "instance too large for exact solver"
MEST_ENTROPY_MAX_VERTICES = 20  # exact_mest_entropy's guard


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
    """Every optimal cover of the polymatroid, for ground sets of at
    most 8 elements and f(U) of at most 20; see _optimal_covers."""
    if oracle.m > 8 or oracle.total() > 20:
        raise GuardError(GUARD_MSG)
    return _optimal_covers(oracle)


def _optimal_covers(oracle: PolymatroidOracle) -> Optimum:
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


def exact_mest(inst: GraphInstance, *,
               oracle: Optional[PolymatroidOracle] = None) -> Optimum:
    """Every optimal tree-cover vector, each with one charged spanning
    tree that realises it, for graphs of at most 9 vertices.  A caller
    that already holds mest_oracle(inst) passes it, to share its cache.

    The vectors are the optima of the spanning-tree oracle, found by
    _optimal_covers, the enumerator behind exact_cover.  Entropy is
    strictly concave, so each optimal integer cover x is a vertex of the
    base polytope, and every vertex is a greedy vector along some
    element order (Edmonds 1970).  The sets S with x(S) = f(S) are
    closed under union and intersection, so a tight order of x's
    support can be grown one step at a time, and complete_mest_solution
    turns that order into a tree charged exactly x.  A missing tight
    step or a tree charged otherwise raises RuntimeError.
    """
    n = inst.n_vertices
    if n > 9:
        raise GuardError(GUARD_MSG)
    if not inst.is_connected():
        raise ValueError("spanning-tree optimum requires a connected graph")
    if oracle is None:
        oracle = mest_oracle(inst)
    # f(U) = n - 1: n = 1 is refused as degenerate
    opt = _optimal_covers(oracle)
    sols = []
    for cover in opt.covers:
        x = cover.x
        order = _tight_order(oracle, x)
        trace = GreedyTrace.from_chain(n, order, [x[j] for j in order])
        sol = complete_mest_solution(inst, trace)
        if sol.charge_vector() != x:
            raise RuntimeError(f"invariant broken: the tree built for {x} "
                               f"is charged {sol.charge_vector()}")
        sols.append(sol)
    return Optimum(opt.entropy, opt.covers, tuple(sols))


def _tight_order(oracle: PolymatroidOracle, x: Tuple[int, ...]) -> List[int]:
    """The positive entries of x in an order along which each marginal
    f(W + j) - f(W) equals x_j, taking the lowest such j at each step."""
    pending = [j for j, v in enumerate(x) if v]
    order: List[int] = []
    w = fw = 0
    while pending:
        j = next((j for j in pending
                  if oracle.eval(w | 1 << j) - fw == x[j]), None)
        if j is None:
            raise RuntimeError(f"invariant broken: no tight step extends "
                               f"{order} for cover {x}")
        pending.remove(j)
        order.append(j)
        w |= 1 << j
        fw += x[j]
    return order


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


def exact_mest_entropy(inst: GraphInstance) -> float:
    """Optimal tree-cover entropy only, by a route independent of the
    enumerator: every spanning tree, each charged optimally by a tree
    DP.  It reaches past exact_mest's guard, to
    MEST_ENTROPY_MAX_VERTICES vertices; the spanning-tree count is what
    limits its size in practice."""
    n = inst.n_vertices
    if n > MEST_ENTROPY_MAX_VERTICES:
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
