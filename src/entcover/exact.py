"""Exact ground-truth solvers for desk-scale instances.

One subset DP finds every optimal cover vector of any polymatroid
oracle: ``exact_cover`` runs it on the oracle it is given, and
``exact_mest`` is ``exact_cover`` on the spanning-tree oracle.  The
optimum is only a vector, whatever the family; the spanning-tree
certificate (certify.py) builds the charged trees it tries from those
vectors.  One assignment search, which gives each element to one of
its sets (``exact_assignment_mesc``) or each edge to one of its
endpoints (``exact_orientation``), and the spanning-tree enumeration
behind ``exact_mest_entropy`` are independent routes, kept as
cross-checks, and the test suite holds one more: a branch-and-bound
enumerator of every cover (tests/cover_reference.py).

The DP rests on two facts.  Entropy is strictly concave, so every
optimal integer cover is a vertex of the base polytope, and every
vertex is the greedy vector of some element order (Edmonds 1970).  So
the optimum is the best chain through the subset lattice, found by the
Held-Karp subset DP (Held & Karp 1962) in O(m 2^m) steps, whatever
f(U) is: one pass records the heaviest chain weight into every state,
and the optimal covers are read back along the steps that attain it.
Both facts need a polymatroid: the DP first checks the axioms on the
whole f-table it reads, in O(m^2) big-int steps over 2^m packed lanes,
and refuses any other set function with ValueError.  The family
oracles build that table by a subset recursion over their masks
(PolymatroidOracle.table).
The check is also what lets the DP stop a chain early: f is then
monotone, so once a chain reaches f(S) = f(U) every later gain is 0,
and only the states with f(S) < f(U) are expanded.  On a polymatroid
every chain's vector is a valid cover, so the optima are not checked
again.  The size guard bounds the DP's work: m 2^m at most
EXACT_MAX_WORK, that is m <= 16.

Optima are selected by maximizing the integer weight prod x_j^{x_j},
which orders covers exactly opposite to entropy for a fixed total, so
ties are resolved without floating-point comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import compress
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .core import (GUARD_MSG, Cover, GuardError, PolymatroidOracle,
                   entropy_from_weight, polymatroid_violation,
                   weight_product)
from .instances import (Edge, GraphInstance, SetCoverInstance, find,
                        mest_oracle)

EXACT_MAX_WORK = 1 << 20  # the subset DP's bound on m 2^m: m <= 16
MEST_ENTROPY_MAX_VERTICES = 20  # exact_mest_entropy's guard on its recursion
MEST_ENTROPY_MAX_TREES = 8 ** 6  # and on its work, one DP per tree: K8's count


@dataclass(frozen=True)
class Optimum:
    """Minimum entropy plus every integer cover vector achieving it."""

    entropy: float
    covers: Tuple[Cover, ...]


def exact_cover(oracle: PolymatroidOracle) -> Optimum:
    """Every optimal cover of the polymatroid, for ground sets of at
    most 16 elements.

    f is read once into a table indexed by subset mask (oracle.table),
    and the whole table is checked to be a polymatroid (ValueError
    naming a counterexample pair otherwise).  The check proves f
    monotone, so once a chain reaches f(S) = f(U) every later gain is 0
    and adds a factor 0^0 = 1: the chain ends there.  So only the open
    states, f(S) < f(U), are expanded; every subset of an open state is
    open.  One pass over them, in ascending mask order, finds best[S],
    the largest weight of a chain from the empty set to S,

        best[S] = max_j best[S - j] * d^d,   d = f(S) - f(S - j).

    A chain that ends by a step from P weighs best[P] * r^r, with
    r = f(U) - f(P); the pass records that weight and those final
    steps, and top is the largest such weight.  The covers are then
    read back from the ends of weight top down to the empty set, along
    each state's tying last steps, the j that attain best[S]; they are
    found only at the states the read-back visits.  Every prefix of an
    optimal chain is a heaviest chain to its last state, so this reads
    back exactly the optimal chains; and the end from any state P on
    one weighs top, as best[P] * r^r bounds every chain through P
    (a^a b^b <= (a+b)^(a+b)).  The covers are returned in ascending
    order.  Each is a chain's greedy vector, a vertex of the checked
    polymatroid's base polytope, so a valid cover as it is.
    """
    m = oracle.m
    if m << m > EXACT_MAX_WORK:
        raise GuardError(GUARD_MSG)
    total = oracle.total()
    if total < 1:
        raise ValueError("degenerate polymatroid: f(U) = 0")
    f = oracle.table()
    bad = polymatroid_violation(f)
    if bad is not None:
        raise ValueError(f"oracle is not a polymatroid: subsets {bad[0]} "
                         f"and {bad[1]} violate the axioms")
    self_pow = [v ** v for v in range(total + 1)]  # 0^0 = 1
    bits = [1 << j for j in range(m)]
    best = [1] * len(f)
    ends = {}  # P -> (best[P] * r^r, the steps from P that reach f(U))
    for s in compress(range(len(f)), map(total.__gt__, f)):
        fs = f[s]
        if s:
            best[s] = max([best[s ^ b] * self_pow[fs - f[s ^ b]]
                           for b in bits if s & b])
        done = sum([b for b in bits if f[s | b] == total])
        if done:
            ends[s] = (best[s] * self_pow[total - fs], done)
    top = max(ends.values())[0]
    # each vector packed into an int, x_j in bits [j w, (j + 1) w)
    w = total.bit_length()

    @cache
    def vectors(s: int) -> set:
        """The packed vectors of the heaviest chains from the empty set
        to s, read back along their tying last steps."""
        if not s:
            return {0}
        steps = [(j, b, f[s] - f[s ^ b]) for j, b in enumerate(bits) if s & b]
        return set().union(*[
            map((d << j * w).__add__, vectors(s ^ b))
            for j, b, d in steps if best[s ^ b] * self_pow[d] == best[s]])

    found = set().union(*[
        map(((total - f[p]) << j * w).__add__, vectors(p))
        for p, (v, steps) in ends.items() if v == top
        for j, b in enumerate(bits) if steps & b])
    low = (1 << w) - 1
    covers = tuple(Cover(x) for x in sorted(
        tuple(v >> j * w & low for j in range(m)) for v in found))
    return Optimum(entropy_from_weight(top, total), covers)


def exact_assignment_mesc(inst: SetCoverInstance) -> Optimum:
    """Set-cover optimum via the assignment formulation: every universe
    element picks one containing set; scores the induced count vectors."""
    owners = [[i for i, s in enumerate(inst.sets) if j in s]
              for j in range(inst.n_elements)]
    work = 1
    for o in owners:
        work *= len(o)
        if work > 5_000_000:
            raise GuardError(GUARD_MSG)
    return _best_assignments(owners, inst.m)


def exact_orientation(inst: GraphInstance) -> Optimum:
    """Orientation optimum by the same assignment search: each edge
    picks one of its two endpoints; at most 16 edges."""
    if len(inst.edges) > 16:
        raise GuardError(GUARD_MSG)
    if not inst.edges:
        raise ValueError("graph has no edges")
    return _best_assignments(inst.edges, inst.n_vertices)


def _best_assignments(owners: Sequence[Sequence[int]], m: int) -> Optimum:
    """Every optimal count vector over m owners when item j goes to one
    of owners[j], carrying one layer of distinct count vectors per item."""
    layer = {(0,) * m}
    for own in owners:
        layer = {c[:i] + (c[i] + 1,) + c[i + 1:] for c in layer for i in own}
    weights = {c: weight_product(c) for c in layer}
    best_w = max(weights.values())
    covers = tuple(Cover(c) for c in sorted(c for c, w in weights.items()
                                            if w == best_w))
    return Optimum(entropy_from_weight(best_w, len(owners)), covers)


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


def exact_mest(inst: GraphInstance) -> Optimum:
    """Every optimal tree-cover vector of a connected graph of at most
    16 vertices: exact_cover on its spanning-tree oracle."""
    return exact_cover(mest_oracle(inst))


def _best_charge_weight(tree: List[Edge], self_pow: List[int]) -> int:
    """Max prod c_v^{c_v} over all charges of a FIXED tree on the
    vertices 0..len(tree), by dynamic programming rooted at 0, where
    self_pow[j] = j^j.  dp[v][j] = best product over v's subtree with
    v's own factor excluded and j child edges charged into v."""
    adj: Dict[int, List[int]] = {v: [] for v in range(len(tree) + 1)}
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
            to_c = max(map(mul, dpc, self_pow[1:]))
            to_v = max(map(mul, dpc, self_pow))
            dp = list(map(max, [d * to_c for d in dp] + [0],
                          [0] + [d * to_v for d in dp]))
        return dp

    return max(map(mul, dfs(0, -1), self_pow))


def _spanning_tree_count(inst: GraphInstance) -> int:
    """Spanning trees of a connected graph (matrix-tree theorem): the
    determinant of its Laplacian less vertex 0, by exact Bareiss
    elimination; each pivot is a positive leading principal minor."""
    k = inst.n_vertices - 1
    a = [[mk.bit_count() if i == j else -(mk >> j + 1 & 1) for j in range(k)]
         for i, mk in enumerate(inst.nbr_masks[1:])]
    prev = 1
    for i in range(k - 1):
        piv, top = a[i][i], a[i]
        for row in a[i + 1:]:
            row[i + 1:] = [(x * piv - row[i] * y) // prev
                           for x, y in zip(row[i + 1:], top[i + 1:])]
        prev = piv
    return a[k - 1][k - 1] if k else 1


def exact_mest_entropy(inst: GraphInstance) -> float:
    """Optimal tree-cover entropy only, by a route independent of the
    subset DP: every spanning tree, each charged optimally by a tree
    DP, until one reaches (n-1)^(n-1), the largest weight any tree can.
    The guard bounds that work: it counts the trees first and refuses
    more than MEST_ENTROPY_MAX_TREES (every graph on 8 vertices passes)
    or more than MEST_ENTROPY_MAX_VERTICES vertices."""
    n = inst.n_vertices
    if n > MEST_ENTROPY_MAX_VERTICES:
        raise GuardError(GUARD_MSG)
    if not inst.is_connected():
        raise ValueError("spanning-tree optimum requires a connected graph")
    if n == 1:
        raise ValueError("degenerate polymatroid: f(U) = 0")
    if _spanning_tree_count(inst) > MEST_ENTROPY_MAX_TREES:
        raise GuardError(GUARD_MSG)
    self_pow = [j ** j for j in range(n)]  # 0^0 = 1
    best_w = 0
    for tree in _spanning_trees(n, inst.edges):
        best_w = max(best_w, _best_charge_weight(
            [inst.edges[i] for i in tree], self_pow))
        if best_w == self_pow[n - 1]:  # a star charged to its centre
            break
    return entropy_from_weight(best_w, n - 1)
