"""Spanning-tree certificate: rewrite an optimal charged tree into the
greedy one through charge-preserving moves, read the rewrite as a
multi-level unit flow, and check that flow's bias and admissibility.

The three moves on a charged tree (edge -> charged endpoint):

* reversal (w1, w2): the tree edge {w1,w2} flips its charge w2 -> w1.
* rotation (keep, out, new): tree edge {keep,out} charged at keep is
  swapped for the non-tree edge {keep,new}, still charged at keep.
* sliding (a, b, c): tree edge {b,c} charged at b is rotated to {a,b}
  (charged b) and then reversed toward a.  Two levels.

Each move transfers exactly one unit of charge between vertices (or
keeps it in place for a rotation), so a schedule of moves is a
multi-level flow with one transition per level.  The scheduler below
removes each tree edge the greedy tree lacks by sliding charges along
the unique tree path of some incoming greedy edge (a "cascade"), then
fixes remaining charge orientations by plain reversals.

One odometer search over the scheduler's choices tries schedules in
turn, up to SCHEDULE_ATTEMPTS of them.  A choice pairs a greedy edge
outside the current tree with a tree edge on its tree path (exactly the
tree edges whose cut it crosses) and a direction.  Alternatives that
route fewer units across a zero coefficient-table capacity (between two
greedy-chosen vertices) come first; capacity is a preference, not a
gate.  A schedule is accepted when its transitions decompose into unit
paths that each end no higher in greedy rank than they started AND
satisfy the per-source admissibility chain (a backtracking search).
The first schedule succeeds on most instances.

verify_beta_one checks the certificate on the greedy trace, optimum and
coefficient table the verify pipeline already holds; it computes none of
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .exact import Optimum
from .greedy import CoefficientTable, GreedyTrace
from .instances import (Edge, GraphInstance, TreeCoverSolution,
                        complete_mest_solution, find)

Arc = Tuple[int, int]

# schedules transform_tree tries before it gives up
SCHEDULE_ATTEMPTS = 20000


@dataclass(frozen=True)
class TreeMove:
    kind: str                  # "reversal" | "rotation" | "sliding"
    vertices: Tuple[int, ...]  # (w1,w2) / (keep,out,new) / (a,b,c)

    def __post_init__(self) -> None:
        want = {"reversal": 2, "rotation": 3, "sliding": 3}
        if self.kind not in want:
            raise ValueError(f"unknown move kind '{self.kind}'")
        if len(self.vertices) != want[self.kind]:
            raise ValueError(f"{self.kind} takes {want[self.kind]} vertices")

    @property
    def levels(self) -> int:
        return 2 if self.kind == "sliding" else 1


def _edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def apply_move(tree: Dict[Edge, int], move: TreeMove,
               graph_edges: frozenset) -> Dict[Edge, int]:
    """Apply one move to an edge->charge mapping, returning a new mapping.
    Raises ValueError("invariant broken") when the move does not fit the
    tree (wrong orientation, missing edges, cycle)."""
    out = dict(tree)
    if move.kind == "reversal":
        w1, w2 = move.vertices
        e = _edge_key(w1, w2)
        if out.get(e) != w2:
            raise ValueError("invariant broken: reversal on edge not charged at w2")
        out[e] = w1
        return out
    if move.kind == "rotation":
        keep, drop, new = move.vertices
        e_old, e_new = _edge_key(keep, drop), _edge_key(keep, new)
        if out.get(e_old) != keep:
            raise ValueError("invariant broken: rotation pivot does not hold the edge")
        if e_new not in graph_edges or e_new in out:
            raise ValueError("invariant broken: rotation target unavailable")
        del out[e_old]
        out[e_new] = keep
        return out
    a, b, c = move.vertices
    e_bc, e_ab = _edge_key(b, c), _edge_key(a, b)
    if out.get(e_bc) != b:
        raise ValueError("invariant broken: sliding edge not charged at b")
    if e_ab not in graph_edges or e_ab in out:
        raise ValueError("invariant broken: sliding target unavailable")
    del out[e_bc]
    out[e_ab] = a  # rotation to (a,b) charged b, then reversal toward a
    return out


def is_spanning_tree(n: int, edges: Sequence[Edge]) -> bool:
    if len(edges) != n - 1:
        return False
    parent = list(range(n))
    for (u, v) in edges:
        ru, rv = find(parent, u), find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


@dataclass(frozen=True)
class MultiLevelFlow:
    """One node per vertex per level; q transitions between q+1 levels.
    Every path carries one unit and advances one level per transition."""

    q: int
    levels: Tuple[Tuple[int, ...], ...]   # q+1 per-vertex count vectors
    paths: Tuple[Tuple[int, ...], ...]    # each of length q+1
    arcs: Tuple[Arc, ...]                 # the transition arcs, length q


@dataclass(frozen=True)
class PathOrdering:
    """Total order on path indices: all cross-index paths before all
    same-index paths; cross-index paths by ascending terminal rank."""

    order: Tuple[int, ...]

    @classmethod
    def canonical(cls, flow: MultiLevelFlow, rank: Sequence[int]) -> "PathOrdering":
        def sort_key(pid: int):
            p = flow.paths[pid]
            cross = p[0] != p[-1]
            return (0 if cross else 1, rank[p[-1]], rank[p[0]], pid)

        return cls(tuple(sorted(range(len(flow.paths)), key=sort_key)))


class _Choices:
    """Odometer over the decision points discovered during one schedule
    attempt; advancing flips the most recent decision first."""

    def __init__(self) -> None:
        self.fixed: List[int] = []
        self.radix: List[int] = []
        self.ptr = 0

    def reset(self) -> None:
        self.ptr = 0

    def pick(self, n_alts: int) -> int:
        i = self.ptr
        if i == len(self.fixed):
            self.fixed.append(0)
            self.radix.append(n_alts)
        else:
            self.radix[i] = n_alts
        self.ptr += 1
        return self.fixed[i]

    def advance(self) -> bool:
        # drop decision points past the last one actually consulted
        del self.fixed[self.ptr:], self.radix[self.ptr:]
        while self.fixed:
            self.fixed[-1] += 1
            if self.fixed[-1] < self.radix[-1]:
                return True
            self.fixed.pop()
            self.radix.pop()
        return False


def _cascade(path: Sequence[int], s: int) -> Iterator[Tuple[int, int, int]]:
    """The slidings (a, b, c) that bring the greedy edge {path[0], path[-1]}
    into the tree and drop the tree edge {path[s], path[s+1]}: from the
    far end of the tree path back to s, each path edge slides one step."""
    a = path[0]
    for i in range(len(path) - 1, s, -1):
        yield a, path[i], path[i - 1]
        a = path[i]


def _tree_path(adj: Dict[int, List[int]], frm: int, to: int) -> List[int]:
    """The vertices of the unique path from frm to to in a tree."""
    prev = {frm: frm}
    stack = [frm]
    while to not in prev:
        x = stack.pop()
        for y in adj[x]:
            if y not in prev:
                prev[y] = x
                stack.append(y)
    path = [to]
    while path[-1] != frm:
        path.append(prev[path[-1]])
    return path[::-1]


def _schedule_once(t1: Dict[Edge, int], tg: Dict[Edge, int],
                   rank: Sequence[int], coeffs: CoefficientTable, n_chosen: int,
                   choices: _Choices) -> Tuple[List[TreeMove], List[Arc]]:
    """One deterministic schedule attempt driven by the odometer.
    Transitions between chosen vertices with a zero coefficient capacity
    are allowed; avoiding them is the first scoring preference, and the
    unit-path decomposition alone decides."""
    cur = dict(t1)
    moves: List[TreeMove] = []
    arcs: List[Arc] = []

    def cap_ok(u: int, w: int) -> bool:
        if u == w:
            return True
        if rank[u] <= n_chosen and rank[w] <= n_chosen:
            return coeffs.a[rank[w] - 1][u] >= 1
        return True  # transitions touching an unchosen vertex are unbounded

    def do_reversal(e: Edge, to: int) -> None:
        frm = cur[e]
        cur[e] = to
        moves.append(TreeMove("reversal", (to, frm)))
        arcs.append((frm, to))

    def do_sliding(a: int, b: int, c: int) -> None:
        e_bc = _edge_key(b, c)
        if cur[e_bc] == c:
            do_reversal(e_bc, b)  # pre-reversal, emitted as its own move
        del cur[e_bc]
        cur[_edge_key(a, b)] = a
        moves.append(TreeMove("sliding", (a, b, c)))
        arcs.extend(((b, b), (b, a)))

    def penalty(path: List[int], s: int) -> int:
        # transitions the cascade would route across a zero capacity; each
        # sliding's edge {b,c} is an untouched edge of the current tree
        return sum((cur[_edge_key(b, c)] == c and not cap_ok(c, b))
                   + (not cap_ok(b, a)) for a, b, c in _cascade(path, s))

    while set(cur) != set(tg):
        cand = sorted((e for e in cur if e not in tg),
                      key=lambda e2: (-max(rank[e2[0]], rank[e2[1]]), e2))
        cand_index = {e: i for i, e in enumerate(cand)}
        adj: Dict[int, List[int]] = {}
        for (u, v) in cur:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        alts = []
        for d in tg:
            if d in cur:
                continue
            # d crosses a tree edge's cut exactly when that edge lies on
            # d's tree path
            path = _tree_path(adj, d[0], d[1])
            back = path[::-1]
            last = len(path) - 1
            for i in range(last):
                e = _edge_key(path[i], path[i + 1])
                if e not in cand_index:
                    continue
                for direction, p, s in ((0, path, i), (1, back, last - 1 - i)):
                    # prefer charging the new greedy edge where the greedy
                    # tree does NOT charge it: the fixup reversal then runs
                    # downhill
                    key = (penalty(p, s), cand_index[e],
                           0 if p[0] != tg[d] else 1, d, direction)
                    alts.append((key, p, s))
        if not alts:
            raise RuntimeError("invariant broken: no crossing greedy edge exists")
        alts.sort()  # the keys are unique, so paths are never compared
        _, path, s = alts[choices.pick(len(alts))]
        for a, b, c in _cascade(path, s):
            do_sliding(a, b, c)

    for e in sorted(tg, key=lambda e2: rank[tg[e2]]):
        if cur[e] != tg[e]:
            do_reversal(e, tg[e])
    if cur != tg:
        raise RuntimeError("invariant broken: schedule did not reach the greedy tree")
    return moves, arcs


def _decompose(n: int, x0: Sequence[int], gamma: Sequence[int],
               arcs: Sequence[Arc], rank: Sequence[int]
               ) -> Optional[List[List[int]]]:
    """Assign each transition to one unit so that endpoints are biased
    and the per-source admissibility chain holds; returns one trajectory
    (vertex per level) per unit, or None."""
    units: List[int] = []
    for v in range(n):
        units.extend([v] * x0[v])
    nu = len(units)
    pos = list(units)
    takers: List[int] = [-1] * len(arcs)

    def endpoint_ok() -> bool:
        cnt = [0] * n
        for p in pos:
            cnt[p] += 1
        if cnt != list(gamma):
            return False
        if any(rank[units[i]] < rank[pos[i]] for i in range(nu)):
            return False
        by: Dict[int, List[int]] = {}
        for i in range(nu):
            if units[i] != pos[i]:
                by.setdefault(units[i], []).append(pos[i])
        for s, terms in by.items():
            terms.sort(key=lambda t: rank[t])
            for i, t in enumerate(terms):
                if x0[s] - i > gamma[t]:
                    return False
        return True

    def rec(t: int) -> bool:
        if t == len(arcs):
            return endpoint_ok()
        src, dst = arcs[t]
        if src == dst:
            return rec(t + 1)
        tried = set()
        for i in range(nu):
            if pos[i] == src and units[i] not in tried:
                tried.add(units[i])
                pos[i] = dst
                takers[t] = i
                if rec(t + 1):
                    return True
                pos[i] = src
        takers[t] = -1
        return False

    if not rec(0):
        return None
    # replay to record full trajectories
    traj = [[u] for u in units]
    cur = list(units)
    for t, (src, dst) in enumerate(arcs):
        if src != dst:
            cur[takers[t]] = dst
        for i in range(nu):
            traj[i].append(cur[i])
    return traj


def transform_tree(inst: GraphInstance, opt: TreeCoverSolution,
                   greedy_sol: TreeCoverSolution, trace: GreedyTrace,
                   coeffs: CoefficientTable
                   ) -> Tuple[Tuple[TreeMove, ...], MultiLevelFlow]:
    """Find a move schedule from the optimal tree to the greedy tree whose
    induced multi-level flow has biased, admissible unit paths.

    ``trace`` is the greedy run that charged ``greedy_sol`` and ``coeffs``
    its coefficient table, which orders the schedule's choices.  Raises
    ValueError when ``greedy_sol`` is charged unlike ``trace.cover``, and
    LookupError when no schedule within SCHEDULE_ATTEMPTS certifies.
    """
    if greedy_sol.charge_vector() != trace.cover.x:
        raise ValueError("greedy solution charges disagree with the greedy trace")
    n = inst.n_vertices
    t1 = opt.as_dict()
    tg = greedy_sol.as_dict()
    gamma = trace.cover.x
    x0 = opt.charge_vector()
    rank = trace.rank

    choices = _Choices()
    for _ in range(SCHEDULE_ATTEMPTS):
        choices.reset()
        moves, arcs = _schedule_once(t1, tg, rank, coeffs, trace.length, choices)
        traj = _decompose(n, x0, gamma, arcs, rank)
        if traj is not None or not choices.advance():
            break
    if traj is None:
        raise LookupError("no certifiable schedule found")

    q = len(arcs)
    levels = []
    for t in range(q + 1):
        cnt = [0] * n
        for tr in traj:
            cnt[tr[t]] += 1
        levels.append(tuple(cnt))
    flow = MultiLevelFlow(q, tuple(levels), tuple(tuple(tr) for tr in traj),
                          tuple(arcs))
    return tuple(moves), flow


def flow_respects_capacities(flow: MultiLevelFlow, coeffs: CoefficientTable,
                             rank: Sequence[int], n_chosen: int) -> bool:
    """Cumulative flow on distinct-index transitions into a chosen vertex
    w, from a chosen vertex u, within the coefficient a_{rank(w)}^u.
    Moves touching an unchosen vertex have no greedy step to charge
    against, so they are unconstrained."""
    used: Dict[Arc, int] = {}
    for (u, w) in flow.arcs:
        if u != w:
            used[(u, w)] = used.get((u, w), 0) + 1
    for (u, w), cnt in used.items():
        if rank[u] <= n_chosen and rank[w] <= n_chosen:
            if cnt > coeffs.a[rank[w] - 1][u]:
                return False
    return True


def check_admissible(flow: MultiLevelFlow, ordering: PathOrdering,
                     greedy_values: Sequence[int]
                     ) -> Tuple[bool, Optional[int]]:
    """Admissibility: when a path from source j to terminal t is
    considered, the flow still waiting at j (this path and every later
    one from j) must fit within t's total final in-flow.  Returns the
    first violating path id under the ordering, if any."""
    remaining: Dict[int, int] = {}
    for p in flow.paths:
        remaining[p[0]] = remaining.get(p[0], 0) + 1
    for pid in ordering.order:
        p = flow.paths[pid]
        j, t = p[0], p[-1]
        if remaining[j] > greedy_values[t]:
            return False, pid
        remaining[j] -= 1
    return True, None


def verify_beta_one(inst: GraphInstance, trace: GreedyTrace, opt: Optimum,
                    coeffs: CoefficientTable) -> dict:
    """The β = 1 certificate for one connected graph, from what the verify
    pipeline computed: the greedy ``trace`` of ``mest_oracle(inst)``, its
    ``exact_mest`` optimum ``opt`` and the coefficient table ``coeffs`` of
    that trace.  It transforms an optimal tree into the greedy one,
    replays every move and checks the induced flow's bias, loads,
    endpoints, capacities and admissibility.  The entropy bound itself is
    the caller's: it needs only the two entropies.

    The certified multiplier is an infimum over constructions, so ONE
    transformable optimal witness suffices; witnesses sharing the greedy
    edge set are tried first (their schedules are pure reversals).  When
    none transforms, the report has the same keys with ``certified``
    False, the last ``error``, and None for every check it could not run.
    """
    greedy_sol = complete_mest_solution(inst, trace)
    tg_edges = set(greedy_sol.tree_edges)
    order = sorted(range(len(opt.solutions)),
                   key=lambda i: (set(opt.solutions[i].tree_edges) != tg_edges, i))
    opt_sol = moves = flow = None
    witness_index = None
    last_err = "no optimal witness"
    for i in order:
        try:
            moves, flow = transform_tree(inst, opt.solutions[i], greedy_sol,
                                         trace, coeffs)
        except LookupError as exc:
            last_err = str(exc)
            continue
        opt_sol = opt.solutions[i]
        witness_index = i
        break
    report = {"beta_witness": 1, "certified": False, "error": last_err,
              "witness_index": None, "admissible": None,
              "violating_path": None, "endpoints_biased": None,
              "intermediate_trees_ok": None, "reaches_greedy": None,
              "per_node_loads_ok": None, "level_endpoints_ok": None,
              "arc_capacities_ok": None, "moves": [], "levels": 0,
              "paths": []}
    if opt_sol is None:
        return report

    # replay the moves move-by-move: every intermediate is a spanning tree
    eset = frozenset(inst.edges)
    state = opt_sol.as_dict()
    trees_ok = is_spanning_tree(inst.n_vertices, list(state))
    for mv in moves:
        state = apply_move(state, mv, eset)
        if not is_spanning_tree(inst.n_vertices, list(state)):
            trees_ok = False
    reaches_greedy = state == greedy_sol.as_dict()

    gamma = greedy_sol.charge_vector()
    ordering = PathOrdering.canonical(flow, trace.rank)
    admissible, violating = check_admissible(flow, ordering, gamma)
    biased = all(trace.rank[p[0]] >= trace.rank[p[-1]] for p in flow.paths)
    loads = [0] * inst.n_vertices
    for p in flow.paths:
        loads[p[-1]] += 1
    loads_ok = all(loads[v] <= gamma[v] for v in range(inst.n_vertices))
    ends_ok = (flow.levels[0] == opt_sol.charge_vector()
               and flow.levels[-1] == gamma)
    caps_ok = flow_respects_capacities(flow, coeffs, trace.rank,
                                       trace.length)
    report.update(
        certified=(trees_ok and reaches_greedy and admissible and biased
                   and loads_ok and ends_ok),
        error=None,
        witness_index=witness_index,
        admissible=admissible,
        violating_path=violating,
        endpoints_biased=biased,
        intermediate_trees_ok=trees_ok,
        reaches_greedy=reaches_greedy,
        per_node_loads_ok=loads_ok,
        level_endpoints_ok=ends_ok,
        arc_capacities_ok=caps_ok,
        moves=[{"kind": m.kind, "vertices": list(m.vertices)} for m in moves],
        levels=flow.q,
        paths=[list(p) for p in flow.paths],
    )
    return report
