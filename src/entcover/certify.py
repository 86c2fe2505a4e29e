"""Spanning-tree certificate: rewrite an optimal charged tree into the
greedy one through charge-preserving moves, read the rewrite as a
multi-level unit flow, and check that flow's bias and admissibility.

The two moves on a charged tree (edge -> charged endpoint):

* reversal (w1, w2): the tree edge {w1,w2} flips its charge w2 -> w1.
  One level: the unit moves w2 -> w1.
* sliding (a, b, c): tree edge {b,c} charged at b is swapped for the
  non-tree edge {a,b} (still charged b) and then reversed toward a.
  Two levels: the unit stays at b, then moves b -> a.

apply_move is the one definition of a move's effect on the tree and
TreeMove.arcs the one definition of its transitions, so a schedule of
moves is a multi-level flow with one transition per level.  The
scheduler below removes each tree edge the greedy tree lacks by sliding
charges along the unique tree path of some incoming greedy edge (a
"cascade"), then fixes remaining charge orientations by plain reversals.

Two depth-first generators do the search.  _schedules yields every
schedule; transform_tree tries at most SCHEDULE_ATTEMPTS of them.  At
each decision point it pairs a greedy edge outside the current tree
with a tree edge on its tree path (exactly the tree edges whose cut it
crosses) and a direction, tries the alternatives in order, and recurses
once per cascade.  Alternatives that route fewer units across a zero
coefficient-table capacity (between two greedy-chosen vertices) come
first; capacity is a preference, not a gate.  _flows gives each
transition to one unit of charge, backtracking once per transition and
expanding each (start, position) state once.  Every rule the
certificate checks on a flow reads only where each unit's path starts
and ends, so a candidate flow is just its (start, end) pairs.
transform_tree accepts the first schedule and candidate that pass
_endpoint_checks, the one check of those rules that verify_beta_one
also reports: admissibility, bias, final loads and the first and last
levels; it builds the path table (_replay) once, for the candidate it
accepts.  The first schedule and the first candidate succeed on most
instances.

verify_beta_one checks the certificate on the oracle, greedy trace,
optimum and coefficient table the verify pipeline already holds.  The
optimum holds only vectors, so it builds the trees it tries from them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import le
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import PolymatroidOracle
from .exact import Optimum
from .greedy import CoefficientTable, GreedyTrace
from .instances import (Edge, GraphInstance, TreeCoverSolution,
                        complete_mest_solution, is_spanning_tree)

Arc = Tuple[int, int]

# schedules transform_tree tries before it gives up
SCHEDULE_ATTEMPTS = 20000


@dataclass(frozen=True)
class TreeMove:
    kind: str                  # "reversal" | "sliding"
    vertices: Tuple[int, ...]  # (w1,w2) / (a,b,c)

    def __post_init__(self) -> None:
        want = {"reversal": 2, "sliding": 3}
        if self.kind not in want:
            raise ValueError(f"unknown move kind '{self.kind}'")
        if len(self.vertices) != want[self.kind]:
            raise ValueError(f"{self.kind} takes {want[self.kind]} vertices")

    @property
    def arcs(self) -> Tuple[Arc, ...]:
        """The move's unit transitions, one per level."""
        if self.kind == "reversal":
            w1, w2 = self.vertices
            return ((w2, w1),)
        a, b, _ = self.vertices
        return ((b, b), (b, a))


def _edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def apply_move(tree: Dict[Edge, int], move: TreeMove,
               graph_edges: frozenset) -> Dict[Edge, int]:
    """Apply one move to an edge->charge mapping, returning a new mapping;
    this is the one definition of a move's effect on the tree.  Raises
    ValueError("invariant broken") when the move does not fit the tree:
    a reversal of an edge not charged at w2, or a sliding whose edge
    {b,c} is not charged at b or whose edge {a,b} is not a graph edge
    outside the tree."""
    out = dict(tree)
    if move.kind == "reversal":
        w1, w2 = move.vertices
        e = _edge_key(w1, w2)
        if out.get(e) != w2:
            raise ValueError("invariant broken: reversal on edge not charged at w2")
        out[e] = w1
        return out
    a, b, c = move.vertices
    e_bc, e_ab = _edge_key(b, c), _edge_key(a, b)
    if out.get(e_bc) != b:
        raise ValueError("invariant broken: sliding edge not charged at b")
    if e_ab not in graph_edges or e_ab in out:
        raise ValueError("invariant broken: sliding target unavailable")
    del out[e_bc]
    out[e_ab] = a  # swap {b,c} for {a,b} charged b, then reverse toward a
    return out


@dataclass(frozen=True)
class MultiLevelFlow:
    """One node per vertex per level; q = len(arcs) transitions between
    q+1 levels.  Every path carries one unit and advances one level per
    transition, so a level's per-vertex counts are its paths' entries."""

    paths: Tuple[Tuple[int, ...], ...]    # each of length q+1
    arcs: Tuple[Arc, ...]                 # the transition arcs, length q

    @property
    def q(self) -> int:
        return len(self.arcs)


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


def _schedules(cur: Dict[Edge, int], tg: Dict[Edge, int], eset: frozenset,
               rank: Sequence[int], coeffs: CoefficientTable, n_chosen: int,
               moves: Tuple[TreeMove, ...] = ()
               ) -> Iterator[Tuple[TreeMove, ...]]:
    """Every move schedule from cur to the greedy tree tg, depth first,
    each appended to ``moves``.  Transitions between chosen vertices with
    a zero coefficient capacity are allowed; avoiding them is the first
    scoring preference, and the unit-path decomposition alone decides."""
    def reach(step: List[TreeMove]) -> Dict[Edge, int]:
        tree = cur
        for move in step:
            tree = apply_move(tree, move, eset)
        return tree

    if set(cur) == set(tg):
        fixup = [TreeMove("reversal", (tg[e], cur[e]))
                 for e in sorted(tg, key=lambda e2: rank[tg[e2]])
                 if cur[e] != tg[e]]
        if reach(fixup) != tg:
            raise RuntimeError("invariant broken: schedule did not reach the greedy tree")
        yield moves + tuple(fixup)
        return

    def blocked(u: int, w: int) -> bool:
        cap = _capacity(u, w, rank, coeffs, n_chosen)
        return cap is not None and cap < 1

    def penalty(path: List[int], s: int) -> int:
        # transitions the cascade would route across a zero capacity; each
        # sliding's edge {b,c} is an untouched edge of the current tree
        return sum((cur[_edge_key(b, c)] == c and blocked(c, b))
                   + blocked(b, a) for a, b, c in _cascade(path, s))

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
    for _, path, s in alts:
        step = []  # the cascade; each {b,c} is still an edge of cur
        for a, b, c in _cascade(path, s):
            if cur[_edge_key(b, c)] == c:
                step.append(TreeMove("reversal", (b, c)))  # pre-reversal
            step.append(TreeMove("sliding", (a, b, c)))
        yield from _schedules(reach(step), tg, eset, rank, coeffs, n_chosen,
                              moves + tuple(step))


def _capacity(u: int, w: int, rank: Sequence[int], coeffs: CoefficientTable,
              n_chosen: int) -> Optional[int]:
    """The coefficient a_{rank(w)}^u that bounds the transitions u -> w,
    or None when they are unbounded: u = w, or a transition touching an
    unchosen vertex, which has no greedy step to charge against."""
    if u == w or rank[u] > n_chosen or rank[w] > n_chosen:
        return None
    return coeffs.a[rank[w] - 1][u]


def _endpoint_checks(ends: Sequence[Arc], x0: Tuple[int, ...],
                     gamma: Tuple[int, ...], rank: Sequence[int]) -> dict:
    """The endpoint rules of a flow whose path i runs from ends[i][0] to
    ends[i][1], under the report fields that name them: admissibility
    (and the first violating path), bias (no path ends higher in greedy
    rank than it starts), final loads within gamma, and first and last
    levels equal to x0 and gamma.  Admissibility takes the paths in
    canonical order (cross-index paths first, then by terminal rank,
    source rank and id); the flow still waiting at a path's source j,
    this path included, must fit within its terminal t's load gamma[t]."""
    starts, loads = [0] * len(gamma), [0] * len(gamma)
    for j, t in ends:
        starts[j] += 1
        loads[t] += 1

    def canonical(i: int) -> Tuple[bool, int, int]:
        j, t = ends[i]
        return j == t, rank[t], rank[j]

    waiting, violating = list(starts), None
    for i in sorted(range(len(ends)), key=canonical):  # stable: ties by id
        j, t = ends[i]
        if waiting[j] > gamma[t]:
            violating = i
            break
        waiting[j] -= 1
    return {"admissible": violating is None, "violating_path": violating,
            "endpoints_biased": all(rank[j] >= rank[t] for j, t in ends),
            "per_node_loads_ok": all(map(le, loads, gamma)),
            "level_endpoints_ok": (tuple(starts) == x0
                                   and tuple(loads) == gamma)}


def _endpoints_pass(checks: dict) -> bool:
    return all(checks[k] for k in ("admissible", "endpoints_biased",
                                   "per_node_loads_ok", "level_endpoints_ok"))


def _replay(units: Sequence[int], arcs: Sequence[Arc],
            movers: Sequence[int]) -> MultiLevelFlow:
    """The flow in which transition t moves the lowest-index unit that
    started at movers[t] and stands at its source; unit i starts at
    units[i], and a transition u -> u moves no unit."""
    cur = list(units)
    paths = [[u] for u in units]
    for t, (src, dst) in enumerate(arcs):
        if src != dst:
            cur[next(i for i, (u, v) in enumerate(zip(units, cur))
                     if u == movers[t] and v == src)] = dst
        for p, v in zip(paths, cur):
            p.append(v)
    return MultiLevelFlow(tuple(map(tuple, paths)), tuple(arcs))


def _flows(units: Sequence[int], arcs: Sequence[Arc]
           ) -> Iterator[Tuple[Tuple[Arc, ...], List[int]]]:
    """Every flow of the units (unit i starts at units[i]) along arcs, as
    its sorted (start, end) pairs and the movers list _replay reads (the
    start of the unit making each transition; the next candidate
    overwrites it).  Units with one start and one position are
    interchangeable, so a state is the sorted (start, position) pairs,
    and a state reached again at the same transition is not expanded
    again: it ends every flow as it did the first time."""
    movers = [-1] * len(arcs)
    seen = set()

    def rec(t: int, state: Tuple[Arc, ...]
            ) -> Iterator[Tuple[Tuple[Arc, ...], List[int]]]:
        while t < len(arcs) and arcs[t][0] == arcs[t][1]:
            t += 1  # a transition u -> u moves no unit
        if (t, state) in seen:
            return
        seen.add((t, state))
        if t == len(arcs):
            yield state, movers
            return
        src, dst = arcs[t]
        for k, (j, p) in enumerate(state):
            if p == src and not (k and state[k - 1] == (j, p)):
                movers[t] = j
                yield from rec(t + 1, tuple(sorted(
                    state[:k] + ((j, dst),) + state[k + 1:])))

    return rec(0, tuple(zip(units, units)))


def transform_tree(inst: GraphInstance, opt: TreeCoverSolution,
                   greedy_sol: TreeCoverSolution, trace: GreedyTrace,
                   coeffs: CoefficientTable
                   ) -> Tuple[Tuple[TreeMove, ...], MultiLevelFlow]:
    """Find a move schedule from the optimal tree to the greedy tree whose
    induced multi-level flow passes _endpoint_checks.

    ``trace`` is the greedy run that charged ``greedy_sol`` and ``coeffs``
    its coefficient table, which orders the schedule's choices.  Raises
    ValueError when ``greedy_sol`` is charged unlike ``trace.cover``, and
    LookupError when no schedule within SCHEDULE_ATTEMPTS certifies.
    """
    x0, gamma, rank = opt.charge_vector(), trace.cover.x, trace.rank
    if greedy_sol.charge_vector() != gamma:
        raise ValueError("greedy solution charges disagree with the greedy trace")
    units = [v for v, k in enumerate(x0) for _ in range(k)]
    for moves in islice(_schedules(opt.as_dict(), greedy_sol.as_dict(),
                                   frozenset(inst.edges), rank, coeffs,
                                   trace.length), SCHEDULE_ATTEMPTS):
        arcs = [arc for mv in moves for arc in mv.arcs]
        for ends, movers in _flows(units, arcs):
            if _endpoints_pass(_endpoint_checks(ends, x0, gamma, rank)):
                return moves, _replay(units, arcs, movers)
    raise LookupError("no certifiable schedule found")


def flow_respects_capacities(flow: MultiLevelFlow, coeffs: CoefficientTable,
                             rank: Sequence[int], n_chosen: int) -> bool:
    """Cumulative flow on each transition within its _capacity: from a
    chosen vertex u to a distinct chosen vertex w, the coefficient
    a_{rank(w)}^u."""
    for (u, w), used in Counter(flow.arcs).items():
        cap = _capacity(u, w, rank, coeffs, n_chosen)
        if cap is not None and used > cap:
            return False
    return True


def _witness_tree(inst: GraphInstance, oracle: PolymatroidOracle,
                  x: Tuple[int, ...]) -> TreeCoverSolution:
    """A spanning tree of inst charged exactly x, an optimal vector of
    ``oracle = mest_oracle(inst)``.  x is a vertex of the base polytope,
    whose tight sets are closed under union and intersection, so its
    support has an order along which each marginal gain equals x_j,
    grown by the lowest such j at each step; complete_mest_solution
    turns it into the tree, charging step j's x_j edges to j.  A missing
    tight step raises RuntimeError."""
    pending = [j for j, v in enumerate(x) if v]
    order: List[int] = []
    w = 0
    while pending:
        gains = oracle.gains(w)
        j = next((j for j in pending if gains[j] == x[j]), None)
        if j is None:
            raise RuntimeError(f"invariant broken: no tight step extends "
                               f"{order} for cover {x}")
        pending.remove(j)
        order.append(j)
        w |= 1 << j
    return complete_mest_solution(inst, GreedyTrace.from_chain(
        inst.n_vertices, order, [x[j] for j in order]))


def _witnesses(inst: GraphInstance, oracle: PolymatroidOracle, opt: Optimum,
               greedy_edges: set) -> Iterator[Tuple[int, TreeCoverSolution]]:
    """(index, tree) per optimal cover, built as the caller asks: a tree
    with the greedy tree's edges at once, the others after the scan."""
    later = []
    for i, cover in enumerate(opt.covers):
        sol = _witness_tree(inst, oracle, cover.x)
        if set(sol.tree_edges) == greedy_edges:
            yield i, sol
        else:
            later.append((i, sol))
    yield from later


def verify_beta_one(inst: GraphInstance, oracle: PolymatroidOracle,
                    trace: GreedyTrace, opt: Optimum,
                    coeffs: CoefficientTable) -> dict:
    """The β = 1 certificate for one connected graph, from what the verify
    pipeline computed on ``oracle = mest_oracle(inst)``: the greedy
    ``trace``, its ``exact_cover`` optimum ``opt`` and the coefficient
    table ``coeffs`` of that trace.  It transforms an optimal tree
    (_witness_tree) into the greedy one, replays every move and checks
    the induced flow's bias, loads, endpoints, capacities and
    admissibility.  The entropy bound itself is the caller's: it needs
    only the two entropies.

    The certified multiplier is an infimum over constructions, so ONE
    transformable optimal witness suffices; witnesses sharing the greedy
    edge set are tried first (their schedules are pure reversals), and
    no tree is built past the one that transforms.  When none
    transforms, the report has the same keys with ``certified`` False,
    the last ``error``, and None for every check it could not run.  A
    replay that refuses a move is not certified either.
    """
    greedy_sol = complete_mest_solution(inst, trace)
    report = {"beta_witness": 1, "certified": False,
              "error": "no optimal witness", "witness_index": None,
              "admissible": None, "violating_path": None,
              "endpoints_biased": None, "intermediate_trees_ok": None,
              "reaches_greedy": None, "per_node_loads_ok": None,
              "level_endpoints_ok": None, "arc_capacities_ok": None,
              "moves": [], "levels": 0, "paths": []}
    for i, opt_sol in _witnesses(inst, oracle, opt,
                                 set(greedy_sol.tree_edges)):
        try:
            moves, flow = transform_tree(inst, opt_sol, greedy_sol,
                                         trace, coeffs)
            break
        except LookupError as exc:
            report["error"] = str(exc)
    else:
        return report

    # replay the moves: every intermediate is a spanning tree, and
    # apply_move refuses a move that does not fit
    eset = frozenset(inst.edges)
    state = opt_sol.as_dict()
    trees_ok = is_spanning_tree(inst.n_vertices, list(state))
    try:
        for mv in moves:
            state = apply_move(state, mv, eset)
            if not is_spanning_tree(inst.n_vertices, list(state)):
                trees_ok = False
        reaches_greedy = state == greedy_sol.as_dict()
    except ValueError:
        trees_ok = reaches_greedy = False

    checks = _endpoint_checks([(p[0], p[-1]) for p in flow.paths],
                              opt_sol.charge_vector(),
                              greedy_sol.charge_vector(), trace.rank)
    report.update(
        checks,
        certified=trees_ok and reaches_greedy and _endpoints_pass(checks),
        error=None,
        witness_index=i,
        intermediate_trees_ok=trees_ok,
        reaches_greedy=reaches_greedy,
        arc_capacities_ok=flow_respects_capacities(flow, coeffs, trace.rank,
                                                   trace.length),
        moves=[{"kind": m.kind, "vertices": list(m.vertices)} for m in moves],
        levels=flow.q,
        paths=[list(p) for p in flow.paths],
    )
    return report
