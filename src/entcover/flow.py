"""Integer max-flow and the covering-coefficient computation.

The covering coefficient of a greedy run is probed on a two-layer
network: source -> one node per element (capacity = that element's
optimal allocation) -> one node per greedy step (capacity = the
coefficient table entry) -> sink (capacity = scaled step marginal).
Feasibility of full value n at scale alpha means the optimal cover can
be rearranged onto the greedy steps within a factor alpha.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .core import LOG2E, Cover
from .greedy import CoefficientTable, GreedyTrace


@dataclass(frozen=True)
class FlowNetwork:
    n_nodes: int
    arcs: Tuple[Tuple[int, int, int], ...]  # (from, to, capacity)
    source: int
    sink: int

    def __post_init__(self) -> None:
        for (u, v, cap) in self.arcs:
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"arc ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-arc at node {u}")
            if cap < 0:
                raise ValueError(f"negative capacity on arc ({u},{v})")
            if v == self.source:
                raise ValueError("arc into the source")
            if u == self.sink:
                raise ValueError("arc out of the sink")


@dataclass(frozen=True)
class FlowResult:
    value: int
    flows: Tuple[int, ...]  # parallel to network arcs


def max_flow(net: FlowNetwork) -> FlowResult:
    """Edmonds-Karp (BFS augmenting paths); integral since capacities are."""
    n = net.n_nodes
    # residual graph: adjacency of arc ids; arc 2i = forward, 2i+1 = backward
    cap: List[int] = []
    to: List[int] = []
    adj: List[List[int]] = [[] for _ in range(n)]
    for (u, v, c) in net.arcs:
        adj[u].append(len(cap)); to.append(v); cap.append(c)
        adj[v].append(len(cap)); to.append(u); cap.append(0)
    value = 0
    while True:
        prev_arc = [-1] * n
        prev_arc[net.source] = -2
        q = deque([net.source])
        while q:
            x = q.popleft()
            if x == net.sink:
                break
            for a in adj[x]:
                if cap[a] > 0 and prev_arc[to[a]] == -1:
                    prev_arc[to[a]] = a
                    q.append(to[a])
        if prev_arc[net.sink] == -1:
            break
        # bottleneck along the path
        push = None
        x = net.sink
        while x != net.source:
            a = prev_arc[x]
            push = cap[a] if push is None else min(push, cap[a])
            x = to[a ^ 1]
        x = net.sink
        while x != net.source:
            a = prev_arc[x]
            cap[a] -= push
            cap[a ^ 1] += push
            x = to[a ^ 1]
        value += push
    flows = tuple(cap[2 * i + 1] for i in range(len(net.arcs)))
    return FlowResult(value, flows)


def build_alpha_network(optimal: Cover, trace: GreedyTrace,
                        coeffs: CoefficientTable,
                        sink_caps: Sequence[int]) -> FlowNetwork:
    """Two-layer probe network; see the module docstring.

    Node layout: 0 = source, 1..m = element nodes, m+1..m+l = greedy-step
    nodes, m+l+1 = sink.
    """
    m = len(optimal.x)
    l = trace.length
    if coeffs.steps != l or any(len(row) != m for row in coeffs.a):
        raise ValueError("dimension mismatch between trace and coefficient table")
    if len(sink_caps) != l:
        raise ValueError("dimension mismatch: need one sink capacity per greedy step")
    arcs: List[Tuple[int, int, int]] = []
    src = 0
    sink = m + l + 1
    for j in range(m):
        arcs.append((src, 1 + j, optimal.x[j]))
    for r in range(l):
        for j in range(m):
            arcs.append((1 + j, 1 + m + r, coeffs.a[r][j]))
    for r in range(l):
        arcs.append((1 + m + r, sink, int(sink_caps[r])))
    return FlowNetwork(m + l + 2, tuple(arcs), src, sink)


def extract_assignment(net: FlowNetwork, result: FlowResult, m: int,
                       steps: int) -> Tuple[Tuple[int, ...], ...]:
    """Read the middle-layer flows as a steps x m allocation matrix."""
    z = [[0] * m for _ in range(steps)]
    for (u, v, _cap), f in zip(net.arcs, result.flows):
        if 1 <= u <= m and m + 1 <= v <= m + steps:
            z[v - m - 1][u - 1] = f
    return tuple(tuple(row) for row in z)


def check_assignment(z: Sequence[Sequence[int]], optimal: Cover,
                     coeffs: CoefficientTable) -> bool:
    """The allocation constraints behind the covering coefficient:
    columns sum to the optimal allocation, entries within coefficients."""
    m = len(optimal.x)
    for r, row in enumerate(z):
        for j in range(m):
            if not 0 <= row[j] <= coeffs.a[r][j]:
                return False
    for j in range(m):
        if sum(row[j] for row in z) != optimal.x[j]:
            return False
    return True


def min_alpha(trace: GreedyTrace, optimal_covers: Sequence[Cover],
              coeffs: CoefficientTable) -> Fraction:
    """Smallest scale factor admitting a full-value flow, as an exact
    rational, for the greedy ``trace`` and its coefficient table
    ``coeffs``.  The full value n = f(U) is the greedy cover's total.

    Only multiples c/delta_r can change any floor(alpha*delta_r), so the
    finite ascending candidate sweep is exact; the first feasible
    candidate over any supplied optimal cover is returned.  The sweep
    starts at 1: for alpha < 1 every positive marginal has
    floor(alpha*delta_r) <= alpha*delta_r < delta_r, so the sink
    capacities sum to less than sum(delta_r) = n and no flow of value n
    exists.  Hence the result is >= 1.
    """
    if not optimal_covers:
        raise ValueError("need at least one optimal cover")
    n = trace.cover.total
    deltas = trace.deltas
    cands = sorted({Fraction(c, d) for d in deltas for c in range(d, n + 1)})
    for alpha in cands:
        caps = [(alpha.numerator * d) // alpha.denominator for d in deltas]
        for cover in optimal_covers:
            net = build_alpha_network(cover, trace, coeffs, caps)
            if max_flow(net).value == n:
                return alpha
    raise ValueError("infeasible")


@dataclass(frozen=True)
class BoundReport:
    lhs: float          # greedy entropy, bits
    rhs: float          # bound value, bits
    alpha: Fraction
    holds: bool
    slack: float        # rhs - lhs, bits


def approximation_bound(ent_greedy: float, ent_opt: float, alpha: Fraction,
                        n: int, tol: float = 1e-9) -> BoundReport:
    """The greedy-vs-optimal entropy bound at a given covering coefficient:
    greedy <= (1/alpha)(opt + log2 e) + (1 - 1/alpha) log2 n."""
    inv = 1.0 / float(alpha)
    rhs = inv * (ent_opt + LOG2E) + (1.0 - inv) * math.log2(n)
    return BoundReport(ent_greedy, rhs, alpha, ent_greedy <= rhs + tol,
                       rhs - ent_greedy)
