"""Coefficient tables by two routes independent of the gain vectors
behind greedy.coefficients.

coefficients_by_eval reads each entry straight off the oracle: the
second difference of f along the greedy prefixes, evaluated as four
oracle reads, so the table needs no closed form for any family and
holds for any set function with f(empty) = 0.

specialized_coefficients gives the two graph families' tables in
closed form, from the graph itself rather than from any oracle.
"""

from typing import List, Tuple

from entcover.core import PolymatroidOracle
from entcover.greedy import CoefficientTable, GreedyTrace
from entcover.instances import GraphInstance, find


def coefficients_by_eval(oracle: PolymatroidOracle,
                         trace: GreedyTrace) -> CoefficientTable:
    """a[r][j] = (f(W_r) - f(W_{r-1})) - (f(W_r + j) - f(W_{r-1} + j)),
    with every term an oracle.eval call: 2·l·m reads in all."""
    rows = []
    prev, f_prev = 0, 0
    for w in trace.prefixes:
        f_w = oracle.eval(w)
        rows.append(tuple(
            (f_w - f_prev) - (oracle.eval(w | 1 << j) - oracle.eval(prev | 1 << j))
            for j in range(oracle.m)))
        prev, f_prev = w, f_w
    return CoefficientTable(tuple(rows))


def specialized_coefficients(inst: GraphInstance, trace: GreedyTrace,
                             problem: str) -> CoefficientTable:
    """Closed-form coefficient tables for the two graph families.

    problem="meo":  a[r][j] = delta_r on the diagonal, 1 when j is an
    unchosen-so-far neighbor of the step's vertex, else 0.

    problem="mest": on the contracted graph where every component touched
    by W_{r-1} is fused, a[r][j] counts how many distinct foreign
    components adjacent to i_r disappear when j's edges are contracted
    too — i.e. (components i_r would newly merge) minus (the same after
    j is added first).  Diagonal delta_r; zero on chosen elements.

    Must agree entry-wise with :func:`coefficients` on the generic
    oracle; that equality is asserted in the test suite.
    """
    if not isinstance(inst, GraphInstance):
        raise TypeError("specialized coefficients exist only for graph instances")
    if problem not in ("meo", "mest"):
        raise ValueError(f"unknown problem kind '{problem}'")
    n = inst.n_vertices
    adj: List[set] = [set() for _ in range(n)]
    for (u, v) in inst.edges:
        adj[u].add(v)
        adj[v].add(u)
    rows: List[Tuple[int, ...]] = []
    if problem == "meo":
        for r in range(trace.length):
            ir = trace.order[r]
            w_prev = trace.prefixes[r - 1] if r else 0
            row = []
            for j in range(n):
                if j == ir:
                    row.append(trace.deltas[r])
                elif (w_prev >> j) & 1:
                    row.append(0)
                elif j in adj[ir]:
                    row.append(1)
                else:
                    row.append(0)
            rows.append(tuple(row))
        return CoefficientTable(tuple(rows))

    # mest: per step, a disjoint-set forest with the edges touching
    # W_{r-1} contracted; per element, a copy with its own edges added
    def merged_components(parent: List[int], ir: int) -> int:
        own = find(parent, ir)
        return len({find(parent, k) for k in adj[ir]} - {own})

    for r in range(trace.length):
        ir = trace.order[r]
        w_prev = trace.prefixes[r - 1] if r else 0
        parent = list(range(n))
        for (u, v) in inst.edges:
            if (w_prev >> u) & 1 or (w_prev >> v) & 1:
                parent[find(parent, u)] = find(parent, v)
        base = merged_components(parent, ir)
        row = []
        for j in range(n):
            if j == ir:
                row.append(trace.deltas[r])
            elif (w_prev >> j) & 1:
                row.append(0)
            else:
                with_j = parent.copy()
                for k in adj[j]:
                    with_j[find(with_j, k)] = find(with_j, j)
                row.append(base - merged_components(with_j, ir))
        rows.append(tuple(row))
    return CoefficientTable(tuple(rows))
