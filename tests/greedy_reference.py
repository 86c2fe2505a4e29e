"""The coefficient table read straight off the oracle, a route
independent of the gain vectors behind greedy.coefficients.

Each entry is the second difference of f along the greedy prefixes,
evaluated as four oracle reads, so the table needs no closed form for
any family and holds for any set function with f(empty) = 0.
"""

from entcover.core import PolymatroidOracle
from entcover.greedy import CoefficientTable, GreedyTrace


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
