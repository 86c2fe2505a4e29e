from entcover import certify
from entcover.certify import TreeMove, verify_beta_one
from entcover.exact import exact_cover
from entcover.greedy import coefficients, run_greedy
from entcover.instances import mest_oracle

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def beta_certificate(inst, tie_break="lowest", opt=None):
    """verify_beta_one on the inputs the verify pipeline builds: the
    greedy trace, the exact_cover optimum (unless ``opt`` is given) and
    the coefficient table, all on one mest oracle.  Returns the report
    with the trace and optimum behind it."""
    o = mest_oracle(inst)
    trace = run_greedy(o, tie_break)
    if opt is None:
        opt = exact_cover(o)
    return (verify_beta_one(inst, o, trace, opt, coefficients(o, trace)),
            trace, opt)


def misfit_reversal(inst, opt, greedy_sol, trace, coeffs,
                    transform=certify.transform_tree):
    """transform_tree's schedule with one more reversal, toward the
    endpoint the greedy tree's first edge is not charged at: it does not
    fit the tree the schedule reaches."""
    moves, flow = transform(inst, opt, greedy_sol, trace, coeffs)
    (u, v), c = greedy_sol.tree_edges[0], greedy_sol.charge[0]
    return moves + (TreeMove("reversal", (c, u + v - c)),), flow


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
