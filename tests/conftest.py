from entcover.certify import verify_beta_one
from entcover.exact import exact_mest
from entcover.greedy import coefficients, run_greedy
from entcover.instances import mest_oracle

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def beta_certificate(inst, tie_break="lowest", opt=None):
    """verify_beta_one on the inputs the verify pipeline builds: the
    greedy trace, the exact_mest optimum (unless ``opt`` is given) and
    the coefficient table, all on one oracle.  Returns the report with
    the trace and optimum behind it."""
    o = mest_oracle(inst)
    trace = run_greedy(o, tie_break)
    if opt is None:
        opt = exact_mest(inst, oracle=o)
    return verify_beta_one(inst, trace, opt, coefficients(o, trace)), trace, opt


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
