"""The acceptance gate: one test per criterion, one printed line each.

Every test draws its own seeded instances, computes ground truth with the
exact solvers, and asserts the stated tolerance.  Lines are echoed into
the terminal summary by conftest.py.
"""

import math
import time
from fractions import Fraction

from conftest import beta_certificate, record_acceptance
from greedy_reference import specialized_coefficients
from mest_reference import mest_by_tree_enumeration

from entcover.core import (LOG2E, check_polymatroid, entropy,
                           entropy_from_weight, subset_violation,
                           weight_product)
from entcover.exact import (GuardError, exact_assignment_mesc, exact_cover,
                            exact_mest_entropy, exact_orientation)
from entcover.flow import approximation_bound, min_alpha
from entcover.greedy import coefficients, run_greedy
from entcover.instances import (GraphInstance, SetCoverInstance,
                                generate_random, hardness_gadget, mesc_oracle,
                                meo_oracle, mest_oracle,
                                reduction_entropy_relation)


def check(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


def seeded_instances():
    """The shared 200-instance suite: ~67 MESC, ~67 MEO, ~66 MEST."""
    out = []
    for seed in range(67):
        out.append(("mesc", generate_random(
            "mesc", seed, m=3 + seed % 6, n=6 + seed % 7)))
    for seed in range(67):
        out.append(("meo", generate_random(
            "meo", 1000 + seed, n_vertices=4 + seed % 5,
            extra_edge_prob=0.25)))
    for seed in range(66):
        out.append(("mest", generate_random(
            "mest", 2000 + seed, n_vertices=5 + seed % 4)))
    return out


def oracle_for(kind, inst):
    return {"mesc": mesc_oracle, "meo": meo_oracle, "mest": mest_oracle}[kind](inst)


def test_criterion_1_coefficient_identities():
    t0 = time.perf_counter()
    suite = seeded_instances()
    checked = 0
    for kind, inst in suite:
        o = oracle_for(kind, inst)
        trace = run_greedy(o)
        table = coefficients(o, trace)
        l, m = trace.length, o.m
        for r in range(1, l + 1):
            assert all(v >= 0 for v in table.row(r)), (kind, inst)
        for j in range(m):
            assert sum(table.row(r)[j] for r in range(1, l + 1)) == o.eval(1 << j)
            acc = 0
            for r in range(1, l + 1):
                acc += table.row(r)[j]
                rem = o.eval(trace.prefix(r) | (1 << j)) - o.eval(trace.prefix(r))
                assert o.eval(1 << j) - acc == rem
                assert isinstance(table.row(r)[j], int)
        checked += 1
    dt = time.perf_counter() - t0
    check(1, checked == 200 and dt < 10.0,
          f"coefficient identities exact on {checked}/200 instances in {dt:.2f}s (< 10s)")


def unit_alpha_suite():
    """MESC + MEO instances inside the exact solvers' guards."""
    pairs = []
    for seed in range(40):
        inst = generate_random("mesc", seed, m=3 + seed % 6, n=6 + seed % 7)
        pairs.append(("mesc", inst, mesc_oracle(inst),
                      exact_cover(mesc_oracle(inst)).covers))
    kept = 0
    seed = 0
    while kept < 40:
        g = generate_random("meo", 5000 + seed, n_vertices=4 + seed % 5,
                            extra_edge_prob=0.2)
        seed += 1
        if len(g.edges) > 16:
            continue
        pairs.append(("meo", g, meo_oracle(g), exact_orientation(g).covers))
        kept += 1
    return pairs


def test_criterion_2_unit_alpha():
    t0 = time.perf_counter()
    n_checked = 0
    for kind, inst, o, covers in unit_alpha_suite():
        trace = run_greedy(o)
        a = min_alpha(trace, covers, coefficients(o, trace))
        assert a == Fraction(1), (kind, inst, a)
        n_checked += 1
    dt = time.perf_counter() - t0
    check(2, n_checked == 80,
          f"min_alpha == 1 exactly on {n_checked} MESC/MEO instances in {dt:.2f}s")


def test_criterion_3_alpha_bound():
    t0 = time.perf_counter()
    suite = seeded_instances()
    checked = skipped = violations = 0
    for kind, inst in suite:
        o = oracle_for(kind, inst)
        trace = run_greedy(o)
        try:
            opt = exact_cover(oracle_for(kind, inst))
        except GuardError:
            skipped += 1
            continue
        # the DP returns its optima unchecked: check each against f here
        table = [o.eval(mask) for mask in range(1 << o.m)]
        assert all(subset_violation(table, c.x) is None
                   for c in opt.covers), (kind, inst)
        a = min_alpha(trace, opt.covers, coefficients(o, trace))
        rep = approximation_bound(entropy(trace.cover), opt.entropy, a,
                                  o.total())
        if not rep.holds:
            violations += 1
        checked += 1
    dt = time.perf_counter() - t0
    check(3, violations == 0 and checked + skipped == 200 and checked >= 150,
          f"entropy bound holds on {checked} instances "
          f"({skipped} past exact guard), 0 violations, {dt:.2f}s")


def test_criterion_4_beta_certificates():
    t0 = time.perf_counter()
    n_ok = 0
    for seed in range(100):
        g = generate_random("mest", 7000 + seed, n_vertices=5 + seed % 4)
        rep, trace, opt = beta_certificate(g)
        assert rep["certified"], (seed, rep["error"])
        assert rep["intermediate_trees_ok"], seed
        assert rep["reaches_greedy"], seed
        assert rep["admissible"], seed
        assert rep["per_node_loads_ok"], seed
        assert rep["endpoints_biased"], seed
        gb, ob = entropy(trace.cover), opt.entropy
        assert gb <= ob + LOG2E + 1e-9, seed
        n_ok += 1
    dt = time.perf_counter() - t0
    check(4, n_ok == 100 and dt < 60.0,
          f"beta=1 certificates on {n_ok}/100 graphs in {dt:.2f}s (< 60s)")


def test_criterion_5_alpha_at_least_one_and_loads():
    alphas = []
    for kind, inst, o, covers in unit_alpha_suite():
        trace = run_greedy(o)
        alphas.append(min_alpha(trace, covers, coefficients(o, trace)))
    for seed in range(25):
        g = generate_random("mest", 2000 + seed, n_vertices=5 + seed % 4)
        o = mest_oracle(g)
        covers = exact_cover(mest_oracle(g)).covers
        trace = run_greedy(o)
        alphas.append(min_alpha(trace, covers, coefficients(o, trace)))
    all_ge_one = all(a >= 1 for a in alphas)
    loads_ok = 0
    for seed in range(25):
        g = generate_random("mest", 9000 + seed, n_vertices=5 + seed % 4)
        rep, _, _ = beta_certificate(g)
        # equality at beta=1 is the strongest form of "at least the load"
        assert rep["per_node_loads_ok"], seed
        loads_ok += 1
    check(5, all_ge_one and loads_ok == 25,
          f"alpha >= 1 on {len(alphas)} instances; "
          f"per-node flow totals meet loads on {loads_ok} graphs")


def test_criterion_6_hardness_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        inst = generate_random("mesc", 300 + seed, m=2 + seed % 3,
                               n=2 + seed % 4, density=0.5)
        m, n = inst.m, inst.n_elements
        lam = exact_cover(mesc_oracle(inst)).entropy
        gadget, _roles = hardness_gadget(inst)
        mu = exact_mest_entropy(gadget)
        want = reduction_entropy_relation(m, n, lam)
        worst = max(worst, abs(mu - want))
    dt = time.perf_counter() - t0
    check(6, worst < 1e-9,
          f"gadget MEST optimum matches the entropy relation on 20 instances, "
          f"worst |delta| = {worst:.3e} (< 1e-9), {dt:.2f}s")


def test_criterion_7_oracle_soundness():
    t0 = time.perf_counter()
    fams = 0
    # one instance of each family with ground-set size exactly 10
    mesc10 = generate_random("mesc", 42, m=10, n=12)
    assert mesc_oracle(mesc10).m == 10
    ok, _ = check_polymatroid(mesc_oracle(mesc10))
    assert ok
    fams += 1
    g = None
    seed = 0
    while g is None or len(g.edges) != 10:
        g = generate_random("meo", seed, n_vertices=7, extra_edge_prob=0.2)
        seed += 1
    ok, _ = check_polymatroid(meo_oracle(g))
    assert ok
    fams += 1
    g10 = generate_random("mest", 4, n_vertices=10)
    assert mest_oracle(g10).m == 10
    ok, _ = check_polymatroid(mest_oracle(g10))
    assert ok
    fams += 1
    # smaller sizes exhaustively as well
    for size in range(2, 10):
        inst = generate_random("mesc", size, m=size, n=size + 2)
        ok, _ = check_polymatroid(mesc_oracle(inst))
        assert ok, size
        gg = generate_random("mest", size, n_vertices=max(3, size))
        ok, _ = check_polymatroid(mest_oracle(gg))
        assert ok, size
    # specialized coefficient formulas equal the generic table entry-wise
    matched = 0
    for seed in range(30):
        gm = generate_random("meo", seed, n_vertices=4 + seed % 5)
        tr = run_greedy(meo_oracle(gm))
        assert specialized_coefficients(gm, tr, "meo").a == \
            coefficients(meo_oracle(gm), tr).a, seed
        gt = generate_random("mest", seed, n_vertices=4 + seed % 6)
        tr = run_greedy(mest_oracle(gt))
        assert specialized_coefficients(gt, tr, "mest").a == \
            coefficients(mest_oracle(gt), tr).a, seed
        matched += 1
    dt = time.perf_counter() - t0
    check(7, fams == 3 and matched == 30,
          f"polymatroid checks pass up to ground set 10 for all families; "
          f"specialized == generic coefficients on {matched} graphs, {dt:.2f}s")


def test_criterion_8_cross_formulation():
    t0 = time.perf_counter()
    agreements = 0
    for seed in range(25):
        inst = generate_random("mesc", seed)
        a = exact_assignment_mesc(inst)
        b = exact_cover(mesc_oracle(inst))
        assert tuple(c.x for c in a.covers) == tuple(c.x for c in b.covers), seed
        agreements += 1
    kept = seed = 0
    while kept < 20:
        g = generate_random("meo", seed, n_vertices=4 + seed % 2,
                            extra_edge_prob=0.25)
        seed += 1
        if len(g.edges) > 8:
            continue
        a = exact_orientation(g)
        b = exact_cover(meo_oracle(g))
        assert tuple(c.x for c in a.covers) == tuple(c.x for c in b.covers), seed
        agreements += 1
        kept += 1
    for seed in range(20):
        g = generate_random("mest", seed, n_vertices=4 + seed % 4)
        a = mest_by_tree_enumeration(g)
        b = exact_cover(mest_oracle(g))
        assert tuple(c.x for c in a.covers) == tuple(c.x for c in b.covers), seed
        agreements += 1
    dt = time.perf_counter() - t0
    check(8, agreements == 65,
          f"all exact formulations agree on {agreements}/65 instances, {dt:.2f}s")


def test_criterion_9_merge_monotonicity():
    pairs = 0
    for b in range(1, 64):
        for a in range(1, b + 1):
            if a + b > 64:
                break
            w_before = weight_product((a, b))
            w_after = weight_product((a - 1, b + 1))
            assert w_after > w_before, (a, b)
            n = a + b
            assert entropy_from_weight(w_after, n) <= \
                entropy_from_weight(w_before, n) + 1e-12, (a, b)
            pairs += 1
    check(9, pairs > 0,
          f"merge monotonicity exact on all {pairs} integer pairs with a+b <= 64")
