import random

import pytest

from entcover.core import GroundSet, PolymatroidOracle, entropy, validate_cover
from entcover.greedy import GreedyTrace, coefficients, run_greedy
from entcover.instances import (GraphInstance, SetCoverInstance,
                                generate_random, mesc_oracle, meo_oracle,
                                mest_oracle, realise_cover)
from greedy_reference import coefficients_by_eval, specialized_coefficients
from mest_reference import rank_by_union_find

SETS = SetCoverInstance(3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({2})))
TRIANGLE = GraphInstance(3, ((0, 1), (0, 2), (1, 2)))


def test_set_cover_example():
    trace = run_greedy(mesc_oracle(SETS))
    assert trace.order == (0, 1)
    assert trace.deltas == (2, 1)
    assert trace.cover.x == (2, 1, 0)
    assert trace.length == 2
    assert trace.prefix(0) == 0
    assert trace.prefix(1) == 0b001
    assert trace.prefix(2) == 0b011
    # 1-based ranks: chosen in order, then the unchosen set
    assert trace.rank == (1, 2, 3)


def test_orientation_triangle_example():
    trace = run_greedy(meo_oracle(TRIANGLE))
    assert trace.deltas == (2, 1)
    assert entropy(trace.cover) == pytest.approx(0.9182958340544896, abs=1e-10)


def test_greedy_cover_always_valid():
    for seed in range(25):
        inst = generate_random('mesc', seed)
        o = mesc_oracle(inst)
        trace = run_greedy(o)
        ok, _ = validate_cover(o, trace.cover)
        assert ok
        assert all(d >= 1 for d in trace.deltas)
        assert sum(trace.deltas) == o.total()


def test_rejects_zero_total():
    o = PolymatroidOracle(GroundSet(2), lambda s: 0)
    with pytest.raises(ValueError, match="at least 1"):
        run_greedy(o)


def test_rejects_nonzero_empty_value():
    # the gains are measured against f(S), so f(empty) != 0 is refused
    # up front rather than folded into the first gain
    o = PolymatroidOracle(GroundSet(2), lambda s: 1 + bin(s).count("1"))
    for lazy in (False, True):
        with pytest.raises(ValueError, match=r"f\(∅\) must be 0, got 1"):
            run_greedy(o, lazy=lazy)


def test_stall_detection():
    # 0 everywhere except the full set: greedy cannot make progress
    o = PolymatroidOracle(GroundSet(2), lambda s: 2 if s == 0b11 else 0)
    with pytest.raises(ValueError, match="stalled"):
        run_greedy(o)


def test_non_monotone_detection():
    vals = {0: 0, 0b01: 2, 0b10: 2, 0b11: 1}
    o = PolymatroidOracle(GroundSet(2), lambda s: vals[s])
    with pytest.raises(ValueError, match="non-monotone"):
        run_greedy(o)


def test_tie_break_policies():
    # perfectly symmetric instance: two disjoint pairs
    inst = SetCoverInstance(4, (frozenset({0, 1}), frozenset({2, 3})))
    o = mesc_oracle(inst)
    assert run_greedy(o, tie_break="lowest").order == (0, 1)
    assert run_greedy(o, tie_break="highest").order == (1, 0)
    r1 = run_greedy(o, tie_break="random:7").order
    assert r1 == run_greedy(o, tie_break="random:7").order
    with pytest.raises(ValueError):
        run_greedy(o, tie_break="coin-flip")


def test_lazy_equals_naive():
    for seed in range(20):
        for kind, mk in (("mesc", mesc_oracle), ("meo", meo_oracle), ("mest", mest_oracle)):
            inst = generate_random(kind, seed)
            o1, o2 = mk(inst), mk(inst)
            for policy in ("lowest", "highest", "random:3"):
                a = run_greedy(o1, tie_break=policy, lazy=False)
                b = run_greedy(o2, tie_break=policy, lazy=True)
                assert a == b, (kind, seed, policy)


def test_coefficient_table_example():
    o = mesc_oracle(SETS)
    trace = run_greedy(o)
    table = coefficients(o, trace)
    assert table.a == ((2, 1, 0), (0, 1, 1))
    assert table.row(1) == (2, 1, 0)
    assert table.steps == 2


def coeff_identities(o, trace, table):
    m = o.m
    l = trace.length
    # nonnegative, diagonal = deltas, chosen column zero afterwards
    for r in range(1, l + 1):
        row = table.row(r)
        assert all(v >= 0 for v in row)
        assert row[trace.order[r - 1]] == trace.deltas[r - 1]
    for k, j in enumerate(trace.order, start=1):
        for r in range(k + 1, l + 1):
            assert table.row(r)[j] == 0
    # column sums hit the singleton values
    for j in range(m):
        assert sum(table.row(r)[j] for r in range(1, l + 1)) == o.eval(1 << j)
    # partial sums track the remaining marginal of j after r steps
    for j in range(m):
        acc = 0
        for r in range(1, l + 1):
            acc += table.row(r)[j]
            lhs = o.eval(1 << j) - acc
            rhs = o.eval(trace.prefix(r) | (1 << j)) - o.eval(trace.prefix(r))
            assert lhs == rhs, (j, r)


def test_coefficient_identities_random():
    for seed in range(15):
        for kind, mk in (("mesc", mesc_oracle), ("meo", meo_oracle), ("mest", mest_oracle)):
            inst = generate_random(kind, seed)
            o = mk(inst)
            trace = run_greedy(o)
            coeff_identities(o, trace, coefficients(o, trace))


ORACLES = (("mesc", mesc_oracle), ("meo", meo_oracle), ("mest", mest_oracle))


def random_mask(rng, m, density):
    return sum(1 << j for j in range(m) if rng.random() < density)


def random_chain(rng, m, steps):
    """Bases along a growing chain that now and then jumps to a mask that
    does not contain the last one, so a family oracle's kept state both
    grows and starts again."""
    s = 0
    for _ in range(steps):
        if s and rng.random() < 0.2:
            s = random_mask(rng, m, rng.choice((0.05, 0.3))) & ~(s & -s)
        else:
            s |= random_mask(rng, m, rng.choice((0.02, 0.1)))
        yield s


def family_instance(kind, seed, m):
    if kind == "mesc":
        return generate_random(kind, seed, m=m, n=2 * m, density=0.1)
    return generate_random(kind, seed, n_vertices=m,
                           extra_edge_prob=0.05 + 0.1 * (seed % 3))


@pytest.mark.parametrize("kind,make", ORACLES, ids=[k for k, _ in ORACLES])
def test_family_gains_match_eval(kind, make):
    # the closed-form gain vector and single gains against f(S + j) - f(S)
    # read through eval, up to and past 63 elements: sparse to dense
    # masks, then the bases of a chain; gains and gain take turns at
    # growing the kept state
    rng = random.Random(kind)
    for seed in range(24):
        m = (3, 9, 20, 40, 63, 80)[seed % 6]
        inst = family_instance(kind, seed, m)
        o = make(inst)
        masks = [0, (1 << m) - 1] + [random_mask(rng, m, d)
                                     for d in (0.05, 0.15, 0.3, 0.6, 0.9)]
        for step, s in enumerate(masks + list(random_chain(rng, m, 14))):
            if step % 2:
                gains = o.gains(s)
                single = [o.gain(s, j) for j in range(m)]
            else:
                single = [o.gain(s, j) for j in range(m)]
                gains = o.gains(s)
            want = [o.eval(s | 1 << j) - o.eval(s) for j in range(m)]
            assert gains == want, (kind, seed, s)
            assert single == want, (kind, seed, s)
            assert all(gains[j] == 0 for j in range(m) if s >> j & 1)
        with pytest.raises(ValueError, match="outside the ground set"):
            o.gains(1 << m)
        with pytest.raises(ValueError, match="outside the ground set"):
            o.gain(1 << m, 0)
        with pytest.raises(ValueError, match="outside the ground set"):
            o.gain(0, m)
        with pytest.raises(ValueError, match="outside the ground set"):
            o.gain(0, -1)


@pytest.mark.parametrize("kind,make", ORACLES, ids=[k for k, _ in ORACLES])
def test_lazy_equals_naive_at_scale(kind, make):
    for seed in range(3):
        inst = family_instance(kind, seed, 63)
        for policy in ("lowest", "highest", f"random:{seed}"):
            naive = run_greedy(make(inst), tie_break=policy)
            assert run_greedy(make(inst), tie_break=policy, lazy=True) == naive, \
                (seed, policy)


@pytest.mark.parametrize("kind,make", ORACLES, ids=[k for k, _ in ORACLES])
def test_family_greedy_reads_only_empty_and_full_set(kind, make):
    # both greedy variants read every marginal from the kept state: the
    # subset function runs only for f(∅) and f(U)
    for lazy in (False, True):
        o = make(family_instance(kind, 4, 40))
        calls = []
        fn = o._fn
        o._fn = lambda sub: calls.append(sub) or fn(sub)
        run_greedy(o, lazy=lazy)
        assert sorted(calls) == [0, (1 << 40) - 1], lazy


def test_mest_gains_match_union_find():
    # a third route for the spanning-tree gains: the rank by contraction
    rng = random.Random(3)
    for seed in range(10):
        g = family_instance("mest", seed, 30)
        o = mest_oracle(g)
        for _ in range(10):
            s = random_mask(rng, 30, rng.choice((0.1, 0.3, 0.6)))
            base = rank_by_union_find(g, s)
            assert o.gains(s) == [rank_by_union_find(g, s | 1 << j) - base
                                  for j in range(30)], (seed, s)


def test_generic_gains_read_through_eval():
    o = PolymatroidOracle(GroundSet(3), lambda s: min(2, bin(s).count("1")))
    assert o.gains(0) == [1, 1, 1]
    assert o.gains(0b001) == [0, 1, 1]
    assert o.gains(0b011) == [0, 0, 0]
    assert [o.gain(0b001, j) for j in range(3)] == [0, 1, 1]
    assert [o.gain(0b011, j) for j in range(3)] == [0, 0, 0]
    with pytest.raises(ValueError, match="outside the ground set"):
        o.gains(0b1000)
    with pytest.raises(ValueError, match="outside the ground set"):
        o.gain(0b1000, 0)
    with pytest.raises(ValueError, match="outside the ground set"):
        o.gain(0, 3)
    with pytest.raises(ValueError, match="outside the ground set"):
        o.gain(0, -1)


@pytest.mark.parametrize("kind,make", ORACLES, ids=[k for k, _ in ORACLES])
def test_coefficients_match_eval_reference(kind, make):
    # gain-vector differences against the four-read second differences
    for seed in range(30):
        m = 2 + seed % 25
        inst = family_instance(kind, seed, m)
        for tie_break in ("lowest", "highest"):
            o = make(inst)
            trace = run_greedy(o, tie_break=tie_break)
            assert coefficients(o, trace) == coefficients_by_eval(make(inst), trace), \
                (kind, seed, tie_break)


def test_specialized_meo_matches_generic():
    for seed in range(40):
        g = generate_random('meo', seed, n_vertices=4 + seed % 5)
        o = meo_oracle(g)
        trace = run_greedy(o)
        assert specialized_coefficients(g, trace, "meo").a == coefficients(o, trace).a


def test_specialized_mest_matches_generic():
    for seed in range(40):
        g = generate_random('mest', seed, n_vertices=4 + seed % 7)
        o = mest_oracle(g)
        trace = run_greedy(o)
        assert specialized_coefficients(g, trace, "mest").a == coefficients(o, trace).a


def test_specialized_rejects_bad_inputs():
    trace = run_greedy(mest_oracle(TRIANGLE))
    with pytest.raises(TypeError):
        specialized_coefficients(SETS, run_greedy(mesc_oracle(SETS)), "meo")
    with pytest.raises(ValueError):
        specialized_coefficients(TRIANGLE, trace, "mesc")


def test_random_policy_still_valid():
    rng = random.Random(0)
    for _ in range(10):
        seed = rng.randint(0, 10 ** 6)
        inst = generate_random('meo', seed)
        o = meo_oracle(inst)
        trace = run_greedy(o, tie_break=f"random:{seed}")
        ok, _ = validate_cover(o, trace.cover)
        assert ok


WITNESS_ORACLES = {"mesc": mesc_oracle, "meo": meo_oracle, "mest": mest_oracle}


@pytest.mark.parametrize("kind", sorted(WITNESS_ORACLES))
def test_realisation_witness_agrees_with_exhaustive_check(kind):
    # two independent routes to validity: the linear-time realisation
    # along the greedy order, and the 2^m subset sweep
    for seed in range(30):
        m = 4 + seed % 9
        params = ({"m": m, "n": 2 * m} if kind == "mesc"
                  else {"n_vertices": m})
        inst = generate_random(kind, seed, **params)
        for tie_break in ("lowest", "highest", f"random:{seed}"):
            o = WITNESS_ORACLES[kind](inst)
            trace = run_greedy(o, tie_break=tie_break)
            assert realise_cover(inst, kind, trace) == trace.cover.x, (seed, tie_break)
            assert validate_cover(o, trace.cover)[0] is True, (seed, tie_break)


def test_realisation_refuses_incomplete_orders():
    # the last greedy step is dropped: something stays uncovered
    for kind, inst in (("mesc", SETS), ("meo", TRIANGLE), ("mest", TRIANGLE)):
        trace = run_greedy(WITNESS_ORACLES[kind](inst))
        cut = GreedyTrace.from_chain(len(trace.rank), trace.order[:-1],
                                     trace.deltas[:-1])
        assert realise_cover(inst, kind, cut) is None, kind
    # a step whose gain is not the tree's marginal has no charged tree
    wrong = GreedyTrace.from_chain(3, (0,), (1,))
    assert realise_cover(TRIANGLE, "mest", wrong) is None
    with pytest.raises(ValueError):
        realise_cover(TRIANGLE, "tree", wrong)
