"""Property-based checks over randomly drawn instances and vectors."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from entcover.core import (Cover, check_polymatroid, entropy,
                           entropy_from_weight, validate_cover,
                           weight_product)
from entcover.flow import FlowNetwork, max_flow
from entcover.greedy import coefficients, run_greedy
from entcover.instances import (generate_random, mesc_oracle, meo_oracle,
                                mest_oracle, parse_instance,
                                serialize_instance)

covers = st.lists(st.integers(0, 12), min_size=1, max_size=8).filter(
    lambda xs: sum(xs) >= 1).map(lambda xs: Cover(tuple(xs)))


@given(covers)
def test_entropy_range(c):
    n = sum(c.x)
    h = entropy(c)
    assert -1e-12 <= h <= math.log2(n) + 1e-12


@given(covers, st.randoms(use_true_random=False))
def test_entropy_permutation_invariant(c, rng):
    xs = list(c.x)
    rng.shuffle(xs)
    assert entropy(Cover(tuple(xs))) == entropy(c)


@given(covers)
def test_entropy_matches_weight_route(c):
    n = sum(c.x)
    assert abs(entropy(c) - entropy_from_weight(weight_product(c.x), n)) < 1e-9


@given(st.integers(1, 30), st.integers(1, 30))
def test_merge_increases_weight(a, b):
    lo, hi = min(a, b), max(a, b)
    # moving one unit from the smaller to the larger part: weight up, entropy down
    merged = (lo - 1, hi + 1)
    assert weight_product(merged) > weight_product((lo, hi)) or lo - 1 < 0
    if lo >= 1:
        n = lo + hi
        assert entropy_from_weight(weight_product(merged), n) <= \
            entropy_from_weight(weight_product((lo, hi)), n) + 1e-12


kinds = st.sampled_from(["mesc", "meo", "mest"])


@settings(max_examples=40, deadline=None)
@given(kinds, st.integers(0, 10 ** 6))
def test_random_instances_wellformed(kind, seed):
    inst = generate_random(kind, seed)
    mk = {"mesc": mesc_oracle, "meo": meo_oracle, "mest": mest_oracle}[kind]
    o = mk(inst)
    if o.m <= 6:
        ok, _ = check_polymatroid(o)
        assert ok
    trace = run_greedy(o)
    valid, witness = validate_cover(o, trace.cover)
    assert valid, witness
    table = coefficients(o, trace)
    for j in range(o.m):
        assert sum(row[j] for row in table.a) == o.eval(1 << j)
        for row in table.a:
            assert row[j] >= 0
    for r in range(1, trace.length + 1):
        for j in range(o.m):
            acc = sum(table.a[i][j] for i in range(r))
            rem = o.eval(trace.prefixes[r - 1] | (1 << j)) - o.eval(trace.prefixes[r - 1])
            assert o.eval(1 << j) - acc == rem


arc_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 8)),
    min_size=1, max_size=12)


@given(arc_lists, st.randoms(use_true_random=False))
def test_max_flow_properties(raw, rng):
    arcs = [(u, v, c) for (u, v, c) in raw
            if u != v and v != 0 and u != 5]
    net = FlowNetwork(6, tuple(arcs), 0, 5)
    res = max_flow(net)
    out_cap = sum(c for (u, _, c) in arcs if u == 0)
    in_cap = sum(c for (_, v, c) in arcs if v == 5)
    assert 0 <= res.value <= min(out_cap, in_cap)
    assert all(isinstance(f, int) for f in res.flows)
    shuffled = list(zip(arcs, res.flows))
    rng.shuffle(shuffled)
    net2 = FlowNetwork(6, tuple(a for a, _ in shuffled), 0, 5)
    assert max_flow(net2).value == res.value


@settings(max_examples=30, deadline=None)
@given(kinds, st.integers(0, 10 ** 6))
def test_serialize_parse_round_trip(kind, seed):
    inst = generate_random(kind, seed)
    text = serialize_instance(inst)
    back = parse_instance(text)
    assert serialize_instance(back) == text
    assert type(back) is type(inst)
