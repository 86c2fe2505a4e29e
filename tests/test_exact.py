import itertools
import math
import random
import time

import pytest

from entcover import certify, exact
from entcover.core import (Cover, PolymatroidOracle,
                           check_polymatroid, entropy_from_weight,
                           subset_violation, validate_cover, weight_product)
from entcover.exact import (GUARD_MSG, GuardError, exact_assignment_mesc,
                            exact_cover, exact_mest, exact_mest_entropy,
                            exact_orientation)
from entcover.instances import (GraphInstance, SetCoverInstance,
                                generate_random, mesc_oracle, meo_oracle,
                                mest_oracle)
from cover_reference import optimal_covers
from mest_reference import mest_by_tree_enumeration

SETS = SetCoverInstance(3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({2})))
TRIANGLE = GraphInstance(3, ((0, 1), (0, 2), (1, 2)))
P3 = GraphInstance(3, ((0, 1), (1, 2)))
PATH21 = GraphInstance(21, tuple((i, i + 1) for i in range(20)))


def xs(opt):
    return tuple(c.x for c in opt.covers)


def witness_trees(g, opt):
    """The charged tree the β = 1 certificate builds for each optimum,
    each checked to be a spanning tree of g charged exactly as its
    cover says."""
    o = mest_oracle(g)
    trees = []
    for c in opt.covers:
        sol = certify._witness_tree(g, o, c.x)
        assert len(sol.tree_edges) == g.n_vertices - 1
        assert set(sol.tree_edges) <= set(g.edges)
        assert sol.charge_vector() == c.x
        trees.append(sol)
    return trees


def assert_valid_covers(oracle, opt):
    """Every optimum respects f on every subset: the DP returns them
    unchecked, since a polymatroid's chain vectors are valid covers."""
    table = [oracle.eval(mask) for mask in range(1 << oracle.m)]
    for c in opt.covers:
        assert subset_violation(table, c.x) is None, c.x


def test_set_cover_optimum():
    opt = exact_cover(mesc_oracle(SETS))
    assert opt.entropy == pytest.approx(0.9182958340544896, abs=1e-10)
    assert xs(opt) == ((1, 2, 0), (2, 0, 1), (2, 1, 0))
    o = mesc_oracle(SETS)
    for c in opt.covers:
        ok, _ = validate_cover(o, c)
        assert ok


def test_optimum_weight_consistency():
    for seed in range(10):
        inst = generate_random('mesc', seed)
        o = mesc_oracle(inst)
        opt = exact_cover(o)
        n = o.total()
        weights = {weight_product(c.x) for c in opt.covers}
        assert len(weights) == 1  # all optima share the max weight
        w = weights.pop()
        assert opt.entropy == pytest.approx(entropy_from_weight(w, n), abs=1e-12)


def test_guards():
    big_m = SetCoverInstance(17, tuple(frozenset({i}) for i in range(17)))
    with pytest.raises(ValueError, match=GUARD_MSG):
        exact_cover(mesc_oracle(big_m))
    wide = SetCoverInstance(21, tuple(frozenset(range(21)) for _ in range(17)))
    with pytest.raises(ValueError, match=GUARD_MSG):
        exact_cover(mesc_oracle(wide))
    # the guard bounds the DP's work, which f(U) does not enter
    pair = SetCoverInstance(21, (frozenset(range(21)), frozenset(range(21))))
    assert xs(exact_cover(mesc_oracle(pair))) == ((0, 21), (21, 0))


def test_every_guard_raises_guard_error():
    big_m = SetCoverInstance(17, tuple(frozenset({i}) for i in range(17)))
    # 8 elements in 16 sets each: the seventh layer brings the assignment
    # search's expansions to 1,193,808, past 2^20
    many_owners = SetCoverInstance(8, tuple(frozenset(range(8)) for _ in range(16)))
    path17 = GraphInstance(17, tuple((i, i + 1) for i in range(16)))
    for solve in (lambda: exact_cover(mesc_oracle(big_m)),
                  lambda: exact_assignment_mesc(many_owners),
                  lambda: exact_orientation(complete_graph(8)),
                  lambda: exact_mest(path17),
                  lambda: exact_mest_entropy(PATH21)):
        with pytest.raises(GuardError, match=GUARD_MSG):
            solve()


def compositions(total, m):
    """Every nonnegative integer vector of length m summing to total."""
    if m == 1:
        yield (total,)
        return
    for v in range(total + 1):
        for rest in compositions(total - v, m - 1):
            yield (v,) + rest


def brute_force_optimum(oracle):
    """Reference optimum: score every vector validate_cover accepts."""
    total = oracle.total()
    best_w, best = -1, []
    for x in compositions(total, oracle.m):
        if not validate_cover(oracle, Cover(x))[0]:
            continue
        w = weight_product(x)
        if w > best_w:
            best_w, best = w, [x]
        elif w == best_w:
            best.append(x)
    return tuple(sorted(best)), entropy_from_weight(best_w, total)


def planted_set_function(m, seed):
    """A set function outside the polymatroid axioms with a known cover:
    f(S) = x*(S) + random slack, and f(U) = x*(U) exactly."""
    rng = random.Random(seed)
    planted = [rng.randrange(4) for _ in range(m)]
    full = (1 << m) - 1
    vals = [0] + [sum(planted[j] for j in range(m) if s >> j & 1)
                  + (0 if s == full else rng.randrange(3))
                  for s in range(1, full + 1)]
    return PolymatroidOracle(m, vals.__getitem__)


def test_matches_brute_force_reference():
    oracles = []
    for seed in range(4):
        oracles += [
            mesc_oracle(generate_random('mesc', seed, m=3 + seed % 3, n=6)),
            meo_oracle(generate_random('meo', 100 + seed,
                                       n_vertices=4 + seed % 2)),
            mest_oracle(generate_random('mest', 200 + seed,
                                        n_vertices=4 + seed % 3)),
        ]
    for i, o in enumerate(oracles):
        covers, ent = brute_force_optimum(o)
        opt = exact_cover(o)
        assert xs(opt) == covers, i
        assert opt.entropy == ent, i
    # the enumerator reaches any set function's optima; the DP needs a
    # polymatroid and refuses this one
    odd = planted_set_function(5, 7)
    assert not check_polymatroid(odd)[0]
    covers, ent = brute_force_optimum(odd)
    ref = optimal_covers(odd)
    assert xs(ref) == covers
    assert ref.entropy == ent
    with pytest.raises(ValueError, match="not a polymatroid"):
        exact_cover(odd)


def test_non_polymatroid_is_refused_with_a_counterexample():
    # every planted function the DP refuses is caught by the axiom check,
    # which names a pair that fails one of the axioms
    refused = 0
    for m in (3, 4, 5):
        for seed in range(30):
            o = planted_set_function(m, seed)
            ok, pair = check_polymatroid(o)
            if ok:
                assert xs(exact_cover(o)) == xs(optimal_covers(o))
                continue
            expect = ("degenerate" if o.total() == 0 else
                      f"not a polymatroid: subsets {pair[0]} and {pair[1]} ")
            with pytest.raises(ValueError, match=expect) as err:
                exact_cover(o)
            assert not isinstance(err.value, GuardError)
            refused += 1
    assert refused > 60


def complete_graph(n):
    return GraphInstance(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle_graph(n):
    return GraphInstance(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


def symmetric_oracles():
    """Oracles on which many predecessors of a state attain its best
    weight, so the tying last steps decide every optimum."""
    yield from (meo_oracle(cycle_graph(n)) for n in (8, 9, 10))
    yield from (mest_oracle(cycle_graph(n)) for n in (8, 9, 10))
    yield from (mest_oracle(complete_graph(n)) for n in (6, 7))
    yield meo_oracle(complete_graph(5))
    # 4 disjoint pairs of identical 2-element sets
    yield mesc_oracle(SetCoverInstance(8, tuple(
        frozenset({2 * (i // 2), 2 * (i // 2) + 1}) for i in range(8))))


def test_dp_matches_reference_enumerator():
    # 1,000 seeded oracles, m = 3-7, and ten symmetric ones, m = 5-10:
    # same covers in the same order, bit-identical entropy.  Dense mest
    # and a set holding the whole universe reach f(U) early, where the
    # DP ends its chains.
    count = 0
    for seed in range(200):
        sets = generate_random('mesc', 4000 + seed, m=2 + seed % 5,
                               n=6 + seed % 7)
        whole = SetCoverInstance(sets.n_elements, sets.sets + (
            frozenset(range(sets.n_elements)),))
        for o in (mesc_oracle(generate_random('mesc', seed, m=3 + seed % 5,
                                              n=6 + seed % 7)),
                  meo_oracle(generate_random('meo', 1000 + seed,
                                             n_vertices=4 + seed % 4,
                                             extra_edge_prob=0.25)),
                  mest_oracle(generate_random('mest', 2000 + seed,
                                              n_vertices=4 + seed % 4,
                                              extra_edge_prob=0.3)),
                  mest_oracle(generate_random('mest', 3000 + seed,
                                              n_vertices=4 + seed % 4,
                                              extra_edge_prob=0.6)),
                  mesc_oracle(whole)):
            opt, ref = exact_cover(o), optimal_covers(o)
            assert xs(opt) == xs(ref), (seed, o.m)
            assert opt.entropy == ref.entropy, (seed, o.m)
            assert_valid_covers(o, opt)
            count += 1
    for o in symmetric_oracles():
        opt, ref = exact_cover(o), optimal_covers(o)
        assert xs(opt) == xs(ref), o.m
        assert opt.entropy == ref.entropy, o.m
        assert len(opt.covers) > 1, o.m
        assert_valid_covers(o, opt)
        count += 1
    assert count == 1010


def test_many_optima_at_sixteen_sets():
    # 8 disjoint pairs of identical 2-element sets: each pair's block goes
    # whole to either set, so the optima are all 2^8 such choices
    inst = SetCoverInstance(16, tuple(frozenset({2 * (i // 2), 2 * (i // 2) + 1})
                                      for i in range(16)))
    o = mesc_oracle(inst)
    opt = exact_cover(o)
    expect = sorted(sum(choice, ()) for choice in
                    itertools.product(((0, 2), (2, 0)), repeat=8))
    assert xs(opt) == tuple(expect)
    assert opt.entropy == pytest.approx(3.0, abs=1e-12)
    assert_valid_covers(o, opt)


def test_degenerate_total():
    o = PolymatroidOracle(2, lambda s: 0)
    with pytest.raises(ValueError):
        exact_cover(o)


def test_symmetric_instance_covers_closed_under_swap():
    inst = SetCoverInstance(2, (frozenset({0, 1}), frozenset({0, 1})))
    opt = exact_cover(mesc_oracle(inst))
    assert xs(opt) == ((0, 2), (2, 0))
    for a, b in xs(opt):
        assert (b, a) in xs(opt)


def test_assignment_route_agrees():
    for seed in range(25):
        inst = generate_random('mesc', seed)
        a = exact_assignment_mesc(inst)
        b = exact_cover(mesc_oracle(inst))
        assert xs(a) == xs(b), seed
        assert a.entropy == pytest.approx(b.entropy, abs=1e-12)


def test_assignment_search_takes_many_elements():
    # one layer of count vectors per element, not one call frame
    opt = exact_assignment_mesc(SetCoverInstance(1200, (frozenset(range(1200)),)))
    assert xs(opt) == ((1200,),)
    assert opt.entropy == 0.0


def test_orientation_trivial_cases():
    star = GraphInstance(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    assert exact_orientation(star).entropy == pytest.approx(0.0, abs=1e-12)
    single = GraphInstance(2, ((0, 1),))
    assert exact_orientation(single).entropy == pytest.approx(0.0, abs=1e-12)


def test_orientation_triangle():
    opt = exact_orientation(TRIANGLE)
    assert weight_product(opt.covers[0].x) == 4
    # every orientation giving in-degrees (2,1,0) in some order is optimal
    assert len(opt.covers) == 6
    assert sorted(set(xs(opt))) == sorted(xs(opt))


def test_orientation_route_agrees():
    for seed in range(20):
        g = generate_random('meo', seed)
        a = exact_orientation(g)
        b = exact_cover(meo_oracle(g))
        assert xs(a) == xs(b), seed


def test_orientation_guards():
    # full K8 needs 3,332,282 expansions, past 2^20
    with pytest.raises(ValueError, match=GUARD_MSG):
        exact_orientation(complete_graph(8))
    with pytest.raises(ValueError):
        exact_orientation(GraphInstance(1, ()))


def test_assignment_guard_bounds_its_work():
    # the guard counts expanded count vectors, so work a proxy refused
    # runs: K7's 21 edges (188,634 expansions), and 12 elements in four
    # of 8 sets each (4^12 owner choices) plus private elements, which
    # never branch
    k7 = complete_graph(7)
    rng = random.Random(1)
    sets = [set() for _ in range(8)]
    for e in range(12):
        for k in rng.sample(range(8), 4):
            sets[k].add(e)
    for e in range(12, 60):
        sets[e % 8].add(e)
    shared = SetCoverInstance(60, tuple(map(frozenset, sets)))
    for got, want in ((exact_orientation(k7), exact_cover(meo_oracle(k7))),
                      (exact_assignment_mesc(shared),
                       exact_cover(mesc_oracle(shared)))):
        assert xs(got) == xs(want)
        assert got.entropy == pytest.approx(want.entropy, abs=1e-12)


def test_mest_path():
    opt = exact_mest(P3)
    assert xs(opt) == ((0, 2, 0),)
    assert opt.entropy == pytest.approx(0.0, abs=1e-12)


def test_mest_triangle():
    opt = exact_mest(TRIANGLE)
    assert xs(opt) == ((0, 0, 2), (0, 2, 0), (2, 0, 0))
    assert len(witness_trees(TRIANGLE, opt)) == 3


def test_mest_route_agrees():
    for seed in range(15):
        g = generate_random('mest', seed, n_vertices=4 + seed % 4)
        a = mest_by_tree_enumeration(g)
        b = exact_cover(mest_oracle(g))
        assert xs(a) == xs(b), seed
        assert a.entropy == pytest.approx(b.entropy, abs=1e-12)
        assert xs(exact_mest(g)) == xs(b), seed


def test_mest_nine_vertices_matches_tree_enumeration():
    for seed in range(3):
        g = generate_random('mest', 300 + seed, n_vertices=9,
                            extra_edge_prob=0.1)
        ref = mest_by_tree_enumeration(g)
        opt = exact_mest(g)
        assert xs(opt) == xs(ref), seed
        assert opt.entropy == ref.entropy, seed
        witness_trees(g, opt)
        # exact_cover and exact_mest share one DP and one guard
        assert xs(exact_cover(mest_oracle(g))) == xs(opt), seed


def test_mest_ten_to_twelve_vertices_match_tree_dp():
    # past the former n <= 9 guard: the optimum matches the independent
    # spanning-tree route, and every tree is charged as its cover says
    for seed in range(6):
        g = generate_random('mest', 400 + seed, n_vertices=10 + seed % 3,
                            extra_edge_prob=0.1)
        opt = exact_mest(g)
        assert opt.entropy == pytest.approx(exact_mest_entropy(g), abs=1e-12)
        witness_trees(g, opt)


def test_tight_order_of_a_non_vertex_is_internal_error():
    # (1, 1, 0) is a cover of the triangle's spanning-tree polymatroid but
    # not a vertex of it: every singleton has f({j}) = 2 > 1
    o = mest_oracle(TRIANGLE)
    assert validate_cover(o, Cover((1, 1, 0)))[0]
    with pytest.raises(RuntimeError, match="no tight step"):
        certify._witness_tree(TRIANGLE, o, (1, 1, 0))
    sol = certify._witness_tree(TRIANGLE, o, (0, 2, 0))
    assert sol.as_dict() == {(0, 1): 1, (1, 2): 1}


def test_mest_guards():
    big = GraphInstance(17, tuple((i, i + 1) for i in range(16)))
    with pytest.raises(ValueError, match=GUARD_MSG):
        exact_mest(big)
    with pytest.raises(ValueError, match="connected"):
        exact_mest(GraphInstance(4, ((0, 1), (2, 3))))
    # the oracle refuses a disconnected graph before the DP's guard runs
    with pytest.raises(ValueError, match="connected") as err:
        exact_mest(GraphInstance(17, tuple((i, i + 1) for i in range(15))))
    assert not isinstance(err.value, GuardError)


def test_mest_single_vertex():
    with pytest.raises(ValueError):
        exact_mest(GraphInstance(1, ()))


def test_mest_entropy_shortcut():
    for seed in range(12):
        g = generate_random('mest', seed, n_vertices=4 + seed % 5)
        assert exact_mest_entropy(g) == pytest.approx(exact_mest(g).entropy, abs=1e-12)
    # the DP route handles graphs past the witness solver's guard
    star12 = GraphInstance(12, tuple((0, i) for i in range(1, 12)))
    assert exact_mest_entropy(star12) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(GuardError, match=GUARD_MSG):
        exact_mest_entropy(PATH21)


def test_mest_entropy_guard_counts_spanning_trees():
    # the guard bounds the work, one tree DP per spanning tree: K9 has
    # 9^7 trees and is refused at once; K8's 8^6 pass the guard, and the
    # search stops at its first tree, a star, which reaches the largest
    # weight any tree can, 7^7
    t0 = time.perf_counter()
    with pytest.raises(GuardError, match=GUARD_MSG):
        exact_mest_entropy(complete_graph(9))
    assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    assert exact_mest_entropy(complete_graph(8)) == 0.0
    assert time.perf_counter() - t0 < 1.0
    # the count is the matrix-tree determinant, exact on every graph
    assert [exact._spanning_tree_count(complete_graph(n)) for n in range(1, 10)] \
        == [1] + [n ** (n - 2) for n in range(2, 10)]
    for seed in range(60):
        g = generate_random('mest', seed, n_vertices=2 + seed % 7,
                            extra_edge_prob=0.1 * (seed % 6))
        assert exact._spanning_tree_count(g) == \
            sum(1 for _ in exact._spanning_trees(g.n_vertices, g.edges)), seed


def test_greedy_never_beats_exact():
    from entcover.greedy import run_greedy
    for seed in range(15):
        for kind, mk in (("mesc", mesc_oracle), ("meo", meo_oracle), ("mest", mest_oracle)):
            inst = generate_random(kind, seed)
            o = mk(inst)
            g = entropy_from_weight(weight_product(run_greedy(o).cover.x), o.total())
            assert g >= exact_cover(mk(inst)).entropy - 1e-12, (kind, seed)


def test_witness_trees_parallel_covers():
    for seed in range(10):
        g = generate_random('mest', seed)
        opt = exact_mest(g)
        trees = witness_trees(g, opt)
        assert tuple(s.charge_vector() for s in trees) == xs(opt)
