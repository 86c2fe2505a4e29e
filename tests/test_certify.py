import pytest
from conftest import beta_certificate

from entcover.certify import (MultiLevelFlow, PathOrdering, TreeMove,
                              _Choices, _schedule_once, apply_move,
                              check_admissible, flow_respects_capacities,
                              is_spanning_tree, transform_tree)
from entcover.core import LOG2E, entropy
from entcover.exact import Optimum, exact_mest
from entcover.greedy import coefficients, run_greedy
from entcover.instances import (GraphInstance, TreeCoverSolution,
                                complete_mest_solution, generate_random,
                                mest_oracle)

TRIANGLE = GraphInstance(3, ((0, 1), (0, 2), (1, 2)))
P3 = GraphInstance(3, ((0, 1), (1, 2)))


def greedy_tree(inst, tie_break="lowest"):
    """The greedy tree with the trace and coefficient table behind it."""
    o = mest_oracle(inst)
    trace = run_greedy(o, tie_break)
    return complete_mest_solution(inst, trace), trace, coefficients(o, trace)


# under tie-break "highest", witness 2 of this graph has no certifiable
# schedule, while witness 3 (another edge set than greedy's) has one
UNCERTIFIABLE = generate_random("mest", 87116, n_vertices=7, extra_edge_prob=0.2)


def bound_holds(trace, opt):
    """The spanning-tree entropy bound with multiplier β = 1."""
    return entropy(trace.cover) <= opt.entropy + LOG2E + 1e-9


class TestTreeMove:
    def test_arity_validation(self):
        TreeMove("reversal", (0, 1))
        TreeMove("rotation", (0, 1, 2))
        TreeMove("sliding", (0, 1, 2))
        with pytest.raises(ValueError):
            TreeMove("reversal", (0, 1, 2))
        with pytest.raises(ValueError):
            TreeMove("sliding", (0, 1))
        with pytest.raises(ValueError):
            TreeMove("teleport", (0, 1))

    def test_levels(self):
        assert TreeMove("reversal", (0, 1)).levels == 1
        assert TreeMove("rotation", (0, 1, 2)).levels == 1
        assert TreeMove("sliding", (0, 1, 2)).levels == 2


class TestApplyMove:
    def test_reversal(self):
        tree = {(0, 1): 1, (1, 2): 2}
        out = apply_move(tree, TreeMove("reversal", (1, 2)), frozenset({(0, 1), (1, 2)}))
        assert out == {(0, 1): 1, (1, 2): 1}
        assert tree == {(0, 1): 1, (1, 2): 2}  # input untouched

    def test_reversal_wrong_orientation(self):
        tree = {(0, 1): 1}
        with pytest.raises(ValueError, match="invariant broken"):
            apply_move(tree, TreeMove("reversal", (1, 0)), frozenset({(0, 1)}))

    def test_rotation(self):
        # tree 0-1, 1-2 inside the triangle; rotate edge (1,2)@2 out for (0,2)@2
        tree = {(0, 1): 1, (1, 2): 2}
        out = apply_move(tree, TreeMove("rotation", (2, 1, 0)),
                         frozenset(TRIANGLE.edges))
        assert out == {(0, 1): 1, (0, 2): 2}

    def test_rotation_needs_graph_edge(self):
        tree = {(0, 1): 1, (1, 2): 2}
        with pytest.raises(ValueError, match="invariant broken"):
            apply_move(tree, TreeMove("rotation", (2, 1, 0)),
                       frozenset({(0, 1), (1, 2)}))

    def test_sliding(self):
        # rotation then reversal: (1,2)@1 replaced by (0,1)@0
        tree = {(0, 2): 2, (1, 2): 1}
        out = apply_move(tree, TreeMove("sliding", (0, 1, 2)),
                         frozenset(TRIANGLE.edges))
        assert out == {(0, 2): 2, (0, 1): 0}

    def test_sliding_needs_charge_at_pivot(self):
        tree = {(0, 2): 2, (1, 2): 2}  # charged at far end, not at b
        with pytest.raises(ValueError, match="invariant broken"):
            apply_move(tree, TreeMove("sliding", (0, 1, 2)),
                       frozenset(TRIANGLE.edges))


def test_is_spanning_tree():
    assert is_spanning_tree(3, [(0, 1), (1, 2)])
    assert not is_spanning_tree(3, [(0, 1)])
    assert not is_spanning_tree(4, [(0, 1), (1, 2), (0, 2)])
    assert is_spanning_tree(1, [])


class TestAdmissibility:
    def test_identity_flow_admissible(self):
        flow = MultiLevelFlow(0, (), (), ())
        ordering = PathOrdering(())
        ok, pid = check_admissible(flow, ordering, [2, 1, 0])
        assert ok and pid is None

    def test_hand_built_violation(self):
        # two units leave node 1 but its terminal only ever holds 1
        flow = MultiLevelFlow(2, ((2,), (0,)), ((1, 0), (1, 0)),
                              (((1, 0), (1, 0)),))
        ordering = PathOrdering((0, 1))
        ok, pid = check_admissible(flow, ordering, [1, 2])
        assert not ok
        assert pid == 0

    def test_single_unit_fits(self):
        flow = MultiLevelFlow(1, ((1,), (0,)), ((1, 0),), (((1, 0),),))
        ok, pid = check_admissible(flow, PathOrdering((0,)), [1, 2])
        assert ok


class TestTransform:
    def test_identity_no_moves(self):
        sol, trace, coeffs = greedy_tree(P3)
        moves, flow = transform_tree(P3, sol, sol, trace, coeffs)
        assert moves == ()
        assert flow.q == 0

    def test_triangle_witness(self):
        sol, trace, coeffs = greedy_tree(TRIANGLE)
        opt = exact_mest(TRIANGLE)
        # pick a witness whose tree differs from the greedy tree
        others = [s for s in opt.solutions
                  if set(s.tree_edges) != set(sol.tree_edges)]
        assert others
        moves, flow = transform_tree(TRIANGLE, others[0], sol, trace, coeffs)
        assert len(moves) >= 1
        # replay: every intermediate stays a spanning tree and lands on greedy
        cur = others[0].as_dict()
        for mv in moves:
            cur = apply_move(cur, mv, frozenset(TRIANGLE.edges))
            assert is_spanning_tree(TRIANGLE.n_vertices, list(cur))
        assert cur == sol.as_dict()

    def test_flow_levels_count_arcs(self):
        sol, trace, coeffs = greedy_tree(TRIANGLE)
        opt = exact_mest(TRIANGLE)
        others = [s for s in opt.solutions
                  if set(s.tree_edges) != set(sol.tree_edges)]
        moves, flow = transform_tree(TRIANGLE, others[0], sol, trace, coeffs)
        assert len(flow.arcs) == flow.q
        assert len(flow.levels) == flow.q + 1
        for p in flow.paths:
            assert len(p) == flow.q + 1
        # total moved levels match the schedule's levels
        assert flow.q == sum(mv.levels for mv in moves)

    def test_rejects_greedy_sol_charged_unlike_trace(self):
        sol, trace, coeffs = greedy_tree(P3)  # both edges charged at vertex 1
        other = TreeCoverSolution(3, ((0, 1), (1, 2)), (0, 1))
        with pytest.raises(ValueError, match="greedy trace"):
            transform_tree(P3, sol, other, trace, coeffs)

    def test_no_certifiable_schedule(self):
        sol, trace, coeffs = greedy_tree(UNCERTIFIABLE, "highest")
        witness = exact_mest(UNCERTIFIABLE).solutions[2]
        with pytest.raises(LookupError, match="no certifiable schedule"):
            transform_tree(UNCERTIFIABLE, witness, sol, trace, coeffs)

    def test_schedule_invariant_is_runtime_error(self):
        # a one-edge "greedy tree" leaves edge (1,2) with no crossing
        # replacement, which no pair of spanning trees can do
        sol, trace, coeffs = greedy_tree(P3)
        with pytest.raises(RuntimeError, match="no crossing greedy edge"):
            _schedule_once(sol.as_dict(), {(0, 1): 1}, trace.rank, coeffs,
                           trace.length, _Choices())


class TestVerifyBetaOne:
    def test_path_graph(self):
        rep, trace, _ = beta_certificate(P3)
        assert rep["certified"]
        assert rep["beta_witness"] == 1
        assert rep["moves"] == []
        assert entropy(trace.cover) == pytest.approx(0.0, abs=1e-12)

    def test_star_slack_is_log2e(self):
        star = GraphInstance(4, ((0, 1), (0, 2), (0, 3)))
        rep, trace, opt = beta_certificate(star)
        assert rep["certified"]
        slack = opt.entropy + LOG2E - entropy(trace.cover)
        assert slack == pytest.approx(LOG2E, abs=1e-12)

    def test_triangle(self):
        rep, trace, opt = beta_certificate(TRIANGLE)
        assert rep["certified"]
        assert bound_holds(trace, opt)
        assert entropy(trace.cover) == pytest.approx(0.0, abs=1e-12)
        assert opt.entropy == pytest.approx(0.0, abs=1e-12)

    def test_report_shape(self):
        keys = {"beta_witness", "certified", "error", "witness_index",
                "admissible", "violating_path", "endpoints_biased",
                "intermediate_trees_ok", "reaches_greedy",
                "per_node_loads_ok", "level_endpoints_ok",
                "arc_capacities_ok", "moves", "levels", "paths"}
        rep, _, _ = beta_certificate(TRIANGLE)
        assert set(rep) == keys
        assert rep["error"] is None
        # an uncertified report has the same keys
        opt = exact_mest(UNCERTIFIABLE)
        one = Optimum(opt.entropy, (opt.covers[2],), (opt.solutions[2],))
        rep, _, _ = beta_certificate(UNCERTIFIABLE, "highest", opt=one)
        assert rep["certified"] is False
        assert set(rep) == keys

    def test_hard_graph_relaxed_schedule(self):
        # the first schedule tried, for the first witness tried, certifies
        g = GraphInstance(6, ((0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (2, 4)))
        rep, trace, opt = beta_certificate(g)
        assert rep["certified"]
        assert bound_holds(trace, opt)

    def test_walks_past_uncertifiable_witness(self):
        opt = exact_mest(UNCERTIFIABLE)
        bad, good = opt.solutions[2], opt.solutions[3]
        sol, _, _ = greedy_tree(UNCERTIFIABLE, "highest")
        assert set(good.tree_edges) != set(sol.tree_edges)
        two = Optimum(opt.entropy, (opt.covers[2], opt.covers[3]), (bad, good))
        rep, _, _ = beta_certificate(UNCERTIFIABLE, "highest", opt=two)
        assert rep["certified"]
        assert rep["witness_index"] == 1

    def test_uncertified_report(self):
        opt = exact_mest(UNCERTIFIABLE)
        one = Optimum(opt.entropy, (opt.covers[2],), (opt.solutions[2],))
        rep, trace, opt = beta_certificate(UNCERTIFIABLE, "highest", opt=one)
        assert rep["certified"] is False
        assert bound_holds(trace, opt)
        assert "no certifiable schedule" in rep["error"]

    def test_seeded_batch(self):
        for seed in range(50):
            g = generate_random('mest', seed, n_vertices=5 + seed % 4)
            rep, trace, opt = beta_certificate(g)
            assert rep["certified"], seed
            assert bound_holds(trace, opt), seed
            assert rep["intermediate_trees_ok"], seed
            assert rep["admissible"], seed
            assert rep["endpoints_biased"], seed
            assert rep["per_node_loads_ok"], seed


def test_capacity_report():
    # same-tree witness has no arcs, so capacities hold trivially
    rep, _, _ = beta_certificate(P3)
    assert rep["arc_capacities_ok"]
    # the triangle's first schedule, for its first witness tried, respects
    # them too
    rep, _, _ = beta_certificate(TRIANGLE)
    assert rep["arc_capacities_ok"]


def test_flow_respects_capacities_empty():
    from entcover.greedy import coefficients
    o = mest_oracle(P3)
    trace = run_greedy(o)
    coeffs = coefficients(o, trace)
    flow = MultiLevelFlow(0, ((0, 2, 0),), ((1,), (1,)), ())
    assert flow_respects_capacities(flow, coeffs, trace.rank, trace.length)
