import pytest
from conftest import beta_certificate, misfit_reversal

from entcover import certify
from entcover.certify import (MultiLevelFlow, TreeMove, _endpoint_checks,
                              _schedules, apply_move,
                              flow_respects_capacities, is_spanning_tree,
                              transform_tree)
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


def witness_trees(inst):
    """The optimum of inst and the charged tree the certificate builds
    for each of its covers."""
    o = mest_oracle(inst)
    opt = exact_mest(inst)
    return opt, [certify._witness_tree(inst, o, c.x) for c in opt.covers]


def count_schedules(monkeypatch):
    """Record every _flows call transform_tree makes: one per schedule
    it tries."""
    calls = []
    flows = certify._flows

    def counted(*args):
        calls.append(args)
        return flows(*args)

    monkeypatch.setattr(certify, "_flows", counted)
    return calls


# under tie-break "highest", witness 2 of this graph has no certifiable
# schedule, while witness 3 (another edge set than greedy's) has one
UNCERTIFIABLE = generate_random("mest", 87116, n_vertices=7, extra_edge_prob=0.2)


def bound_holds(trace, opt):
    """The spanning-tree entropy bound with multiplier β = 1."""
    return entropy(trace.cover) <= opt.entropy + LOG2E + 1e-9


class TestTreeMove:
    def test_arity_validation(self):
        TreeMove("reversal", (0, 1))
        TreeMove("sliding", (0, 1, 2))
        with pytest.raises(ValueError):
            TreeMove("reversal", (0, 1, 2))
        with pytest.raises(ValueError):
            TreeMove("sliding", (0, 1))
        with pytest.raises(ValueError):
            TreeMove("teleport", (0, 1))

    def test_levels(self):
        # one transition per level: a reversal moves its unit w2 -> w1; a
        # sliding keeps it at b for the swap, then moves it b -> a
        assert TreeMove("reversal", (0, 1)).arcs == ((1, 0),)
        assert TreeMove("sliding", (0, 1, 2)).arcs == ((1, 1), (1, 0))

    def test_refuses_rotation(self):
        # a sliding is a swap followed by a reversal, emitted as one move;
        # no move swaps an edge on its own
        with pytest.raises(ValueError, match="unknown move kind 'rotation'"):
            TreeMove("rotation", (2, 1, 0))


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

    def test_sliding_needs_graph_edge(self):
        # sliding (0,1,2) swaps (1,2)@1 for (0,1), which the path 0-2-1
        # lacks; the same move is refused when (0,1) is already in the tree
        tree = {(0, 2): 2, (1, 2): 1}
        with pytest.raises(ValueError, match="sliding target unavailable"):
            apply_move(tree, TreeMove("sliding", (0, 1, 2)),
                       frozenset({(0, 2), (1, 2)}))
        with pytest.raises(ValueError, match="sliding target unavailable"):
            apply_move({(0, 1): 0, (1, 2): 1}, TreeMove("sliding", (0, 1, 2)),
                       frozenset(TRIANGLE.edges))

    def test_sliding(self):
        # swap then reversal: (1,2)@1 replaced by (0,1)@0
        tree = {(0, 2): 2, (1, 2): 1}
        out = apply_move(tree, TreeMove("sliding", (0, 1, 2)),
                         frozenset(TRIANGLE.edges))
        assert out == {(0, 2): 2, (0, 1): 0}

    def test_sliding_needs_charge_at_pivot(self):
        tree = {(0, 2): 2, (1, 2): 2}  # charged at far end, not at b
        with pytest.raises(ValueError, match="sliding edge not charged at b"):
            apply_move(tree, TreeMove("sliding", (0, 1, 2)),
                       frozenset(TRIANGLE.edges))


def test_is_spanning_tree():
    assert is_spanning_tree(3, [(0, 1), (1, 2)])
    assert not is_spanning_tree(3, [(0, 1)])
    assert not is_spanning_tree(4, [(0, 1), (1, 2), (0, 2)])
    assert is_spanning_tree(1, [])


class TestAdmissibility:
    # _endpoint_checks takes each path's (start, end) pair
    @staticmethod
    def admissible(ends, gamma, rank):
        checks = _endpoint_checks(ends, (), tuple(gamma), rank)
        return checks["admissible"], checks["violating_path"]

    def test_identity_flow_admissible(self):
        ok, pid = self.admissible((), [2, 1, 0], [0, 1, 2])
        assert ok and pid is None

    def test_hand_built_violation(self):
        # two units leave node 1 but its terminal only ever holds 1
        ok, pid = self.admissible(((1, 0), (1, 0)), [1, 2], [1, 2])
        assert not ok
        assert pid == 0

    def test_single_unit_fits(self):
        ok, pid = self.admissible(((1, 0),), [1, 2], [1, 2])
        assert ok

    def test_cross_index_paths_come_first(self):
        # path 0 stays at 1 and path 1 leaves it: in id order path 0 would
        # violate first, but the cross-index path 1 is checked first
        assert self.admissible(((1, 1), (1, 0)), [1, 1], [1, 2]) == (False, 1)
        # here path 0 has the lower terminal rank, yet the cross-index
        # path 1 still goes first and finds both units waiting at 0
        assert self.admissible(((0, 0), (0, 1)), [2, 1], [1, 2]) == (False, 1)


class TestTransform:
    def test_identity_no_moves(self):
        sol, trace, coeffs = greedy_tree(P3)
        moves, flow = transform_tree(P3, sol, sol, trace, coeffs)
        assert moves == ()
        assert flow.q == 0

    def test_triangle_witness(self):
        sol, trace, coeffs = greedy_tree(TRIANGLE)
        _, trees = witness_trees(TRIANGLE)
        # pick a witness whose tree differs from the greedy tree
        others = [s for s in trees
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
        # the flow's transitions are the moves' arcs in schedule order,
        # and every path visits all q + 1 levels
        for inst in [TRIANGLE] + [generate_random("mest", seed,
                                                  n_vertices=5 + seed % 3)
                                  for seed in range(12)]:
            sol, trace, coeffs = greedy_tree(inst)
            for witness in witness_trees(inst)[1]:
                moves, flow = transform_tree(inst, witness, sol, trace, coeffs)
                assert flow.arcs == tuple(a for mv in moves for a in mv.arcs)
                assert flow.q == len(flow.arcs)
                assert all(len(p) == flow.q + 1 for p in flow.paths)

    def test_rejects_greedy_sol_charged_unlike_trace(self):
        sol, trace, coeffs = greedy_tree(P3)  # both edges charged at vertex 1
        other = TreeCoverSolution(3, ((0, 1), (1, 2)), (0, 1))
        with pytest.raises(ValueError, match="greedy trace"):
            transform_tree(P3, sol, other, trace, coeffs)

    def test_no_certifiable_schedule(self):
        sol, trace, coeffs = greedy_tree(UNCERTIFIABLE, "highest")
        witness = witness_trees(UNCERTIFIABLE)[1][2]
        with pytest.raises(LookupError, match="no certifiable schedule"):
            transform_tree(UNCERTIFIABLE, witness, sol, trace, coeffs)

    def test_second_schedule_certifies(self, monkeypatch):
        # the first schedule's transitions admit no certifying flow, so
        # the schedule search backtracks once and the second certifies
        g = generate_random("mest", 267, n_vertices=7, extra_edge_prob=0.3)
        sol, trace, coeffs = greedy_tree(g)
        calls = count_schedules(monkeypatch)
        transform_tree(g, witness_trees(g)[1][0], sol, trace, coeffs)
        assert len(calls) == 2

    def test_schedule_budget(self, monkeypatch):
        # the same witness needs two schedules: a budget of one gives up
        g = generate_random("mest", 267, n_vertices=7, extra_edge_prob=0.3)
        sol, trace, coeffs = greedy_tree(g)
        witness = witness_trees(g)[1][0]
        assert certify.SCHEDULE_ATTEMPTS == 20000
        monkeypatch.setattr(certify, "SCHEDULE_ATTEMPTS", 1)
        with pytest.raises(LookupError, match="no certifiable schedule found"):
            transform_tree(g, witness, sol, trace, coeffs)
        monkeypatch.setattr(certify, "SCHEDULE_ATTEMPTS", 2)
        transform_tree(g, witness, sol, trace, coeffs)

    def test_flow_search_backtracks(self, monkeypatch):
        # the flow search first gives each transition to the first unit
        # standing at its source; on this graph that candidate is not
        # biased, so the first schedule certifies with a later candidate,
        # the only one whose path table is built
        g = generate_random("mest", 801, n_vertices=6, extra_edge_prob=0.2)
        calls = count_schedules(monkeypatch)
        replays = []
        replay = certify._replay

        def counted(*args):
            replays.append(args)
            return replay(*args)

        monkeypatch.setattr(certify, "_replay", counted)
        rep, trace, opt = beta_certificate(g, "highest")
        assert rep["certified"] and len(calls) == 1 and len(replays) == 1
        witness = witness_trees(g)[1][rep["witness_index"]]
        sol, _, coeffs = greedy_tree(g, "highest")
        moves = next(_schedules(witness.as_dict(), sol.as_dict(),
                                frozenset(g.edges), trace.rank, coeffs,
                                trace.length))
        arcs = [a for mv in moves for a in mv.arcs]
        x0 = witness.charge_vector()
        pos = [v for v in range(g.n_vertices) for _ in range(x0[v])]
        units = list(pos)
        for src, dst in arcs:
            if src != dst:
                pos[pos.index(src)] = dst
        assert not all(trace.rank[u] >= trace.rank[t] for u, t in zip(units, pos))
        assert sorted((p[0], p[-1]) for p in rep["paths"]) != sorted(zip(units, pos))

    def test_schedule_invariant_is_runtime_error(self):
        # a one-edge "greedy tree" leaves edge (1,2) with no crossing
        # replacement, which no pair of spanning trees can do
        sol, trace, coeffs = greedy_tree(P3)
        with pytest.raises(RuntimeError, match="no crossing greedy edge"):
            next(_schedules(sol.as_dict(), {(0, 1): 1}, frozenset(P3.edges),
                            trace.rank, coeffs, trace.length))


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
        one = Optimum(opt.entropy, (opt.covers[2],))
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
        opt, trees = witness_trees(UNCERTIFIABLE)
        sol, _, _ = greedy_tree(UNCERTIFIABLE, "highest")
        assert set(trees[3].tree_edges) != set(sol.tree_edges)
        two = Optimum(opt.entropy, (opt.covers[2], opt.covers[3]))
        rep, _, _ = beta_certificate(UNCERTIFIABLE, "highest", opt=two)
        assert rep["certified"]
        assert rep["witness_index"] == 1

    def test_uncertified_report(self):
        opt = exact_mest(UNCERTIFIABLE)
        one = Optimum(opt.entropy, (opt.covers[2],))
        rep, trace, opt = beta_certificate(UNCERTIFIABLE, "highest", opt=one)
        assert rep["certified"] is False
        assert bound_holds(trace, opt)
        assert "no certifiable schedule" in rep["error"]

    @pytest.mark.parametrize("inst, tie_break, index", [
        (TRIANGLE, "highest", 0),
        (generate_random("mest", 6, n_vertices=6), "highest", 0),
        (generate_random("mest", 8, n_vertices=6), "lowest", 6),
    ])
    def test_builds_no_witness_past_the_certified_one(self, monkeypatch,
                                                      inst, tie_break, index):
        # each certifying witness has the greedy tree's edges, so it is
        # tried as soon as it is built, and the later covers stay vectors
        built = []
        witness_tree = certify._witness_tree

        def counted(graph, oracle, x):
            built.append(x)
            return witness_tree(graph, oracle, x)

        monkeypatch.setattr(certify, "_witness_tree", counted)
        rep, _, opt = beta_certificate(inst, tie_break)
        assert rep["certified"] and rep["witness_index"] == index
        assert built == [c.x for c in opt.covers[:index + 1]]
        assert len(opt.covers) > index + 1

    def test_broken_schedule_is_uncertified(self, monkeypatch):
        # a move the replay refuses fails the certificate; it is not an
        # input error
        monkeypatch.setattr(certify, "transform_tree", misfit_reversal)
        rep, _, _ = beta_certificate(TRIANGLE)
        assert rep["certified"] is False
        assert rep["intermediate_trees_ok"] is False
        assert rep["reaches_greedy"] is False
        assert rep["moves"][-1]["kind"] == "reversal"

    @pytest.mark.parametrize("tie_break, n_moves, levels", [
        ("lowest", 43, 70), ("highest", 46, 75)])
    def test_at_verify_size_limit(self, tie_break, n_moves, levels):
        # 16 vertices, the most verify's exact layer takes: the deepest
        # schedule search the CLI runs
        g = generate_random("mest", 6, n_vertices=16, extra_edge_prob=0.3)
        rep, trace, opt = beta_certificate(g, tie_break)
        assert rep["certified"]
        assert len(rep["moves"]) == n_moves and rep["levels"] == levels
        assert bound_holds(trace, opt)

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
    flow = MultiLevelFlow(((1,), (1,)), ())
    assert flow_respects_capacities(flow, coeffs, trace.rank, trace.length)
