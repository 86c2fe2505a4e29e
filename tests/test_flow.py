import random
import unittest
from fractions import Fraction

from entcover.core import LOG2E, entropy
from entcover.exact import exact_cover
from entcover.flow import (FlowNetwork, approximation_bound,
                           build_alpha_network, check_assignment,
                           extract_assignment, max_flow, min_alpha)
from entcover.greedy import coefficients, run_greedy
from entcover.instances import (GraphInstance, SetCoverInstance,
                                generate_random, mesc_oracle, meo_oracle,
                                mest_oracle)


class MaxFlowBasics(unittest.TestCase):
    def test_single_arc(self):
        net = FlowNetwork(2, ((0, 1, 7),), 0, 1)
        self.assertEqual(max_flow(net).value, 7)

    def test_disjoint_paths(self):
        net = FlowNetwork(4, ((0, 1, 3), (1, 3, 3), (0, 2, 5), (2, 3, 5)), 0, 3)
        self.assertEqual(max_flow(net).value, 8)

    def test_bottleneck(self):
        net = FlowNetwork(5, ((0, 1, 5), (0, 2, 5), (1, 3, 5), (2, 3, 5), (3, 4, 1)), 0, 4)
        self.assertEqual(max_flow(net).value, 1)

    def test_zero_capacity(self):
        net = FlowNetwork(2, ((0, 1, 0),), 0, 1)
        self.assertEqual(max_flow(net).value, 0)

    def test_conservation_and_capacity_random(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(4, 9)
            arcs = []
            for u in range(n - 1):
                for v in range(u + 1, n):
                    if v != 0 and u != n - 1 and rng.random() < 0.45:
                        arcs.append((u, v, rng.randint(0, 9)))
            net = FlowNetwork(n, tuple(arcs), 0, n - 1)
            res = max_flow(net)
            self.assertEqual(len(res.flows), len(arcs))
            excess = [0] * n
            for (u, v, cap), f in zip(arcs, res.flows):
                self.assertTrue(0 <= f <= cap)
                self.assertIsInstance(f, int)
                excess[u] -= f
                excess[v] += f
            self.assertEqual(excess[net.sink], res.value)
            self.assertEqual(excess[net.source], -res.value)
            for w in range(1, n - 1):
                self.assertEqual(excess[w], 0)

    def test_arc_order_invariance(self):
        rng = random.Random(23)
        base = [(0, 1, 4), (0, 2, 3), (1, 2, 2), (1, 3, 2), (2, 3, 5)]
        want = max_flow(FlowNetwork(4, tuple(base), 0, 3)).value
        for _ in range(20):
            shuf = base[:]
            rng.shuffle(shuf)
            self.assertEqual(max_flow(FlowNetwork(4, tuple(shuf), 0, 3)).value, want)


class NetworkValidation(unittest.TestCase):
    def test_arc_into_source(self):
        with self.assertRaises(ValueError):
            FlowNetwork(3, ((1, 0, 1),), 0, 2)

    def test_arc_out_of_sink(self):
        with self.assertRaises(ValueError):
            FlowNetwork(3, ((2, 1, 1),), 0, 2)

    def test_negative_capacity(self):
        with self.assertRaises(ValueError):
            FlowNetwork(2, ((0, 1, -1),), 0, 1)

    def test_self_arc(self):
        with self.assertRaises(ValueError):
            FlowNetwork(2, ((1, 1, 1),), 0, 1)

    def test_out_of_range(self):
        with self.assertRaises(ValueError):
            FlowNetwork(2, ((0, 5, 1),), 0, 1)


class AlphaNetwork(unittest.TestCase):
    def setUp(self):
        self.inst = SetCoverInstance(
            3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({2})))
        self.oracle = mesc_oracle(self.inst)
        self.trace = run_greedy(self.oracle)
        self.coeffs = coefficients(self.oracle, self.trace)
        self.opt = exact_cover(mesc_oracle(self.inst))

    def test_full_value_at_unit_alpha(self):
        n = self.oracle.total()
        for cover in self.opt.covers:
            net = build_alpha_network(cover, self.trace, self.coeffs,
                                      list(self.trace.deltas))
            self.assertEqual(max_flow(net).value, n)

    def test_zero_coefficients_block_everything(self):
        zero = type(self.coeffs)(tuple(tuple(0 for _ in row) for row in self.coeffs.a))
        net = build_alpha_network(self.opt.covers[0], self.trace, zero,
                                  list(self.trace.deltas))
        self.assertEqual(max_flow(net).value, 0)

    def test_generous_sink_caps(self):
        n = self.oracle.total()
        net = build_alpha_network(self.opt.covers[0], self.trace, self.coeffs,
                                  [n] * self.trace.length)
        self.assertEqual(max_flow(net).value, n)

    def test_dimension_mismatch(self):
        with self.assertRaises(ValueError):
            build_alpha_network(self.opt.covers[0], self.trace, self.coeffs, [1])

    def test_extract_and_check_assignment(self):
        n = self.oracle.total()
        cover = self.opt.covers[0]
        net = build_alpha_network(cover, self.trace, self.coeffs,
                                  list(self.trace.deltas))
        res = max_flow(net)
        self.assertEqual(res.value, n)
        z = extract_assignment(net, res, self.oracle.m, self.trace.length)
        self.assertTrue(check_assignment(z, cover, self.coeffs))
        # perturbing any positive entry breaks the column-sum constraint
        rows = [list(r) for r in z]
        for r in range(len(rows)):
            for j in range(len(rows[r])):
                if rows[r][j] > 0:
                    rows[r][j] -= 1
                    self.assertFalse(check_assignment(rows, cover, self.coeffs))
                    return
        self.fail("no positive entry found")


class MinAlpha(unittest.TestCase):
    def test_unit_alpha_set_cover(self):
        inst = SetCoverInstance(
            3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({2})))
        o = mesc_oracle(inst)
        trace = run_greedy(o)
        opt = exact_cover(mesc_oracle(inst))
        table = coefficients(o, trace)
        self.assertEqual(min_alpha(trace, opt.covers, table), Fraction(1))

    def test_unit_alpha_orientation(self):
        g = GraphInstance(3, ((0, 1), (0, 2), (1, 2)))
        o = meo_oracle(g)
        trace = run_greedy(o)
        opt = exact_cover(meo_oracle(g))
        table = coefficients(o, trace)
        self.assertEqual(min_alpha(trace, opt.covers, table), Fraction(1))

    def test_empty_covers_rejected(self):
        g = GraphInstance(3, ((0, 1), (0, 2), (1, 2)))
        o = meo_oracle(g)
        trace = run_greedy(o)
        with self.assertRaises(ValueError):
            min_alpha(trace, [], coefficients(o, trace))

    def test_probes_start_at_one(self):
        from unittest import mock
        from entcover import flow
        for seed in range(6):
            for kind, mk in (("mesc", mesc_oracle), ("meo", meo_oracle),
                             ("mest", mest_oracle)):
                inst = generate_random(kind, seed)
                o = mk(inst)
                trace = run_greedy(o)
                opt = exact_cover(mk(inst))
                with mock.patch.object(flow, "build_alpha_network",
                                       wraps=flow.build_alpha_network) as spy:
                    min_alpha(trace, opt.covers, coefficients(o, trace))
                # alpha >= 1 exactly when every floor(alpha*delta) >= delta
                for call in spy.call_args_list:
                    caps = call.args[3]
                    self.assertTrue(all(c >= d for c, d in zip(caps, trace.deltas)),
                                    (kind, seed))

    def test_at_least_one_across_kinds(self):
        for seed in range(12):
            for kind, mk in (("mesc", mesc_oracle), ("meo", meo_oracle),
                             ("mest", mest_oracle)):
                inst = generate_random(kind, seed)
                o = mk(inst)
                trace = run_greedy(o)
                opt = exact_cover(mk(inst))
                a = min_alpha(trace, opt.covers, coefficients(o, trace))
                self.assertGreaterEqual(a, 1, (kind, seed))


class ApproximationBound(unittest.TestCase):
    def test_formula_unit_alpha(self):
        rep = approximation_bound(1.5, 0.9, Fraction(1), 8)
        self.assertAlmostEqual(rep.rhs, 0.9 + LOG2E, places=12)
        self.assertTrue(rep.holds)
        self.assertAlmostEqual(rep.slack, rep.rhs - rep.lhs, places=12)

    def test_formula_general_alpha(self):
        import math
        rep = approximation_bound(2.0, 1.0, Fraction(3, 2), 16)
        inv = 2.0 / 3.0
        self.assertAlmostEqual(rep.rhs, inv * (1.0 + LOG2E) + (1 - inv) * 4.0,
                               places=12)

    def test_violation_detected(self):
        rep = approximation_bound(5.0, 0.0, Fraction(1), 2)
        self.assertFalse(rep.holds)
        self.assertLess(rep.slack, 0)

    def test_holds_on_real_instances(self):
        for seed in range(10):
            inst = generate_random('mesc', seed)
            o = mesc_oracle(inst)
            trace = run_greedy(o)
            opt = exact_cover(mesc_oracle(inst))
            a = min_alpha(trace, opt.covers, coefficients(o, trace))
            rep = approximation_bound(entropy(trace.cover), opt.entropy, a,
                                      o.total())
            self.assertTrue(rep.holds, seed)


if __name__ == "__main__":
    unittest.main()
