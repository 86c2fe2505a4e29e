import random
import re
import unittest
from dataclasses import astuple
from functools import cached_property

import pytest

from entcover.core import check_polymatroid
from entcover.greedy import coefficients, run_greedy
from entcover.instances import (GraphInstance, SetCoverInstance, _TreeOracle,
                                TreeCoverSolution, complete_mest_solution, find,
                                generate_random, hardness_gadget, mesc_oracle, meo_oracle,
                                mest_oracle, parse_instance,
                                reduction_entropy_relation, serialize_instance)
from mest_reference import rank_by_union_find

TRIANGLE = GraphInstance(3, ((0, 1), (0, 2), (1, 2)))
SETS = SetCoverInstance(3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({2})))


class OracleValues(unittest.TestCase):
    def test_mesc(self):
        o = mesc_oracle(SETS)
        self.assertEqual(o.eval(0b001), 2)
        self.assertEqual(o.eval(0b110), 2)
        self.assertEqual(o.total(), 3)

    def test_meo(self):
        o = meo_oracle(TRIANGLE)
        for v in range(3):
            self.assertEqual(o.eval(1 << v), 2)
        self.assertEqual(o.total(), 3)

    def test_mest(self):
        o = mest_oracle(TRIANGLE)
        for v in range(3):
            self.assertEqual(o.eval(1 << v), 2)
        self.assertEqual(o.total(), 2)  # spanning tree size

    def test_mest_matches_union_find_reference(self):
        # every mask of small graphs, sparse to dense, then random masks
        # of larger graphs
        for seed in range(120):
            n = 3 + seed % 8
            g = generate_random("mest", seed, n_vertices=n,
                                extra_edge_prob=0.1 + 0.3 * (seed % 3))
            o = mest_oracle(g)
            for sub in range(1 << n):
                self.assertEqual(o.eval(sub), rank_by_union_find(g, sub),
                                 (seed, sub))
        rng = random.Random(5)
        for seed in range(6):
            g = generate_random("mest", seed, n_vertices=40,
                                extra_edge_prob=0.02 + 0.04 * seed)
            o = mest_oracle(g)
            for _ in range(200):
                sub = rng.getrandbits(40)
                self.assertEqual(o.eval(sub), rank_by_union_find(g, sub),
                                 (seed, sub))

    def test_mest_needs_connected(self):
        g = GraphInstance(4, ((0, 1), (2, 3)))
        with self.assertRaisesRegex(ValueError, "connected"):
            mest_oracle(g)

    def test_meo_equals_mesc_encoding(self):
        # vertices as sets of incident edges: the oracles must agree
        g = generate_random('meo', 17)
        idx = {e: i for i, e in enumerate(g.edges)}
        sets = tuple(frozenset(idx[e] for e in g.edges if v in e)
                     for v in range(g.n_vertices))
        o1, o2 = meo_oracle(g), mesc_oracle(SetCoverInstance(len(g.edges), sets))
        for mask in range(1 << g.n_vertices):
            self.assertEqual(o1.eval(mask), o2.eval(mask))

    def test_table_matches_eval(self):
        # the family tables are built by a subset recursion, not through
        # eval: every mask must still read the same, also where a vertex
        # has no edge (its distance-2 mask lacks its own bit).  mest_oracle
        # takes connected graphs only, so the tree oracle's class is also
        # built directly on graphs with isolated vertices.
        loose = [GraphInstance(5, ((0, 1), (1, 2), (2, 3))),
                 GraphInstance(5, ((1, 3),)), GraphInstance(3, ())]
        oracles = [meo_oracle(loose[0]), mest_oracle(GraphInstance(1, ())),
                   mest_oracle(GraphInstance(2, ((0, 1),)))]
        oracles += [_TreeOracle(g.nbr_masks, g.distance2_masks) for g in loose]
        for seed in range(60):
            m = 1 + seed % 10
            oracles += [
                mesc_oracle(generate_random("mesc", seed, m=m, n=m + seed % 5)),
                meo_oracle(generate_random("meo", seed, n_vertices=m,
                                           extra_edge_prob=0.1 + 0.1 * (seed % 4))),
                mest_oracle(generate_random("mest", seed, n_vertices=m,
                                            extra_edge_prob=0.1 + 0.2 * (seed % 4)))]
        for o in oracles:
            self.assertEqual(o.table(), [o.eval(s) for s in range(1 << o.m)])

    def test_all_polymatroid(self):
        for o in (mesc_oracle(SETS), meo_oracle(TRIANGLE), mest_oracle(TRIANGLE)):
            ok, _ = check_polymatroid(o)
            self.assertTrue(ok)


class InstanceValidation(unittest.TestCase):
    def test_uncovered_element(self):
        with self.assertRaisesRegex(ValueError, "not covered"):
            SetCoverInstance(3, (frozenset({0, 1}),))

    def test_empty_set_rejected(self):
        with self.assertRaises(ValueError):
            SetCoverInstance(2, (frozenset({0, 1}), frozenset()))

    def test_element_out_of_range(self):
        with self.assertRaises(ValueError):
            SetCoverInstance(2, (frozenset({0, 1, 5}),))

    def test_self_loop(self):
        with self.assertRaisesRegex(ValueError, "self-loop"):
            GraphInstance(2, ((0, 0),))

    def test_unsorted_edge(self):
        with self.assertRaises(ValueError):
            GraphInstance(3, ((2, 1),))

    def test_duplicate_edge(self):
        with self.assertRaises(ValueError):
            GraphInstance(3, ((0, 1), (0, 1), (1, 2)))

    def test_neighbors(self):
        self.assertEqual(TRIANGLE.neighbors(0), (1, 2))
        self.assertTrue(TRIANGLE.is_connected())
        for v in (-1, 3):
            with self.assertRaisesRegex(ValueError, "out of range"):
                TRIANGLE.neighbors(v)

    def test_connectivity_matches_union_find(self):
        # the flood fill over neighbour masks against a disjoint-set
        # forest, on sparse random graphs that are often disconnected
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 12)
            edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.2)
            g = GraphInstance(n, edges)
            parent = list(range(n))
            for (u, v) in edges:
                parent[find(parent, u)] = find(parent, v)
            self.assertEqual(g.is_connected(),
                             len({find(parent, v) for v in range(n)}) == 1, edges)
            # both pinned to a scan of the edge list
            scan = [tuple(sorted(b if a == v else a for (a, b) in edges if v in (a, b)))
                    for v in range(n)]
            self.assertEqual([g.neighbors(v) for v in range(n)], scan)
            self.assertEqual(list(g.nbr_masks),
                             [sum(1 << u for u in nb) for nb in scan])


class Completion(unittest.TestCase):
    def test_charge_vector_matches_trace(self):
        for seed in range(30):
            g = generate_random('mest', seed, n_vertices=5 + seed % 4)
            trace = run_greedy(mest_oracle(g))
            sol = complete_mest_solution(g, trace)
            self.assertEqual(sol.charge_vector(), trace.cover.x)
            self.assertEqual(len(sol.tree_edges), g.n_vertices - 1)

    def test_star(self):
        g = GraphInstance(4, ((0, 1), (0, 2), (0, 3)))
        trace = run_greedy(mest_oracle(g))
        sol = complete_mest_solution(g, trace)
        self.assertEqual(sol.charge_vector(), (3, 0, 0, 0))

    def test_tree_solution_refuses_a_cycle(self):
        # n - 1 edges that close a cycle leave a vertex out of the tree
        with self.assertRaisesRegex(ValueError, "^tree edges close a cycle$"):
            TreeCoverSolution(4, ((0, 1), (0, 2), (1, 2)), (0, 2, 1))
        with self.assertRaisesRegex(ValueError, "not incident"):
            TreeCoverSolution(3, ((0, 1), (1, 2)), (0, 0))


class Gadget(unittest.TestCase):
    def test_counts_tiny(self):
        inst = SetCoverInstance(1, (frozenset({0}),))  # m=1, n=1
        g, roles = hardness_gadget(inst)
        self.assertEqual(g.n_vertices, 4)
        self.assertEqual(len(g.edges), 3)
        self.assertEqual(roles.r_node, 0)

    def test_counts_fixture(self):
        # m=2, n=3 -> 2(m+n) = 10 vertices
        inst = SetCoverInstance(3, (frozenset({0, 1}), frozenset({1, 2})))
        g, roles = hardness_gadget(inst)
        self.assertEqual(g.n_vertices, 10)
        self.assertEqual(len(g.edges), (2 + 3 - 1) + 2 + 4)
        self.assertTrue(g.is_connected())
        self.assertEqual(roles.r_node, 0)
        self.assertEqual((len(roles.set_nodes), len(roles.elem_nodes)), (2, 3))
        # every vertex has exactly one role
        self.assertEqual(sorted((roles.r_node,) + roles.aux_nodes
                                + roles.set_nodes + roles.elem_nodes),
                         list(range(g.n_vertices)))

    def test_counts_closed_form(self):
        for seed in range(50):
            inst = generate_random('mesc', seed, m=2 + seed % 3, n=2 + seed % 4)
            m, n = len(inst.sets), inst.n_elements
            g, _ = hardness_gadget(inst)
            self.assertEqual(g.n_vertices, 2 * (m + n))
            want_edges = (m + n - 1) + m + sum(len(s) for s in inst.sets)
            self.assertEqual(len(g.edges), want_edges)
            self.assertTrue(g.is_connected())


class ReductionRelation(unittest.TestCase):
    def test_fixture_value(self):
        self.assertAlmostEqual(reduction_entropy_relation(2, 3, 1.0),
                               1.2516291673878228, places=12)

    def test_positive_at_zero(self):
        self.assertGreater(reduction_entropy_relation(1, 1, 0.0), 0.9)
        self.assertGreater(reduction_entropy_relation(4, 5, 0.0), 0.0)

    def test_affine_slope(self):
        m, n = 3, 4
        w = 2 * (m + n) - 1
        d = reduction_entropy_relation(m, n, 2.0) - reduction_entropy_relation(m, n, 1.0)
        self.assertAlmostEqual(d, n / w, places=12)

    def test_guards(self):
        with self.assertRaises(ValueError):
            reduction_entropy_relation(0, 1, 0.0)
        with self.assertRaises(ValueError):
            reduction_entropy_relation(1, 1, -0.5)


class FileFormat(unittest.TestCase):
    def test_round_trip_mesc(self):
        blob = serialize_instance(SETS)
        self.assertEqual(serialize_instance(parse_instance(blob)), blob)

    def test_round_trip_graph(self):
        blob = serialize_instance(TRIANGLE)
        inst = parse_instance(blob)
        self.assertEqual(inst.n_vertices, 3)
        self.assertEqual(len(inst.edges), 3)
        self.assertEqual(serialize_instance(inst), blob)

    def test_comments_and_text(self):
        inst = parse_instance("# a triangle\ngraph 3 3\n0 1\n# middle\n0 2\n1 2\n")
        self.assertEqual(inst.edges, ((0, 1), (0, 2), (1, 2)))

    def test_parse_errors_carry_line_numbers(self):
        cases = [
            ("mesc 2\n0\n1\n", "line 1"),
            ("mesc 2 2\n0 1\nx\n", "line 3"),
            ("mesc 2 3\n0 1\n2 9\n", "line 3"),
            ("graph 3 1\n0 7\n", "line 2"),
            ("maze 1 1\n0\n", "line 1"),
        ]
        for text, frag in cases:
            with self.assertRaisesRegex(ValueError, frag):
                parse_instance(text)

    def test_duplicate_edge_after_long_edge_list(self):
        # the duplicate is found on its own line however long the list
        edges = [(u, v) for u in range(60) for v in range(u + 1, 60)]
        text = "".join(f"{u} {v}\n" for u, v in edges)
        blob = f"graph 60 {len(edges) + 1}\n{text}30 12\n"
        last = len(edges) + 2
        with self.assertRaisesRegex(ValueError,
                                    rf"^line {last}: duplicate edge \(12, 30\)$"):
            parse_instance(blob)

    def test_uncovered_element_is_parse_error(self):
        with self.assertRaises(ValueError):
            parse_instance("mesc 1 2\n0\n")

    def test_undecodable_bytes_carry_line_numbers(self):
        cases = [
            (b"\xff", r"^line 1: byte 0xff is not UTF-8 text"),
            (b"graph 3 2\n0 1\n1 \xff2\n", r"^line 3: byte 0xff "),
            (b"mesc 1 1\r\n# \xe2\x82\xac\r\n0\n\xfe\n", r"^line 4: byte 0xfe "),
            (b"graph 2 1\n0 1 # \xc3\n", r"^line 2: byte 0xc3 "),
        ]
        for blob, pattern in cases:
            with self.assertRaisesRegex(ValueError, pattern):
                parse_instance(blob)


# One file per message parse_instance gives, each with a single fault.
PARSE_FAULTS = [
    (b"graph 2 1\n0 \xff1\n", "line 2: byte 0xff is not UTF-8 text (invalid start byte)"),
    (b"", "line 1: empty instance file"),
    (b"# only a comment\n\n", "line 1: empty instance file"),
    (b"maze 1 1\n0\n", "line 1: unknown header 'maze' (want 'mesc' or 'graph')"),
    (b"mesc 2\n0\n1\n", "line 1: expected 'mesc m n'"),
    (b"mesc 2 x\n0\n1\n", "line 1: non-integer header fields"),
    (b"mesc 2 2\n0 1\n", "line 1: expected 2 set lines, found 1"),
    (b"mesc 2 2\n0 1\nx\n", "line 3: non-integer element index"),
    (b"# sets\nmesc 2 3\n0 1\n\n2 9\n", "line 5: element 9 out of range 0..2"),
    (b"mesc 2 3\n0 -1 1\n2\n", "line 2: element -1 out of range 0..2"),
    (b"mesc 1 0\n0\n", "line 2: element 0 out of range 0..-1"),
    (b"mesc 0 0\n", "line 1: universe must be nonempty"),
    (b"mesc 1 2\n0\n", "line 1: elements not covered by any set: [1]"),
    (b"graph 3\n0 1\n", "line 1: expected 'graph n_vertices n_edges'"),
    (b"graph 3 one\n0 1\n", "line 1: non-integer header fields"),
    (b"graph 3 2\n0 1\n", "line 1: expected 2 edge lines, found 1"),
    (b"graph 3 1\n0 1 2\n", "line 2: expected 'u v'"),
    (b"graph 3 1\n0 b\n", "line 2: non-integer vertex"),
    (b"graph 4 3\n0 1\n3 3\n1 2\n", "line 3: self-loop at 3"),
    (b"graph 7 2\n0 1\n7 2\n", "line 3: vertex out of range 0..6"),
    (b"graph 7 2\n0 1\n-1 2\n", "line 3: vertex out of range 0..6"),
    (b"graph 31 3\n12 30\n0 1\n30 12\n", "line 4: duplicate edge (12, 30)"),
    (b"graph 0 1\n0 1\n", "line 2: vertex out of range 0..-1"),
    (b"graph 0 0\n", "line 1: graph must have at least one vertex"),
    (b"mesc 2 3\n0 0 1\n2\n", "line 2: duplicate element 0"),
]


@pytest.mark.parametrize("blob, message", PARSE_FAULTS)
def test_parse_fault_table(blob, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_instance(blob)


def test_two_edge_faults_name_the_first_in_sorted_order():
    # the out-of-range edge comes first in the file, the self-loop first
    # in sorted edge order, which is where GraphInstance checks them
    with pytest.raises(ValueError, match=r"^line 3: self-loop at 1$"):
        parse_instance("graph 4 2\n3 9\n1 1\n")


def test_a_repeated_element_is_named_before_a_refused_set():
    # the first element that repeats an earlier one is named; like every
    # text fault it comes before the sets the constructor refuses
    with pytest.raises(ValueError, match=r"^line 3: duplicate element 2$"):
        parse_instance("mesc 2 3\n0 9\n1 2 0 2 1\n")


class Generators(unittest.TestCase):
    def test_deterministic(self):
        for kind in ("mesc", "meo", "mest"):
            a = serialize_instance(generate_random(kind, 99))
            b = serialize_instance(generate_random(kind, 99))
            self.assertEqual(a, b)

    def test_mesc_coverage(self):
        inst = generate_random('mesc', 3, m=5, n=8)
        covered = set()
        for s in inst.sets:
            covered |= s
        self.assertEqual(covered, set(range(8)))

    def test_mest_connected(self):
        for seed in range(25):
            g = generate_random('mest', seed, n_vertices=6)
            self.assertTrue(g.is_connected())

    def test_zero_extra_prob_gives_tree(self):
        g = generate_random('mest', 8, n_vertices=7, extra_edge_prob=0.0)
        self.assertEqual(len(g.edges), 6)
        self.assertTrue(g.is_connected())

    def test_mesc_needs_a_set_and_an_element(self):
        for m, n in ((0, 8), (5, 0), (-2, 8)):
            with self.assertRaisesRegex(
                    ValueError, f"^mesc needs at least one set and one "
                                f"element, got m={m}, n={n}$"):
                generate_random("mesc", 1, m=m, n=n)

    def test_unknown_kind(self):
        # the kind is checked before its parameters
        for params in ({}, {"m": 3}, {"n_vertice": 12}):
            with self.assertRaisesRegex(ValueError,
                                        "^unknown instance kind 'tsp'$"):
                generate_random('tsp', 1, **params)

    def test_refuses_parameters_the_kind_does_not_take(self):
        # another family's parameter or a misspelt one is named, with the
        # parameters the kind takes
        for kind, params, msg in (
                ("mest", {"n_vertice": 12}, "^mest takes no parameter "
                 "n_vertice; its parameters are n_vertices, extra_edge_prob$"),
                ("mesc", {"n_vertices": 30}, "^mesc takes no parameter "
                 "n_vertices; its parameters are m, n, density$"),
                ("meo", {"m": 4, "n_vertices": 5, "density": 0.5},
                 "^meo takes no parameter m, density; ")):
            with self.assertRaisesRegex(ValueError, msg):
                generate_random(kind, 1, **params)

    def test_refuses_probability_outside_unit_interval(self):
        for kind, key in (("mesc", "density"), ("meo", "extra_edge_prob"),
                          ("mest", "extra_edge_prob")):
            for bad in (-1, 1.5, float("nan")):
                with self.assertRaisesRegex(
                        ValueError, f"^{key} must lie in \\[0, 1\\], got "):
                    generate_random(kind, 1, **{key: bad})
            generate_random(kind, 1, **{key: 0})
            generate_random(kind, 1, **{key: 1})


# ------------------------------------------------ derived bitmask forms

GRAPH_MASKS = ("nbr_masks", "incidence_masks", "distance2_masks")


def _mask_cases():
    """Set-cover instances and graphs (random, disconnected, gadgets)."""
    rng = random.Random(11)
    sets = [SETS] + [generate_random("mesc", seed, m=1 + seed % 9, n=1 + seed % 13,
                                     density=0.1 + 0.1 * (seed % 5))
                     for seed in range(40)]
    graphs = [TRIANGLE, GraphInstance(1, ()), GraphInstance(4, ((0, 1), (2, 3)))]
    graphs += [generate_random(kind, seed, n_vertices=2 + seed % 11,
                               extra_edge_prob=0.05 * (seed % 7))
               for kind in ("meo", "mest") for seed in range(30)]
    for _ in range(40):
        n = rng.randint(1, 12)
        graphs.append(GraphInstance(n, tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15)))
    graphs += [hardness_gadget(inst)[0] for inst in sets[:15]]
    return sets, graphs


def test_derived_masks_match_the_fields():
    sets, graphs = _mask_cases()
    for inst in sets:
        want = [int("".join("1" if e in s else "0"
                            for e in reversed(range(inst.n_elements))), 2)
                for s in inst.sets]
        assert inst.set_masks == tuple(want), inst
        assert type(inst.set_masks) is tuple
    for g in graphs:
        n, edges = g.n_vertices, set(g.edges)
        walk1 = [{u for u in range(n) if (min(u, v), max(u, v)) in edges}
                 for v in range(n)]
        walk2 = [walk1[v].union(*[walk1[w] for w in walk1[v]]) for v in range(n)]
        want = {
            "nbr_masks": [sum(1 << u for u in walk1[v]) for v in range(n)],
            "incidence_masks": [sum(1 << i for i, e in enumerate(g.edges) if v in e)
                                for v in range(n)],
            # u within reach of v by a walk of one or two edges
            "distance2_masks": [sum(1 << u for u in walk2[v]) for v in range(n)],
        }
        for name in GRAPH_MASKS:
            got = getattr(g, name)
            assert type(got) is tuple, name
            assert got == tuple(want[name]), (name, g)


def test_derived_masks_stay_out_of_eq_hash_and_repr():
    sets, graphs = _mask_cases()
    for inst in sets[:10] + graphs[::5]:
        a, b = (type(inst)(*astuple(inst)) for _ in range(2))
        text = repr(b)
        for name in ("set_masks",) if isinstance(a, SetCoverInstance) else GRAPH_MASKS:
            getattr(a, name)
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert repr(a) == text == repr(b)
        assert len({a, b}) == 1


def _count_derivations(monkeypatch, cls, name):
    """Replace cls.name with a cached_property that records each derivation."""
    calls = []
    derive = cls.__dict__[name].func

    def counted(self):
        calls.append(self)
        return derive(self)

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


class _ScanCounter(tuple):
    """A tuple that counts the times it is iterated over."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


@pytest.mark.parametrize("kind", ["mesc", "meo", "mest"])
def test_one_instance_derives_each_mask_once(monkeypatch, kind):
    # naive, lazy and coefficient oracles, connectivity and the tree
    # realisation all read one derivation of each mask they use, and
    # nothing else scans the sets or edges again
    params = ({"m": 20, "n": 30} if kind == "mesc"
              else {"n_vertices": 20, "extra_edge_prob": 0.2})
    inst = generate_random(kind, 5, **params)
    cls = type(inst)
    size, field = astuple(inst)
    field = _ScanCounter(field)
    inst = cls(size, field)
    field.scans = 0  # construction has validated it
    names = ("set_masks",) if kind == "mesc" else GRAPH_MASKS
    calls = {name: _count_derivations(monkeypatch, cls, name) for name in names}
    make = {"mesc": mesc_oracle, "meo": meo_oracle, "mest": mest_oracle}[kind]
    naive = run_greedy(make(inst))
    assert run_greedy(make(inst), lazy=True) == naive
    coefficients(make(inst), naive)
    if kind != "mesc":
        assert inst.is_connected()
        inst.neighbors(0)
    if kind == "mest":
        complete_mest_solution(inst, naive)
    used = {"mesc": {"set_masks"}, "meo": {"incidence_masks", "nbr_masks"},
            "mest": {"nbr_masks", "distance2_masks"}}[kind]
    assert {name: len(c) for name, c in calls.items()} == {
        name: int(name in used) for name in names}
    assert field.scans == len(used - {"distance2_masks"})


if __name__ == "__main__":
    unittest.main()
