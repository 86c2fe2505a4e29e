"""Concrete problem families: set cover, graph orientation, spanning trees.

Provides the three polymatroid oracles, instance (de)serialization, seeded
random generators, and the set-cover-to-spanning-tree hardness gadget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING, Union

from .core import Cover, GroundSet, PolymatroidOracle

if TYPE_CHECKING:  # pragma: no cover
    from .greedy import GreedyTrace

Edge = Tuple[int, int]


def find(parent: List[int], x: int) -> int:
    """Root of x in a disjoint-set forest held as a list of parent
    pointers, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class SetCoverInstance:
    """A family of m subsets covering the universe {0..n_elements-1}."""

    n_elements: int
    sets: Tuple[frozenset, ...]

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise ValueError("universe must be nonempty")
        covered = set()
        for i, s in enumerate(self.sets):
            if not s:
                raise ValueError(f"set {i} is empty")
            for e in s:
                if not 0 <= e < self.n_elements:
                    raise ValueError(f"set {i} contains out-of-range element {e}")
            covered |= s
        if len(covered) != self.n_elements:
            missing = sorted(set(range(self.n_elements)) - covered)
            raise ValueError(f"elements not covered by any set: {missing}")

    @property
    def m(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class GraphInstance:
    """Simple undirected graph; edges are sorted vertex pairs."""

    n_vertices: int
    edges: Tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValueError("graph must have at least one vertex")
        seen = set()
        for (u, v) in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not in sorted order")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    def is_connected(self) -> bool:
        parent = list(range(self.n_vertices))
        for u, v in self.edges:
            parent[find(parent, u)] = find(parent, v)
        return len({find(parent, i) for i in range(self.n_vertices)}) == 1

    def neighbors(self, v: int) -> Tuple[int, ...]:
        out = [b if a == v else a for (a, b) in self.edges if v in (a, b)]
        return tuple(sorted(out))


@dataclass(frozen=True)
class OrientationSolution:
    """Each edge assigned to one of its endpoints (parallel to inst.edges)."""

    edges: Tuple[Edge, ...]
    assignment: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.assignment) != len(self.edges):
            raise ValueError("assignment length mismatch")
        for e, w in zip(self.edges, self.assignment):
            if w not in e:
                raise ValueError(f"assigned vertex {w} not incident to edge {e}")

    def charge_vector(self, n_vertices: int) -> Tuple[int, ...]:
        c = [0] * n_vertices
        for w in self.assignment:
            c[w] += 1
        return tuple(c)


@dataclass(frozen=True)
class TreeCoverSolution:
    """A spanning tree plus a charge of each tree edge to one endpoint."""

    n_vertices: int
    tree_edges: Tuple[Edge, ...]
    charge: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n_vertices
        if len(self.tree_edges) != n - 1:
            raise ValueError("spanning tree needs exactly n-1 edges")
        if len(self.charge) != n - 1:
            raise ValueError("charge length mismatch")
        parent = list(range(n))
        for e, w in zip(self.tree_edges, self.charge):
            if w not in e:
                raise ValueError(f"charge vertex {w} not incident to edge {e}")
            ru, rv = find(parent, e[0]), find(parent, e[1])
            if ru == rv:
                raise ValueError(f"edge {e} closes a cycle")
            parent[ru] = rv

    def charge_vector(self) -> Tuple[int, ...]:
        c = [0] * self.n_vertices
        for w in self.charge:
            c[w] += 1
        return tuple(c)

    def as_dict(self) -> Dict[Edge, int]:
        return dict(zip(self.tree_edges, self.charge))


# ---------------------------------------------------------------- oracles

def mesc_oracle(inst: SetCoverInstance) -> PolymatroidOracle:
    """f(S) = number of universe elements covered by the union of chosen sets."""
    masks = []
    for s in inst.sets:
        mk = 0
        for e in s:
            mk |= 1 << e
        masks.append(mk)

    def fn(sub: int) -> int:
        return _union(masks, sub).bit_count()

    return PolymatroidOracle(GroundSet(inst.m), fn)


def meo_oracle(inst: GraphInstance) -> PolymatroidOracle:
    """f(S) = number of edges with at least one endpoint in S."""
    inc = [0] * inst.n_vertices
    for i, (u, v) in enumerate(inst.edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i

    def fn(sub: int) -> int:
        return _union(inc, sub).bit_count()

    return PolymatroidOracle(GroundSet(inst.n_vertices), fn)


def mest_oracle(inst: GraphInstance) -> PolymatroidOracle:
    """Cycle-matroid rank of the edges adjacent to S.

    Those edges span S ∪ N(S), and each of their components holds a
    vertex of S.  Since every such edge has an endpoint in S, two
    vertices of S share a component exactly when a chain of vertices of
    S, each within distance 2 of the next, joins them.  So the rank is
    |S ∪ N(S)| minus the components of G²[S], which a bitmask flood fill
    over the distance-2 neighbourhoods counts.
    """
    if not inst.is_connected():
        raise ValueError("spanning-tree oracle requires a connected graph")
    n = inst.n_vertices
    nbr = [0] * n
    for (u, v) in inst.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    near = [nbr[v] | _union(nbr, nbr[v]) for v in range(n)]

    def fn(sub: int) -> int:
        comps = 0
        rest = sub
        while rest:
            comps += 1
            frontier = rest & -rest
            while frontier:
                rest ^= frontier
                frontier = _union(near, frontier) & rest
        return (sub | _union(nbr, sub)).bit_count() - comps

    return PolymatroidOracle(GroundSet(n), fn)


def _union(masks: List[int], sub: int) -> int:
    """The union of masks[v] over the vertices v in sub."""
    out = 0
    while sub:
        low = sub & -sub
        out |= masks[low.bit_length() - 1]
        sub ^= low
    return out


def complete_mest_solution(inst: GraphInstance, trace: "GreedyTrace") -> TreeCoverSolution:
    """Realize a greedy trace as an actual charged spanning tree.

    Stage r adds exactly delta_r edges incident to the chosen vertex: one
    per pre-existing tree component among its neighbors (lowest-index
    neighbor within each component), which includes every untouched
    neighbor as its own singleton component.  All added edges are charged
    to the chosen vertex, so the charge vector equals the trace's cover.
    Any order whose deltas are the oracle's marginals along it will do,
    not only a greedy one: exact_mest passes tight orders of optima.
    """
    n = inst.n_vertices
    nbr = {v: inst.neighbors(v) for v in range(n)}
    parent = list(range(n))
    tree: List[Edge] = []
    charge: List[int] = []
    for r, ir in enumerate(trace.order):
        comp_pick: Dict[int, int] = {}
        for k in nbr[ir]:
            c = find(parent, k)
            if c != find(parent, ir) and c not in comp_pick:
                comp_pick[c] = k  # nbr sorted => lowest-index per component
        if len(comp_pick) != trace.deltas[r]:
            raise AssertionError("completion size disagrees with greedy marginal")
        for k in comp_pick.values():
            e = (ir, k) if ir < k else (k, ir)
            tree.append(e)
            charge.append(ir)
            parent[find(parent, k)] = find(parent, ir)
    return TreeCoverSolution(n, tuple(tree), tuple(charge))


def realise_cover(inst: Union[SetCoverInstance, GraphInstance], kind: str,
                  trace: "GreedyTrace") -> Optional[Tuple[int, ...]]:
    """Count vector of a concrete cover built along trace.order.

    mesc: each universe element goes to the first chosen set containing
    it; meo: each edge to its first chosen endpoint; mest: the charged
    spanning tree of complete_mest_solution.  None when the order
    leaves an element or edge uncovered, or no charged tree follows it.

    Every unit of the vector is then an element, edge or tree edge
    incident to its own set or vertex, and tree edges form a forest, so
    x(S) <= f(S) holds for every S by the definition of f.  A vector
    that equals the trace's cover and sums to f(U) therefore proves that
    cover valid in time linear in the instance size, where
    validate_cover takes 2^m oracle reads.
    """
    if kind == "mesc":
        counts = [0] * inst.m
        owned: set = set()
        for i in trace.order:
            new = inst.sets[i] - owned
            counts[i] += len(new)
            owned |= new
        return tuple(counts) if len(owned) == inst.n_elements else None
    if kind == "meo":
        pos = {v: r for r, v in enumerate(trace.order)}
        counts = [0] * inst.n_vertices
        for u, v in inst.edges:
            if u in pos and (v not in pos or pos[u] < pos[v]):
                counts[u] += 1
            elif v in pos:
                counts[v] += 1
            else:
                return None
        return tuple(counts)
    if kind == "mest":
        try:
            return complete_mest_solution(inst, trace).charge_vector()
        except (AssertionError, ValueError):
            return None
    raise ValueError(f"unknown kind '{kind}'")


# ------------------------------------------------------- hardness gadget

@dataclass(frozen=True)
class GadgetRoles:
    """Vertex roles in the reduction graph built from a set-cover instance."""

    r_node: int
    aux_nodes: Tuple[int, ...]
    set_nodes: Tuple[int, ...]      # index i -> vertex of set i
    elem_nodes: Tuple[int, ...]     # index j -> vertex of element j

    def role_of(self, v: int) -> str:
        if v == self.r_node:
            return "R"
        if v in self.aux_nodes:
            return "aux"
        if v in self.set_nodes:
            return f"set:{self.set_nodes.index(v)}"
        return f"elem:{self.elem_nodes.index(v)}"


def hardness_gadget(inst: SetCoverInstance) -> Tuple[GraphInstance, GadgetRoles]:
    """Build the reduction graph: one hub R, m+n-1 auxiliary leaves on R,
    one node per set (adjacent to R), one node per element (adjacent to the
    sets containing it).  2(m+n) vertices total."""
    m, n = inst.m, inst.n_elements
    r_node = 0
    aux = tuple(range(1, m + n))                    # m+n-1 leaves
    set_nodes = tuple(range(m + n, 2 * m + n))      # set i -> m+n+i
    elem_nodes = tuple(range(2 * m + n, 2 * m + 2 * n))  # elem j -> 2m+n+j
    edges: List[Edge] = []
    for a in aux:
        edges.append((r_node, a))
    for sv in set_nodes:
        edges.append((r_node, sv))
    for i, s in enumerate(inst.sets):
        for j in sorted(s):
            edges.append((set_nodes[i], elem_nodes[j]))
    g = GraphInstance(2 * (m + n), tuple(sorted(edges)))
    return g, GadgetRoles(r_node, aux, set_nodes, elem_nodes)


def reduction_entropy_relation(m: int, n: int, lam: float) -> float:
    """Map a set-cover entropy threshold to the gadget's tree entropy.

    A spanning tree of the 2(m+n)-vertex gadget has W = 2(m+n)-1 edges;
    the hub absorbs its full degree 2m+n-1 and the n element edges carry
    a set-cover allocation, giving the affine relation below (slope n/W).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if lam < 0:
        raise ValueError("entropy threshold must be nonnegative")
    w = 2 * (m + n) - 1
    a = 2 * m + n - 1
    return -(a / w) * math.log2(a / w) + (n / w) * math.log2(w / n) + (n / w) * lam


# ------------------------------------------------------------ file format

def serialize_instance(inst: Union[SetCoverInstance, GraphInstance]) -> bytes:
    """Canonical text form: sorted elements per set, sorted edge list."""
    lines: List[str] = []
    if isinstance(inst, SetCoverInstance):
        lines.append(f"mesc {inst.m} {inst.n_elements}")
        for s in inst.sets:
            lines.append(" ".join(str(e) for e in sorted(s)))
    elif isinstance(inst, GraphInstance):
        lines.append(f"graph {inst.n_vertices} {len(inst.edges)}")
        for (u, v) in sorted(inst.edges):
            lines.append(f"{u} {v}")
    else:
        raise TypeError(f"cannot serialize {type(inst).__name__}")
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_instance(data: Union[bytes, str]) -> Union[SetCoverInstance, GraphInstance]:
    """Parse the line-oriented instance format; '#' starts a comment.

    Raises ValueError mentioning the 1-based line number on malformed
    input, including instance-invariant violations like uncovered
    elements.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    else:
        text = data
    rows: List[Tuple[int, str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((ln, body))
    if not rows:
        raise ValueError("line 1: empty instance file")
    hdr_ln, hdr = rows[0]
    parts = hdr.split()
    if parts[0] == "mesc":
        if len(parts) != 3:
            raise ValueError(f"line {hdr_ln}: expected 'mesc m n'")
        try:
            m, n = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {hdr_ln}: non-integer header fields") from None
        if len(rows) - 1 != m:
            raise ValueError(f"line {hdr_ln}: expected {m} set lines, found {len(rows) - 1}")
        sets: List[frozenset] = []
        for ln, body in rows[1:]:
            try:
                elems = frozenset(int(t) for t in body.split())
            except ValueError:
                raise ValueError(f"line {ln}: non-integer element index") from None
            for e in elems:
                if not 0 <= e < n:
                    raise ValueError(f"line {ln}: element {e} out of range 0..{n - 1}")
            if not elems:
                raise ValueError(f"line {ln}: empty set")
            sets.append(elems)
        try:
            return SetCoverInstance(n, tuple(sets))
        except ValueError as exc:
            raise ValueError(f"line {hdr_ln}: {exc}") from None
    elif parts[0] == "graph":
        if len(parts) != 3:
            raise ValueError(f"line {hdr_ln}: expected 'graph n_vertices n_edges'")
        try:
            nv, ne = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {hdr_ln}: non-integer header fields") from None
        if len(rows) - 1 != ne:
            raise ValueError(f"line {hdr_ln}: expected {ne} edge lines, found {len(rows) - 1}")
        edges: List[Edge] = []
        for ln, body in rows[1:]:
            toks = body.split()
            if len(toks) != 2:
                raise ValueError(f"line {ln}: expected 'u v'")
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                raise ValueError(f"line {ln}: non-integer vertex") from None
            if u == v:
                raise ValueError(f"line {ln}: self-loop at {u}")
            if not (0 <= u < nv and 0 <= v < nv):
                raise ValueError(f"line {ln}: vertex out of range 0..{nv - 1}")
            e = (u, v) if u < v else (v, u)
            if e in edges:
                raise ValueError(f"line {ln}: duplicate edge {e}")
            edges.append(e)
        try:
            return GraphInstance(nv, tuple(sorted(edges)))
        except ValueError as exc:
            raise ValueError(f"line {hdr_ln}: {exc}") from None
    raise ValueError(f"line {hdr_ln}: unknown header '{parts[0]}' (want 'mesc' or 'graph')")


# -------------------------------------------------------------- generators

def generate_random(kind: str, seed: int, **params):
    """Seeded random instance.  kinds: 'mesc' (params m, n, density),
    'meo'/'mest' (params n_vertices, extra_edge_prob).  Graph instances are
    always connected (spanning-tree skeleton plus random extra edges)."""
    rng = random.Random(seed)
    if kind == "mesc":
        m = params.get("m", 5)
        n = params.get("n", 8)
        density = params.get("density", 0.3)
        sets = [set() for _ in range(m)]
        for i in range(m):
            for j in range(n):
                if rng.random() < density:
                    sets[i].add(j)
        for i in range(m):
            if not sets[i]:
                sets[i].add(rng.randrange(n))
        covered = set().union(*sets)
        for j in range(n):
            if j not in covered:
                sets[rng.randrange(m)].add(j)
        return SetCoverInstance(n, tuple(frozenset(s) for s in sets))
    if kind in ("meo", "mest"):
        nv = params.get("n_vertices", 7)
        p = params.get("extra_edge_prob", 0.3)
        perm = list(range(nv))
        rng.shuffle(perm)
        edges = set()
        for i in range(1, nv):
            a, b = perm[i], perm[rng.randrange(i)]
            edges.add((a, b) if a < b else (b, a))
        for u in range(nv):
            for v in range(u + 1, nv):
                if (u, v) not in edges and rng.random() < p:
                    edges.add((u, v))
        return GraphInstance(nv, tuple(sorted(edges)))
    raise ValueError(f"unknown instance kind '{kind}'")
