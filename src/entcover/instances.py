"""Concrete problem families: set cover, graph orientation, spanning trees.

Provides the three polymatroid oracles, instance (de)serialization, seeded
random generators, and the set-cover-to-spanning-tree hardness gadget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING, Union)

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


def is_spanning_tree(n: int, edges: Sequence[Edge]) -> bool:
    """The edges form a spanning tree of the vertices 0..n-1: there are
    n - 1 of them and no edge closes a cycle."""
    if len(edges) != n - 1:
        return False
    parent = list(range(n))
    for (u, v) in edges:
        ru, rv = find(parent, u), find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _union(masks: Sequence[int], sub: int) -> int:
    """The union of masks[v] over the vertices v in sub."""
    out = 0
    while sub:
        low = sub & -sub
        out |= masks[low.bit_length() - 1]
        sub ^= low
    return out


def _union_table(masks: Sequence[int]) -> List[int]:
    """_union(masks, S) for every subset mask S, in mask order: the
    subsets with j follow those without it, each with masks[j] added."""
    table = [0]
    for mk in masks:
        table += [u | mk for u in table]
    return table


class _ItemError(ValueError):
    """An instance constructor's refusal of set or edge number item."""

    def __init__(self, item: int, message: str) -> None:
        super().__init__(message)
        self.item = item


@dataclass(frozen=True)
class SetCoverInstance:
    """A family of m subsets covering the universe {0..n_elements-1}.

    set_masks, the bitmask form that mesc_oracle reads, is derived on
    first read and kept, so every oracle built from the instance shares
    it; it takes no part in equality, hashing or repr."""

    n_elements: int
    sets: Tuple[frozenset, ...]

    def __post_init__(self) -> None:
        n = self.n_elements
        covered = set()
        for i, s in enumerate(self.sets):
            if not s:
                raise _ItemError(i, "empty set")
            for e in s:
                if not 0 <= e < n:
                    raise _ItemError(i, f"element {e} out of range 0..{n - 1}")
            covered |= s
        if n < 1:
            raise ValueError("universe must be nonempty")
        if len(covered) != n:
            missing = sorted(set(range(n)) - covered)
            raise ValueError(f"elements not covered by any set: {missing}")

    @property
    def m(self) -> int:
        return len(self.sets)

    @cached_property
    def set_masks(self) -> Tuple[int, ...]:
        """set_masks[i] has bit e set for every element e of set i."""
        bit = (1).__lshift__
        return tuple([sum(map(bit, s)) for s in self.sets])


@dataclass(frozen=True)
class GraphInstance:
    """Simple undirected graph; edges are sorted vertex pairs.

    The bitmask forms nbr_masks, incidence_masks and distance2_masks are
    derived on first read and kept, so every oracle, connectivity test
    and tree realisation built from the instance shares them; they take
    no part in equality, hashing or repr."""

    n_vertices: int
    edges: Tuple[Edge, ...]

    def __post_init__(self) -> None:
        n = self.n_vertices
        seen = set()
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise _ItemError(i, f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise _ItemError(i, f"vertex out of range 0..{n - 1}")
            if u > v:
                raise _ItemError(i, f"edge ({u}, {v}) not in sorted order")
            if (u, v) in seen:
                raise _ItemError(i, f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if n < 1:
            raise ValueError("graph must have at least one vertex")

    @cached_property
    def nbr_masks(self) -> Tuple[int, ...]:
        """nbr_masks[v] has bit u set for every edge (u, v)."""
        nbr = [0] * self.n_vertices
        for (u, v) in self.edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        return tuple(nbr)

    @cached_property
    def incidence_masks(self) -> Tuple[int, ...]:
        """incidence_masks[v] has bit i set for every edge edges[i] at v."""
        inc = [0] * self.n_vertices
        for i, (u, v) in enumerate(self.edges):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
        return tuple(inc)

    @cached_property
    def distance2_masks(self) -> Tuple[int, ...]:
        """distance2_masks[v] has bit u set for every u within distance 2
        of v, so v's own bit too once v has an edge."""
        nbr = self.nbr_masks
        return tuple(mk | _union(nbr, mk) for mk in nbr)

    def is_connected(self) -> bool:
        """A flood fill from vertex 0 over the neighbour masks reaches
        every vertex."""
        nbr = self.nbr_masks
        seen = frontier = 1
        while frontier:
            frontier = _union(nbr, frontier) & ~seen
            seen |= frontier
        return seen == (1 << self.n_vertices) - 1

    def neighbors(self, v: int) -> Tuple[int, ...]:
        if not 0 <= v < self.n_vertices:
            raise ValueError(f"vertex {v} out of range")
        out = []
        rest = self.nbr_masks[v]
        while rest:
            low = rest & -rest
            out.append(low.bit_length() - 1)
            rest ^= low
        return tuple(out)


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
        for e, w in zip(self.tree_edges, self.charge):
            if w not in e:
                raise ValueError(f"charge vertex {w} not incident to edge {e}")
        if not is_spanning_tree(n, self.tree_edges):
            raise ValueError("tree edges close a cycle")

    def charge_vector(self) -> Tuple[int, ...]:
        c = [0] * self.n_vertices
        for w in self.charge:
            c[w] += 1
        return tuple(c)

    def as_dict(self) -> Dict[Edge, int]:
        return dict(zip(self.tree_edges, self.charge))


# ---------------------------------------------------------------- oracles

class _FamilyOracle(PolymatroidOracle):
    """A family's oracle: eval reads the subset function through the
    cache, table builds f at every mask by a subset recursion over the
    family's masks, and gains and gain are the family's closed forms on
    the state of the last base they were asked about.  The greedy and the
    coefficient table ask along one growing chain W_0 ⊂ W_1 ⊂ …, so the
    state grows by each base's new elements only; a base that does not
    contain the last one starts it again from ∅."""

    def __init__(self, ground: GroundSet, fn: Callable[[int], int]) -> None:
        super().__init__(ground, fn)
        self._base = 0
        self._reset()

    def _at(self, base: int) -> None:
        """Bring the kept state to base."""
        if base >> self.ground.m:
            raise ValueError("subset mask outside the ground set")
        if self._base & ~base:
            self._base = 0
            self._reset()
        if base != self._base:
            self._grow(base & ~self._base)
            self._base = base

    def gains(self, base: int) -> List[int]:
        self._at(base)
        return self._gains()

    def gain(self, base: int, j: int) -> int:
        if not 0 <= j < self.ground.m:
            raise ValueError("subset mask outside the ground set")
        self._at(base)
        return 0 if base >> j & 1 else self._gain(j)


class _CoverageOracle(_FamilyOracle):
    """f(S) = size of the union of masks[j] over j in S; the state is that
    union, and the gain of j is the part of masks[j] it leaves out."""

    def __init__(self, masks: Sequence[int]) -> None:
        self._masks = masks
        super().__init__(GroundSet(len(masks)),
                         lambda sub: _union(masks, sub).bit_count())

    def _reset(self) -> None:
        self._covered = 0

    def _grow(self, new: int) -> None:
        self._covered |= _union(self._masks, new)

    def _gains(self) -> List[int]:
        free = ~self._covered
        return [(mk & free).bit_count() for mk in self._masks]

    def _gain(self, j: int) -> int:
        return (self._masks[j] & ~self._covered).bit_count()

    def table(self) -> List[int]:
        return list(map(int.bit_count, _union_table(self._masks)))


def mesc_oracle(inst: SetCoverInstance) -> PolymatroidOracle:
    """f(S) = number of universe elements covered by the union of chosen sets."""
    return _CoverageOracle(inst.set_masks)


def meo_oracle(inst: GraphInstance) -> PolymatroidOracle:
    """f(S) = number of edges with at least one endpoint in S."""
    return _CoverageOracle(inst.incidence_masks)


class _TreeOracle(_FamilyOracle):
    """mest_oracle's rank and gains over the neighbour masks nbr and the
    distance-2 masks near of the graph, which the oracle reads but does
    not copy.  The state is S ∪ N(S) and the components of G²[S], each
    held as its members and their distance-2 reach."""

    def __init__(self, nbr: Sequence[int], near: Sequence[int]) -> None:
        n = len(nbr)
        self._nbr = nbr
        self._near = near
        self._closed = [nbr[v] | 1 << v for v in range(n)]

        # a closure, not a bound method: the oracle holding its own
        # method would be a reference cycle, freed only by the collector
        def rank(sub: int) -> int:
            comps = 0
            rest = sub
            while rest:
                comps += 1
                frontier = rest & -rest
                while frontier:
                    rest ^= frontier
                    frontier = _union(near, frontier) & rest
            return (sub | _union(nbr, sub)).bit_count() - comps

        super().__init__(GroundSet(n), rank)

    def _reset(self) -> None:
        self._covered = 0
        self._comps: List[Tuple[int, int]] = []

    def _grow(self, new: int) -> None:
        self._covered |= new | _union(self._nbr, new)
        comps = self._comps
        while new:
            low = new & -new
            new ^= low
            near = self._near[low.bit_length() - 1]
            # the new vertex fuses every component within distance 2
            members, reach = low, near
            rest = []
            for comp in comps:
                if comp[0] & near:
                    members |= comp[0]
                    reach |= comp[1]
                else:
                    rest.append(comp)
            rest.append((members, reach))
            comps = rest
        self._comps = comps

    def _gains(self) -> List[int]:
        base = self._base
        t = [0] * self.ground.m  # t[j]: components within distance 2 of j
        for _, reach in self._comps:
            reach &= ~base
            while reach:
                low = reach & -reach
                t[low.bit_length() - 1] += 1
                reach ^= low
        free = ~self._covered
        return [0 if base >> j & 1 else (closed & free).bit_count() - 1 + t[j]
                for j, closed in enumerate(self._closed)]

    def _gain(self, j: int) -> int:
        t = sum([reach >> j & 1 for _, reach in self._comps])
        return (self._closed[j] & ~self._covered).bit_count() - 1 + t

    def table(self) -> List[int]:
        covered = _union_table(self._closed)  # S ∪ N(S)
        reach = _union_table(self._near)
        comps = [0] * len(covered)  # comps[S]: the components of G²[S]
        for s in range(1, len(comps)):
            # the component of s's lowest vertex, by a flood fill over
            # reach; near holds that vertex only once it has an edge, so
            # it is ORed in.  The rest of s keeps its components.
            comp, grown = 0, s & -s
            while grown != comp:
                comp, grown = grown, reach[grown] & s | grown
            comps[s] = comps[s ^ comp] + 1
        return [c.bit_count() - k for c, k in zip(covered, comps)]


def mest_oracle(inst: GraphInstance) -> PolymatroidOracle:
    """Cycle-matroid rank of the edges adjacent to S.

    Those edges span S ∪ N(S), and each of their components holds a
    vertex of S.  Since every such edge has an endpoint in S, two
    vertices of S share a component exactly when a chain of vertices of
    S, each within distance 2 of the next, joins them.  So the rank is
    |S ∪ N(S)| minus the components of G²[S], which a bitmask flood fill
    over the distance-2 neighbourhoods counts.

    Adding j outside S covers the c_j vertices of N[j] outside S ∪ N(S)
    and fuses j with the t_j components of G²[S] within distance 2 of
    it, so its gain is c_j - 1 + t_j.

    The neighbour and distance-2 masks are the instance's nbr_masks and
    distance2_masks, derived once per instance; each oracle keeps its
    own eval cache and chain state.
    """
    if not inst.is_connected():
        raise ValueError("spanning-tree oracle requires a connected graph")
    return _TreeOracle(inst.nbr_masks, inst.distance2_masks)


def complete_mest_solution(inst: GraphInstance, trace: "GreedyTrace") -> TreeCoverSolution:
    """Realize a greedy trace as an actual charged spanning tree.

    Stage r adds exactly delta_r edges incident to the chosen vertex: one
    per pre-existing tree component among its neighbors (lowest-index
    neighbor within each component), which includes every untouched
    neighbor as its own singleton component.  All added edges are charged
    to the chosen vertex, so the charge vector equals the trace's cover.
    Any order whose deltas are the oracle's marginals along it will do,
    not only a greedy one: the β = 1 certificate passes tight orders of
    optima.
    """
    n = inst.n_vertices
    nbr = inst.nbr_masks
    parent = list(range(n))
    tree: List[Edge] = []
    charge: List[int] = []
    for r, ir in enumerate(trace.order):
        comp_pick: Dict[int, int] = {}
        own = find(parent, ir)
        rest = nbr[ir]
        while rest:  # ascending bits => lowest-index neighbour per component
            low = rest & -rest
            rest ^= low
            k = low.bit_length() - 1
            c = find(parent, k)
            if c != own and c not in comp_pick:
                comp_pick[c] = k
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
    validate_cover reads f at all 2^m subsets.
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
    input.  The parser checks the text, a set line repeating an element
    included, and leaves each set and edge to the instance constructor,
    so of several faults it names a text fault first, in file order,
    then the first refused set in file order or edge in sorted order.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bytes before the bad one decode; "x" stands in for it,
            # so splitlines counts the line it sits on
            ln = len((data[:exc.start].decode("utf-8") + "x").splitlines())
            raise ValueError(f"line {ln}: byte 0x{data[exc.start]:02x} is not "
                             f"UTF-8 text ({exc.reason})") from None
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
    forms = {"mesc": "mesc m n", "graph": "graph n_vertices n_edges"}
    if parts[0] not in forms:
        raise ValueError(f"line {hdr_ln}: unknown header '{parts[0]}' (want 'mesc' or 'graph')")
    if len(parts) != 3:
        raise ValueError(f"line {hdr_ln}: expected '{forms[parts[0]]}'")
    try:
        first, second = int(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"line {hdr_ln}: non-integer header fields") from None
    mesc = parts[0] == "mesc"
    size, count = (second, first) if mesc else (first, second)
    if len(rows) - 1 != count:
        raise ValueError(f"line {hdr_ln}: expected {count} {'set' if mesc else 'edge'} "
                         f"lines, found {len(rows) - 1}")
    # the constructor checks every set or edge; lines[i] is item i's line
    if mesc:
        cls, items = SetCoverInstance, []
        for ln, body in rows[1:]:
            try:
                elems = list(map(int, body.split()))
            except ValueError:
                raise ValueError(f"line {ln}: non-integer element index") from None
            items.append(frozenset(elems))
            if len(items[-1]) < len(elems):
                dup = next(e for i, e in enumerate(elems) if e in elems[:i])
                raise ValueError(f"line {ln}: duplicate element {dup}")
        lines = [ln for ln, _ in rows[1:]]
    else:
        cls, pairs = GraphInstance, []
        for ln, body in rows[1:]:
            toks = body.split()
            if len(toks) != 2:
                raise ValueError(f"line {ln}: expected 'u v'")
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                raise ValueError(f"line {ln}: non-integer vertex") from None
            pairs.append(((u, v) if u < v else (v, u), ln))
        pairs.sort()  # by edge; equal edges keep their file order
        items = [e for e, _ in pairs]
        lines = [ln for _, ln in pairs]
    try:
        return cls(size, tuple(items))
    except _ItemError as exc:
        raise ValueError(f"line {lines[exc.item]}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"line {hdr_ln}: {exc}") from None


# -------------------------------------------------------------- generators

_GRAPH_DEFAULTS = {"n_vertices": 7, "extra_edge_prob": 0.3}
_GEN_DEFAULTS = {"mesc": {"m": 5, "n": 8, "density": 0.3},
                 "meo": _GRAPH_DEFAULTS, "mest": _GRAPH_DEFAULTS}


def generate_random(kind: str, seed: int, **params):
    """Seeded random instance.  kinds: 'mesc' (params m, n, density),
    'meo'/'mest' (params n_vertices, extra_edge_prob).  Graph instances are
    always connected (spanning-tree skeleton plus random extra edges).
    Raises ValueError for another kind, a parameter the kind does not
    take, or a probability outside [0, 1]."""
    if kind not in _GEN_DEFAULTS:
        raise ValueError(f"unknown instance kind '{kind}'")
    defaults = _GEN_DEFAULTS[kind]
    unknown = [k for k in params if k not in defaults]
    if unknown:
        raise ValueError(f"{kind} takes no parameter {', '.join(unknown)}; "
                         f"its parameters are {', '.join(defaults)}")
    params = {**defaults, **params}
    for k in ("density", "extra_edge_prob"):
        if k in params and not 0 <= params[k] <= 1:
            raise ValueError(f"{k} must lie in [0, 1], got {params[k]}")
    rng = random.Random(seed)
    if kind == "mesc":
        m, n, density = params["m"], params["n"], params["density"]
        if m < 1 or n < 1:
            raise ValueError(f"mesc needs at least one set and one element, "
                             f"got m={m}, n={n}")
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
    nv, p = params["n_vertices"], params["extra_edge_prob"]
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
