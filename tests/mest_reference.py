"""Spanning-tree references independent of the package's own routes.

mest_by_tree_enumeration finds the optima without the subset DP behind
exact_cover and exact_mest: every spanning tree is charged optimally by
the tree DP, and the trees that attain the best weight then have all
2^(n-1) charges swept to collect every optimal charge vector.

rank_by_union_find evaluates the spanning-tree oracle by contracting the
edges adjacent to S in a disjoint-set forest, not by mest_oracle's
distance-2 flood fill.
"""

from entcover.core import Cover, entropy_from_weight, weight_product
from entcover.exact import Optimum, _best_charge_weight, _spanning_trees
from entcover.instances import find


def rank_by_union_find(inst, sub):
    """Cycle-matroid rank of the edges with an endpoint in sub: the
    vertices they touch minus the components they form."""
    parent = list(range(inst.n_vertices))
    touched = set()
    for (u, v) in inst.edges:
        if (sub >> u) & 1 or (sub >> v) & 1:
            touched.update((u, v))
            parent[find(parent, u)] = find(parent, v)
    return len(touched) - len({find(parent, x) for x in touched})


def mest_by_tree_enumeration(inst):
    n = inst.n_vertices
    ne = n - 1
    best_w = -1
    best_trees = []
    self_pow = [j ** j for j in range(n)]
    for tree_idx in _spanning_trees(n, inst.edges):
        w = _best_charge_weight([inst.edges[i] for i in tree_idx], self_pow)
        if w > best_w:
            best_w, best_trees = w, [tree_idx]
        elif w == best_w:
            best_trees.append(tree_idx)
    found = set()
    for tree_idx in best_trees:
        tree = tuple(inst.edges[i] for i in tree_idx)
        for mask in range(1 << ne):
            charge = tuple(u if (mask >> i) & 1 else v
                           for i, (u, v) in enumerate(tree))
            c = [0] * n
            for w in charge:
                c[w] += 1
            if weight_product(c) == best_w:
                found.add(tuple(c))
    return Optimum(entropy_from_weight(best_w, ne),
                   tuple(Cover(t) for t in sorted(found)))
