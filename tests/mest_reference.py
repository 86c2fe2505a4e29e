"""Spanning-tree optima by tree enumeration, a route independent of the
cover enumerator behind exact_cover and exact_mest.

Every spanning tree is charged optimally by the tree DP; the trees that
attain the best weight then have all 2^(n-1) charges swept to collect
every optimal charge vector.
"""

from entcover.core import Cover, entropy_from_weight, weight_product
from entcover.exact import Optimum, _best_charge_weight, _spanning_trees
from entcover.instances import TreeCoverSolution


def mest_by_tree_enumeration(inst):
    n = inst.n_vertices
    ne = n - 1
    best_w = -1
    best_trees = []
    for tree_idx in _spanning_trees(n, inst.edges):
        w = _best_charge_weight(n, [inst.edges[i] for i in tree_idx])
        if w > best_w:
            best_w, best_trees = w, [tree_idx]
        elif w == best_w:
            best_trees.append(tree_idx)
    found = {}
    for tree_idx in best_trees:
        tree = tuple(inst.edges[i] for i in tree_idx)
        for mask in range(1 << ne):
            charge = tuple(u if (mask >> i) & 1 else v
                           for i, (u, v) in enumerate(tree))
            c = [0] * n
            for w in charge:
                c[w] += 1
            if weight_product(c) == best_w:
                found.setdefault(tuple(c), TreeCoverSolution(n, tree, charge))
    vecs = sorted(found)
    return Optimum(entropy_from_weight(best_w, ne),
                   tuple(Cover(t) for t in vecs),
                   tuple(found[t] for t in vecs))
