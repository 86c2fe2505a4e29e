import ast
import dataclasses

import entcover
from entcover import exact


def test_star_import_resolves_every_export():
    # an export that outlives its function fails here, not at a user's import
    names = {}
    exec("from entcover import *", names)
    assert len(entcover.__all__) == len(set(entcover.__all__))
    for name in entcover.__all__:
        assert names[name] is getattr(entcover, name), name
    for gone in ("specialized_coefficients", "Distribution",
                 "OrientationSolution", "popcount", "extract_assignment",
                 "check_assignment", "PathOrdering", "canonical_order",
                 "check_admissible"):
        assert gone not in entcover.__all__, gone
        assert not hasattr(entcover, gone), gone


def test_optimum_is_entropy_and_covers():
    # an optimum is the same shape for every family: no witness objects
    names = [f.name for f in dataclasses.fields(entcover.Optimum)]
    assert names == ["entropy", "covers"]


def test_flow_is_its_paths_and_arcs():
    # level counts and q follow from the paths and arcs, so only they are kept
    names = [f.name for f in dataclasses.fields(entcover.MultiLevelFlow)]
    assert names == ["paths", "arcs"]


def test_exact_layer_imports_no_greedy_or_certificate():
    with open(exact.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    for gone in (".greedy", ".certify", "entcover.greedy", "entcover.certify"):
        assert gone not in imported, gone
    assert ".core" in imported and ".instances" in imported
