import entcover


def test_star_import_resolves_every_export():
    # an export that outlives its function fails here, not at a user's import
    names = {}
    exec("from entcover import *", names)
    assert len(entcover.__all__) == len(set(entcover.__all__))
    for name in entcover.__all__:
        assert names[name] is getattr(entcover, name), name
    for gone in ("specialized_coefficients", "Distribution",
                 "OrientationSolution"):
        assert gone not in entcover.__all__, gone
