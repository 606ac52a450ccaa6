"""The package's public surface: every name in ``dremobs.__all__`` resolves."""

import dremobs


def test_star_import_binds_every_public_name():
    # A stale entry (a name whose module or definition is gone) makes
    # ``from dremobs import *`` raise AttributeError.
    namespace = {}
    exec("from dremobs import *", namespace)
    for name in dremobs.__all__:
        assert namespace[name] is getattr(dremobs, name), name


def test_public_names_are_unique():
    names = dremobs.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
