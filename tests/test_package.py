"""The package namespace: every exported name resolves."""

import worldtrack


def test_all_names_resolve():
    missing = [name for name in worldtrack.__all__ if not hasattr(worldtrack, name)]
    assert missing == []
    assert len(set(worldtrack.__all__)) == len(worldtrack.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from worldtrack import *", namespace)
    assert set(worldtrack.__all__) <= namespace.keys()
