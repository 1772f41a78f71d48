"""The package namespace: __all__ is built from the names __init__ imports."""

import types

import smoothstl


def test_all_names_exactly_the_public_api():
    names = smoothstl.__all__
    assert len(names) == len(set(names)) == 71
    for name in names:
        assert not name.startswith("_") or name == "__version__"
        assert not isinstance(getattr(smoothstl, name), types.ModuleType)
    namespace = {}
    exec("from smoothstl import *", namespace)
    assert set(names) <= namespace.keys()
