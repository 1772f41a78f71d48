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


def test_benchmark_tracer_names_exist():
    # perfbench's tracer wraps these attributes by name and silently skips
    # one that is missing, so a rename would blind the trace without failing
    import smoothstl.optimizer
    from smoothstl.dynamics import SensitivityRollout

    for owner, names in (
        (smoothstl.optimizer, ("objective", "rollout", "evaluate")),
        (SensitivityRollout, ("control_gradient",)),
        (smoothstl, ("evaluate", "eval_with_gradient")),
    ):
        for name in names:
            assert isinstance(vars(owner).get(name), types.FunctionType), (owner, name)
