"""The package namespace: __all__ is built from the names __init__ imports."""

import ast
import importlib
import types
from pathlib import Path

import smoothstl
from smoothstl.scenarios import ScenarioConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_all_names_exactly_the_public_api():
    names = smoothstl.__all__
    assert len(names) == len(set(names)) == 71
    for name in names:
        assert not name.startswith("_") or name == "__version__"
        assert not isinstance(getattr(smoothstl, name), types.ModuleType)
    namespace = {}
    exec("from smoothstl import *", namespace)
    assert set(names) <= namespace.keys()


def _perfbench_reads():
    """[module, attribute, ...] for every smoothstl name the benchmark's
    scripts read: sst.<name> (sst is the package there),
    smoothstl.<module>.<name>, and from smoothstl.<module> import <name>."""
    reads = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("smoothstl"):
                reads += [[node.module, alias.name] for alias in node.names]
            elif isinstance(node, ast.Attribute):
                chain, root = [node.attr], node.value
                while isinstance(root, ast.Attribute):
                    chain.insert(0, root.attr)
                    root = root.value
                if isinstance(root, ast.Name) and root.id in ("sst", "smoothstl"):
                    reads.append(["smoothstl"] + chain)
    return reads


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

    # every other name perfbench reads: one the package lost would crash
    # the benchmark without failing any other test
    reads = _perfbench_reads()
    assert {"smoothstl.rollout_with_sensitivities", "smoothstl.node_count",
            "smoothstl.scenarios.scenario_from_json_dict"} <= {".".join(r) for r in reads}
    for module, *attrs in reads:
        owner = importlib.import_module(module)
        for attr in attrs:
            assert hasattr(owner, attr), (module, attrs)
            owner = getattr(owner, attr)
    # run.py calls it on the workload's config, which ast cannot type
    assert isinstance(vars(ScenarioConfig).get("effective_regions"), types.FunctionType)
