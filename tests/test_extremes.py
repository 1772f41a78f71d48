"""Every public entry point that takes numbers, tried at the extremes.

Each numeric argument is tried at 0, the smallest subnormals, the
largest finite floats, the infinities, NaN, a bool, a numeric string and
a two-element array. The outcome must be either a ValueError (or a
subclass) raised by one of the package's own checks, or finite values;
no warning may escape (the suite turns every warning into an error).
"""

import dataclasses
import math
import numbers
import traceback
from pathlib import Path

import numpy as np
import pytest

import smoothstl
from smoothstl import (
    CallablePredicate,
    Interval,
    LinearPredicate,
    RegionTable,
    SemanticsConfig,
    SynthesisProblem,
    builtin_model,
    eval_with_gradient,
    evaluate,
    finite_difference_gradient,
    grad_smooth_max,
    grad_smooth_min,
    builtin_scenario,
    k_continuation,
    lse_max,
    max_error_bound,
    min_error_bound,
    parse,
    run_bench,
    single_integrator_2d,
    smooth_max,
    smooth_min,
)

PACKAGE = Path(smoothstl.__file__).resolve().parent

EXTREMES = [
    0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
    True, "1", np.array([1.0, 2.0]),
]

PHI = parse("y0 >= 0 U[0,1] y1 >= 0 and F[0,1] -y1 >= -3", p=2)
SIGNAL = [[1.0, 2.0], [3.0, -1.0], [0.5, 0.25]]
EF = SemanticsConfig.ef(2.0, 2.0)
REGIONS = RegionTable({"box": {0: (0.0, 1.0)}})
SCENARIO = dataclasses.replace(builtin_scenario("two_target"), restarts=0, max_iters=2)
PROBLEM = SynthesisProblem(
    single_integrator_2d(), (0.0, 0.0), parse("F[0,3] y0 >= 1", p=4), T=3,
    k1=2.0, k2=2.0, restarts=1, max_iters=3,
)


def pair(v):
    """A descending pair that spans the value's magnitude, where it has one."""
    return [v, -v] if isinstance(v, float) else [v, v]


# (name, call of the value)
CALLS = [
    ("smooth_min a", lambda v: smooth_min(v, 2.0)),
    ("smooth_min a pair", lambda v: smooth_min(pair(v), 2.0)),
    ("smooth_min k1", lambda v: smooth_min([1.0, -2.0], v)),
    ("smooth_max a", lambda v: smooth_max(v, 2.0)),
    ("smooth_max a pair", lambda v: smooth_max(pair(v), 2.0)),
    ("smooth_max k2", lambda v: smooth_max([1.0, -2.0], v)),
    ("lse_max a", lambda v: lse_max(v, 2.0)),
    ("lse_max a pair", lambda v: lse_max(pair(v), 2.0)),
    ("lse_max k", lambda v: lse_max([1.0, -2.0], v)),
    ("grad_smooth_min a", lambda v: grad_smooth_min(pair(v), 2.0)),
    ("grad_smooth_min k1", lambda v: grad_smooth_min([1.0, -2.0], v)),
    ("grad_smooth_max a", lambda v: grad_smooth_max(pair(v), 2.0)),
    ("grad_smooth_max k2", lambda v: grad_smooth_max([1.0, -2.0], v)),
    ("min_error_bound m", lambda v: min_error_bound(v, 2.0)),
    ("min_error_bound k1", lambda v: min_error_bound(3, v)),
    ("max_error_bound a", lambda v: max_error_bound(pair(v), 1.0)),
    ("max_error_bound a at k2 = 0", lambda v: max_error_bound(pair(v), 0.0)),
    ("max_error_bound k2", lambda v: max_error_bound([1.0, -2.0], v)),
    ("SemanticsConfig.ef k1", lambda v: SemanticsConfig.ef(v, 2.0)),
    ("SemanticsConfig.ef k2", lambda v: SemanticsConfig.ef(2.0, v)),
    ("SemanticsConfig.lse k", lambda v: SemanticsConfig.lse(v)),
    ("evaluate t", lambda v: evaluate(PHI, SIGNAL, t=v)),
    ("evaluate classic_until", lambda v: evaluate(PHI, SIGNAL, config=EF, classic_until=v)),
    ("eval_with_gradient t", lambda v: eval_with_gradient(PHI, SIGNAL, t=v, config=EF)),
    ("eval_with_gradient classic_until",
     lambda v: eval_with_gradient(PHI, SIGNAL, config=EF, classic_until=v)),
    ("finite_difference_gradient h",
     lambda v: finite_difference_gradient(PHI, SIGNAL, config=EF, h=v)),
    ("finite_difference_gradient classic_until",
     lambda v: finite_difference_gradient(PHI, SIGNAL, config=EF, classic_until=v)),
    ("parse p", lambda v: parse("y0 >= 0", p=v)),
    ("RegionTable.conjunction p", lambda v: REGIONS.conjunction("box", v)),
    ("RegionTable.complement p", lambda v: REGIONS.complement("box", v)),
    ("builtin_model dt", lambda v: builtin_model("single_integrator_2d", v)),
    ("builtin_model dt, differential drive", lambda v: builtin_model("differential_drive", v)),
    ("k_continuation schedule", lambda v: k_continuation(PROBLEM, v)),
    ("k_continuation schedule entry", lambda v: k_continuation(PROBLEM, [v])),
    ("k_continuation second schedule entry", lambda v: k_continuation(PROBLEM, [0.5, v])),
    # a spent budget stops a run of 1e308 trials after the first
    ("run_bench trials", lambda v: run_bench(SCENARIO, v, 0.0)),
    ("run_bench time_budget_s", lambda v: run_bench(SCENARIO, 2, v)),
    # constructors only: a synthesize() run with restarts = 1e308 never ends
    ("LinearPredicate coefficient", lambda v: LinearPredicate((1.0, v), 0.5)),
    ("LinearPredicate offset", lambda v: LinearPredicate((1.0,), v)),
    ("Interval lo", lambda v: Interval(v, 3)),
    ("CallablePredicate dim", lambda v: CallablePredicate(fn=lambda y: float(y[0]), dim=v)),
    ("RegionTable bound", lambda v: RegionTable({"box": {0: (-1.0, v)}})),
    ("RegionTable.inflated margin", lambda v: REGIONS.inflated(v)),
    ("ScenarioConfig dt", lambda v: dataclasses.replace(SCENARIO, dt=v)),
    ("ScenarioConfig obstacle_inflation",
     lambda v: dataclasses.replace(SCENARIO, obstacle_inflation=v)),
    ("SynthesisProblem k1", lambda v: dataclasses.replace(PROBLEM, k1=v)),
    ("SynthesisProblem k2", lambda v: dataclasses.replace(PROBLEM, k2=v)),
    ("SynthesisProblem control_weight", lambda v: dataclasses.replace(PROBLEM, control_weight=v)),
    ("SynthesisProblem tolerance", lambda v: dataclasses.replace(PROBLEM, tolerance=v)),
]


def finite(result):
    """Whether every number the result holds is finite."""
    if isinstance(result, numbers.Real):
        return math.isfinite(result)
    if isinstance(result, np.ndarray):
        return bool(np.isfinite(result).all())
    if isinstance(result, (list, tuple)):
        return all(map(finite, result))
    if dataclasses.is_dataclass(result):
        return all(finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    return True


@pytest.mark.parametrize("value", EXTREMES, ids=repr)
@pytest.mark.parametrize("name,call", CALLS, ids=[name for name, _ in CALLS])
def test_a_named_error_or_finite_values(name, call, value):
    try:
        result = call(value)
    except ValueError as exc:
        # the innermost frame is a raise statement of the package
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        assert Path(frame.filename).resolve().is_relative_to(PACKAGE), exc
        assert frame.line.startswith("raise"), exc
        return
    assert finite(result), result
