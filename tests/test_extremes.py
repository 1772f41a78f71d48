"""Every public entry point that takes numbers, tried at the extremes.

Each numeric argument is tried at 0, the smallest subnormals, the
largest finite floats, the infinities, NaN, a bool, a numeric string and
a two-element array. Each array argument is tried as a complex, bool or
string array, with a bool, None, NaN or inf among its entries, ragged,
empty, 0-d and 3-D. The outcome must be either a ValueError (or a
subclass) raised by one of the package's own checks, whose message reads
"key: why" with the argument's key, or finite values; no warning may
escape (the suite turns every warning into an error).

Each function of a model and of a callable predicate is also made to
return a complex, bool, string, None or wrong-shaped result, which must
be refused the same way under the function's name, and a nan or inf
result, which must still be a divergence or a refused margin.
"""

import dataclasses
import math
import numbers
import re
import traceback
from pathlib import Path

import numpy as np
import pytest

import smoothstl
from smoothstl import (
    CallablePredicate,
    Interval,
    LinearPredicate,
    Pred,
    RegionTable,
    RobustnessGradient,
    RolloutDivergence,
    SemanticsConfig,
    SemanticsError,
    Signal,
    SynthesisProblem,
    builtin_model,
    eval_with_gradient,
    evaluate,
    finite_difference_gradient,
    grad_smooth_max,
    grad_smooth_min,
    build_problem,
    builtin_scenario,
    k_continuation,
    lse_max,
    max_error_bound,
    min_error_bound,
    objective,
    parse,
    rollout,
    rollout_with_sensitivities,
    run_bench,
    run_scaling,
    save_controls_csv,
    save_gradient_csv,
    save_signal_csv,
    scene_svg,
    single_integrator_2d,
    smooth_max,
    smooth_min,
    synthesize,
)
from smoothstl.scenarios import aggregate_bench

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


# (name, the key its refusals start with as a regular expression, call of
# the value)
CALLS = [
    ("smooth_min a", "a", lambda v: smooth_min(v, 2.0)),
    ("smooth_min a pair", "a", lambda v: smooth_min(pair(v), 2.0)),
    ("smooth_min k1", "k1", lambda v: smooth_min([1.0, -2.0], v)),
    ("smooth_max a", "a", lambda v: smooth_max(v, 2.0)),
    ("smooth_max a pair", "a", lambda v: smooth_max(pair(v), 2.0)),
    ("smooth_max k2", "k2", lambda v: smooth_max([1.0, -2.0], v)),
    ("lse_max a", "a", lambda v: lse_max(v, 2.0)),
    ("lse_max a pair", "a", lambda v: lse_max(pair(v), 2.0)),
    ("lse_max k", "k", lambda v: lse_max([1.0, -2.0], v)),
    ("grad_smooth_min a", "a", lambda v: grad_smooth_min(pair(v), 2.0)),
    ("grad_smooth_min k1", "k1", lambda v: grad_smooth_min([1.0, -2.0], v)),
    ("grad_smooth_max a", "a", lambda v: grad_smooth_max(pair(v), 2.0)),
    ("grad_smooth_max k2", "k2", lambda v: grad_smooth_max([1.0, -2.0], v)),
    ("min_error_bound m", "m", lambda v: min_error_bound(v, 2.0)),
    ("min_error_bound k1", "k1", lambda v: min_error_bound(3, v)),
    ("max_error_bound a", "a", lambda v: max_error_bound(pair(v), 1.0)),
    ("max_error_bound a at k2 = 0", "a", lambda v: max_error_bound(pair(v), 0.0)),
    ("max_error_bound k2", "k2", lambda v: max_error_bound([1.0, -2.0], v)),
    ("SemanticsConfig.ef k1", "k1", lambda v: SemanticsConfig.ef(v, 2.0)),
    ("SemanticsConfig.ef k2", "k2", lambda v: SemanticsConfig.ef(2.0, v)),
    ("SemanticsConfig.lse k", "k", lambda v: SemanticsConfig.lse(v)),
    # a time past the signal's end is refused as a signal too short
    ("evaluate t", "t|signal", lambda v: evaluate(PHI, SIGNAL, t=v)),
    ("evaluate classic_until", "classic_until",
     lambda v: evaluate(PHI, SIGNAL, config=EF, classic_until=v)),
    ("eval_with_gradient t", "t|signal", lambda v: eval_with_gradient(PHI, SIGNAL, t=v, config=EF)),
    ("eval_with_gradient classic_until", "classic_until",
     lambda v: eval_with_gradient(PHI, SIGNAL, config=EF, classic_until=v)),
    ("finite_difference_gradient h", "h",
     lambda v: finite_difference_gradient(PHI, SIGNAL, config=EF, h=v)),
    ("finite_difference_gradient classic_until", "classic_until",
     lambda v: finite_difference_gradient(PHI, SIGNAL, config=EF, classic_until=v)),
    ("parse p", "signal dimension p", lambda v: parse("y0 >= 0", p=v)),
    ("RegionTable.conjunction p", "signal dimension p", lambda v: REGIONS.conjunction("box", v)),
    ("RegionTable.complement p", "signal dimension p", lambda v: REGIONS.complement("box", v)),
    ("builtin_model dt", "dt", lambda v: builtin_model("single_integrator_2d", v)),
    ("builtin_model dt, differential drive", "dt",
     lambda v: builtin_model("differential_drive", v)),
    ("k_continuation schedule", "k_schedule", lambda v: k_continuation(PROBLEM, v)),
    ("k_continuation schedule entry", "k_schedule", lambda v: k_continuation(PROBLEM, [v])),
    ("k_continuation second schedule entry", "k_schedule",
     lambda v: k_continuation(PROBLEM, [0.5, v])),
    # a spent budget stops a run of 1e308 trials after the first
    ("run_bench trials", "trials", lambda v: run_bench(SCENARIO, v, 0.0)),
    ("run_bench time_budget_s", "time_budget_s", lambda v: run_bench(SCENARIO, 2, v)),
    # constructors only: a synthesize() run with restarts = 1e308 never ends
    ("LinearPredicate coefficient", "coefficient", lambda v: LinearPredicate((1.0, v), 0.5)),
    ("LinearPredicate offset", "offset", lambda v: LinearPredicate((1.0,), v)),
    ("Interval lo", "interval bound", lambda v: Interval(v, 3)),
    ("CallablePredicate dim", "dim",
     lambda v: CallablePredicate(fn=lambda y: float(y[0]), dim=v)),
    # a bound is named by its region, its dimension or its side
    ("RegionTable bound", "region 'box'( dimension 0| upper bound)?",
     lambda v: RegionTable({"box": {0: (-1.0, v)}})),
    ("RegionTable.inflated margin", "inflation margin", lambda v: REGIONS.inflated(v)),
    ("ScenarioConfig dt", "dt", lambda v: dataclasses.replace(SCENARIO, dt=v)),
    ("ScenarioConfig T", "T", lambda v: dataclasses.replace(SCENARIO, T=v)),
    ("ScenarioConfig obstacle_inflation", "obstacle_inflation",
     lambda v: dataclasses.replace(SCENARIO, obstacle_inflation=v)),
    ("SynthesisProblem T", "T", lambda v: dataclasses.replace(PROBLEM, T=v)),
    ("SynthesisProblem k1", "k1", lambda v: dataclasses.replace(PROBLEM, k1=v)),
    ("SynthesisProblem k2", "k2", lambda v: dataclasses.replace(PROBLEM, k2=v)),
    ("SynthesisProblem control_weight", "control_weight",
     lambda v: dataclasses.replace(PROBLEM, control_weight=v)),
    ("SynthesisProblem restarts", "restarts", lambda v: dataclasses.replace(PROBLEM, restarts=v)),
    ("SynthesisProblem seed", "seed", lambda v: dataclasses.replace(PROBLEM, seed=v)),
    ("SynthesisProblem max_iters", "max_iters",
     lambda v: dataclasses.replace(PROBLEM, max_iters=v)),
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


def assert_named(exc, key):
    """exc is raised by a raise statement of the package, and its message
    reads "key: why"."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    assert Path(frame.filename).resolve().is_relative_to(PACKAGE), exc
    assert frame.line.startswith("raise"), exc
    assert re.match(f"(?:{key}): ", str(exc)), exc


@pytest.mark.parametrize("value", EXTREMES, ids=repr)
@pytest.mark.parametrize("name,key,call", CALLS, ids=[name for name, *_ in CALLS])
def test_a_named_error_or_finite_values(name, key, call, value):
    try:
        result = call(value)
    except ValueError as exc:
        assert_named(exc, key)
        return
    assert finite(result), result


# (the message of a refusal that no extreme value above reaches, its call)
REFUSALS = [
    ("interval: needs lo <= hi, got [3,1]", lambda: Interval(3, 1)),
    ("signal: needs 2 dimensions for a predicate, got 4", lambda: evaluate(PHI, np.zeros((3, 4)))),
    ("region 'box' dimension: must be nonnegative",
     lambda: RegionTable({"box": {-1: (0.0, 1.0)}})),
    ("region 'box' dimension 0: needs lower < upper, got [1.0, 1.0]",
     lambda: RegionTable({"box": {0: (1.0, 1.0)}})),
    ("T: must be positive", lambda: dataclasses.replace(SCENARIO, T=0)),
    ("T: must be nonnegative", lambda: dataclasses.replace(PROBLEM, T=-1)),
    ("time_budget_s: must be nonnegative", lambda: run_bench(SCENARIO, 1, -1.0)),
    ("text: needs a string, got 123", lambda: parse(123)),
    ("text: needs a string, got b'y0 >= 0'", lambda: parse(b"y0 >= 0")),
    ("config: eval_with_gradient needs ef semantics, got 'ef'",
     lambda: eval_with_gradient(PHI, SIGNAL, config="ef")),
    ("config: needs a SemanticsConfig, got None", lambda: finite_difference_gradient(PHI, SIGNAL)),
    ("nothing to aggregate: no bench records", lambda: aggregate_bench([])),
    ("coefficients: needs a list, got 3", lambda: LinearPredicate(3, 0.0)),
    ("n_values: needs a list of whole numbers, got 5", lambda: run_scaling(n_values=5)),
]


@pytest.mark.parametrize("message,call", REFUSALS, ids=[message for message, _ in REFUSALS])
def test_a_refusal_names_its_key(message, call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    assert_named(info.value, re.escape(message.split(": ")[0]))


def entry(good, value):
    """good as nested lists, its first number replaced by value."""
    nested = np.array(good, dtype=object)
    nested.flat[0] = value
    return nested.tolist()


def nan_entry(good):
    """good as a float array, its first number nan."""
    array = np.array(good, dtype=float)
    array.flat[0] = math.nan
    return array


# (id, the variant of a good array argument)
ARRAYS = [
    ("complex", lambda good: np.asarray(good, dtype=float) + 1j),
    ("bool", lambda good: np.asarray(good, dtype=float) > 0),
    ("string", lambda good: np.asarray(good, dtype=float).astype(str)),
    ("a bool among floats", lambda good: entry(good, True)),
    ("None among floats", lambda good: entry(good, None)),
    ("ragged", lambda good: [[1.0], [1.0, 2.0]]),
    ("a nan entry", nan_entry),
    ("an inf entry", lambda good: entry(good, math.inf)),
    ("empty", lambda good: np.empty((0,) + np.shape(good)[1:])),
    ("0-d", lambda good: np.array(1.0)),
    ("3-D", lambda good: np.zeros((2, 2, 2))),
]

U = np.zeros((PROBLEM.T + 1, 2))
SENS = rollout_with_sensitivities(PROBLEM.model, PROBLEM.x0, U)
DIFFDRIVE = builtin_scenario("table2_diffdrive")
PAIRS = ((-1.0, 1.0), (-1.0, 1.0))

# (name, the key of its refusals, a good value, call of the value and a
# scratch directory)
ARRAY_CALLS = [
    ("Signal", "signal", SIGNAL, lambda v, tmp: Signal(v)),
    ("evaluate signal", "signal", SIGNAL, lambda v, tmp: evaluate(PHI, v)),
    ("eval_with_gradient signal", "signal", SIGNAL,
     lambda v, tmp: eval_with_gradient(PHI, v, config=EF)),
    ("finite_difference_gradient signal", "signal", SIGNAL,
     lambda v, tmp: finite_difference_gradient(PHI, v, config=EF)),
    ("rollout x0", "x0", PROBLEM.x0, lambda v, tmp: rollout(PROBLEM.model, v, U)),
    ("rollout u", "u", U, lambda v, tmp: rollout(PROBLEM.model, PROBLEM.x0, v)),
    ("rollout_with_sensitivities x0", "x0", PROBLEM.x0,
     lambda v, tmp: rollout_with_sensitivities(PROBLEM.model, v, U)),
    ("rollout_with_sensitivities u", "u", U,
     lambda v, tmp: rollout_with_sensitivities(PROBLEM.model, PROBLEM.x0, v)),
    ("control_gradient dsignal", "dsignal", SENS.signal.values,
     lambda v, tmp: SENS.control_gradient(v)),
    ("objective u", "u", U, lambda v, tmp: objective(PROBLEM, v)),
    ("objective u stack", "u", [U, U], lambda v, tmp: objective(PROBLEM, v)),
    ("save_signal_csv", "signal", SIGNAL, lambda v, tmp: save_signal_csv(v, tmp / "y.csv")),
    ("save_controls_csv", "u", U, lambda v, tmp: save_controls_csv(v, tmp / "u.csv")),
    ("save_gradient_csv", "d_y", SIGNAL,
     lambda v, tmp: save_gradient_csv(RobustnessGradient(0.0, v), tmp / "d_y.csv")),
    ("smooth_min a", "a", [1.0, -2.0], lambda v, tmp: smooth_min(v, 2.0)),
    ("smooth_max a", "a", [1.0, -2.0], lambda v, tmp: smooth_max(v, 2.0)),
    ("lse_max a", "a", [1.0, -2.0], lambda v, tmp: lse_max(v, 2.0)),
    ("grad_smooth_min a", "a", [1.0, -2.0], lambda v, tmp: grad_smooth_min(v, 2.0)),
    ("grad_smooth_max a", "a", [1.0, -2.0], lambda v, tmp: grad_smooth_max(v, 2.0)),
    ("max_error_bound a", "a", [1.0, -2.0], lambda v, tmp: max_error_bound(v, 1.0)),
    ("scene_svg trajectory", "trajectory", SIGNAL, lambda v, tmp: scene_svg(REGIONS, [v])),
    ("SynthesisProblem x0", "x0", PROBLEM.x0,
     lambda v, tmp: dataclasses.replace(PROBLEM, x0=v)),
    ("SynthesisProblem control_bounds", "control_bounds", PAIRS,
     lambda v, tmp: dataclasses.replace(PROBLEM, control_bounds=v)),
    ("ScenarioConfig x0", "x0", SCENARIO.x0, lambda v, tmp: dataclasses.replace(SCENARIO, x0=v)),
    ("ScenarioConfig x0_box", "x0_box", PAIRS,
     lambda v, tmp: dataclasses.replace(SCENARIO, x0=None, x0_box=v)),
    ("ScenarioConfig x0_box, differential drive", "x0_box", DIFFDRIVE.x0_box,
     lambda v, tmp: dataclasses.replace(DIFFDRIVE, x0_box=v)),
    ("ScenarioConfig control_bounds", "control_bounds", PAIRS,
     lambda v, tmp: dataclasses.replace(SCENARIO, control_bounds=v)),
]


@pytest.mark.parametrize("variant", [make for _, make in ARRAYS], ids=[key for key, _ in ARRAYS])
@pytest.mark.parametrize("name,key,good,call", ARRAY_CALLS, ids=[name for name, *_ in ARRAY_CALLS])
def test_an_array_is_a_named_error_or_finite_values(name, key, good, call, variant, tmp_path):
    test_a_named_error_or_finite_values(name, key, lambda v: call(v, tmp_path), variant(good))


# (id, a model's or a predicate's hook result, given its good one)
RESULTS = [
    ("complex", lambda good: np.asarray(good, dtype=float) + 1j),
    ("bool", lambda good: np.asarray(good, dtype=float) > 0),
    ("None", lambda good: None),
    ("string", lambda good: "x"),
    ("wrong shape", lambda good: np.zeros(np.shape(good) + (2,))),
]
# (id, a hook's result, given its good one; a number for a number)
NON_FINITE = [
    ("nan", lambda good: np.full(np.shape(good), math.nan)[()]),
    ("inf", lambda good: np.full(np.shape(good), math.inf)[()]),
]

DISC = CallablePredicate(
    fn=lambda y: 1.0 - float(y[:2] @ y[:2]), dim=4,
    jacobian=lambda y: np.concatenate([-2.0 * y[:2], [0.0, 0.0]]),
)


def broken(hook, variant, fields):
    """PROBLEM with hook's result, or the first of a Jacobian pair, passed
    through variant: a hook of its model with fields replaced, or with
    fields None, of a callable predicate the formula holds always."""
    if fields is None:
        good = getattr(DISC, hook)
        pred = dataclasses.replace(DISC, **{hook: lambda y: variant(good(y))})
        return dataclasses.replace(PROBLEM, phi=Pred(pred).always(0, 3))
    model = dataclasses.replace(PROBLEM.model, **fields)
    good = getattr(model, hook)
    if hook.endswith("_jacobians"):
        bad = lambda *args: (lambda fx, fu: (variant(fx), fu))(*good(*args))
    else:
        bad = lambda *args: variant(good(*args))
    return dataclasses.replace(PROBLEM, model=dataclasses.replace(model, **{hook: bad}))


DSIGNAL = np.ones_like(SENS.signal.values)
RUNS = {
    "rollout": lambda problem: rollout(problem.model, problem.x0, U),
    "objective": lambda problem: objective(problem, U),
    "control_gradient": lambda problem: rollout_with_sensitivities(
        problem.model, problem.x0, U).control_gradient(DSIGNAL),
    "evaluate": lambda problem: evaluate(problem.phi, SENS.signal),
    "eval_with_gradient": lambda problem: eval_with_gradient(problem.phi, SENS.signal, config=EF),
}
STATE, CONTROL = "non-finite state at timestep {}", "non-finite control gradient at timestep 0"
MARGIN = "predicate produced a non-finite margin"
GRADIENT = "predicate produced a non-finite gradient"
# (hook, the key of its refusals, the fields its model needs to call it
# or None for the predicate's, {run that calls it: what a non-finite
# result gives there})
HOOKS = [
    ("step", "step", {"states": None}, {"rollout": STATE.format(1), "objective": STATE.format(1)}),
    ("states", "states", {}, {"rollout": STATE.format(0), "objective": STATE.format(0)}),
    ("output", "output", {}, dict.fromkeys(("rollout", "objective"),
                                           "non-finite output at timestep 0")),
    ("step_jacobians", "step_jacobians df/dx", {"adjoint": None},
     dict.fromkeys(("control_gradient", "objective"), CONTROL)),
    ("output_jacobians", "output_jacobians dg/dx", {"adjoint": None},
     dict.fromkeys(("control_gradient", "objective"), CONTROL)),
    ("adjoint", "adjoint", {}, dict.fromkeys(("control_gradient", "objective"), CONTROL)),
    ("fn", "fn", None, {"evaluate": MARGIN, "eval_with_gradient": MARGIN,
                        "objective": "non-finite predicate margin at timestep 0"}),
    ("jacobian", "jacobian", None, {"eval_with_gradient": GRADIENT, "objective": CONTROL}),
]
# (hook, the key of its refusals, the fields, the run, a non-finite result's outcome)
HOOK_CALLS = [
    (hook, key, fields, run, outcome)
    for hook, key, fields, runs in HOOKS for run, outcome in runs.items()
]


@pytest.mark.parametrize("variant", [make for _, make in RESULTS], ids=[key for key, _ in RESULTS])
@pytest.mark.parametrize("hook,key,fields,run,outcome", HOOK_CALLS,
                         ids=[f"{hook} via {run}" for hook, _, _, run, _ in HOOK_CALLS])
def test_a_hook_result_that_is_no_array_of_numbers_is_a_named_error(
        hook, key, fields, run, outcome, variant):
    with pytest.raises(ValueError) as info:
        RUNS[run](broken(hook, variant, fields))
    assert_named(info.value, key)


@pytest.mark.parametrize("variant", [make for _, make in NON_FINITE],
                         ids=[key for key, _ in NON_FINITE])
@pytest.mark.parametrize("hook,key,fields,run,outcome", HOOK_CALLS,
                         ids=[f"{hook} via {run}" for hook, _, _, run, _ in HOOK_CALLS])
def test_a_non_finite_hook_result_is_still_divergence(hook, key, fields, run, outcome, variant):
    with pytest.raises((RolloutDivergence, SemanticsError), match=f"^{outcome}$"):
        RUNS[run](broken(hook, variant, fields))


# (hook, the model's fields that make it overflow on controls of 1e10,
# the run that calls it, the divergence it gives)
LOUD_OUTPUT = {"output": lambda X, U: np.concatenate([X * 1e300, U], -1)}
OVERFLOWS = [
    ("output", LOUD_OUTPUT, "rollout", "non-finite output at timestep 1"),
    ("output", LOUD_OUTPUT, "objective", "non-finite output at timestep 1"),
    ("step", {"states": None, "step": lambda x, u: x + 1e300 * u}, "rollout",
     "non-finite state at timestep 1"),
    ("step_jacobians", {"adjoint": None, "step_jacobians": lambda X, U: (
        np.eye(2), U[:, :1, None] * 1e300 * np.eye(2))}, "control_gradient", CONTROL),
    ("output_jacobians", {"adjoint": None, "output_jacobians": lambda X, U: (
        np.eye(4, 2), U[:, :1, None] * 1e300 * np.eye(4, 2, -2))}, "control_gradient", CONTROL),
]


@pytest.mark.parametrize("fields,run,outcome", [case[1:] for case in OVERFLOWS],
                         ids=[f"{hook} via {run}" for hook, _, run, _ in OVERFLOWS])
def test_a_hook_that_overflows_is_divergence_without_a_warning(fields, run, outcome):
    model = dataclasses.replace(PROBLEM.model, **fields)
    problem = dataclasses.replace(PROBLEM, model=model)
    u = np.array([[1e10, 0.0]] * (PROBLEM.T + 1))
    calls = {
        "rollout": lambda: rollout(model, PROBLEM.x0, u),
        "objective": lambda: objective(problem, u),
        "control_gradient": lambda: rollout_with_sensitivities(
            model, PROBLEM.x0, u).control_gradient(DSIGNAL),
    }
    with pytest.raises(RolloutDivergence, match=f"^{outcome}$"):
        calls[run]()


# the largest effort weight with controls far from zero: w * effort and
# 2 w u overflow while the effort itself stays finite
HEAVY = build_problem(builtin_scenario("two_target"), control_weight=1e300, restarts=1, max_iters=5)


def test_an_overflowing_objective_is_a_divergence():
    u = np.full((HEAVY.T + 1, 2), 1e10)
    with pytest.raises(RolloutDivergence, match="^non-finite control effort at timestep 0$"):
        objective(HEAVY, u)
    stacked = objective(HEAVY, np.stack([np.zeros_like(u), u]))
    assert finite(stacked[0])
    assert str(stacked[1]) == "non-finite control effort at timestep 0"


def test_an_ascent_on_gradients_near_the_largest_float_is_quiet():
    # its slope, gain and curvature products overflow without a warning
    result = synthesize(HEAVY)
    assert finite(result.restart_records) and finite(result.u_star)


# a weight whose double, 2 w, overflows as a Python float
HEAVIEST = build_problem(builtin_scenario("two_target"), control_weight=1e308, restarts=0, max_iters=5)


def test_an_effort_weight_whose_double_overflows_keeps_a_finite_gradient():
    # the penalty and its gradient are 0 at u = 0, whatever the weight
    u = np.zeros((HEAVIEST.T + 1, 2))
    J, dJ = objective(HEAVIEST, u)
    J0, dJ0 = objective(dataclasses.replace(HEAVIEST, control_weight=0.0), u)
    assert J == J0 and dJ.tobytes() == dJ0.tobytes()


def test_an_ascent_at_an_effort_weight_whose_double_overflows_keeps_its_restart():
    (record,) = synthesize(HEAVIEST).restart_records
    assert not record.failed and finite(record)


# a soft-max weight above 1 times a coefficient near the largest float
# overflows where the leaf adjoints are pushed to the samples
STEEP = "F[0,1] F[0,1] 1.79e308*y0 >= 0"


def test_a_gradient_that_overflows_is_refused_without_a_warning():
    with pytest.raises(SemanticsError, match=f"^{GRADIENT}$"):
        eval_with_gradient(parse(STEEP, p=1), [[0.0], [0.0], [5e-309]], 0,
                           SemanticsConfig.ef(1.0, 2.0))
    # the same signal as the output of a rollout
    problem = SynthesisProblem(single_integrator_2d(), (0.0, 0.0), parse(STEEP, p=4), T=2,
                               k1=1.0, k2=2.0)
    u = np.array([[0.0, 0.0], [5e-309, 0.0], [0.0, 0.0]])
    with pytest.raises(RolloutDivergence, match=f"^{CONTROL}$"):
        objective(problem, u)
    stacked = objective(problem, np.stack([np.zeros_like(u), u]))
    assert finite(stacked[0])
    assert str(stacked[1]) == CONTROL


def test_a_plan_whose_coefficient_norm_overflows_compiles_quietly():
    # an infinite norm only means the plan's margins are checked
    phi = parse("1e308*y0 + 1e308*y1 >= 0", p=2)
    assert evaluate(phi, [[0.0, 0.0]]) == 0.0
    with pytest.raises(SemanticsError, match=f"^{MARGIN}$"):
        evaluate(phi, [[1.0, 1.0]])
