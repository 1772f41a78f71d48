"""The benchmark's workloads: set-up, one closed-loop call, output checks.

Each layer that later changes are expected to optimise does most of the
work on one workload and little on another:

  monitor_long        offline monitoring, what `smoothstl eval` and
                      `grad` users do. Long random walks are checked
                      against a formula whose windows overlap at every
                      step and whose until history is O(window^2). The
                      only workload where the exact evaluator does real
                      work; dynamics and the optimizer only build the
                      signals during set-up.
  synth_charging      synthesize() on the charging builtin at the knobs
                      run_scaling uses: a wide formula (128 nodes) on a
                      short horizon, so the smooth forward and reverse
                      passes take nearly all of the time.
  synth_long_horizon  the opposite profile: a narrow formula over a long
                      nonlinear rollout, so the dynamics layer dominates.

Every workload is a scenario plus seeded control sequences. The monitor
signals are random walks, produced as rollouts of the single integrator
driven by seeded Gaussian steps; the synthesis workloads use the seeded
restart initialisations of their own synthesize() calls. The per-layer
timings run on these same inputs.

Only the public smoothstl API is used. Functions receive the package
module and look names up on it at call time, so a traced run can swap
them for wrappers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

MONITOR_SPEC = (
    "G[0,400] ((F[0,20] (y0 >= 1) or G[0,5] (-y1 >= -0.5))"
    " and ((y1 >= -2) U[0,10] (y0 - y1 >= 0.5)))"
)

# JSON scenario dicts for the workloads that are not builtins.
_SCENARIOS = {
    "monitor_long": {
        "model": "single_integrator_2d",
        "T": 420,
        "x0": [0.0, 0.0],
        "regions": {},
        "spec": MONITOR_SPEC,
        "k1": 5.0,
        "k2": 5.0,
        "restarts": 0,
    },
    "synth_long_horizon": {
        "model": "differential_drive",
        "T": 150,
        "x0": [0.0, 0.0, 0.0],
        "regions": {"goal": {"0": [18.0, 20.0], "1": [8.0, 10.0]}},
        "spec": "F[140,150] goal",
        "k1": 5.0,
        "k2": 5.0,
        "control_weight": 0.01,
        "restarts": 2,
        "max_iters": 200,
    },
}

WORKLOADS = ("monitor_long", "synth_charging", "synth_long_horizon")

# synthesize() calls in one run cycle through this many seeds. The work
# per problem varies (144 to 185 forward passes on charging), so a 30 s
# run, which makes 7 to 10 calls, should see a new problem in each call.
# Repeats of a seed are compared for determinism: in longer runs, and in
# the traced/untraced pairs of --trace 1.
SYNTH_SEEDS = 8
# distinct random walks per monitor run, cycled the same way
MONITOR_SIGNALS = 4
MONITOR_STEP_STD = 0.3
ORACLE_TOLERANCE = 1e-9


@dataclass
class Prepared:
    """A workload's inputs, built once per run before any timing."""

    name: str
    kind: str  # "monitor" or "synth"
    config: object  # ScenarioConfig
    overrides: dict  # keyword overrides passed to build_problem
    seeds: list  # synthesis seeds (monitor: the workload seed)
    problems: list  # one SynthesisProblem per seed
    controls: list  # control sequences the per-layer timings use
    signals: list = field(default_factory=list)  # rollouts of controls


def _restart_controls(problem):
    """The seeded restart initialisations synthesize() draws for problem:
    uniform over the control bounds, or over [-1, 1] when unbounded."""
    shape = (problem.T + 1, problem.model.m)
    if problem.control_bounds is None:
        lo, hi = -1.0, 1.0
    else:
        lo = np.array([b[0] for b in problem.control_bounds])
        hi = np.array([b[1] for b in problem.control_bounds])
    rng = np.random.default_rng(problem.seed)
    return [rng.uniform(lo, hi, size=shape) for _ in range(problem.restarts)]


def setup(sst, name, seed):
    """Parse, convert to NNF and build problems and signals for a workload.

    The workload seed derives everything random: the synthesis seeds are
    SYNTH_SEEDS consecutive integers starting at SYNTH_SEEDS * seed, and
    the monitor walks come from a generator seeded with seed.
    """
    from smoothstl.scenarios import scenario_from_json_dict

    if name == "synth_charging":
        config = sst.builtin_scenario("charging")
        overrides = {"restarts": 2, "max_iters": 40}
    else:
        config = scenario_from_json_dict(_SCENARIOS[name], name=name)
        overrides = {}
    if name == "monitor_long":
        problem = sst.build_problem(config, seed=seed)
        rng = np.random.default_rng(seed)
        shape = (problem.T + 1, problem.model.m)
        controls = [rng.normal(0.0, MONITOR_STEP_STD, size=shape) for _ in range(MONITOR_SIGNALS)]
        prep = Prepared(name, "monitor", config, overrides, [seed], [problem], controls)
    else:
        seeds = [SYNTH_SEEDS * seed + i for i in range(SYNTH_SEEDS)]
        problems = [sst.build_problem(config, seed=s, **overrides) for s in seeds]
        controls = [u for p in problems for u in _restart_controls(p)]
        prep = Prepared(name, "synth", config, overrides, seeds, problems, controls)
    first = prep.problems[0]
    prep.signals = [sst.rollout(first.model, first.x0, u) for u in prep.controls]
    return prep


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# monitoring: exact value, smooth value and gradient of one signal


@dataclass
class MonitorOutcome:
    exact: float
    smooth: float
    grad: object  # RobustnessGradient
    walls: tuple  # (exact, smooth, gradient) wall seconds
    refs: tuple  # the same at reference speed, or the wall seconds again


def wall_only(fn):
    """Run fn(); return (result, wall seconds, wall seconds)."""
    t0 = perf_counter()
    result = fn()
    seconds = perf_counter() - t0
    return result, seconds, seconds


def monitor_call(sst, problem, signal, measure=wall_only, repeats=(1, 1, 1)):
    """The three calls on one signal, each timed on its own by measure,
    which returns (result, wall seconds, reference seconds).

    Call i runs repeats[i] times in one measured stretch, and its times
    are per run.
    """
    phi, config = problem.phi, problem.config
    calls = (
        lambda: sst.evaluate(phi, signal, 0, sst.EXACT),
        lambda: sst.evaluate(phi, signal, 0, config),
        lambda: sst.eval_with_gradient(phi, signal, 0, config),
    )
    outs, walls, refs = [], [], []
    for fn, n in zip(calls, repeats):
        out, wall, ref = measure(lambda: [fn() for _ in range(n)][-1])
        outs.append(out)
        walls.append(wall / n)
        refs.append(ref / n)
    return MonitorOutcome(*outs, tuple(walls), tuple(refs))


def check_monitor(out):
    """Problems with one monitor outcome, as a list of messages."""
    errors = []
    if not (math.isfinite(out.exact) and math.isfinite(out.smooth)):
        errors.append("non-finite robustness")
    if not same_bits(out.grad.value, out.smooth):
        errors.append("eval_with_gradient value differs from evaluate(ef)")
    if not out.smooth <= out.exact:
        errors.append("ef robustness exceeds exact robustness")
    if not np.isfinite(out.grad.dsignal).all():
        errors.append("non-finite gradient")
    return errors


def monitor_digest(out):
    return _digest([out.exact, out.smooth, out.grad.value], out.grad.dsignal)


def check_against_oracle(problem, signal, out, oracle):
    """Compare exact and ef values with the independent slow evaluators."""
    values = signal.values
    errors = []
    exact = oracle.naive_exact(problem.phi, values)
    if not abs(exact - out.exact) <= ORACLE_TOLERANCE:
        errors.append(f"exact {out.exact!r} differs from oracle {exact!r}")
    min_op, max_op = oracle.ef_ops(problem.k1, problem.k2)
    smooth = oracle.naive_soft(problem.phi, values, min_op, max_op)
    if not abs(smooth - out.smooth) <= ORACLE_TOLERANCE:
        errors.append(f"ef {out.smooth!r} differs from oracle {smooth!r}")
    return errors


# ---------------------------------------------------------------------------
# synthesis


def check_synth(sst, problem, result):
    """The winner must re-check exactly and its ascent must never descend."""
    errors = []
    y = sst.rollout(problem.model, problem.x0, result.u_star)
    if not same_bits(sst.evaluate(problem.phi, y, 0, sst.EXACT), result.rho_exact):
        errors.append("rho_exact differs from evaluate(EXACT) on rollout(u_star)")
    if not np.array_equal(y.values, result.y_star.values):
        errors.append("y_star differs from rollout(u_star)")
    trace = result.objective_trace
    if any(b < a for a, b in zip(trace, trace[1:])):
        errors.append("objective_trace decreases")
    return errors


def synth_digest(result):
    return _digest(result.u_star)
