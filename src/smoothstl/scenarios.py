"""Built-in benchmark scenarios plus config-file plumbing.

A scenario bundles everything a synthesis run needs: a plant model, a
horizon, named box regions, a formula written against those regions, the
sharpness and effort knobs, and how the initial state is chosen. Four
builtins ship with the package:

  two_target        reach one of two targets, then a goal, around a block
  tunnel            squeeze through a one-unit gap between two walls
  charging          three timed service stops on the way to a goal
  table2_diffdrive  the two-target task on differential-drive dynamics,
                    random start in the unit square, no control bound

Region coordinates are data, not contracts: every builtin can be saved to
JSON, edited, and loaded back. run_bench and run_scaling drive repeated
synthesize() calls for statistics; their CSV formats are documented on
the writers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import builtin_model
from .formula import FormulaError, RegionTable, _convert, _number, _pair, _pairs, _real, _whole, to_nnf
from .optimizer import (
    DEFAULT_MAX_ITERS,
    DEFAULT_RESTARTS,
    DEFAULT_TOLERANCE,
    SynthesisFailure,
    SynthesisProblem,
    synthesize,
)
from .parser import ParseError, parse
from .robustness import EXACT, count_operator_evals, evaluate

__all__ = [
    "ScenarioError",
    "ScenarioConfig",
    "BUILTIN_SCENARIOS",
    "builtin_scenario",
    "scenario_from_json_dict",
    "scenario_to_json_dict",
    "load_scenario",
    "save_scenario",
    "sample_x0",
    "build_problem",
    "dwell_steps",
    "BenchRecord",
    "BenchAggregate",
    "run_bench",
    "aggregate_bench",
    "save_bench_csv",
    "ScalingRecord",
    "run_scaling",
    "save_scaling_csv",
]


class ScenarioError(ValueError):
    """Raised for malformed scenario configs; names the offending key."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ScenarioConfig:
    """One synthesis scenario, fully determined up to the RNG seed.

    @param name:           display name (builtin name or config file stem)
    @param model:          builtin model name, see dynamics.builtin_model
    @param T:              horizon; trajectories have T+1 samples
    @param regions:        named boxes the spec text may reference
    @param spec:           formula source parsed against the regions
    @param dt:             model sampling period, positive
    @param k1, k2:         smooth semantics sharpness
    @param control_weight: effort penalty w in the objective
    @param control_bounds: per-input (lo, hi) pairs or None for unbounded
    @param x0:             fixed initial state, or None to sample
    @param x0_box:         per-position (lo, hi) sampling box when x0 is None
    @param theta0_range:   heading sampling range, differential drive only
    @param restarts:       random restarts per synthesize() call
    @param seed:           base RNG seed
    @param obstacle_inflation: margin added to every obs* region, to absorb
                           the corner clipping that time discretization allows

    Validation happens on construction: the spec must parse against the
    declared regions, and exactly one of x0 and x0_box must be given. The
    synthesis knobs go to SynthesisProblem, whose checks they pass and
    whose normalised values they keep; its errors come back as
    ScenarioErrors with the same "key: why" message.
    """

    name: str
    model: str
    T: int
    regions: RegionTable
    spec: str
    dt: float = 1.0
    k1: float = 2.0
    k2: float = 2.0
    control_weight: float = 0.0
    control_bounds: tuple | None = None
    x0: tuple | None = None
    x0_box: tuple | None = None
    theta0_range: tuple | None = None
    restarts: int = DEFAULT_RESTARTS
    seed: int = 0
    obstacle_inflation: float = 0.0
    max_iters: int = DEFAULT_MAX_ITERS
    tolerance: float = DEFAULT_TOLERANCE
    hard_clamp: bool = False

    def __post_init__(self):
        def convert(key, to, what):
            value = _convert(key, getattr(self, key), to, what, ScenarioError)
            object.__setattr__(self, key, value)

        if not isinstance(self.regions, RegionTable):
            try:
                object.__setattr__(self, "regions", RegionTable(self.regions))
            except FormulaError as exc:
                raise ScenarioError(f"regions: {exc}") from None
        for key, sign in (("obstacle_inflation", "nonnegative"), ("dt", "positive")):
            object.__setattr__(self, key, _real(key, getattr(self, key), ScenarioError, sign))
        try:
            model = builtin_model(self.model, self.dt)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None

        if (self.x0 is None) == (self.x0_box is None):
            raise ScenarioError("x0: exactly one of x0 and x0_box must be set")
        if self.x0_box is not None:
            convert("x0_box", _pairs, "(lo, hi) pairs of numbers")
            # the box covers position only; heading has its own range
            want = 2 if self.model == "differential_drive" else model.n
            if len(self.x0_box) != want:
                raise ScenarioError(f"x0_box: needs {want} (lo, hi) pairs for {self.model}")
            if any(not lo <= hi for lo, hi in self.x0_box):
                raise ScenarioError("x0_box: every pair needs lo <= hi")
        if self.theta0_range is not None:
            if self.model != "differential_drive":
                raise ScenarioError("theta0_range: only meaningful for differential_drive")
            convert("theta0_range", _pair, "a (lo, hi) pair of numbers")
            lo, hi = self.theta0_range
            if not lo <= hi:
                raise ScenarioError("theta0_range: needs lo <= hi")
        elif self.model == "differential_drive" and self.x0_box is not None:
            raise ScenarioError("theta0_range: required when sampling differential_drive starts")
        for key in ("x0_box", "theta0_range"):
            value = getattr(self, key)
            if value is not None and not np.isfinite(value).all():
                raise ScenarioError(f"{key}: must be finite")

        # a sampled start is drawn per seed; the low corner of its ranges stands in
        start = self.x0
        if start is None:
            ranges = self.x0_box + ((self.theta0_range,) if self.theta0_range else ())
            start = [lo for lo, _ in ranges]
        try:
            problem = build_problem(self, x0=start)
        except (ParseError, FormulaError) as exc:
            raise ScenarioError(f"spec: {exc}") from None
        for key in _KNOBS + (("x0",) if self.x0 is not None else ()):
            object.__setattr__(self, key, getattr(problem, key))
        if self.T < 1:
            raise ScenarioError("T: horizon must be at least 1")

    def system_model(self):
        return builtin_model(self.model, self.dt)

    def effective_regions(self):
        """Regions with every obs* box grown by the inflation margin."""
        if self.obstacle_inflation == 0.0:
            return self.regions
        grow = tuple(n for n in self.regions.names() if n.startswith("obs"))
        return self.regions.inflated(self.obstacle_inflation, grow)

    def formula(self):
        """The spec parsed against the (inflated) regions, in NNF."""
        return to_nnf(parse(self.spec, self.effective_regions(), p=self.system_model().p))


# the knobs a scenario hands over to SynthesisProblem, which checks them
_KNOBS = tuple(f.name for f in dataclasses.fields(SynthesisProblem)
               if f.name in ScenarioConfig.__dataclass_fields__ and f.name not in ("model", "x0"))


# JSON layout: one object, one key per field, in field order. regions is
# nested as {name: {dim: [lo, hi]}} and None fields are left out. Keys
# absent from the file take the dataclass defaults; unknown keys are
# rejected rather than ignored.


def scenario_from_json_dict(data, name=None):
    if not isinstance(data, dict):
        raise ScenarioError("config must be a JSON object")
    fields = dataclasses.fields(ScenarioConfig)
    for f in fields:
        if f.name != "name" and f.default is dataclasses.MISSING and f.name not in data:
            raise ScenarioError(f"missing key {f.name!r}")
    known = {f.name for f in fields}
    for key in data:
        if key not in known:
            raise ScenarioError(f"unknown key {key!r}")
    return ScenarioConfig(**{"name": name or "scenario", **data})


def scenario_to_json_dict(config):
    out = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, RegionTable):
            value = value.to_json_dict()
        elif isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        if value is not None:
            out[f.name] = value
    return out


def load_scenario(path):
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from None
    return scenario_from_json_dict(data, name=path.stem)


def save_scenario(config, path):
    Path(path).write_text(json.dumps(scenario_to_json_dict(config), indent=2) + "\n")


# ---------------------------------------------------------------------------
# builtin geometry
#
# Coordinates are chosen, not measured: they only have to admit a
# satisfying run with some margin and keep the narrative of each task
# (detour around a block, squeeze through a gap, timed stops). All are
# overridable through the JSON config path.

_TWO_TARGET_REGIONS = {
    "obs": {0: (2.0, 4.0), 1: (2.0, 4.0)},
    "target1": {0: (0.5, 2.0), 1: (4.5, 6.0)},
    "target2": {0: (4.0, 5.5), 1: (4.5, 6.0)},
    "goal": {0: (2.5, 3.5), 1: (6.5, 7.5)},
    "ubox": {2: (-2.0, 2.0), 3: (-2.0, 2.0)},
}

_TUNNEL_REGIONS = {
    "obs1": {0: (3.5, 5.0), 1: (0.0, 4.5)},
    "obs2": {0: (3.5, 5.0), 1: (5.5, 10.0)},
    "goal": {0: (7.0, 8.0), 1: (4.5, 5.5)},
    "ubox": {2: (-1.0, 1.0), 3: (-1.0, 1.0)},
}

# Service clusters sit on three horizontal rows with a free column at
# x ~ 2.1..2.9 running through all of them; the first station of every
# cluster lies on that column. Obstacles flank the column between rows.
_CHARGING_WINDOWS = ((1, 10), (12, 17), (20, 25))
_CHARGING_DWELLS = (3, 5, 3)
_CHARGING_ROWS = ((2.2, 3.0), (4.6, 5.4), (7.0, 7.8))
_STATION_X_START = 2.1
_STATION_PITCH = 1.2
_STATION_WIDTH = 0.8

_CHARGING_FIXED_REGIONS = {
    "goal": {0: (7.0, 8.2), 1: (8.6, 9.8)},
    "obs1": {0: (0.5, 1.7), 1: (1.2, 2.0)},
    "obs2": {0: (3.5, 4.7), 1: (1.2, 2.0)},
    "obs3": {0: (0.5, 1.7), 1: (3.6, 4.4)},
    "obs4": {0: (3.5, 4.7), 1: (3.6, 4.4)},
    "obs5": {0: (0.8, 2.0), 1: (6.0, 6.8)},
    "obs6": {0: (5.9, 6.9), 1: (6.2, 6.9)},
    "ubox": {2: (-1.0, 1.0), 3: (-1.0, 1.0)},
}


def _station_grid(counts):
    stations = {}
    for row, count in enumerate(counts):
        lo_y, hi_y = _CHARGING_ROWS[row]
        for j in range(count):
            x = _STATION_X_START + _STATION_PITCH * j
            stations[f"chg{row + 1}_{j + 1}"] = {
                0: (x, x + _STATION_WIDTH),
                1: (lo_y, hi_y),
            }
    return stations


def _charging_spec(n, counts):
    parts = [f"F[0,{n}] goal"]
    for row, count in enumerate(counts):
        lo, hi = _CHARGING_WINDOWS[row]
        dwell = _CHARGING_DWELLS[row]
        hi = min(hi, n - dwell)
        if hi < lo:
            raise ScenarioError(
                f"T: horizon {n} is too short for service window {row + 1}; "
                f"need at least {lo + dwell}"
            )
        names = " or ".join(f"chg{row + 1}_{j + 1}" for j in range(count))
        if count > 1:
            names = f"({names})"
        parts.append(f"F[{lo},{hi}] G[0,{dwell}] {names}")
    avoid = " or ".join(sorted(r for r in _CHARGING_FIXED_REGIONS if r.startswith("obs")))
    parts.append(f"G[0,{n}] not ({avoid})")
    parts.append(f"G[0,{n}] ubox")
    return " and ".join(parts)


def _two_target():
    return ScenarioConfig(
        name="two_target",
        model="single_integrator_2d",
        T=10,
        regions=RegionTable(_TWO_TARGET_REGIONS),
        spec=(
            "G[0,10] not obs and F[0,10] (target1 or target2)"
            " and F[0,10] goal and G[0,10] ubox"
        ),
        k1=2.0,
        k2=2.0,
        control_weight=0.01,
        control_bounds=((-2.0, 2.0), (-2.0, 2.0)),
        x0=(0.0, 0.0),
    )


def _tunnel():
    # the control bound covers only the first half of the horizon; that
    # asymmetry is part of the task as posed
    return ScenarioConfig(
        name="tunnel",
        model="single_integrator_2d",
        T=20,
        regions=RegionTable(_TUNNEL_REGIONS),
        spec="G[0,20] not (obs1 or obs2) and F[0,20] goal and G[0,10] ubox",
        k1=10.0,
        k2=10.0,
        control_weight=0.01,
        control_bounds=((-1.0, 1.0), (-1.0, 1.0)),
        x0=(1.0, 5.0),
    )


def _charging():
    counts = (4, 3, 3)
    regions = dict(_CHARGING_FIXED_REGIONS)
    regions.update(_station_grid(counts))
    return ScenarioConfig(
        name="charging",
        model="single_integrator_2d",
        T=30,
        regions=RegionTable(regions),
        spec=_charging_spec(30, counts),
        k1=10.0,
        k2=10.0,
        control_weight=0.005,
        control_bounds=((-1.0, 1.0), (-1.0, 1.0)),
        x0=(2.5, 0.5),
    )


def _table2_diffdrive():
    regions = {k: v for k, v in _TWO_TARGET_REGIONS.items() if k != "ubox"}
    return ScenarioConfig(
        name="table2_diffdrive",
        model="differential_drive",
        T=11,
        regions=RegionTable(regions),
        spec="G[0,11] not obs and F[0,11] (target1 or target2) and F[0,11] goal",
        k1=1.0,
        k2=1.0,
        control_weight=0.01,
        x0_box=((0.0, 1.0), (0.0, 1.0)),
        theta0_range=(0.0, 2.0 * math.pi),
        restarts=3,
    )


_BUILTINS = {
    "two_target": _two_target,
    "tunnel": _tunnel,
    "charging": _charging,
    "table2_diffdrive": _table2_diffdrive,
}

BUILTIN_SCENARIOS = tuple(_BUILTINS)


def builtin_scenario(name):
    try:
        factory = _BUILTINS[name]
    except KeyError:
        known = ", ".join(BUILTIN_SCENARIOS)
        raise ScenarioError(f"unknown scenario {name!r}; builtins are {known}") from None
    return factory()


# ---------------------------------------------------------------------------
# running scenarios


def _x0_rng(seed):
    # a stream separate from the restart initializer, which seeds on the
    # bare integer
    return np.random.default_rng((int(seed), 1))


def sample_x0(config, rng=None):
    """Draw an initial state; fixed-x0 configs return it unchanged."""
    if config.x0 is not None:
        return np.array(config.x0, dtype=float)
    if rng is None:
        rng = _x0_rng(config.seed)
    parts = [rng.uniform(lo, hi) for lo, hi in config.x0_box]
    if config.theta0_range is not None:
        parts.append(rng.uniform(*config.theta0_range))
    return np.array(parts, dtype=float)


def build_problem(config, x0=None, seed=None, **overrides):
    """Materialize a SynthesisProblem from a scenario.

    Keyword overrides (k1, k2, restarts, max_iters, ...) replace the
    scenario's values; an override of None keeps it. x0 defaults to the
    fixed start or, for sampling scenarios, a draw seeded by the seed in
    effect. SynthesisProblem checks x0, the seed and every knob, as it
    does for the scenario itself.
    """
    unknown = set(overrides) - set(_KNOBS)
    if unknown:
        raise ScenarioError(f"unknown override {sorted(unknown)[0]!r}")
    knobs = {key: getattr(config, key) for key in _KNOBS}
    knobs.update((key, value) for key, value in overrides.items() if value is not None)
    if seed is not None:
        # checked here too, because the draw needs it
        knobs["seed"] = _convert("seed", seed, _whole, "a whole number", ScenarioError)
    if x0 is None:
        x0 = sample_x0(config, _x0_rng(knobs["seed"]))
    phi = config.formula()
    try:
        return SynthesisProblem(config.system_model(), x0, phi, **knobs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def dwell_steps(config, signal):
    """Timesteps spent inside any attraction region (not obs*, not boxes
    over control dimensions). The conservativeness metric: low sharpness
    should park trajectories inside targets for longer."""
    model = config.system_model()
    attract = []
    for name, faces in config.regions.items():
        if name.startswith("obs") or any(d >= 2 for d in faces):
            continue
        attract.append(config.regions.conjunction(name, model.p))
    if not attract:
        return 0
    count = 0
    for t in range(len(signal)):
        if any(evaluate(phi, signal, t, EXACT) > 0 for phi in attract):
            count += 1
    return count


# ---------------------------------------------------------------------------
# benchmarking


@dataclass(frozen=True)
class BenchRecord:
    """One synthesis trial; failed trials keep NaN robustness and wall_ms."""

    trial: int
    seed: int
    x0: tuple
    rho_exact: float
    rho_smooth: float
    satisfied: bool
    iterations: int
    wall_ms: float

    @property
    def failed(self):
        return math.isnan(self.rho_exact)


@dataclass(frozen=True)
class BenchAggregate:
    """Mean/stddev summary over completed trials, population convention."""

    trials: int
    completed: int
    mean_rho: float
    std_rho: float
    median_rho: float
    mean_wall_ms: float
    std_wall_ms: float
    success_rate: float


def _run_trial(config, trial):
    seed = config.seed + trial
    problem = build_problem(config, seed=seed)
    try:
        result = synthesize(problem)
        outcome = (result.rho_exact, result.rho_smooth, result.satisfied,
                   result.iterations, result.wall_time * 1e3)
    except SynthesisFailure:
        nan = float("nan")
        outcome = (nan, nan, False, 0, nan)
    return BenchRecord(trial, seed, problem.x0, *outcome)


def run_bench(config, trials, time_budget_s=None):
    """Repeat synthesis with per-trial seeds and starts.

    Trials run one at a time, in order. When a time budget is given, no
    new trial starts once it is spent; the trial in progress always
    finishes and at least one trial always runs.
    """
    trials = _convert("trials", trials, _whole, "a whole number", ScenarioError)
    if trials < 1:
        raise ScenarioError("trials must be at least 1")
    budget = math.inf if time_budget_s is None else time_budget_s
    budget = _convert("time_budget_s", budget, _number, "a number", ScenarioError)
    if not budget >= 0:
        raise ScenarioError(f"time_budget_s: must be nonnegative, got {budget}")
    start = time.perf_counter()
    records = []
    for trial in range(trials):
        if records and time.perf_counter() - start >= budget:
            break
        records.append(_run_trial(config, trial))
    return records, aggregate_bench(records)


def aggregate_bench(records):
    ok = [r for r in records if not r.failed]
    rho = np.array([r.rho_exact for r in ok])
    wall = np.array([r.wall_ms for r in ok])
    nan = float("nan")
    return BenchAggregate(
        trials=len(records),
        completed=len(ok),
        mean_rho=float(rho.mean()) if ok else nan,
        std_rho=float(rho.std()) if ok else nan,
        median_rho=float(np.median(rho)) if ok else nan,
        mean_wall_ms=float(wall.mean()) if ok else nan,
        std_wall_ms=float(wall.std()) if ok else nan,
        success_rate=sum(r.satisfied for r in records) / len(records),
    )


def save_bench_csv(records, path):
    """Header: trial,seed,x0_0,...,rho_exact,rho_smooth,satisfied,iters,wall_ms."""
    if not records:
        raise ScenarioError("nothing to save: no bench records")
    n = len(records[0].x0)
    header = ["trial", "seed"] + [f"x0_{i}" for i in range(n)]
    header += ["rho_exact", "rho_smooth", "satisfied", "iters", "wall_ms"]
    lines = [",".join(header)]
    for r in records:
        row = [str(r.trial), str(r.seed)]
        row += [repr(float(v)) for v in r.x0]
        row += [repr(r.rho_exact), repr(r.rho_smooth), str(int(r.satisfied)),
                str(r.iterations), repr(r.wall_ms)]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scaling sweeps


@dataclass(frozen=True)
class ScalingRecord:
    """Cost of one synthesize() call at one sweep point.

    op_count is the number of scalar arguments the soft operators consumed
    per smooth evaluation; it is a pure function of the formula shape and
    horizon, so it is the hardware-independent cost signal. wall_ms covers
    the whole synthesize call; forwards counts smooth evaluations inside
    it, so wall_ms/forwards approximates per-iteration cost.
    """

    sweep: str
    value: int
    wall_ms: float
    op_count: float
    forwards: int
    iterations: int
    rho_exact: float


def _measure(sweep, value, config):
    problem = build_problem(config)
    with count_operator_evals() as counter:
        result = synthesize(problem)
    per_forward = counter.scalars / counter.forwards if counter.forwards else float("nan")
    return ScalingRecord(sweep, value, result.wall_time * 1e3, per_forward, counter.forwards,
                         result.iterations, result.rho_exact)


def run_scaling(n_values=(), p_values=(), base=None, restarts=2, max_iters=40):
    """Cost sweeps over horizon length and station count.

    The N sweep keeps a single service station (first station, first
    cluster) and stretches the horizon; the P sweep fixes the horizon at
    29 and regenerates the station grid with P stations per cluster. base
    supplies geometry and knobs and defaults to the charging builtin;
    restarts and max_iters are deliberately small because the sweep
    measures cost per evaluation, not solution quality.
    """
    base = builtin_scenario("charging") if base is None else base
    records = []
    for n in n_values:
        n = _convert("n_values", n, _whole, "whole numbers", ScenarioError)
        cfg = dataclasses.replace(
            base,
            name=f"{base.name}_n{n}",
            T=n,
            spec=_charging_spec(n, (1,)),
            restarts=restarts,
            max_iters=max_iters,
        )
        records.append(_measure("N", n, cfg))
    for p in p_values:
        p = _convert("p_values", p, _whole, "whole numbers", ScenarioError)
        if p < 1:
            raise ScenarioError(f"station count must be positive, got {p}")
        counts = (p, p, p)
        kept = {
            name: dict(base.regions[name])
            for name in base.regions.names()
            if not name.startswith("chg")
        }
        kept.update(_station_grid(counts))
        cfg = dataclasses.replace(
            base,
            name=f"{base.name}_p{p}",
            T=29,
            regions=RegionTable(kept),
            spec=_charging_spec(29, counts),
            restarts=restarts,
            max_iters=max_iters,
        )
        records.append(_measure("P", p, cfg))
    return records


def save_scaling_csv(records, path):
    """Header: sweep,value,wall_ms,op_count,forwards,iterations,rho_exact."""
    lines = ["sweep,value,wall_ms,op_count,forwards,iterations,rho_exact"]
    for r in records:
        lines.append(
            f"{r.sweep},{r.value},{r.wall_ms!r},{r.op_count!r},"
            f"{r.forwards},{r.iterations},{r.rho_exact!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
