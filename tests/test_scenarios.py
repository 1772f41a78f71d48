"""Scenario tests: configs, builtin geometry, benching and cost sweeps.

Each builtin task is backed by a feasibility certificate that does not
involve the optimizer: a breadth-first search over a coarse control
lattice for the detour task, and hand-written control schedules for the
corridor and service tasks. The certificates pin down that positive exact
robustness is achievable, so optimizer-quality tests elsewhere are
testing the optimizer, not the geometry.
"""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothstl.dynamics import rollout
from smoothstl.formula import is_nnf, horizon
from smoothstl.optimizer import synthesize
from smoothstl.robustness import EXACT, Signal, evaluate
from smoothstl.scenarios import (
    BUILTIN_SCENARIOS,
    BenchRecord,
    ScenarioConfig,
    ScenarioError,
    aggregate_bench,
    build_problem,
    builtin_scenario,
    dwell_steps,
    load_scenario,
    run_bench,
    run_scaling,
    sample_x0,
    save_bench_csv,
    save_scaling_csv,
    save_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def bits(*values):
    """Each value, or each float a cell spells, in an exact notation (nan
    included)."""
    return [float(v).hex() for v in values]


def quick(config, **knobs):
    """Copy of a scenario with a small optimization budget for tests."""
    defaults = dict(restarts=1, max_iters=40)
    defaults.update(knobs)
    return dataclasses.replace(config, **defaults)


class TestBuiltins:
    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_specs_are_wellformed(self, name):
        config = builtin_scenario(name)
        phi = config.formula()
        assert is_nnf(phi)
        assert horizon(phi) <= config.T
        model = config.system_model()
        for _, faces in config.regions.items():
            assert all(d < model.p for d in faces)

    def test_builtin_listing(self):
        assert set(BUILTIN_SCENARIOS) == {
            "two_target", "tunnel", "charging", "table2_diffdrive"
        }
        with pytest.raises(ScenarioError, match="unknown scenario"):
            builtin_scenario("maze")

    def test_service_task_windows(self):
        spec = builtin_scenario("charging").spec
        assert "F[1,10] G[0,3]" in spec
        assert "F[12,17] G[0,5]" in spec
        assert "F[20,25] G[0,3]" in spec
        assert "G[0,30] ubox" in spec

    def test_sampling_task_has_no_fixed_start(self):
        config = builtin_scenario("table2_diffdrive")
        assert config.x0 is None
        assert config.x0_box == ((0.0, 1.0), (0.0, 1.0))
        assert config.theta0_range == (0.0, 2.0 * math.pi)


class TestFeasibilityCertificates:
    def test_detour_task_by_lattice_search(self):
        # breadth-first search over a 0.8 grid with five control levels
        # per axis; flags carry the two reach obligations
        config = builtin_scenario("two_target")
        table = config.regions

        def inside(name, x, y):
            box = table[name]
            return box[0][0] < x < box[0][1] and box[1][0] < y < box[1][1]

        step = 0.8
        levels = range(-2, 3)

        def flags(ix, iy, ht, hg):
            x, y = ix * step, iy * step
            ht = ht or inside("target1", x, y) or inside("target2", x, y)
            return ht, hg or inside("goal", x, y)

        start = (0, 0) + flags(0, 0, False, False)
        parents = [{start: None}]
        for _ in range(config.T):
            layer = {}
            for state in parents[-1]:
                ix, iy, ht, hg = state
                for ax in levels:
                    for ay in levels:
                        jx, jy = ix + ax, iy + ay
                        if abs(jx) > 12 or abs(jy) > 12:
                            continue
                        if inside("obs", jx * step, jy * step):
                            continue
                        nxt = (jx, jy) + flags(jx, jy, ht, hg)
                        if nxt not in layer:
                            layer[nxt] = (state, (ax, ay))
            parents.append(layer)
        done = [s for s in parents[-1] if s[2] and s[3]]
        assert done, "no satisfying lattice path exists"

        # rebuild the control word and check the exact semantics agrees
        state = done[0]
        actions = []
        for layer in reversed(parents[1:]):
            state, action = layer[state]
            actions.append(action)
        u = np.zeros((config.T + 1, 2))
        for t, (ax, ay) in enumerate(reversed(actions)):
            u[t] = (ax * step, ay * step)
        y = rollout(config.system_model(), config.x0, u)
        rho = evaluate(config.formula(), y, config=EXACT)
        assert rho > 0

    def test_corridor_task_by_straight_run(self):
        # drive through the one-unit gap at constant height, then stop
        config = builtin_scenario("tunnel")
        u = np.zeros((config.T + 1, 2))
        u[:7, 0] = 0.9
        y = rollout(config.system_model(), config.x0, u)
        assert_allclose(y.values[7, :2], [7.3, 5.0])
        rho = evaluate(config.formula(), y, config=EXACT)
        assert rho > 0

    def test_service_task_by_hand_timeline(self):
        # climb the free column, pause at one station per row inside its
        # window, then cut over to the goal corner
        config = builtin_scenario("charging")
        u = np.zeros((config.T + 1, 2))
        u[0, 1] = u[1, 1] = 0.95           # 0.5 -> 2.4: row 1 at t=2
        u[5, 1] = u[6, 1] = 0.95           # leave after dwelling t=2..5
        u[7, 1] = 0.70                     # 5.0: row 2 at t=8, hold to 17
        u[17, 1] = u[18, 1] = 0.95
        u[19, 1] = 0.50                    # 7.4: row 3 at t=20, hold to 23
        u[23:29] = (0.85, 0.30)            # (2.5,7.4) -> (7.6,9.2) by t=29
        y = rollout(config.system_model(), config.x0, u)
        assert_allclose(y.values[2, :2], [2.5, 2.4])
        assert_allclose(y.values[8, :2], [2.5, 5.0])
        assert_allclose(y.values[20, :2], [2.5, 7.4])
        assert_allclose(y.values[29, :2], [7.6, 9.2])
        rho = evaluate(config.formula(), y, config=EXACT)
        assert rho > 0


class TestConfigValidation:
    def base_kwargs(self, **overrides):
        kwargs = dict(
            name="unit",
            model="single_integrator_2d",
            T=5,
            regions={"goal": {0: (1.0, 2.0), 1: (1.0, 2.0)}},
            spec="F[0,5] goal",
            x0=(0.0, 0.0),
        )
        kwargs.update(overrides)
        return kwargs

    def test_minimal_config_builds(self):
        config = ScenarioConfig(**self.base_kwargs())
        assert config.k1 == 2.0 and config.restarts == 10

    @pytest.mark.parametrize("field,value,key", [
        ("model", "hovercraft", "model"),
        ("T", 0, "T"),
        ("k1", 0.0, "k1"),
        ("k2", -1.0, "k2"),
        ("control_weight", -0.5, "control_weight"),
        ("obstacle_inflation", -0.1, "obstacle_inflation"),
        ("restarts", -2, "restarts"),
        ("max_iters", 0, "max_iters"),
        ("spec", "F[0,5] lava", "spec"),
        ("spec", "F[0,9] goal", "T"),
        ("control_bounds", ((-1.0, 1.0),), "control_bounds"),
        ("theta0_range", (0.0, 1.0), "theta0_range"),
        ("control_bounds", ((-1.0, math.inf), (-1.0, 1.0)), "control_bounds"),
        ("x0", (0.0, math.inf), "x0"),
        ("tolerance", math.inf, "tolerance"),
    ])
    def test_errors_name_the_key(self, field, value, key):
        with pytest.raises(ScenarioError, match=f"^{key}:"):
            ScenarioConfig(**self.base_kwargs(**{field: value}))

    @pytest.mark.parametrize("field,value", [
        ("x0_box", ((0.0, 1.0), (-math.inf, 1.0))),
        ("theta0_range", (0.0, math.inf)),
    ])
    def test_nonfinite_sampling_ranges_name_the_key(self, field, value):
        kwargs = self.base_kwargs(
            model="differential_drive", x0=None,
            x0_box=((0.0, 1.0), (0.0, 1.0)), theta0_range=(0.0, 6.28),
        )
        with pytest.raises(ScenarioError, match=f"^{field}: must be finite"):
            ScenarioConfig(**dict(kwargs, **{field: value}))

    @pytest.mark.parametrize("field,value", [
        ("T", "abc"),
        ("T", 5.5),
        ("x0", ("a", 0.0)),
        ("k1", "sharp"),
        ("restarts", "two"),
        ("restarts", 1.5),
        ("max_iters", 2.5),
        ("seed", 1.5),
        ("control_weight", "heavy"),
        ("obstacle_inflation", "wide"),
        ("control_bounds", ((-1.0, 1.0, 0.0), (-1.0, 1.0))),
        ("k1", "3"),
        ("k1", True),
        ("dt", "0.5"),
        ("T", "10"),
        ("restarts", True),
        ("seed", False),
        ("x0", "12"),
        ("x0", (True, 0.0)),
        ("control_bounds", ((-1.0, "1"), (-1.0, 1.0))),
    ])
    def test_malformed_numbers_name_the_field(self, field, value):
        with pytest.raises(ScenarioError, match=f"^{field}: needs .*, got "):
            ScenarioConfig(**self.base_kwargs(**{field: value}))

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_sampling_period_must_be_positive(self, dt):
        with pytest.raises(ScenarioError, match="^dt: must be positive$"):
            ScenarioConfig(**self.base_kwargs(dt=dt))

    @pytest.mark.parametrize("field,value,message", [
        ("tolerance", 0.0, "tolerance: must be positive"),
        ("tolerance", -1.0, "tolerance: must be positive"),
        ("hard_clamp", "false", "hard_clamp: needs true or false, got 'false'"),
        ("k1", "3", "k1: needs a number, got '3'"),
    ])
    def test_values_that_mean_something_else_are_rejected(self, field, value, message):
        with pytest.raises(ScenarioError) as info:
            ScenarioConfig(**self.base_kwargs(**{field: value}))
        assert str(info.value) == message

    def test_whole_numbers_may_be_written_as_floats(self):
        config = ScenarioConfig(**self.base_kwargs(T=5.0, seed=7.0))
        assert (config.T, config.seed) == (5, 7)
        assert type(config.T) is int and type(config.seed) is int

    def test_exactly_one_start_spec(self):
        with pytest.raises(ScenarioError, match="exactly one"):
            ScenarioConfig(**self.base_kwargs(x0=None))
        with pytest.raises(ScenarioError, match="exactly one"):
            ScenarioConfig(**self.base_kwargs(x0_box=((0.0, 1.0), (0.0, 1.0))))

    def test_heading_range_required_for_sampled_unicycle(self):
        kwargs = self.base_kwargs(
            model="differential_drive", x0=None,
            x0_box=((0.0, 1.0), (0.0, 1.0)),
        )
        with pytest.raises(ScenarioError, match="theta0_range"):
            ScenarioConfig(**kwargs)
        ScenarioConfig(**dict(kwargs, theta0_range=(0.0, 6.28)))

    def test_x0_length_follows_the_model(self):
        with pytest.raises(ScenarioError, match="x0"):
            ScenarioConfig(**self.base_kwargs(x0=(0.0, 0.0, 0.0)))

    def test_obstacle_inflation_grows_only_obs(self):
        kwargs = self.base_kwargs(
            regions={
                "goal": {0: (1.0, 2.0), 1: (1.0, 2.0)},
                "obs_mid": {0: (3.0, 4.0), 1: (3.0, 4.0)},
            },
            obstacle_inflation=0.25,
        )
        config = ScenarioConfig(**kwargs)
        grown = config.effective_regions()
        assert grown["obs_mid"] == {0: (2.75, 4.25), 1: (2.75, 4.25)}
        assert grown["goal"] == {0: (1.0, 2.0), 1: (1.0, 2.0)}

    def test_inflation_can_flip_feasibility_accounting(self):
        kwargs = self.base_kwargs(
            regions={"obszone": {0: (1.0, 2.0), 1: (1.0, 2.0)}},
            spec="G[0,5] not obszone",
            obstacle_inflation=1.0,
        )
        config = ScenarioConfig(**kwargs)
        y = Signal(np.tile([0.5, 0.5, 0.0, 0.0], (6, 1)))
        plain = dataclasses.replace(config, obstacle_inflation=0.0)
        assert evaluate(plain.formula(), y, config=EXACT) > 0
        assert evaluate(config.formula(), y, config=EXACT) < 0


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_builtins_survive_the_round_trip(self, name, tmp_path):
        config = builtin_scenario(name)
        path = tmp_path / f"{name}.json"
        save_scenario(config, path)
        assert load_scenario(path) == config

    def test_every_optional_field_survives_the_round_trip(self, tmp_path):
        config = ScenarioConfig(
            name="every_knob", model="differential_drive", T=8,
            regions={
                "goal": {0: (1.0, 2.0), 1: (1.0, 2.0)},
                "obs": {0: (3.0, 4.0), 1: (3.0, 4.0)},
            },
            spec="F[0,8] goal and G[0,8] not obs", dt=0.5, k1=3.0, k2=4.0,
            control_weight=0.02, control_bounds=((-1.0, 1.0), (-2.0, 2.0)),
            x0_box=((0.0, 0.5), (0.0, 0.5)), theta0_range=(0.0, 1.0), restarts=1, seed=3,
            obstacle_inflation=0.1, max_iters=30, tolerance=1e-5, hard_clamp=True,
        )
        defaults = {
            f.name: f.default for f in dataclasses.fields(ScenarioConfig)
            if f.default is not dataclasses.MISSING
        }
        assert [k for k, v in defaults.items() if getattr(config, k) == v] == ["x0"]
        path = tmp_path / "every_knob.json"
        save_scenario(config, path)
        assert load_scenario(path) == config
        assert list(json.loads(path.read_text())) == [
            f.name for f in dataclasses.fields(ScenarioConfig) if f.name != "x0"
        ]

    def test_defaults_are_applied(self):
        config = scenario_from_json_dict({
            "model": "single_integrator_2d",
            "T": 5,
            "regions": {"goal": {"0": [1.0, 2.0], "1": [1.0, 2.0]}},
            "spec": "F[0,5] goal",
            "x0": [0.0, 0.0],
        })
        assert config.name == "scenario"
        assert config.k1 == 2.0
        assert config.seed == 0

    def test_missing_and_unknown_keys_are_named(self):
        with pytest.raises(ScenarioError, match="missing key 'spec'"):
            scenario_from_json_dict({
                "model": "single_integrator_2d", "T": 5, "regions": {},
            })
        with pytest.raises(ScenarioError, match="unknown key 'velocity'"):
            scenario_from_json_dict({
                "model": "single_integrator_2d", "T": 5,
                "regions": {"goal": {"0": [1.0, 2.0]}},
                "spec": "F[0,5] goal", "x0": [0.0, 0.0],
                "velocity": 3,
            })

    def test_malformed_number_in_a_file_names_the_field(self, tmp_path):
        data = scenario_to_json_dict(builtin_scenario("tunnel"))
        path = tmp_path / "tunnel.json"
        path.write_text(json.dumps(dict(data, T="abc")))
        with pytest.raises(ScenarioError, match="^T: needs a whole number, got 'abc'"):
            load_scenario(path)

    def test_file_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(bad)
        listy = tmp_path / "list.json"
        listy.write_text("[1,2]")
        with pytest.raises(ScenarioError, match="JSON object"):
            load_scenario(listy)

    def test_name_defaults_to_the_file_stem(self, tmp_path):
        config = builtin_scenario("tunnel")
        data = scenario_to_json_dict(config)
        del data["name"]
        path = tmp_path / "corridor_lab.json"
        path.write_text(json.dumps(data))
        assert load_scenario(path).name == "corridor_lab"


class TestStartSampling:
    def test_fixed_start_is_returned_unchanged(self):
        config = builtin_scenario("two_target")
        assert_allclose(sample_x0(config), [0.0, 0.0])

    def test_sampled_start_is_deterministic_and_in_the_box(self):
        config = builtin_scenario("table2_diffdrive")
        a = sample_x0(config)
        b = sample_x0(config)
        assert (a == b).all()
        assert a.shape == (3,)
        assert 0.0 <= a[0] <= 1.0 and 0.0 <= a[1] <= 1.0
        assert 0.0 <= a[2] <= 2.0 * math.pi

    def test_seed_moves_the_draw(self):
        config = builtin_scenario("table2_diffdrive")
        a = sample_x0(config)
        b = sample_x0(dataclasses.replace(config, seed=1))
        assert (a != b).any()


class TestBuildProblem:
    def test_fields_carry_over(self):
        config = builtin_scenario("two_target")
        problem = build_problem(config)
        assert problem.T == config.T
        assert problem.x0 == config.x0
        assert problem.k1 == config.k1
        assert problem.control_bounds == config.control_bounds

    def test_overrides_and_unknowns(self):
        config = builtin_scenario("two_target")
        problem = build_problem(config, restarts=2, max_iters=17)
        assert problem.restarts == 2 and problem.max_iters == 17
        with pytest.raises(ScenarioError, match="unknown override 'stiffness'"):
            build_problem(config, stiffness=3)

    def test_explicit_x0_wins(self):
        config = builtin_scenario("two_target")
        problem = build_problem(config, x0=(1.0, 1.0))
        assert problem.x0 == (1.0, 1.0)

    def test_seed_must_be_a_whole_number(self):
        config = builtin_scenario("tunnel")
        with pytest.raises(ScenarioError, match="^seed: needs a whole number, got 1.5"):
            build_problem(config, seed=1.5)
        with pytest.raises(ScenarioError, match="^seed: needs a whole number, got True"):
            build_problem(config, seed=True)
        problem = build_problem(config, seed=7.0)
        assert problem.seed == 7 and type(problem.seed) is int

    def test_sampled_x0_follows_the_seed(self):
        config = builtin_scenario("table2_diffdrive")
        a = build_problem(config, seed=5)
        b = build_problem(config, seed=5)
        c = build_problem(config, seed=6)
        assert a.x0 == b.x0
        assert a.x0 != c.x0


class TestDwellSteps:
    def test_counts_time_parked_in_attraction_regions(self):
        config = builtin_scenario("two_target")
        rows = np.zeros((11, 4))
        rows[:, :2] = [9.0, 9.0]
        rows[3:6, :2] = [3.0, 7.0]        # inside goal for three steps
        rows[8, :2] = [1.0, 5.0]          # inside target1 once
        assert dwell_steps(config, Signal(rows)) == 4

    def test_obstacles_and_control_boxes_do_not_count(self):
        config = builtin_scenario("two_target")
        rows = np.zeros((11, 4))
        rows[:, :2] = [3.0, 3.0]          # always inside obs, ubox trivially
        assert dwell_steps(config, Signal(rows)) == 0


class TestBench:
    def test_records_and_aggregate(self):
        config = quick(builtin_scenario("two_target"), seed=0)
        records, agg = run_bench(config, trials=3)
        assert [r.trial for r in records] == [0, 1, 2]
        assert [r.seed for r in records] == [0, 1, 2]
        assert all(len(r.x0) == 2 for r in records)
        assert all(r.wall_ms > 0 for r in records)
        assert agg.trials == 3 and agg.completed == 3
        rho = np.array([r.rho_exact for r in records])
        assert_allclose(agg.mean_rho, rho.mean(), rtol=1e-12)
        assert_allclose(agg.std_rho, rho.std(), rtol=1e-12)
        assert_allclose(agg.median_rho, np.median(rho), rtol=1e-12)
        assert agg.success_rate == sum(r.satisfied for r in records) / 3

    def test_trials_match_direct_synthesis(self):
        # the bench path and the API path must produce identical numbers
        config = quick(builtin_scenario("two_target"), seed=9)
        records, _ = run_bench(config, trials=2)
        direct = synthesize(build_problem(config, seed=config.seed + 1))
        assert records[1].rho_exact == direct.rho_exact
        assert records[1].x0 == build_problem(config, seed=config.seed + 1).x0

    def test_budget_still_runs_one_wave(self):
        config = quick(builtin_scenario("two_target"), max_iters=10)
        records, agg = run_bench(config, trials=5, time_budget_s=0.0)
        assert 1 <= len(records) < 5
        assert agg.trials == len(records)

    def test_trial_count_must_be_whole(self):
        with pytest.raises(ScenarioError, match="^trials: needs a whole number, got 1.7"):
            run_bench(builtin_scenario("two_target"), trials=1.7)
        with pytest.raises(ScenarioError, match="^trials: needs a whole number, got True"):
            run_bench(builtin_scenario("two_target"), trials=True)

    def test_at_least_one_trial_required(self):
        with pytest.raises(ScenarioError, match="at least 1"):
            run_bench(builtin_scenario("two_target"), trials=0)

    def test_failed_trials_poison_only_the_means(self):
        good = BenchRecord(0, 0, (0.0, 0.0), 0.25, 0.2, True, 10, 5.0)
        bad = BenchRecord(1, 1, (0.0, 0.0), float("nan"), float("nan"), False, 0, 1.0)
        agg = aggregate_bench([good, bad])
        assert bad.failed and not good.failed
        assert agg.completed == 1
        assert agg.mean_rho == 0.25
        assert agg.success_rate == 0.5

    def test_csv_cells_are_the_records(self, tmp_path):
        config = quick(builtin_scenario("two_target"), max_iters=15)
        records, _ = run_bench(config, trials=2)
        nan = float("nan")
        records.append(BenchRecord(2, 9, (-0.0, 1e-300), nan, nan, False, 0, nan))
        path = tmp_path / "bench.csv"
        save_bench_csv(records, path)
        header, *rows = read_csv(path)
        assert ",".join(header) == "trial,seed,x0_0,x0_1,rho_exact,rho_smooth,satisfied,iters,wall_ms"
        assert len(rows) == len(records)
        for row, r in zip(rows, records):
            trial, seed, x0_0, x0_1, rho_exact, rho_smooth, satisfied, iters, wall_ms = row
            assert (int(trial), int(seed), int(iters)) == (r.trial, r.seed, r.iterations)
            assert satisfied == str(int(r.satisfied))
            assert bits(x0_0, x0_1, rho_exact, rho_smooth, wall_ms) == bits(
                *r.x0, r.rho_exact, r.rho_smooth, r.wall_ms
            )


class TestScaling:
    def test_horizon_sweep_counts_are_structural(self):
        records = run_scaling(n_values=(10, 20, 30), restarts=0, max_iters=3)
        assert [r.sweep for r in records] == ["N", "N", "N"]
        assert [r.value for r in records] == [10, 20, 30]
        # per-evaluation scalar counts depend only on the formula shape,
        # not on how many iterations the optimizer happened to take
        assert [r.op_count for r in records] == [530.0, 967.0, 1377.0]
        assert all(r.forwards >= 1 for r in records)
        assert all(r.wall_ms > 0 for r in records)

    def test_station_sweep_costs_grow_subadditively(self):
        records = run_scaling(p_values=(1, 2, 3), restarts=0, max_iters=3)
        counts = [r.op_count for r in records]
        assert counts == [1490.0, 1688.0, 1853.0]
        increments = [b - a for a, b in zip(counts, counts[1:])]
        assert increments == sorted(increments, reverse=True)

    @pytest.mark.parametrize("sweep,value", [("n_values", 12.5), ("p_values", 1.5)])
    def test_sweep_points_must_be_whole(self, sweep, value):
        with pytest.raises(ScenarioError, match=f"^{sweep}: needs whole numbers, got {value}"):
            run_scaling(**{sweep: (value,)}, restarts=0, max_iters=1)

    def test_short_horizons_are_rejected(self):
        with pytest.raises(ScenarioError, match="too short"):
            run_scaling(n_values=(3,), restarts=0, max_iters=2)
        with pytest.raises(ScenarioError, match="positive"):
            run_scaling(p_values=(0,), restarts=0, max_iters=2)

    def test_csv_cells_are_the_records(self, tmp_path):
        records = run_scaling(n_values=(10,), p_values=(1,), restarts=0, max_iters=2)
        path = tmp_path / "scaling.csv"
        save_scaling_csv(records, path)
        header, *rows = read_csv(path)
        assert ",".join(header) == "sweep,value,wall_ms,op_count,forwards,iterations,rho_exact"
        assert len(rows) == len(records)
        for row, r in zip(rows, records):
            sweep, value, wall_ms, op_count, forwards, iterations, rho_exact = row
            assert (sweep, int(value), int(forwards), int(iterations)) == (
                r.sweep, r.value, r.forwards, r.iterations
            )
            assert bits(wall_ms, op_count, rho_exact) == bits(r.wall_ms, r.op_count, r.rho_exact)
