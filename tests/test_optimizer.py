"""Synthesis tests: the objective, the ascent loop, restarts, continuation.

The analytic reference here is a reach problem whose optimum is known in
closed form: driving a single integrator from the origin into a unit box
can achieve an exact margin of at most half the box width, and a straight
run at the box center achieves it. The optimizer must land in that range.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothstl.dynamics import RolloutDivergence, SystemModel, rollout, single_integrator_2d
from smoothstl.formula import CallablePredicate, Not, Pred, RegionTable, conj, to_nnf
from smoothstl.optimizer import (
    _LBFGS_MEMORY,
    DEFAULT_RESTARTS,
    SynthesisFailure,
    SynthesisProblem,
    SynthesisResult,
    _initial_controls,
    _Memory,
    _run_restarts,
    k_continuation,
    objective,
    synthesize,
)
from smoothstl.parser import parse
from smoothstl.robustness import (
    EXACT,
    SemanticsConfig,
    count_operator_evals,
    evaluate,
)
from smoothstl.scenarios import (
    ScenarioError,
    build_problem,
    builtin_scenario,
    scenario_from_json_dict,
)


MONITOR_SPEC = (
    "G[0,400] ((F[0,20] (y0 >= 1) or G[0,5] (-y1 >= -0.5))"
    " and ((y1 >= -2) U[0,10] (y0 - y1 >= 0.5)))"
)


def scaled_disc(r):
    """Callable margin of a disc of radius r about the origin of the
    position, over the single integrator's 4-D output."""
    return CallablePredicate(
        fn=lambda y: r - float(y[:2] @ y[:2]) / r,
        dim=4,
        jacobian=lambda y: np.concatenate([-2.0 * y[:2] / r, [0.0, 0.0]]),
        label="disc",
    )


def stack_cases():
    """Parameters (problem, stack of controls, the rows' divergences) for
    the batched objective: both builtin models, a long monitoring formula
    whose plan has dense blocks and an until scan, a callable predicate,
    and charging, whose plan mixes dense blocks and flat groups. Row 1 of
    the two_target stack diverges in the rollout and row 3 in the effort
    term."""
    rng = np.random.default_rng(92)
    cases = []
    for name in ("two_target", "table2_diffdrive"):
        problem = build_problem(builtin_scenario(name))
        U = rng.uniform(-2, 2, (5, problem.T + 1, problem.model.m))
        cases.append((name, problem, U, []))
    cases[0][2][1, 2:4] = 1e308
    cases[0][2][3, 4] = 1e200
    cases[0][3].extend(["state at timestep 4", "control effort at timestep 4"])
    monitor = replace(
        reach_problem(), phi=to_nnf(parse(MONITOR_SPEC, p=4)), T=420, control_bounds=None
    )
    cases.append(("monitor", monitor, rng.normal(0.0, 0.3, (3, 421, 2)), []))
    disc = conj(Pred(scaled_disc(2.0)).eventually(1, 3), reach_problem().phi)
    cases.append(("callable", reach_problem(phi=disc), rng.uniform(-1, 1, (4, 5, 2)), []))
    charging = build_problem(builtin_scenario("charging"))
    U = rng.uniform(-2, 2, (5, charging.T + 1, charging.model.m))
    cases.append(("charging", charging, U, []))
    return [pytest.param(*case, id=name) for name, *case in cases]


def reach_problem(**kwargs):
    """Single integrator, 5 samples, reach a unit box; optimum margin 0.5."""
    table = RegionTable({"goal": {0: (2.0, 3.0), 1: (3.0, 4.0)}})
    phi = parse("F[0,4] goal", regions=table, p=4)
    defaults = dict(
        model=single_integrator_2d(),
        x0=(0.0, 0.0),
        phi=phi,
        T=4,
        k1=10.0,
        k2=10.0,
        control_bounds=((-1.0, 1.0), (-1.0, 1.0)),
        restarts=4,
        seed=0,
        max_iters=200,
    )
    defaults.update(kwargs)
    return SynthesisProblem(**defaults)


# reach_problem as a scenario file
REACH_SCENARIO = {
    "model": "single_integrator_2d",
    "T": 4,
    "regions": {"goal": {"0": [2.0, 3.0], "1": [3.0, 4.0]}},
    "spec": "F[0,4] goal",
    "x0": [0.0, 0.0],
    "control_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
}

# (key, bad value, the message every door gives)
KNOB_ERRORS = [
    ("hard_clamp", "false", "hard_clamp: needs true or false, got 'false'"),
    ("restarts", True, "restarts: needs a whole number, got True"),
    ("k1", "3", "k1: needs a number, got '3'"),
    ("tolerance", "1e-3", "tolerance: needs a number, got '1e-3'"),
    ("x0", (math.inf, 0.0), "x0: must be finite"),
    ("control_bounds", ((-1.0, "1"), (-1.0, 1.0)),
     "control_bounds: needs (lo, hi) pairs of numbers, got ((-1.0, '1'), (-1.0, 1.0))"),
    ("x0", (0.0,), "x0: needs 2 entries, got 1"),
    ("T", 4.5, "T: needs a whole number, got 4.5"),
    ("T", 3, "T: formula looks 4 steps ahead but T is 3"),
    ("seed", 1.5, "seed: needs a whole number, got 1.5"),
    ("max_iters", 0, "max_iters: must be positive"),
    ("restarts", -1, "restarts: must be nonnegative"),
    ("k1", 0.0, "k1: must be positive"),
    ("k2", math.nan, "k2: must be finite"),
    ("control_weight", -0.5, "control_weight: must be nonnegative"),
    ("tolerance", 0.0, "tolerance: must be positive"),
    ("control_bounds", ((-1.0, 1.0),), "control_bounds: needs 2 (lo, hi) pairs"),
    ("control_bounds", ((1.0, -1.0), (-1.0, 1.0)), "control_bounds: every pair needs lo < hi"),
    ("control_bounds", ((-1e308, 1e308), (-1e308, 1e308)),
     "control_bounds: every pair needs a finite width hi - lo"),
    ("hard_clamp", np.array([True, False]),
     "hard_clamp: needs true or false, got array([ True, False])"),
]


class TestProblemValidation:
    @pytest.mark.parametrize("key,value,message", KNOB_ERRORS)
    def test_every_door_gives_the_same_message(self, key, value, message):
        config = scenario_from_json_dict(REACH_SCENARIO)
        fields = vars(build_problem(config))
        doors = [
            (ScenarioError, lambda: scenario_from_json_dict({**REACH_SCENARIO, key: value})),
            (ScenarioError, lambda: build_problem(config, **{key: value})),
            (ValueError, lambda: SynthesisProblem(**{**fields, key: value})),
        ]
        for error, door in doors:
            with pytest.raises(ValueError) as info:
                door()
            assert type(info.value) is error
            assert str(info.value) == message

    def test_x0_length(self):
        with pytest.raises(ValueError, match="^x0: needs 2 entries"):
            reach_problem(x0=(0.0,))

    def test_requires_nnf(self):
        bad = Not(parse("F[0,4] y0 >= 2", p=4))
        with pytest.raises(ValueError, match="negation normal form"):
            reach_problem(phi=bad)
        reach_problem(phi=to_nnf(bad))

    def test_horizon_must_fit(self):
        with pytest.raises(ValueError, match="looks 9 steps ahead"):
            reach_problem(phi=parse("F[0,9] y0 >= 2", p=4))

    def test_control_bounds_checked(self):
        with pytest.raises(ValueError, match="^control_bounds: needs 2 \\(lo, hi\\) pairs"):
            reach_problem(control_bounds=((-1.0, 1.0),))
        with pytest.raises(ValueError, match="^control_bounds: every pair needs lo < hi"):
            reach_problem(control_bounds=((1.0, 1.0), (-1.0, 1.0)))

    def test_scalar_knobs_checked(self):
        with pytest.raises(ValueError, match="nonnegative"):
            reach_problem(control_weight=-0.1)
        with pytest.raises(ValueError, match="restarts"):
            reach_problem(restarts=-1)
        with pytest.raises(ValueError, match="max_iters"):
            reach_problem(max_iters=0)
        with pytest.raises(ValueError, match="tolerance"):
            reach_problem(tolerance=0.0)

    @pytest.mark.parametrize("key,value", [
        ("T", 10.7), ("restarts", 2.5), ("max_iters", 3.9), ("seed", 1.5), ("seed", "one"),
    ])
    def test_counts_must_be_whole_numbers(self, key, value):
        with pytest.raises(ValueError, match=f"^{key}: needs a whole number, got {value!r}"):
            reach_problem(**{key: value})

    @pytest.mark.parametrize("key", ["hard_clamp", "classic_until"])
    def test_flags_must_be_true_or_false(self, key):
        with pytest.raises(ValueError, match=f"^{key}: needs true or false, got 'false'"):
            reach_problem(**{key: "false"})
        assert getattr(reach_problem(**{key: True}), key) is True

    def test_whole_floats_become_ints(self):
        problem = reach_problem(T=4.0, restarts=2.0, max_iters=3.0, seed=1.0)
        knobs = (problem.T, problem.restarts, problem.max_iters, problem.seed)
        assert knobs == (4, 2, 3, 1)
        assert all(type(v) is int for v in knobs)

    def test_infinite_control_weight_is_rejected(self):
        with pytest.raises(ValueError, match="^control_weight: must be finite"):
            reach_problem(control_weight=float("inf"))

    def test_infinite_tolerance_is_rejected(self):
        # it would stop every ascent at its start
        with pytest.raises(ValueError, match="^tolerance: must be finite"):
            reach_problem(tolerance=float("inf"))

    @pytest.mark.parametrize("pair", [(-np.inf, 1.0), (-1.0, np.inf), (-np.inf, np.inf)])
    def test_control_bounds_must_be_finite(self, pair):
        with pytest.raises(ValueError, match="^control_bounds: must be finite"):
            reach_problem(control_bounds=(pair, (-1.0, 1.0)))

    def test_sharpness_must_be_finite(self):
        with pytest.raises(ValueError, match="^k1: must be finite"):
            reach_problem(k1=float("inf"))
        with pytest.raises(ValueError, match="^k2: must be finite"):
            reach_problem(k2=float("nan"))

    def test_config_property(self):
        problem = reach_problem(k1=3.0, k2=7.0)
        assert problem.config == SemanticsConfig.ef(3.0, 7.0)


class TestObjective:
    def test_zero_controls_have_zero_penalty(self):
        problem = reach_problem(control_weight=5.0)
        u = np.zeros((5, 2))
        J, _ = objective(problem, u)
        y = rollout(problem.model, problem.x0, u)
        assert J == evaluate(problem.phi, y, config=problem.config)

    def test_penalty_composition(self):
        problem = reach_problem(control_weight=0.25)
        rng = np.random.default_rng(90)
        u = rng.uniform(-1, 1, (5, 2))
        J, _ = objective(problem, u)
        y = rollout(problem.model, problem.x0, u)
        rho = evaluate(problem.phi, y, config=problem.config)
        assert_allclose(J, rho - 0.25 * float(np.sum(u * u)), rtol=1e-12)

    @pytest.mark.parametrize("problem, U, diverged", stack_cases())
    def test_stack_equals_rows_bit_for_bit(self, problem, U, diverged):
        def same(got, want):
            if isinstance(want, RolloutDivergence):
                return type(got) is RolloutDivergence and str(got) == str(want)
            return got[0] == want[0] and got[1].tobytes() == want[1].tobytes()

        rows = []
        for u in U:
            try:
                rows.append(objective(problem, u))
            except RolloutDivergence as err:
                rows.append(err)
        errors = [str(row) for row in rows if isinstance(row, RolloutDivergence)]
        assert errors == [f"non-finite {what}" for what in diverged]
        with count_operator_evals() as counter:
            stacked = objective(problem, U)
        # a row that diverges in the rollout is not evaluated
        assert counter.forwards == len(U) - sum("state" in what for what in diverged)
        assert all(same(got, want) for got, want in zip(stacked, rows, strict=True))
        perm = np.random.default_rng(93).permutation(len(U))
        shuffled = objective(problem, U[perm])
        assert all(same(got, rows[i]) for got, i in zip(shuffled, perm, strict=True))

    def test_rows_keep_their_bits_as_the_stack_height_changes(self):
        # the plan keeps backward's scatter indices for the last stack shape
        # only, and its layout does not depend on the height; a sharpness of
        # 1 spreads the weights, so that a slot read by several segments
        # sums several nonzero terms, whose order a layout switch changes
        problem = replace(build_problem(builtin_scenario("charging")), k1=1.0, k2=1.0)
        U = np.random.default_rng(95).uniform(-2, 2, (3, problem.T + 1, problem.model.m))
        alone = [objective(problem, u) for u in U]
        for rows in ([0, 1, 2], [1], [2, 0], [0, 1, 2], [2, 0, 1]):
            for (J, dJ), r in zip(objective(problem, U[rows]), rows, strict=True):
                assert J == alone[r][0] and dJ.tobytes() == alone[r][1].tobytes(), rows

    def test_empty_stack_is_refused(self):
        problem = reach_problem()
        with pytest.raises(ValueError, match="^u needs at least one sequence$"):
            objective(problem, np.zeros((0, problem.T + 1, 2)))

    def test_effort_overflow_is_divergence(self):
        # the rollout, robustness and costates stay finite; the squares of
        # row 4 overflow first
        problem = build_problem(builtin_scenario("two_target"))
        u = np.zeros((problem.T + 1, 2))
        u[4:] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RolloutDivergence, match="control effort") as err:
                objective(problem, u)
            (stacked,) = objective(problem, u[None])
        assert err.value.timestep == 4
        assert str(stacked) == str(err.value)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(91)
        problem = reach_problem(control_weight=0.1, k1=2.0, k2=2.0)
        h = 1e-6
        for _ in range(10):
            u = rng.uniform(-1, 1, (5, 2))
            _, dJ = objective(problem, u)
            fd = np.zeros_like(u)
            for t in range(5):
                for j in range(2):
                    bumped = u.copy()
                    bumped[t, j] += h
                    hi, _ = objective(problem, bumped)
                    bumped[t, j] -= 2 * h
                    lo, _ = objective(problem, bumped)
                    fd[t, j] = (hi - lo) / (2 * h)
            assert_allclose(dJ, fd, rtol=1e-4, atol=1e-7)


    def test_margin_overflow_is_divergence(self):
        # 2 * u overflows at timestep 3 of row 1 while its rollout stays
        # finite; it used to give NaN and an escaping overflow warning
        problem = reach_problem(phi=parse("F[0,4] 2*y2 >= 0", p=4), control_bounds=None)
        U = np.zeros((3, 5, 2))
        U[1, 3, 0] = 1e308
        U[2] = 0.5
        with pytest.raises(RolloutDivergence, match="^non-finite predicate margin at timestep 3$"):
            objective(problem, U[1])
        with count_operator_evals() as counter:
            stacked = objective(problem, U)
        assert counter.forwards == 2
        assert str(stacked[1]) == "non-finite predicate margin at timestep 3"
        for r in (0, 2):
            J, dJ = objective(problem, U[r])
            assert stacked[r][0] == J and stacked[r][1].tobytes() == dJ.tobytes()

    def test_non_finite_callable_margin_is_divergence(self):
        # a callable margin undefined beyond y0 = 1 rejects only that row
        partial = CallablePredicate(
            fn=lambda y: 1.0 - float(y[0]) if y[0] < 1.0 else math.nan, dim=4,
            jacobian=lambda y: np.array([-1.0, 0.0, 0.0, 0.0]),
        )
        problem = reach_problem(phi=conj(Pred(partial).always(0, 4), reach_problem().phi))
        U = np.zeros((2, 5, 2))
        U[1, 1, 0] = 2.0
        first, second = objective(problem, U)
        assert first[0] == objective(problem, U[0])[0]
        assert str(second) == "non-finite predicate margin at timestep 2"


def two_loop(g, pairs):
    """The L-BFGS two-loop recursion over flattened (s, y) pairs, oldest
    first, y = g_old - g_new: the reference for the Gram form."""
    q = -g.ravel()
    alphas = []
    for s, y in reversed(pairs):
        alphas.append(np.dot(s, q) / np.dot(s, y))
        q = q - alphas[-1] * y
    if pairs:
        s, y = pairs[-1]
        q = q * (np.dot(s, y) / np.dot(y, y))
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        q = q + s * (alpha - np.dot(y, q) / np.dot(s, y))
    return (-q).reshape(g.shape)


class TestGramDirection:
    SHAPE = (9, 2)

    def pairs(self, rng, count):
        """Random pairs with y = A s for one symmetric positive definite A,
        so that every s . y is positive, as the ascent requires."""
        n = math.prod(self.SHAPE)
        M = rng.normal(size=(n, n))
        A = M @ M.T / n + np.eye(n)
        return [(s, A @ s) for s in rng.normal(size=(count, n))]

    @staticmethod
    def remember(memory, pairs):
        for s, y in pairs:
            memory.add(s, y, float(np.dot(s, y)), float(np.dot(y, y)))
        return memory

    def check(self, memory, pairs, rng):
        """The memory's directions against the two-loop over pairs."""
        for _ in range(5):
            g = rng.normal(size=self.SHAPE)
            got, want = memory.direction(g), two_loop(g, pairs)
            assert got.shape == g.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_empty_memory_gives_the_gradient(self):
        g = np.random.default_rng(60).normal(size=self.SHAPE)
        assert _Memory(g.size).direction(g).tobytes() == g.tobytes()

    @pytest.mark.parametrize("count", [1, 4, _LBFGS_MEMORY, 15, 3 * _LBFGS_MEMORY + 2])
    def test_matches_the_two_loop(self, count):
        # past _LBFGS_MEMORY pairs the oldest are overwritten in the ring
        rng = np.random.default_rng(61 + count)
        pairs = self.pairs(rng, count)
        memory = self.remember(_Memory(math.prod(self.SHAPE)), pairs)
        self.check(memory, pairs[-_LBFGS_MEMORY:], rng)

    @pytest.mark.parametrize("before, after", [(6, 3), (15, 4), (15, 12)])
    def test_cleared_memory_starts_over(self, before, after):
        rng = np.random.default_rng(62 + before + after)
        pairs = self.pairs(rng, before + after)
        memory = self.remember(_Memory(math.prod(self.SHAPE)), pairs[:before])
        memory.order.clear()  # what the steepest-ascent fallback does
        g = rng.normal(size=self.SHAPE)
        assert memory.direction(g).tobytes() == g.tobytes()
        self.remember(memory, pairs[before:])
        self.check(memory, pairs[before:][-_LBFGS_MEMORY:], rng)

    def test_forced_fallback_clears_only_its_own_ascent(self, monkeypatch):
        # The fallback does not fire on the builtins, so it is forced: one
        # ascent's memory returns a descent direction once it holds three
        # pairs, so that ascent clears its memory. Every ascent of the
        # lockstep stack still ends as it does alone.
        problem = reach_problem(seed=5, restarts=3)
        starts = _initial_controls(problem)
        # the memories are made in restart order, in the first round
        made, forced, target = [], [], [None]
        init, direction = _Memory.__init__, _Memory.direction

        def track(self, size):
            init(self, size)
            made.append(self)

        def forcing(self, g):
            d = direction(self, g)
            mine = target[0] is not None and target[0] < len(made) and self is made[target[0]]
            if mine and len(self.order) == 3 and self not in forced:
                forced.append(self)
                return -d
            assert float(np.sum(d * g)) > 0.0
            return d

        monkeypatch.setattr(_Memory, "__init__", track)
        monkeypatch.setattr(_Memory, "direction", forcing)

        def run(starts, first, forced_at):
            made.clear()
            forced.clear()
            target[0] = forced_at
            outcomes = _run_restarts(problem, starts, first)
            assert len(forced) == (forced_at is not None)
            return outcomes

        stacked = run(starts, 0, 2)
        for i, start in enumerate(starts):
            ((record, (u, _, trace)),) = run([start], i, 0 if i == 2 else None)
            got_record, (got_u, _, got_trace) = stacked[i]
            assert replace(got_record, wall_ms=0.0) == replace(record, wall_ms=0.0)
            assert got_u.tobytes() == u.tobytes() and got_trace == trace
        # the clearing changed the ascent it was forced on
        ((record, _),) = run([starts[2]], 2, None)
        assert replace(record, wall_ms=0.0) != replace(stacked[2][0], wall_ms=0.0)


class TestSynthesize:
    def test_reaches_the_analytic_optimum(self):
        result = synthesize(reach_problem())
        assert result.satisfied
        # 0.5 is the geometric ceiling; the smooth surrogate costs a little
        assert 0.40 <= result.rho_exact <= 0.5 + 1e-9

    def test_result_is_consistent(self):
        problem = reach_problem()
        result = synthesize(problem)
        y = rollout(problem.model, problem.x0, result.u_star)
        assert (y.values == result.y_star.values).all()
        assert result.rho_exact == evaluate(problem.phi, result.y_star, config=EXACT)
        assert result.rho_smooth == evaluate(problem.phi, result.y_star, config=problem.config)
        assert result.satisfied == (result.rho_exact > 0)
        assert result.wall_time > 0
        # each restart's share of the lockstep rounds it took part in
        assert all(r.wall_ms > 0 for r in result.restart_records)
        assert sum(r.wall_ms for r in result.restart_records) <= result.wall_time * 1e3

    def test_trace_is_nondecreasing(self):
        result = synthesize(reach_problem())
        trace = result.objective_trace
        assert len(trace) >= 1
        for a, b in zip(trace, trace[1:]):
            assert b >= a

    def test_winner_has_the_best_exact_robustness(self):
        result = synthesize(reach_problem(seed=3))
        ok = [r for r in result.restart_records if not r.failed]
        assert result.rho_exact == max(r.rho_exact for r in ok)
        winner = [r for r in ok if r.index == result.restart_index][0]
        assert winner.iterations == result.iterations

    def test_baseline_restart_is_never_below_its_start(self):
        problem = reach_problem()
        result = synthesize(problem)
        J0, _ = objective(problem, np.zeros((5, 2)))
        assert result.restart_records[0].objective >= J0

    def test_restart_count(self):
        result = synthesize(reach_problem(restarts=0))
        assert len(result.restart_records) == 1
        result = synthesize(reach_problem(restarts=3))
        assert len(result.restart_records) == 4
        assert [r.index for r in result.restart_records] == [0, 1, 2, 3]

    def test_deterministic_replay(self):
        a = synthesize(reach_problem(seed=11))
        b = synthesize(reach_problem(seed=11))
        assert (a.u_star == b.u_star).all()
        assert a.rho_exact == b.rho_exact
        assert a.restart_index == b.restart_index
        assert [r.objective for r in a.restart_records] == [
            r.objective for r in b.restart_records
        ]

    def test_seed_changes_the_random_restarts(self):
        a = synthesize(reach_problem(seed=1, restarts=2, max_iters=5))
        b = synthesize(reach_problem(seed=2, restarts=2, max_iters=5))
        assert [r.objective for r in a.restart_records[1:]] != [
            r.objective for r in b.restart_records[1:]
        ]

    def test_hard_clamp_keeps_iterates_in_the_box(self):
        problem = reach_problem(
            control_bounds=((-0.4, 0.4), (-0.4, 0.4)), hard_clamp=True
        )
        result = synthesize(problem)
        assert (np.abs(result.u_star) <= 0.4 + 1e-12).all()

    def test_all_divergent_restarts_raise(self):
        doubling = SystemModel(
            n=1, m=1, p=1,
            step=lambda x, u: x * 1e160,
            output=lambda x, u: x,
            step_jacobians=lambda x, u: (np.full((1, 1), 1e160), np.zeros((1, 1))),
            output_jacobians=lambda x, u: (np.eye(1), np.zeros((1, 1))),
            name="doubling",
        )
        problem = SynthesisProblem(
            model=doubling, x0=(1.0,), phi=parse("G[0,3] y0 >= 0", p=1),
            T=3, k1=2.0, k2=2.0, restarts=2, max_iters=10,
        )
        with np.errstate(over="ignore"), pytest.raises(SynthesisFailure, match="diverged"):
            synthesize(problem)

    def test_divergent_restarts_fail_alone(self):
        # the state is multiplied by 1e160 u, so the zero baseline stays
        # finite and every random start overflows by t = 2
        scaling = SystemModel(
            n=1, m=1, p=1,
            step=lambda x, u: x * u * 1e160,
            output=lambda x, u: x,
            step_jacobians=lambda x, u: (u[:, :, None] * 1e160, x[:, :, None] * 1e160),
            output_jacobians=lambda x, u: (np.eye(1), np.zeros((1, 1))),
            name="scaling",
        )
        problem = SynthesisProblem(
            model=scaling, x0=(1.0,), phi=parse("G[0,3] y0 >= -1", p=1),
            T=3, k1=2.0, k2=2.0, restarts=3, max_iters=10,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            result = synthesize(problem)
            alone = synthesize(replace(problem, restarts=0))
        assert [r.failed for r in result.restart_records] == [False, True, True, True]
        assert result.restart_index == 0
        assert replace(result.restart_records[0], wall_ms=0.0) == replace(
            alone.restart_records[0], wall_ms=0.0
        )
        assert (result.u_star == alone.u_star).all()


class TestKContinuation:
    def test_schedule_validation(self):
        problem = reach_problem()
        with pytest.raises(ValueError, match="nonempty"):
            k_continuation(problem, [])
        with pytest.raises(ValueError, match="positive"):
            k_continuation(problem, [0.0, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            k_continuation(problem, [1.0, 1.0])
        with pytest.raises(ValueError, match="^k_schedule: must be finite"):
            k_continuation(problem, [1.0, float("inf")])

    def test_schedule_entries_are_numbers(self):
        # float(True) is 1.0, so [True, 2] used to run stages at k = 1 and 2
        problem = reach_problem()
        with pytest.raises(ValueError, match="^k_schedule: needs a number, got True"):
            k_continuation(problem, [True, 2])
        with pytest.raises(ValueError, match="^k_schedule: needs a number, got '3'"):
            k_continuation(problem, [1, "3"])

    def test_singleton_schedule_is_plain_synthesis(self):
        problem = reach_problem(k1=5.0, k2=5.0, max_iters=60)
        a = k_continuation(problem, [5.0])
        b = synthesize(problem)
        assert (a.u_star == b.u_star).all()
        assert a.rho_exact == b.rho_exact
        assert a.stages == []

    def test_stages_chain_warm_starts(self):
        problem = reach_problem(max_iters=80)
        result = k_continuation(problem, [1.0, 5.0, 20.0])
        assert isinstance(result, SynthesisResult)
        assert [s.k for s in result.stages] == [1.0, 5.0, 20.0]
        assert result.stages[0].u_init is None
        for prev, cur in zip(result.stages, result.stages[1:]):
            assert (cur.u_init == prev.u_star).all()
        assert (result.u_star == result.stages[-1].u_star).all()
        assert result.rho_exact == result.stages[-1].rho_exact
        y = rollout(problem.model, problem.x0, result.u_star)
        assert (result.y_star.values == y.values).all()
        assert result.iterations == sum(s.iterations for s in result.stages)
        # restart bookkeeping is the first stage's full solve
        first = synthesize(reach_problem(max_iters=80, k1=1.0, k2=1.0))
        assert result.restart_index == first.restart_index
        for got, want in zip(result.restart_records, first.restart_records, strict=True):
            assert replace(got, wall_ms=0.0) == replace(want, wall_ms=0.0)

    def test_final_sharpness_defines_the_report(self):
        problem = reach_problem(max_iters=80)
        result = k_continuation(problem, [1.0, 20.0])
        y = rollout(problem.model, problem.x0, result.u_star)
        want = evaluate(problem.phi, y, config=SemanticsConfig.ef(20.0, 20.0))
        assert result.rho_smooth == want
