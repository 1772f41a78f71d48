"""Dynamics tests: rollouts, Jacobians, and the costate backward sweep."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothstl.dynamics import (
    RolloutDivergence,
    SystemModel,
    builtin_model,
    differential_drive,
    load_controls_csv,
    rollout,
    rollout_with_sensitivities,
    save_controls_csv,
    single_integrator_2d,
)
from smoothstl.gradient import eval_with_gradient
from smoothstl.parser import parse
from smoothstl.robustness import SemanticsConfig


def functional_fd(model, x0, u, weights, h=1e-6):
    """Finite differences of J(u) = sum(weights * y(u)), the reference for
    the costate recursion."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for t in range(u.shape[0]):
        for j in range(u.shape[1]):
            bumped = u.copy()
            bumped[t, j] += h
            hi = float((rollout(model, x0, bumped).values * weights).sum())
            bumped[t, j] -= 2 * h
            lo = float((rollout(model, x0, bumped).values * weights).sum())
            out[t, j] = (hi - lo) / (2 * h)
    return out


class TestSingleIntegrator:
    def test_hand_rolled_trajectory(self):
        model = single_integrator_2d()
        u = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        sig = rollout(model, [0.0, 0.0], u)
        want = np.array([
            [0.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
            [1.0, 1.0, 2.0, 2.0],
        ])
        assert (sig.values == want).all()

    def test_dt_scales_the_step(self):
        model = single_integrator_2d(dt=0.5)
        sig = rollout(model, [0.0, 0.0], np.array([[2.0, 4.0], [0.0, 0.0]]))
        assert_allclose(sig.values[1, :2], [1.0, 2.0])

    def test_final_control_only_reaches_the_output(self):
        model = single_integrator_2d()
        u = np.zeros((3, 2))
        u[2] = [7.0, -7.0]
        sig = rollout(model, [0.0, 0.0], u)
        assert (sig.values[:, :2] == 0.0).all()
        assert_allclose(sig.values[2, 2:], [7.0, -7.0])


class TestDifferentialDrive:
    def test_straight_line(self):
        model = differential_drive()
        u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        sig = rollout(model, [0.0, 0.0, 0.0], u)
        assert_allclose(sig.values[:, 0], [0.0, 1.0, 2.0])
        assert_allclose(sig.values[:, 1], [0.0, 0.0, 0.0])

    def test_turn_in_place_then_drive(self):
        model = differential_drive()
        u = np.array([[0.0, np.pi / 2], [1.0, 0.0], [0.0, 0.0]])
        sig = rollout(model, [0.0, 0.0, 0.0], u)
        # the first step only rotates; the second drives along +y
        assert_allclose(sig.values[1, :2], [0.0, 0.0], atol=1e-15)
        assert_allclose(sig.values[2, :2], [0.0, 1.0], atol=1e-12)

    def test_heading_not_in_output(self):
        model = differential_drive()
        assert model.p == 4
        sig = rollout(model, [3.0, 4.0, 1.0], np.array([[2.0, -1.0]]))
        assert_allclose(sig.values[0], [3.0, 4.0, 2.0, -1.0])


class TestJacobians:
    @pytest.mark.parametrize("factory", [single_integrator_2d, differential_drive])
    def test_step_and_output_jacobians_match_fd(self, factory):
        model = factory(dt=0.7)
        rng = np.random.default_rng(80)
        h = 1e-6
        for _ in range(25):
            x = rng.uniform(-2, 2, model.n)
            u = rng.uniform(-2, 2, model.m)
            fx, fu = model.step_jacobians(x, u)
            gx, gu = model.output_jacobians(x, u)
            for j in range(model.n):
                dx = np.zeros(model.n)
                dx[j] = h
                assert_allclose(
                    (model.step(x + dx, u) - model.step(x - dx, u)) / (2 * h),
                    fx[:, j], atol=1e-6)
                assert_allclose(
                    (model.output(x + dx, u) - model.output(x - dx, u)) / (2 * h),
                    gx[:, j], atol=1e-6)
            for j in range(model.m):
                du = np.zeros(model.m)
                du[j] = h
                assert_allclose(
                    (model.step(x, u + du) - model.step(x, u - du)) / (2 * h),
                    fu[:, j], atol=1e-6)
                assert_allclose(
                    (model.output(x, u + du) - model.output(x, u - du)) / (2 * h),
                    gu[:, j], atol=1e-6)


class TestStackedContract:
    @pytest.mark.parametrize("factory", [single_integrator_2d, differential_drive])
    def test_stacked_calls_equal_single_point_calls(self, factory):
        rng = np.random.default_rng(86)
        for dt in (0.3, 0.7, 1.0):
            model = factory(dt=dt)
            for T in (0, 1, 12, 300):
                x0 = rng.uniform(-5, 5, model.n)
                u = rng.uniform(-5, 5, (T + 1, model.m))
                sens = rollout_with_sensitivities(model, x0, u)
                assert (rollout(model, x0, u).values == sens.signal.values).all()
                X = model.states(x0, u[:T])
                x = np.asarray(x0, dtype=float)
                for t in range(T + 1):
                    assert (X[t] == x).all()
                    assert (sens.signal.values[t] == model.output(x, u[t])).all()
                    gx, gu = model.output_jacobians(x, u[t])
                    assert (sens.gx[t] == gx).all() and (sens.gu[t] == gu).all()
                    if t < T:
                        fx, fu = model.step_jacobians(x, u[t])
                        assert (sens.fx[t] == fx).all() and (sens.fu[t] == fu).all()
                        x = model.step(x, u[t])

    @pytest.mark.parametrize("factory", [single_integrator_2d, differential_drive])
    def test_stacked_functions_called_once_per_rollout(self, factory):
        # the dynamics work is pinned as a count: a model with states never
        # calls step; without it, only the state update runs once per
        # timestep
        inner = factory()
        T = 30
        u = np.random.default_rng(87).uniform(-1, 1, (T + 1, inner.m))
        for vectorised in (True, False):
            calls = {"step": 0, "output": 0, "step_jacobians": 0, "output_jacobians": 0}
            if vectorised:
                calls["states"] = 0

            def counted(name, calls=calls):
                fn = getattr(inner, name)

                def wrapper(*args):
                    calls[name] += 1
                    return fn(*args)

                return wrapper

            model = SystemModel(
                n=inner.n, m=inner.m, p=inner.p,
                **{name: counted(name) for name in calls},
            )
            rollout_with_sensitivities(model, np.zeros(inner.n), u)
            want = {"step": T, "output": 1, "step_jacobians": 1, "output_jacobians": 1}
            if vectorised:
                want.update(step=0, states=1)
            assert calls == want

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("step_jacobians", lambda X, U: (np.ones((len(X), 2, 3)), np.zeros((2, 1)))),
            ("step_jacobians", lambda X, U: (np.eye(2), np.zeros((2, 2)))),
            ("output_jacobians", lambda X, U: (np.eye(2), np.zeros((len(X), 2, 3)))),
            ("output", lambda X, U: np.zeros((len(X), 3))),
            ("states", lambda x0, U: np.zeros((len(U), 2))),
        ],
        ids=["dfdx", "dfdu", "dgdu", "output", "states"],
    )
    def test_wrong_shape_names_the_function(self, name, bad):
        good = SystemModel(
            n=2, m=1, p=2,
            step=lambda x, u: x,
            output=lambda X, U: X,
            step_jacobians=lambda X, U: (np.eye(2), np.zeros((2, 1))),
            output_jacobians=lambda X, U: (np.eye(2), np.zeros((2, 1))),
        )
        model = SystemModel(**{**vars(good), name: bad})
        with pytest.raises(ValueError, match=name):
            rollout_with_sensitivities(model, [0.0, 0.0], np.zeros((4, 1)))


class TestControlGradient:
    @pytest.mark.parametrize("factory", [single_integrator_2d, differential_drive])
    def test_costate_sweep_matches_fd(self, factory):
        model = factory()
        rng = np.random.default_rng(81)
        for _ in range(25):
            T = int(rng.integers(1, 6))
            x0 = rng.uniform(-1, 1, model.n)
            u = rng.uniform(-1, 1, (T + 1, model.m))
            weights = rng.uniform(-1, 1, (T + 1, model.p))
            sens = rollout_with_sensitivities(model, x0, u)
            got = sens.control_gradient(weights)
            want = functional_fd(model, x0, u, weights)
            assert_allclose(got, want, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("factory", [single_integrator_2d, differential_drive])
    def test_batched_sweep_matches_step_by_step_recursion(self, factory):
        model = factory(dt=0.3)
        rng = np.random.default_rng(88)
        T = 40
        u = rng.uniform(-1, 1, (T + 1, model.m))
        sens = rollout_with_sensitivities(model, rng.uniform(-1, 1, model.n), u)
        dsignal = rng.uniform(-1, 1, (T + 1, model.p))
        want = np.zeros((T + 1, model.m))
        lam = np.zeros(model.n)
        for t in range(T, -1, -1):
            want[t] = sens.gu[t].T @ dsignal[t]
            if t < T:
                want[t] += sens.fu[t].T @ lam
            lam = sens.gx[t].T @ dsignal[t] + (sens.fx[t].T @ lam if t < T else 0.0)
        assert_allclose(sens.control_gradient(dsignal), want, rtol=1e-13, atol=1e-15)

    def test_sensitivity_signal_matches_plain_rollout(self):
        model = differential_drive()
        rng = np.random.default_rng(82)
        for T in (4, 150):
            x0 = rng.uniform(-1, 1, 3)
            u = rng.uniform(-1, 1, (T + 1, 2))
            a = rollout(model, x0, u)
            b = rollout_with_sensitivities(model, x0, u).signal
            assert (a.values == b.values).all()

    def test_constant_jacobian_model_matches_fd(self):
        # a linear plant whose Jacobian functions return single (n, n)
        # matrices, which hold at every timestep
        rng = np.random.default_rng(85)
        A = rng.uniform(-0.8, 0.8, (3, 3))
        B = rng.uniform(-1, 1, (3, 2))
        C = rng.uniform(-1, 1, (2, 3))
        D = rng.uniform(-1, 1, (2, 2))
        model = SystemModel(
            n=3, m=2, p=2,
            step=lambda x, u: A @ x + B @ u,
            output=lambda X, U: X @ C.T + U @ D.T,
            step_jacobians=lambda X, U: (A, B),
            output_jacobians=lambda X, U: (C, D),
        )
        x0 = rng.uniform(-1, 1, 3)
        u = rng.uniform(-1, 1, (7, 2))
        weights = rng.uniform(-1, 1, (7, 2))
        got = rollout_with_sensitivities(model, x0, u).control_gradient(weights)
        assert_allclose(got, functional_fd(model, x0, u, weights), rtol=1e-6, atol=1e-8)

    def test_early_control_moves_later_positions(self):
        # u_0 changes x_1, so a robustness term that only reads y_1 still
        # produces a nonzero derivative in u_0
        model = single_integrator_2d()
        u = np.zeros((2, 2))
        sens = rollout_with_sensitivities(model, [0.0, 0.0], u)
        phi = parse("F[1,1] y0 >= 0", p=4)
        grad = eval_with_gradient(phi, sens.signal, config=SemanticsConfig.ef(2, 2))
        du = sens.control_gradient(grad.dsignal)
        assert du[0, 0] != 0.0
        assert (du[1] == 0.0).all()

    def test_dsignal_shape_checked(self):
        model = single_integrator_2d()
        sens = rollout_with_sensitivities(model, [0.0, 0.0], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="shape"):
            sens.control_gradient(np.zeros((2, 4)))


class TestDivergence:
    def blow_up_model(self):
        return SystemModel(
            n=1, m=1, p=1,
            step=lambda x, u: x * 1e200,
            output=lambda x, u: x,
            step_jacobians=lambda x, u: (np.array([[1e200]]), np.zeros((1, 1))),
            output_jacobians=lambda x, u: (np.eye(1), np.zeros((1, 1))),
            name="boom",
        )

    def test_state_divergence_names_the_timestep(self):
        # x1 = 1e200 is still finite, x2 = 1e400 is the first overflow
        with np.errstate(over="ignore"), pytest.raises(RolloutDivergence) as err:
            rollout(self.blow_up_model(), [1.0], np.zeros((4, 1)))
        assert err.value.timestep == 2
        assert "state" in str(err.value)

    def test_output_divergence(self):
        model = SystemModel(
            n=1, m=1, p=1,
            step=lambda x, u: x,
            output=lambda x, u: np.array([float("inf")]),
            step_jacobians=lambda x, u: (np.eye(1), np.eye(1)),
            output_jacobians=lambda x, u: (np.eye(1), np.eye(1)),
        )
        with pytest.raises(RolloutDivergence) as err:
            rollout(model, [0.0], np.zeros((2, 1)))
        assert err.value.timestep == 0

    def test_output_reported_before_the_next_state(self):
        # y_1 and x_2 are both non-finite; a step-by-step rollout meets
        # y_1 first
        model = SystemModel(
            n=1, m=1, p=1,
            step=lambda x, u: x + 1.0 if x[0] < 1.0 else np.array([np.inf]),
            output=lambda X, U: np.where(X == 1.0, np.inf, X),
            step_jacobians=lambda X, U: (np.eye(1), np.eye(1)),
            output_jacobians=lambda X, U: (np.eye(1), np.eye(1)),
        )
        with pytest.raises(RolloutDivergence, match="output") as err:
            rollout(model, [0.0], np.zeros((4, 1)))
        assert err.value.timestep == 1

    def test_step_failing_on_a_diverged_state_is_divergence(self):
        # a turn rate of 1e308 takes the heading to inf at t=1, where the
        # next update cannot take its cosine
        model = differential_drive()
        u = np.array([[0.0, 1e308], [1.0, 0.0], [0.0, 0.0]])
        for run in (rollout, rollout_with_sensitivities):
            with pytest.raises(RolloutDivergence, match="state") as err:
                run(model, [0.0, 0.0, 1e308], u)
            assert err.value.timestep == 1

    def test_vectorised_overflow_is_state_divergence(self):
        # x1 = 1e308 is still finite and x2 = 2e308 overflows; the
        # vectorised rollout keeps numpy's overflow warning to itself
        model = single_integrator_2d()
        u = np.array([[1e308, 0.0], [1e308, 0.0], [0.0, 0.0]])
        for run in (rollout, rollout_with_sensitivities):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RolloutDivergence, match="state") as err:
                    run(model, [0.0, 0.0], u)
            assert err.value.timestep == 2

    def test_sensitivity_rollout_diverges_too(self):
        with np.errstate(over="ignore"), pytest.raises(RolloutDivergence):
            rollout_with_sensitivities(self.blow_up_model(), [1.0], np.zeros((4, 1)))


class TestValidation:
    def test_rollout_argument_shapes(self):
        model = single_integrator_2d()
        with pytest.raises(ValueError, match="x0"):
            rollout(model, [0.0], np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"\(T\+1, 2\)"):
            rollout(model, [0.0, 0.0], np.zeros((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            rollout(model, [0.0, 0.0], np.full((2, 2), np.nan))

    def test_determinism(self):
        model = differential_drive()
        rng = np.random.default_rng(83)
        x0 = rng.uniform(-1, 1, 3)
        u = rng.uniform(-1, 1, (6, 2))
        a = rollout(model, x0, u)
        b = rollout(model, x0, u)
        assert (a.values == b.values).all()

    def test_builtin_lookup(self):
        assert builtin_model("single_integrator_2d").n == 2
        assert builtin_model("differential_drive", dt=0.25).dt == 0.25
        with pytest.raises(ValueError, match="unknown model"):
            builtin_model("bicycle")


class TestControlsCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(84)
        u = rng.uniform(-3, 3, (7, 2))
        path = tmp_path / "u.csv"
        save_controls_csv(u, path)
        assert (load_controls_csv(path) == u).all()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,v0\n0,1.0\n")
        with pytest.raises(ValueError, match="u0"):
            load_controls_csv(path)
        path.write_text("t,u0,u1\n0,1.0,2.0\n1,3.0,4.0,5.0\n")
        with pytest.raises(ValueError, match="bad.csv: row 3 has 4 fields"):
            load_controls_csv(path)
