"""Dynamics tests: rollouts, Jacobians, the adjoint hook and the costate
backward sweep."""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothstl.dynamics import (
    RolloutDivergence,
    SystemModel,
    _jacobians,
    builtin_model,
    differential_drive,
    load_controls_csv,
    rollout,
    rollout_with_sensitivities,
    save_controls_csv,
    single_integrator_2d,
)
from smoothstl.gradient import eval_with_gradient
from smoothstl.optimizer import SynthesisProblem, objective
from smoothstl.parser import parse
from smoothstl.robustness import SemanticsConfig
from smoothstl.scenarios import build_problem, builtin_scenario


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


def jacobians(sens):
    """fx (T, n, n), fu (T, n, m), gx (T+1, p, n) and gu (T+1, p, m) along
    the rollout, as the costate sweep reads them: a constant one as a
    broadcast view."""
    return [a[0] for a in _jacobians(sens.model, sens.X[None], sens.U[None])]


def without_adjoint(sens):
    """sens on the model without its adjoint, which takes the costate sweep."""
    return dataclasses.replace(sens, model=dataclasses.replace(sens.model, adjoint=None))


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
        phi = parse("G[0,2] (y0 >= 0 or -y1 >= -1)", p=4)
        for dt in (0.3, 0.7, 1.0):
            model = factory(dt=dt)
            for T in (0, 1, 2, 12, 300):
                x0 = rng.uniform(-5, 5, model.n)
                u = rng.uniform(-5, 5, (T + 1, model.m))
                sens = rollout_with_sensitivities(model, x0, u)
                assert (rollout(model, x0, u).values == sens.signal.values).all()
                # the adjoint hook against the per-step sweep: bit for bit
                # where the step Jacobians are constant, and to rounding
                # where the heading couples them
                loop = without_adjoint(sens)
                dsignals = [rng.uniform(-5, 5, sens.signal.values.shape)]
                if T >= 2:
                    grad = eval_with_gradient(phi, sens.signal, config=SemanticsConfig.ef(3, 3))
                    dsignals.append(grad.dsignal)
                for dsignal in dsignals:
                    got, want = sens.control_gradient(dsignal), loop.control_gradient(dsignal)
                    if factory is single_integrator_2d:
                        assert got.tobytes() == want.tobytes()
                    else:
                        assert_allclose(got, want, rtol=1e-13, atol=1e-15)
                X = model.states(x0, u[:T])
                assert (sens.X == X).all() and (sens.U == u).all()
                fxs, fus, gxs, gus = jacobians(sens)
                x = np.asarray(x0, dtype=float)
                for t in range(T + 1):
                    assert (X[t] == x).all()
                    assert (sens.signal.values[t] == model.output(x, u[t])).all()
                    gx, gu = model.output_jacobians(x, u[t])
                    assert (gxs[t] == gx).all() and (gus[t] == gu).all()
                    if t < T:
                        fx, fu = model.step_jacobians(x, u[t])
                        assert (fxs[t] == fx).all() and (fus[t] == fu).all()
                        x = model.step(x, u[t])

    @pytest.mark.parametrize("factory", [single_integrator_2d, differential_drive])
    def test_stacked_functions_called_once_per_rollout(self, factory):
        # the dynamics work is pinned as a count: a model with states and
        # adjoint never calls step, back-propagates in one call and needs
        # no Jacobians at all; without them, only the state update runs
        # once per timestep. Jacobians are built only when a gradient is
        # asked for
        inner = factory()
        T = 30
        u = np.random.default_rng(87).uniform(-1, 1, (T + 1, inner.m))
        for vectorised in (True, False):
            calls = {"step": 0, "output": 0, "step_jacobians": 0, "output_jacobians": 0}
            if vectorised:
                calls.update(states=0, adjoint=0)

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
            sens = rollout_with_sensitivities(model, np.zeros(inner.n), u)
            assert calls["step_jacobians"] == calls["output_jacobians"] == 0
            sens.control_gradient(np.ones((T + 1, inner.p)))
            want = {"step": T, "output": 1, "step_jacobians": 1, "output_jacobians": 1}
            if vectorised:
                want.update(step=0, states=1, adjoint=1, step_jacobians=0, output_jacobians=0)
            else:
                assert sens.model.adjoint is None
            assert calls == want
            if vectorised:
                phi = parse("y0 >= 0", p=4)
                problem = SynthesisProblem(model, np.zeros(inner.n), phi, T=T, k1=2.0, k2=2.0)
                calls.update(dict.fromkeys(calls, 0))
                objective(problem, np.stack([u, u]))
                assert calls == want

    @pytest.mark.parametrize("factory", [single_integrator_2d, differential_drive])
    def test_objective_stack_rows_equal_rows_alone(self, factory):
        # the adjoint back-propagates the whole stack in one call, and each
        # row comes out as it does alone. On the differential drive, row 1
        # drives at 1e308 with heading 0: its states stay finite, but the
        # heading coupling v * dt * L_y overflows, and only that row
        # diverges, at the first control the overflow reaches
        model = factory()
        problem = SynthesisProblem(
            model, np.zeros(model.n), parse("G[0,4] 8*y1 >= -100", p=4), T=4, k1=2.0, k2=2.0,
            control_weight=0.01,
        )
        U = np.random.default_rng(97).uniform(-1, 1, (3, 5, 2))
        diverges = factory is differential_drive
        if diverges:
            U[1] = 0.0
            U[1, 1, 0] = 1e308
        stacked = objective(problem, U)
        for r, (u, got) in enumerate(zip(U, stacked, strict=True)):
            if diverges and r == 1:
                assert str(got) == "non-finite control gradient at timestep 0"
                with pytest.raises(RolloutDivergence, match="^non-finite control gradient"):
                    objective(problem, u)
                continue
            J, dJ = objective(problem, u)
            assert got[0] == J and got[1].tobytes() == dJ.tobytes()

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("step_jacobians", lambda X, U: (np.ones((len(X), 2, 3)), np.zeros((2, 1)))),
            ("step_jacobians", lambda X, U: (np.eye(2), np.zeros((2, 2)))),
            ("output_jacobians", lambda X, U: (np.eye(2), np.zeros((len(X), 2, 3)))),
            ("output", lambda X, U: np.zeros((len(X), 3))),
            ("states", lambda x0, U: np.zeros((len(U), 2))),
            ("adjoint", lambda X, U, dY: np.zeros((len(U) + 1, 1))),
        ],
        ids=["dfdx", "dfdu", "dgdu", "output", "states", "adjoint"],
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
            sens = rollout_with_sensitivities(model, [0.0, 0.0], np.zeros((4, 1)))
            sens.control_gradient(np.zeros((4, 2)))


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
        fx, fu, gx, gu = jacobians(sens)
        want = np.zeros((T + 1, model.m))
        lam = np.zeros(model.n)
        for t in range(T, -1, -1):
            want[t] = gu[t].T @ dsignal[t]
            if t < T:
                want[t] += fu[t].T @ lam
            lam = gx[t].T @ dsignal[t] + (fx[t].T @ lam if t < T else 0.0)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dsignal_is_refused(self, bad):
        # bad input, not divergence of the dynamics, on either path
        sens = rollout_with_sensitivities(differential_drive(), [0.0, 0.0, 0.0], np.ones((5, 2)))
        dsignal = np.ones((5, 4))
        dsignal[3, 1] = bad
        for swept in (sens, without_adjoint(sens)):
            with pytest.raises(ValueError, match="^dsignal must be finite$"):
                swept.control_gradient(dsignal)


class TestConstantJacobians:
    """objective and control_gradient back-propagate through one function,
    the model's adjoint or else the costate recursion over its Jacobians
    (a constant one a broadcast view), so they agree bit for bit, at any
    stack height."""

    @pytest.mark.parametrize("name", ["two_target", "table2_diffdrive", "linear"])
    def test_objective_is_the_control_gradient_bit_for_bit(self, name):
        rng = np.random.default_rng(95)
        if name == "linear":
            # constant Jacobians with general entries, where the rounding
            # of a product could depend on the path it takes
            A, B, C, D = (rng.uniform(-1, 1, shape) for shape in ((2, 2), (2, 2), (3, 2), (3, 2)))
            model = SystemModel(
                n=2, m=2, p=3,
                step=lambda x, u: A @ x + B @ u,
                output=lambda X, U: X @ C.T + U @ D.T,
                step_jacobians=lambda X, U: (A, B),
                output_jacobians=lambda X, U: (C, D),
            )
            problem = SynthesisProblem(
                model=model, x0=(0.3, -0.2), phi=parse("G[0,9] (y0 >= -1 or F[0,3] y2 >= 0)", p=3),
                T=15, k1=3.0, k2=3.0,
            )
        else:
            problem = build_problem(builtin_scenario(name))
        problem = dataclasses.replace(problem, control_weight=0.05)
        U = rng.uniform(-2, 2, (3, problem.T + 1, problem.model.m))
        for rows in (U[:1], U):
            for u, (_, dJ) in zip(rows, objective(problem, rows), strict=True):
                self.check(problem, u, dJ)

    @staticmethod
    def check(problem, u, dJ):
        sens = rollout_with_sensitivities(problem.model, problem.x0, u)
        grad = eval_with_gradient(problem.phi, sens.signal, 0, problem.config)
        want = sens.control_gradient(grad.dsignal) - 2.0 * problem.control_weight * u
        assert dJ.tobytes() == want.tobytes()
        assert objective(problem, u)[1].tobytes() == want.tobytes()
        return sens, grad

    def squared_output_model(self, dgdx=None):
        """x' = x + u, y = (x^2, u): dg/dx = 2x changes every step."""
        return SystemModel(
            n=1, m=1, p=2,
            step=lambda x, u: x + u,
            output=lambda X, U: np.concatenate([X * X, U], axis=-1),
            step_jacobians=lambda X, U: (np.eye(1), np.eye(1)),
            output_jacobians=dgdx or (
                lambda X, U: (np.stack([2.0 * X, 0.0 * X], axis=1), np.array([[0.0], [1.0]]))
            ),
        )

    def test_per_step_output_jacobians(self):
        model = self.squared_output_model()
        problem = SynthesisProblem(
            model=model, x0=(0.5,), phi=parse("F[0,4] y0 >= 4", p=2), T=4, k1=2.0, k2=2.0,
            control_weight=0.1,
        )
        U = np.random.default_rng(96).uniform(-1, 1, (3, 5, 1))
        for u, (_, dJ) in zip(U, objective(problem, U), strict=True):
            sens, grad = self.check(problem, u, dJ)
            _, _, gx, gu = jacobians(sens)
            assert gx.shape == (5, 2, 1) and gx.strides[0] != 0
            # the step-by-step recursion, with the Jacobians of each step
            lam, want = np.zeros(1), np.zeros((5, 1))
            for t in range(4, -1, -1):
                want[t] = gu[t].T @ grad.dsignal[t] + (lam if t < 4 else 0.0)
                lam = gx[t].T @ grad.dsignal[t] + lam
            assert_allclose(sens.control_gradient(grad.dsignal), want, rtol=1e-13)

    def test_wrong_output_jacobian_shape_names_it(self):
        model = self.squared_output_model(lambda X, U: (np.zeros((3, 2, 1)), np.zeros((2, 1))))
        problem = SynthesisProblem(
            model=model, x0=(0.5,), phi=parse("F[0,4] y0 >= 4", p=2), T=4, k1=2.0, k2=2.0,
        )
        for run in (
            lambda: rollout_with_sensitivities(model, [0.5], np.zeros((5, 1))).control_gradient(
                np.zeros((5, 2))
            ),
            lambda: objective(problem, np.zeros((5, 1))),
            lambda: objective(problem, np.zeros((2, 5, 1))),
        ):
            with pytest.raises(ValueError, match="^output_jacobians dg/dx has shape"):
                run()


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

    def test_non_finite_costate_is_divergence(self):
        # speeds of 1e300 keep the states finite, but the heading coupling
        # times a sensitivity of 1e10 overflows the costate at t = 2, the
        # first one the backward sweep computes. The non-finite costate
        # reaches every earlier control, so the costate sweep and the
        # model's adjoint both report the first non-finite row of the
        # control gradient, the one of u_0. Neither lets a warning escape
        model = differential_drive()
        u = np.array([[1e300, 1.0]] * 4)
        sens = rollout_with_sensitivities(model, [0.0, 0.0, 0.0], u)
        for swept in (without_adjoint(sens), sens):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RolloutDivergence, match="non-finite control gradient at") as err:
                    swept.control_gradient(np.full((4, 4), 1e10))
            assert err.value.timestep == 0
        # finite costates whose control term overflows
        model = SystemModel(
            n=1, m=1, p=1,
            step=lambda x, u: x + u,
            output=lambda X, U: X,
            step_jacobians=lambda X, U: (np.eye(1), np.array([[1e200]])),
            output_jacobians=lambda X, U: (np.eye(1), np.zeros((1, 1))),
        )
        sens = rollout_with_sensitivities(model, [0.0], np.zeros((3, 1)))
        with pytest.raises(RolloutDivergence, match="control gradient") as err:
            sens.control_gradient(np.full((3, 1), 1e200))
        assert err.value.timestep == 0

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


    @pytest.mark.parametrize("dt", ["0.5", True, None, -1.0, 0.0, float("nan"), float("inf")])
    def test_dt_must_be_positive_and_finite(self, dt):
        for make in (single_integrator_2d, differential_drive):
            with pytest.raises(ValueError, match="dt"):
                make(dt=dt)
        with pytest.raises(ValueError, match="dt"):
            builtin_model("differential_drive", dt=dt)


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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_refused(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,u0\n0,1.0\n1,{cell}\n")
        with pytest.raises(ValueError, match="^.*bad.csv: row 3 has a non-finite number$"):
            load_controls_csv(path)

    def test_save_refuses_a_non_2d_array(self, tmp_path):
        path = tmp_path / "u.csv"
        for u in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="^u must be 2-D"):
                save_controls_csv(u, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_refuses_a_non_finite_array(self, tmp_path, value):
        # load_controls_csv refuses the cell it would write
        path = tmp_path / "u.csv"
        with pytest.raises(ValueError, match="^u must be finite$"):
            save_controls_csv(np.array([[1.0], [value]]), path)
        assert not path.exists()
