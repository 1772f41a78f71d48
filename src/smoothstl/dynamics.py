"""Discrete-time control systems and differentiable rollouts.

A system is x_{t+1} = f(x_t, u_t), y_t = g(x_t, u_t). Controls are a
(T+1, m) array: u_T never enters a state update but does enter y_T, which
is how output conventions that expose the control (so formulas can bound
it) keep the final sample well defined. Outputs and Jacobians are
computed once per rollout on the whole stacked trajectory. So is the
state recursion when the model supplies `states`, as both builtins do:
their plants are chains of integrators, so each state is a cumulative
sum. A model with only `step` falls back to a Python loop over the
timesteps. Either way, divergence is reported at the first non-finite
sample.

rollout_with_sensitivities stores the step and output Jacobians alongside
the trajectory; its control_gradient method back-propagates a robustness
gradient d rho / d y through the dynamics with one backward sweep of the
standard costate recursion, giving d rho / d u at the cost of a rollout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .robustness import Signal, _read_series_csv, _write_series_csv

__all__ = [
    "RolloutDivergence",
    "SystemModel",
    "rollout",
    "rollout_with_sensitivities",
    "SensitivityRollout",
    "builtin_model",
    "single_integrator_2d",
    "differential_drive",
    "save_controls_csv",
    "load_controls_csv",
]


class RolloutDivergence(RuntimeError):
    """State or output became non-finite; carries the first bad timestep."""

    def __init__(self, timestep, what):
        super().__init__(f"non-finite {what} at timestep {timestep}")
        self.timestep = timestep


@dataclass(frozen=True)
class SystemModel:
    """Callable bundle describing one control system.

    step defines the dynamics one timestep at a time. states, when given,
    computes the same trajectory in one call and replaces the per-step
    loop over step. The output and Jacobian functions are called once per
    rollout on the whole trajectory, with the states X (N, n) and the
    controls U (N, m) stacked along a leading time axis:

    @param n: state dimension
    @param m: control dimension
    @param p: output dimension
    @param step:   f(x, u) -> next state, x (n,) and u (m,) float arrays in,
                   shape (n,) out
    @param output: g(X, U) -> outputs, shape (N, p)
    @param step_jacobians:   (X, U) -> (df/dx (N, n, n), df/du (N, n, m))
    @param output_jacobians: (X, U) -> (dg/dx (N, p, n), dg/du (N, p, m))
    @param states: optional (x0, U) -> X, x0 (n,) and the T controls that
                   enter state updates (T, m) in, the states (T+1, n) with
                   X[0] = x0 out; must agree with repeated step calls

    A result of output or a Jacobian function without the leading time
    axis, such as a constant Jacobian of shape (n, n), holds at every
    timestep. Any other shape, and a states result other than (T+1, n),
    raises a ValueError that names the function.
    """

    n: int
    m: int
    p: int
    step: Callable
    output: Callable
    step_jacobians: Callable
    output_jacobians: Callable
    states: Callable | None = None
    name: str = field(default="", compare=False)
    dt: float = field(default=1.0, compare=False)


def _check_rollout_args(model, x0, u):
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (model.n,):
        raise ValueError(f"x0 must have shape ({model.n},), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != model.m:
        raise ValueError(f"u must have shape (T+1, {model.m}), got {u.shape}")
    if u.shape[0] < 1:
        raise ValueError("u needs at least one row")
    if not np.isfinite(u).all():
        raise ValueError("u must be finite")
    return x0, u


def _stacked(value, steps, shape, what):
    """value as a (steps, *shape) array; a value of shape `shape` holds at
    every step."""
    value = np.asarray(value, dtype=float)
    if value.shape == (steps, *shape):
        return value
    if value.shape == shape:
        return np.broadcast_to(value, (steps, *shape))
    raise ValueError(
        f"{what} has shape {value.shape}, expected {(steps, *shape)} or {shape}"
    )


def _first_bad_row(a):
    finite = np.isfinite(a).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def _step_loop(step, x0, U):
    """States (T+1, n) from x0 and the controls U (T, m), one step call
    per timestep."""
    X = np.empty((len(U) + 1, len(x0)))
    X[0] = x0
    try:
        for t in range(len(U)):
            X[t + 1] = step(X[t], U[t])
    except (ArithmeticError, ValueError):
        # a step that fails on a non-finite state (math.cos(inf), say) is
        # divergence, which a step-by-step check would have reported
        # before calling it
        if np.isfinite(X[: t + 1]).all():
            raise
        X[t + 1 :] = np.nan
    return X


def _simulate(model, x0, u):
    """States (T+1, n) and outputs (T+1, p) of a checked rollout.

    Raises RolloutDivergence at the first non-finite sample in the order a
    step-by-step rollout meets them: the output at t, then the state at
    t+1. Outputs are only computed from finite states.
    """
    x0, u = _check_rollout_args(model, x0, u)
    T = u.shape[0] - 1
    if model.states is not None:
        # past the first non-finite state the values are never read
        with np.errstate(over="ignore", invalid="ignore"):
            X = np.asarray(model.states(x0, u[:T]), dtype=float)
        if X.shape != (T + 1, model.n):
            raise ValueError(f"states has shape {X.shape}, expected {(T + 1, model.n)}")
    else:
        X = _step_loop(model.step, x0, u[:T])
    bad_state = _first_bad_row(X)
    stop = T + 1 if bad_state is None else bad_state
    Y = _stacked(model.output(X[:stop], u[:stop]), stop, (model.p,), "output")
    bad_output = _first_bad_row(Y)
    if bad_output is not None:
        raise RolloutDivergence(bad_output, "output")
    if bad_state is not None:
        raise RolloutDivergence(bad_state, "state")
    return X, u, Y


def rollout(model, x0, u):
    """Drive the model from x0 with controls u; returns the output Signal."""
    return Signal(_simulate(model, x0, u)[2])


@dataclass
class SensitivityRollout:
    """Trajectory plus the Jacobians needed for back-propagation, stacked
    over time: fx (T, n, n), fu (T, n, m), gx (T+1, p, n), gu (T+1, p, m).
    Jacobians that a model returns as constants are read-only broadcast
    views."""

    signal: Signal
    fx: np.ndarray
    fu: np.ndarray
    gx: np.ndarray
    gu: np.ndarray

    def control_gradient(self, dsignal):
        """Chain d rho / d y back through the dynamics to d rho / d u.

        Runs the costate recursion lam_t = gx_t' dy_t + fx_t' lam_{t+1}
        backwards in time: the costate carries the influence of the state
        on all later outputs. Each control picks up its direct output
        effect gu_t' dy_t plus its effect on the next state fu_t' lam_{t+1}.
        Only the recursion itself loops; the direct terms and the control
        terms are one batched product each.
        """
        dsignal = np.asarray(dsignal, dtype=float)
        if dsignal.shape != self.signal.values.shape:
            raise ValueError(
                f"dsignal must have shape {self.signal.values.shape}, got {dsignal.shape}"
            )
        T = dsignal.shape[0] - 1
        row = dsignal[:, None, :]
        lam = (row @ self.gx)[:, 0, :]
        du = (row @ self.gu)[:, 0, :]
        # lam[t] for t >= 1 becomes the costate; lam[0] is never needed.
        # Zipped reversed views and np.dot keep the per-step overhead low.
        dot = np.dot
        steps = zip(lam[T - 1 : 0 : -1], lam[T:1:-1], self.fx[T - 1 : 0 : -1])
        for lam_t, lam_next, fx_t in steps:
            lam_t += dot(lam_next, fx_t)
        du[:T] += (lam[1:, None, :] @ self.fu)[:, 0, :]
        return du


def rollout_with_sensitivities(model, x0, u):
    """Like rollout, but also records every Jacobian along the trajectory."""
    X, u, Y = _simulate(model, x0, u)
    T = u.shape[0] - 1
    n, m, p = model.n, model.m, model.p
    fx, fu = model.step_jacobians(X[:T], u[:T])
    gx, gu = model.output_jacobians(X, u)
    return SensitivityRollout(
        signal=Signal(Y),
        fx=_stacked(fx, T, (n, n), "step_jacobians df/dx"),
        fu=_stacked(fu, T, (n, m), "step_jacobians df/du"),
        gx=_stacked(gx, T + 1, (p, n), "output_jacobians dg/dx"),
        gu=_stacked(gu, T + 1, (p, m), "output_jacobians dg/du"),
    )


def single_integrator_2d(dt=1.0):
    """Planar point robot: position integrates the commanded velocity.

    State (px, py), control (vx, vy), output (px, py, vx, vy). Exposing
    the control in the output lets formulas bound it like any other
    quantity.
    """
    dt = float(dt)
    eye2 = np.eye(2)
    zero2 = np.zeros((2, 2))
    gx = np.vstack([eye2, zero2])
    gu = np.vstack([zero2, eye2])

    def step(x, u):
        px, py = x.tolist()
        vx, vy = u.tolist()
        return np.array([px + dt * vx, py + dt * vy])

    def states(x0, U):
        # the same additions as step, in the same order
        return np.add.accumulate(np.vstack([x0, dt * U]), axis=0)

    def output(x, u):
        return np.concatenate([x, u], axis=-1)

    def step_jacobians(x, u):
        return eye2, dt * eye2

    def output_jacobians(x, u):
        return gx, gu

    return SystemModel(
        n=2, m=2, p=4,
        step=step, output=output,
        step_jacobians=step_jacobians, output_jacobians=output_jacobians,
        states=states, name="single_integrator_2d", dt=dt,
    )


def differential_drive(dt=1.0):
    """Unicycle with forward-Euler integration.

    State (px, py, heading), control (speed, turn rate), output
    (px, py, speed, turn rate). Heading accumulates without wrapping.
    """
    dt = float(dt)
    gx = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    gu = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def step(x, u):
        px, py, th = x.tolist()
        v, w = u.tolist()
        return np.array([px + dt * v * math.cos(th), py + dt * v * math.sin(th), th + dt * w])

    def states(x0, U):
        # the same operations as step, in the same order: each coordinate
        # is a running sum of its increments
        px0, py0, th0 = x0.tolist()
        dv = dt * U[:, 0]
        th = np.add.accumulate(np.concatenate([[th0], dt * U[:, 1]]))
        px = np.add.accumulate(np.concatenate([[px0], dv * np.cos(th[:-1])]))
        py = np.add.accumulate(np.concatenate([[py0], dv * np.sin(th[:-1])]))
        return np.column_stack([px, py, th])

    def output(x, u):
        return np.concatenate([x[..., :2], u], axis=-1)

    def step_jacobians(x, u):
        th = x[..., 2]
        v = u[..., 0]
        cos, sin = np.cos(th), np.sin(th)
        fx = np.zeros(th.shape + (3, 3))
        fx[..., 0, 0] = fx[..., 1, 1] = fx[..., 2, 2] = 1.0
        fx[..., 0, 2] = -dt * v * sin
        fx[..., 1, 2] = dt * v * cos
        fu = np.zeros(th.shape + (3, 2))
        fu[..., 0, 0] = dt * cos
        fu[..., 1, 0] = dt * sin
        fu[..., 2, 1] = dt
        return fx, fu

    def output_jacobians(x, u):
        return gx, gu

    return SystemModel(
        n=3, m=2, p=4,
        step=step, output=output,
        step_jacobians=step_jacobians, output_jacobians=output_jacobians,
        states=states, name="differential_drive", dt=dt,
    )


_BUILTIN_MODELS = {
    "single_integrator_2d": single_integrator_2d,
    "differential_drive": differential_drive,
}


def builtin_model(name, dt=1.0):
    """Look up a bundled model by name."""
    try:
        factory = _BUILTIN_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN_MODELS))
        raise ValueError(f"unknown model {name!r}; available: {known}") from None
    return factory(dt=dt)


# Control file format: header t,u0,...,u{m-1}, one row per timestep,
# full-precision values.


def save_controls_csv(u, path):
    _write_series_csv(path, np.asarray(u, dtype=float), "u")


def load_controls_csv(path):
    return _read_series_csv(path, "u", ValueError)
