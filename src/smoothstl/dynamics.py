"""Discrete-time control systems and differentiable rollouts.

A system is x_{t+1} = f(x_t, u_t), y_t = g(x_t, u_t). Controls are a
(T+1, m) array: u_T never enters a state update but does enter y_T, which
is how output conventions that expose the control (so formulas can bound
it) keep the final sample well defined.

rollout_with_sensitivities stores the step and output Jacobians alongside
the trajectory; its control_gradient method back-propagates a robustness
gradient d rho / d y through the dynamics with one backward sweep of the
standard costate recursion, giving d rho / d u at the cost of a rollout.
"""

from __future__ import annotations

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

    @param n: state dimension
    @param m: control dimension
    @param p: output dimension
    @param step:   f(x, u) -> next state, shape (n,)
    @param output: g(x, u) -> output sample, shape (p,)
    @param step_jacobians:   (x, u) -> (df/dx (n,n), df/du (n,m))
    @param output_jacobians: (x, u) -> (dg/dx (p,n), dg/du (p,m))
    """

    n: int
    m: int
    p: int
    step: Callable
    output: Callable
    step_jacobians: Callable
    output_jacobians: Callable
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


def rollout(model, x0, u):
    """Drive the model from x0 with controls u; returns the output Signal."""
    x0, u = _check_rollout_args(model, x0, u)
    T = u.shape[0] - 1
    ys = np.empty((T + 1, model.p))
    x = x0
    for t in range(T + 1):
        y = np.asarray(model.output(x, u[t]), dtype=float).reshape(-1)
        if not np.isfinite(y).all():
            raise RolloutDivergence(t, "output")
        ys[t] = y
        if t < T:
            x = np.asarray(model.step(x, u[t]), dtype=float).reshape(-1)
            if not np.isfinite(x).all():
                raise RolloutDivergence(t + 1, "state")
    return Signal(ys)


@dataclass
class SensitivityRollout:
    """Trajectory plus the per-step Jacobians needed for back-propagation."""

    signal: Signal
    fx: list
    fu: list
    gx: list
    gu: list

    def control_gradient(self, dsignal):
        """Chain d rho / d y back through the dynamics to d rho / d u.

        Runs the costate recursion backwards in time: the costate carries
        the influence of the state on all later outputs, and each control
        picks up its direct output effect plus its effect on the next
        state.
        """
        dsignal = np.asarray(dsignal, dtype=float)
        T = len(self.signal) - 1
        if dsignal.shape != self.signal.values.shape:
            raise ValueError(
                f"dsignal must have shape {self.signal.values.shape}, got {dsignal.shape}"
            )
        m = self.gu[0].shape[1]
        n = self.gx[0].shape[1]
        du = np.zeros((T + 1, m))
        lam = np.zeros(n)
        for t in range(T, -1, -1):
            du[t] = self.gu[t].T @ dsignal[t]
            if t < T:
                du[t] += self.fu[t].T @ lam
            lam = self.gx[t].T @ dsignal[t] + (self.fx[t].T @ lam if t < T else 0.0)
        return du


def rollout_with_sensitivities(model, x0, u):
    """Like rollout, but also records every Jacobian along the trajectory."""
    x0, u = _check_rollout_args(model, x0, u)
    T = u.shape[0] - 1
    ys = np.empty((T + 1, model.p))
    fx, fu, gx, gu = [], [], [], []
    x = x0
    for t in range(T + 1):
        y = np.asarray(model.output(x, u[t]), dtype=float).reshape(-1)
        if not np.isfinite(y).all():
            raise RolloutDivergence(t, "output")
        ys[t] = y
        jgx, jgu = model.output_jacobians(x, u[t])
        gx.append(np.asarray(jgx, dtype=float))
        gu.append(np.asarray(jgu, dtype=float))
        if t < T:
            jfx, jfu = model.step_jacobians(x, u[t])
            fx.append(np.asarray(jfx, dtype=float))
            fu.append(np.asarray(jfu, dtype=float))
            x = np.asarray(model.step(x, u[t]), dtype=float).reshape(-1)
            if not np.isfinite(x).all():
                raise RolloutDivergence(t + 1, "state")
    return SensitivityRollout(signal=Signal(ys), fx=fx, fu=fu, gx=gx, gu=gu)


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
        return x + dt * u

    def output(x, u):
        return np.concatenate([x, u])

    def step_jacobians(x, u):
        return eye2, dt * eye2

    def output_jacobians(x, u):
        return gx, gu

    return SystemModel(
        n=2, m=2, p=4,
        step=step, output=output,
        step_jacobians=step_jacobians, output_jacobians=output_jacobians,
        name="single_integrator_2d", dt=dt,
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
        px, py, th = x
        v, w = u
        return np.array([px + dt * v * np.cos(th), py + dt * v * np.sin(th), th + dt * w])

    def output(x, u):
        return np.array([x[0], x[1], u[0], u[1]])

    def step_jacobians(x, u):
        th = x[2]
        v = u[0]
        fx = np.array(
            [
                [1.0, 0.0, -dt * v * np.sin(th)],
                [0.0, 1.0, dt * v * np.cos(th)],
                [0.0, 0.0, 1.0],
            ]
        )
        fu = np.array([[dt * np.cos(th), 0.0], [dt * np.sin(th), 0.0], [0.0, dt]])
        return fx, fu

    def output_jacobians(x, u):
        return gx, gu

    return SystemModel(
        n=3, m=2, p=4,
        step=step, output=output,
        step_jacobians=step_jacobians, output_jacobians=output_jacobians,
        name="differential_drive", dt=dt,
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
