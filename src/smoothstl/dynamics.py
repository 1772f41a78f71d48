"""Discrete-time control systems and differentiable rollouts.

A system is x_{t+1} = f(x_t, u_t), y_t = g(x_t, u_t). Controls are a
(T+1, m) array: u_T never enters a state update but does enter y_T, which
is how output conventions that expose the control (so formulas can bound
it) keep the final sample well defined. Outputs are computed once per
rollout on the whole stacked trajectory. So is the state recursion when
the model supplies `states`, as both builtins do: their plants are chains
of integrators, so each state is a cumulative sum. A model with only
`step` falls back to a Python loop over the timesteps. Either way,
divergence is reported at the first non-finite sample. The same code
rolls out a stack of control sequences at once, as synthesis does with
its restarts; each row gets its own result and error.

One backward pass turns a robustness gradient d rho / d y into d rho / d u,
the vector-Jacobian product of the rollout, for objective and
control_gradient alike: the model's `adjoint` in closed form, as both
builtins supply, or else the costate recursion over its Jacobians, a
Python loop over the timesteps. Either way the first non-finite control
gradient is divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .formula import _real
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

    step defines the dynamics one timestep at a time. states and adjoint,
    when given, replace the per-step loops: states computes the trajectory
    and adjoint the control gradient in one call. Both take leading batch
    axes, one per rollout of a stack. The output function is called once
    per rollout, or stack, and the Jacobian functions once per backward
    pass of a model without adjoint, on the samples X (N, n) and U (N, m)
    of every timestep (and every rollout) laid along a leading axis:

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
    @param adjoint: optional (X, U, dY) -> dU, the vector-Jacobian product
                   of the rollout: states (T+1, n), controls and output
                   adjoints dY (T+1, p) in, d(sum dY * Y)/dU out; must
                   agree with the costate recursion over the Jacobians

    A result of output or a Jacobian function without the leading time
    axis, such as a constant Jacobian of shape (n, n), holds at every
    timestep. Any other shape, a states result other than (T+1, n), and an
    adjoint result other than U's shape, raises a ValueError that names
    the function.
    """

    n: int
    m: int
    p: int
    step: Callable
    output: Callable
    step_jacobians: Callable
    output_jacobians: Callable
    states: Callable | None = None
    adjoint: Callable | None = None
    name: str = field(default="", compare=False)
    dt: float = field(default=1.0, compare=False)


def _stacked(value, lead, shape, what):
    """value, computed on the flattened stack, as a (*lead, *shape) array; a
    value of shape `shape` holds at every step."""
    value = np.asarray(value, dtype=float)
    steps = math.prod(lead)
    if value.shape == (steps, *shape):
        return value.reshape(*lead, *shape)
    if value.shape == shape:
        return np.broadcast_to(value, (*lead, *shape))
    raise ValueError(f"{what} has shape {value.shape}, expected {(steps, *shape)} or {shape}")


def _hook(name, fn, shape, *args):
    """fn(*args), a model's hook, as a float array of the given shape."""
    # past the first non-finite value the values are never read
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.asarray(fn(*args), dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
    return value


def _first_non_finite(V):
    """(r, t) for each row r of V (R, K, k) that is not finite, t its first such step."""
    finite = np.isfinite(V).all(axis=-1)
    return [(r, int(np.argmin(finite[r]))) for r in np.flatnonzero(~finite.all(axis=-1))]


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


def _simulate(model, x0, u, stack=False):
    """States X (R, T+1, n), controls U (R, T+1, m) and outputs Y (R, T+1, p)
    of the rollouts from x0 of a stack u of R control sequences, and each
    row's RolloutDivergence or None. Without stack, u is one sequence
    (T+1, m), a stack of one, whose divergence is raised.

    A row diverges at its first non-finite sample in the order a
    step-by-step rollout meets them: the output at t, then the state at
    t+1. Outputs are only computed from finite states.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (model.n,):
        raise ValueError(f"x0 must have shape ({model.n},), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    U = np.asarray(u, dtype=float)
    if U.ndim != 2 + stack or U.shape[-1] != model.m:
        raise ValueError(f"u must have shape ({'R, ' * stack}T+1, {model.m}), got {U.shape}")
    if U.shape[-2] < 1:
        raise ValueError("u needs at least one row")
    if stack and len(U) < 1:
        raise ValueError("u needs at least one sequence")
    if not np.isfinite(U).all():
        raise ValueError("u must be finite")
    U = U if stack else U[None]
    (R, N, _), p = U.shape, model.p
    if model.states is not None:
        X = _hook("states", model.states, (R, N, model.n), x0[None].repeat(R, 0), U[:, :-1])
    else:
        X = np.stack([_step_loop(model.step, x0, row[:-1]) for row in U])
    # the states up to each row's first non-finite one
    kept = np.logical_and.accumulate(np.isfinite(X).all(axis=-1), axis=-1)
    if kept.all():
        flat = model.output(X.reshape(R * N, -1), U.reshape(R * N, -1))
        Y = _stacked(flat, (R, N), (p,), "output")
    else:
        Y = np.full((R, N, p), np.nan)
        Y[kept] = _stacked(model.output(X[kept], U[kept]), (int(kept.sum()),), (p,), "output")
    errors = [None] * R
    for r, t in _first_non_finite(Y):
        errors[r] = RolloutDivergence(t, "output" if kept[r, t] else "state")
    if errors[0] is not None and not stack:
        raise errors[0]
    return X, U, Y, errors


def _jacobians(model, X, U):
    """fx, fu, gx and gu of R finite rollouts, from one call each on the stack."""
    (R, N, n), m, p = X.shape, model.m, model.p
    fx, fu = model.step_jacobians(X[:, :-1].reshape(-1, n), U[:, :-1].reshape(-1, m))
    gx, gu = model.output_jacobians(X.reshape(-1, n), U.reshape(-1, m))
    return (
        _stacked(fx, (R, N - 1), (n, n), "step_jacobians df/dx"),
        _stacked(fu, (R, N - 1), (n, m), "step_jacobians df/du"),
        _stacked(gx, (R, N), (p, n), "output_jacobians dg/dx"),
        _stacked(gu, (R, N), (p, m), "output_jacobians dg/du"),
    )


def _sweep(dY, fx, fu, gx, gu):
    """du of R rollouts by the costate recursion over their Jacobians."""
    T = dY.shape[-2] - 1
    # past the first non-finite costate the values only mark divergence
    with np.errstate(over="ignore", invalid="ignore"):
        lam = (dY[..., None, :] @ gx)[..., 0, :]
        du = (dY[..., None, :] @ gu)[..., 0, :]
        # lam[:, t] for t >= 1 becomes the costate; lam[:, 0] is never needed
        for t in range(T - 1, 0, -1):
            lam[:, t] += (lam[:, t + 1, None, :] @ fx[:, t])[:, 0]
        du[:, :T] += (lam[:, 1:, None, :] @ fu)[..., 0, :]
    return du


def _backward(model, X, U, dY):
    """d(sum dY * Y)/dU of R finite rollouts X (R, T+1, n), U (R, T+1, m) by
    the model's adjoint, or else the costate sweep over its Jacobians, and
    each row's divergence or None: its first non-finite control gradient,
    which a non-finite costate always reaches (inf times 0 is NaN)."""
    if model.adjoint is not None:
        du = _hook("adjoint", model.adjoint, U.shape, X, U, dY)
    else:
        du = _sweep(dY, *_jacobians(model, X, U))
    errors = [None] * len(du)
    for r, t in _first_non_finite(du):
        errors[r] = RolloutDivergence(t, "control gradient")
    return du, errors


def rollout(model, x0, u):
    """Drive the model from x0 with controls u; returns the output Signal."""
    return Signal(_simulate(model, x0, u)[2][0])


@dataclass
class SensitivityRollout:
    """One rollout of a model, kept for back-propagation: its output
    signal, the states X (T+1, n) and the controls U (T+1, m)."""

    signal: Signal
    model: SystemModel
    X: np.ndarray
    U: np.ndarray

    def control_gradient(self, dsignal):
        """Chain d rho / d y back through the dynamics to d rho / d u.

        Takes the path objective takes, the model's adjoint or else the
        costate recursion lam_t = gx_t' dy_t + fx_t' lam_{t+1} backwards
        in time, where each control picks up gu_t' dy_t + fu_t' lam_{t+1};
        so the two agree bit for bit. Raises RolloutDivergence at the
        first non-finite row of the result ("control gradient").
        """
        dsignal, shape = np.asarray(dsignal, dtype=float), self.signal.values.shape
        if dsignal.shape != shape:
            raise ValueError(f"dsignal must have shape {shape}, got {dsignal.shape}")
        if not np.isfinite(dsignal).all():
            raise ValueError("dsignal must be finite")
        (du,), (error,) = _backward(self.model, self.X[None], self.U[None], dsignal[None])
        if error is not None:
            raise error
        return du


def rollout_with_sensitivities(model, x0, u):
    """Like rollout, but keeps the states and controls for control_gradient."""
    X, U, Y, _ = _simulate(model, x0, u)
    return SensitivityRollout(Signal(Y[0]), model, X[0], U[0].copy())


def single_integrator_2d(dt=1.0):
    """Planar point robot: position integrates the commanded velocity.

    State (px, py), control (vx, vy), output (px, py, vx, vy). Exposing
    the control in the output lets formulas bound it like any other
    quantity.
    """
    dt = _real("dt", dt, sign="positive")
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
        return np.add.accumulate(np.concatenate([x0[..., None, :], dt * U], axis=-2), axis=-2)

    def adjoint(X, U, dY):
        # the step Jacobians are the identity, so the costate after step t
        # is the sum of the position adjoints after it, added from the last
        dU = dY[..., 2:].copy()
        dU[..., :-1, :] += dt * np.add.accumulate(dY[..., :0:-1, :2], axis=-2)[..., ::-1, :]
        return dU

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
        states=states, adjoint=adjoint, name="single_integrator_2d", dt=dt,
    )


def differential_drive(dt=1.0):
    """Unicycle with forward-Euler integration.

    State (px, py, heading), control (speed, turn rate), output
    (px, py, speed, turn rate). Heading accumulates without wrapping.
    """
    dt = _real("dt", dt, sign="positive")
    gx = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    gu = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def step(x, u):
        px, py, th = x.tolist()
        v, w = u.tolist()
        return np.array([px + dt * v * math.cos(th), py + dt * v * math.sin(th), th + dt * w])

    def states(x0, U):
        # the same operations as step, in the same order: each coordinate
        # is a running sum of its increments
        def running(first, steps):
            return np.add.accumulate(np.concatenate([first, steps], axis=-1), axis=-1)

        dv = dt * U[..., 0]
        th = running(x0[..., 2:], dt * U[..., 1])
        px = running(x0[..., :1], dv * np.cos(th[..., :-1]))
        py = running(x0[..., 1:2], dv * np.sin(th[..., :-1]))
        return np.stack([px, py, th], axis=-1)

    def adjoint(X, U, dY):
        # the costate after step t sums, from the last, the position adjoints
        # after t (positions) and the couplings of the steps after t (heading)
        L = np.add.accumulate(dY[..., :0:-1, :2], axis=-2)[..., ::-1, :]
        th, v = X[..., :-1, 2], U[..., :-1, 0]
        c, s = dt * np.cos(th), dt * np.sin(th)
        coupling = v * (c * L[..., 1] - s * L[..., 0])
        dU = dY[..., 2:].copy()
        dU[..., :-1, 0] += c * L[..., 0] + s * L[..., 1]
        dU[..., :-2, 1] += dt * np.add.accumulate(coupling[..., :0:-1], axis=-1)[..., ::-1]
        return dU

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
        states=states, adjoint=adjoint, name="differential_drive", dt=dt,
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
        raise ValueError(f"model: unknown model {name!r}; available: {known}") from None
    return factory(dt=dt)


# Control file format: header t,u0,...,u{m-1}, one row per timestep,
# full-precision values.


def save_controls_csv(u, path):
    _write_series_csv(path, np.asarray(u, dtype=float), "u")


def load_controls_csv(path):
    return _read_series_csv(path, "u", ValueError)
