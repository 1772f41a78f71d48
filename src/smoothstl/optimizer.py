"""Gradient-based control synthesis against a smooth robustness objective.

The objective is J(u) = rho_smooth(y(u)) - w * sum_t u_t . u_t, the smooth
(ef) robustness of the rolled-out output signal minus an optional control
effort penalty. Each restart climbs J with a limited-memory quasi-Newton
ascent: search directions come from the two-loop recursion over recent
(step, gradient-change) pairs, written over their Gram matrix of inner
products so that a direction costs four matrix-vector products and a
short scalar recursion (Byrd, Nocedal and Schnabel 1994; Nocedal and
Wright, Numerical Optimization, 7.2). Steps are chosen by a backtracking
line search that only ever accepts a non-decrease of J, and the ascent
stops when the gradient's infinity norm drops below tolerance or the
iteration budget runs out.

Restart 0 always starts from u = 0; the remaining restarts start from
seeded uniform noise (over the control bounds when given, otherwise over
[-1, 1] per entry). The restarts climb in lockstep: each round evaluates
the next point every unfinished ascent asks for in one objective call on
their stack, and each ascent gets the values it would get on its own. The
reported result is the restart with the highest exact robustness, with
ties broken by objective value and then by restart index.

Everything here is deterministic for a fixed seed: same problem, same
seed, bit-identical result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import RolloutDivergence, _backward, _simulate, rollout
from .formula import _check_flag, _convert, _number, _pairs, _real, _whole, horizon, is_nnf
from .robustness import EXACT, SemanticsConfig, _evaluate, _NonFiniteMargin, evaluate

__all__ = [
    "SynthesisFailure",
    "SynthesisProblem",
    "RestartRecord",
    "ContinuationStage",
    "SynthesisResult",
    "objective",
    "synthesize",
    "k_continuation",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ITERS",
    "DEFAULT_RESTARTS",
]

DEFAULT_TOLERANCE = 1e-6
DEFAULT_MAX_ITERS = 500
DEFAULT_RESTARTS = 10

_LBFGS_MEMORY = 10
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 40


class SynthesisFailure(RuntimeError):
    """Every restart failed to produce a finite trajectory."""


@dataclass(frozen=True)
class SynthesisProblem:
    """One synthesis instance: model, start state, formula and knobs.

    @param model:          SystemModel to drive
    @param x0:             initial state, model.n finite numbers
    @param phi:            formula in negation normal form
    @param T:              trajectory length minus one (controls are (T+1, m));
                           phi may look at most T steps ahead
    @param k1, k2:         finite sharpness of the smooth semantics, k1 > 0
                           and k2 >= 0
    @param control_weight: effort penalty coefficient w >= 0
    @param control_bounds: optional per-dimension (lo, hi) pairs, length m,
                           with lo < hi and a finite width hi - lo; used to
                           sample restart initializations and, when
                           hard_clamp is set, to project iterates
    @param hard_clamp:     project iterates onto the bound box
    @param restarts:       number of seeded random restarts (the u = 0
                           baseline always runs in addition, as restart 0)
    @param seed:           RNG seed for the restart initializations
    @param max_iters:      iteration budget of each ascent, at least 1
    @param tolerance:      positive bound on the gradient's infinity norm
                           that stops an ascent
    @param classic_until:  classic until/release convention (see evaluate)

    Every knob is checked and normalised on construction; a bad value
    raises ValueError("key: why"), such as "tolerance: must be positive".
    A bool or a string is no number. The flags must be true or false:
    1, 0 and np.True_ pass and are kept as given, while a string or a
    numpy array is refused. Scenario files and build_problem overrides
    pass through these same checks.
    """

    model: object
    x0: tuple
    phi: object
    T: int
    k1: float
    k2: float
    control_weight: float = 0.0
    control_bounds: tuple | None = None
    hard_clamp: bool = False
    restarts: int = DEFAULT_RESTARTS
    seed: int = 0
    max_iters: int = DEFAULT_MAX_ITERS
    tolerance: float = DEFAULT_TOLERANCE
    classic_until: bool = False

    def __post_init__(self):
        def convert(key, to, what):
            value = _convert(key, getattr(self, key), to, what)
            object.__setattr__(self, key, value)
            return value

        x0 = convert("x0", lambda v: tuple(map(_number, v)), "a list of numbers")
        if len(x0) != self.model.n:
            raise ValueError(f"x0: needs {self.model.n} entries, got {len(x0)}")
        if not np.isfinite(x0).all():
            raise ValueError("x0: must be finite")
        if not is_nnf(self.phi):
            raise ValueError("phi: must be in negation normal form; apply to_nnf first")
        for key in ("T", "restarts", "seed", "max_iters"):
            convert(key, _whole, "a whole number")
        for key, sign in (("k1", "positive"), ("k2", "nonnegative"),
                          ("control_weight", "nonnegative"), ("tolerance", "positive")):
            object.__setattr__(self, key, _real(key, getattr(self, key), sign=sign))
        for key in ("hard_clamp", "classic_until"):
            _check_flag(key, getattr(self, key))
        if self.control_bounds is not None:
            bounds = convert("control_bounds", _pairs, "(lo, hi) pairs of numbers")
            if len(bounds) != self.model.m:
                raise ValueError(f"control_bounds: needs {self.model.m} (lo, hi) pairs")
            if not np.isfinite(bounds).all():
                raise ValueError("control_bounds: must be finite")
            if any(not lo < hi for lo, hi in bounds):
                raise ValueError("control_bounds: every pair needs lo < hi")
            if any(math.isinf(hi - lo) for lo, hi in bounds):
                raise ValueError("control_bounds: every pair needs a finite width hi - lo")
        ahead = horizon(self.phi)
        for key, ok, why in (
            ("T", ahead <= self.T, f"formula looks {ahead} steps ahead but T is {self.T}"),
            ("restarts", self.restarts >= 0, "must be nonnegative"),
            ("max_iters", self.max_iters >= 1, "must be positive"),
        ):
            if not ok:
                raise ValueError(f"{key}: {why}")

    @property
    def config(self):
        return SemanticsConfig.ef(self.k1, self.k2)


def objective(problem, u):
    """J(u) and dJ/du for one control sequence of shape (T+1, m).

    A stack of R sequences (R, T+1, m) gives, in one pass, a list of R
    outcomes, each the row's (J, dJ) or RolloutDivergence, bit for bit
    what the row gives on its own. A row that diverges in the rollout
    skips the robustness evaluation. A predicate margin that is not finite
    is a divergence at its first timestep, and an effort term that
    overflows one at the row of u where the running sum of squares does.
    """
    stack = np.ndim(u) == 3
    X, U, Y, outcomes = _simulate(problem.model, problem.x0, u, stack)
    live = [r for r, error in enumerate(outcomes) if error is None]
    while live:
        try:
            rho, dY = _evaluate(problem.phi, Y[live], 0, problem.config, problem.classic_until, True)
            break
        except _NonFiniteMargin as bad:  # those rows drop out, the rest run again
            for r, t in zip(live, bad.first):
                outcomes[r] = None if t is None else RolloutDivergence(t, "predicate margin")
            live = [r for r in live if outcomes[r] is None]
    if live:
        U = U[live]
        du, errors = _backward(problem.model, X[live], U, dY)
        w = problem.control_weight
        with np.errstate(over="ignore", invalid="ignore"):
            squares = U * U
            effort = squares.reshape(len(U), -1).sum(axis=-1)
            J, dJ = rho - w * effort, du - 2.0 * w * U
            for i, r in enumerate(live):
                if errors[i] is None and not math.isfinite(effort[i]):
                    running = np.add.accumulate(squares[i].sum(axis=-1))[:-1]
                    errors[i] = RolloutDivergence(int(np.isfinite(running).sum()), "control effort")
                outcomes[r] = (float(J[i]), dJ[i]) if errors[i] is None else errors[i]
    if not stack and isinstance(outcomes[0], RolloutDivergence):
        raise outcomes[0]
    return outcomes if stack else outcomes[0]


@dataclass
class RestartRecord:
    """Outcome of one local ascent. wall_ms is its share of the rounds it
    took part in, each round's wall time split equally among its ascents."""

    index: int
    rho_exact: float
    rho_smooth: float
    objective: float
    iterations: int
    converged: bool
    wall_ms: float
    failed: bool = False


@dataclass
class ContinuationStage:
    """One sharpness stage of k_continuation.

    u_init is None for the first stage, which is a full multi-restart
    solve rather than a single warm-started ascent.
    """

    k: float
    u_init: np.ndarray | None
    u_star: np.ndarray
    rho_exact: float
    iterations: int


@dataclass
class SynthesisResult:
    """Winning trajectory of a synthesize() call.

    objective_trace holds J at every accepted iterate of the winning
    ascent, which is non-decreasing by construction (for k_continuation it
    is the concatenation of the per-stage traces and may drop at stage
    boundaries, where J changes meaning).
    """

    u_star: np.ndarray
    y_star: object
    rho_smooth: float
    rho_exact: float
    satisfied: bool
    iterations: int
    objective_trace: list
    wall_time: float
    restart_index: int
    restart_records: list
    stages: list = field(default_factory=list)


def _clamp(u, bounds):
    return u if bounds is None else np.clip(u, *np.array(bounds).T)


class _Memory:
    """The last _LBFGS_MEMORY (s, y) pairs of one ascent, y = g_old - g_new
    for a maximization: rows of the ring buffers S and Y (order lists the
    filled rows, oldest first), SY[i][j] = s_i . y_j, 1 / s.y per row and
    the last pair's scaling s.y / y.y."""

    def __init__(self, size):
        self.S, self.Y = np.zeros((2, _LBFGS_MEMORY, size))
        self.SY = [[0.0] * _LBFGS_MEMORY for _ in range(_LBFGS_MEMORY)]
        self.rho, self.gamma = [0.0] * _LBFGS_MEMORY, 1.0
        self.order = []

    def add(self, s, y, sy, yy):
        """Store a pair with s.y = sy and y.y = yy, over the oldest when full."""
        order = self.order
        i = order.pop(0) if len(order) == _LBFGS_MEMORY else len(order)
        order.append(i)
        k = len(order)
        self.S[i], self.Y[i] = s, y
        for j, sy_j, ys_j in zip(range(k), self.S[:k].dot(y).tolist(), self.Y[:k].dot(s).tolist()):
            self.SY[j][i], self.SY[i][j] = sy_j, ys_j
        self.rho[i], self.gamma = 1.0 / sy, sy / yy

    def direction(self, g):
        """Ascent direction H g, H the inverse-Hessian estimate of the pairs
        (see the module notes); g itself when the memory is empty."""
        order, SY, rho, k = self.order, self.SY, self.rho, len(self.order)
        if not k:
            return g
        S, Y, g1 = self.S[:k], self.Y[:k], g.ravel()
        sq, alpha = S.dot(g1).tolist(), [0.0] * k
        for at in range(k - 1, -1, -1):  # q = g - sum_i alpha_i y_i, newest first
            j = order[at]
            a = sq[j]
            for i in order[at + 1 :]:
                a -= alpha[i] * SY[j][i]
            alpha[j] = rho[j] * a
        q = g1 - np.array(alpha).dot(Y)
        yq, coef = Y.dot(q).tolist(), [0.0] * k
        for at, j in enumerate(order):  # r = gamma q + sum_i coef_i s_i, oldest first
            b = self.gamma * yq[j]
            for i in order[:at]:
                b += coef[i] * SY[i][j]
            coef[j] = alpha[j] - rho[j] * b
        return (self.gamma * q + np.array(coef).dot(S)).reshape(g.shape)


def _ascend(problem, u0):
    """Maximize J from u0; returns (u, J, trace, converged), where trace
    holds J at the start and after each accepted step.

    It yields each point to evaluate and is sent (J, g) or a divergence: at
    the start that marks the ascent failed (None), in the line search it
    rejects the step length.
    """
    bounds = problem.control_bounds if problem.hard_clamp else None
    u = _clamp(np.asarray(u0, dtype=float), bounds)
    outcome = yield u
    if isinstance(outcome, RolloutDivergence):
        return None
    J, g = outcome
    if not (math.isfinite(J) and np.isfinite(g).all()):
        return None
    trace = [J]
    memory = _Memory(u.size)
    converged = False
    for it in range(problem.max_iters):
        g1 = g.ravel()
        gnorm = float(np.abs(g1).max())
        if gnorm < problem.tolerance:
            converged = True
            break
        d = memory.direction(g)
        if not np.isfinite(d).all() or float(d.ravel().dot(g1)) <= 0.0:
            d = g.copy()
            memory.order.clear()
        alpha = 1.0 if it > 0 else 1.0 / max(1.0, gnorm)
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            cand = _clamp(u + alpha * d, bounds)
            s = (cand - u).ravel()
            gain = float(g1.dot(s))
            outcome = yield cand
            if isinstance(outcome, RolloutDivergence):
                alpha *= 0.5
                continue
            Jc, gc = outcome
            if math.isfinite(Jc) and np.isfinite(gc).all() and Jc >= J + _ARMIJO_C1 * max(gain, 0.0) and Jc >= J:
                accepted = (cand, Jc, gc)
                break
            alpha *= 0.5
        if accepted is None:
            break
        cand, Jc, gc = accepted
        y = (g - gc).ravel()  # s is the accepted candidate's step
        sy, ss, yy = float(s.dot(y)), float(s.dot(s)), float(y.dot(y))
        if sy > 1e-10 * math.sqrt(ss) * math.sqrt(yy):
            memory.add(s, y, sy, yy)
        step = float(np.abs(s).max())
        u, J, g = cand, Jc, gc
        trace.append(J)
        if step < 1e-14:
            break
    return u, J, trace, converged


def _initial_controls(problem):
    """Restart starting points: the zero baseline plus seeded uniform draws."""
    shape = (problem.T + 1, problem.model.m)
    inits = [np.zeros(shape)]
    rng = np.random.default_rng(problem.seed)
    bounds = problem.control_bounds
    lo, hi = (-1.0, 1.0) if bounds is None else np.array(bounds).T
    for _ in range(problem.restarts):
        inits.append(rng.uniform(lo, hi, size=shape))
    return inits


def _run_restarts(problem, starts, first=0):
    """Ascents from each start in lockstep, scored exactly and smoothly at
    problem's sharpness; returns one (record, (u, y, trace)) per start,
    numbered from first, with None for the payload of one that diverged."""
    ascents = [_ascend(problem, u0) for u0 in starts]
    asks = [next(ascent) for ascent in ascents]
    done, wall_ms, live = {}, [0.0] * len(starts), list(range(len(starts)))
    while live:
        start = time.perf_counter()
        for i, outcome in zip(live, objective(problem, np.stack([asks[i] for i in live]))):
            try:
                asks[i] = ascents[i].send(outcome)
            except StopIteration as stop:
                done[i] = stop.value
        share = (time.perf_counter() - start) * 1e3 / len(live)
        for i in live:
            wall_ms[i] += share
        live = [i for i in live if i not in done]
    outcomes = []
    for i, ms in enumerate(wall_ms):
        if done[i] is None:
            failed = RestartRecord(first + i, -math.inf, -math.inf, -math.inf, 0, False, ms, True)
            outcomes.append((failed, None))
            continue
        u, J, trace, converged = done[i]
        y = rollout(problem.model, problem.x0, u)
        rho_exact = evaluate(problem.phi, y, 0, EXACT, problem.classic_until)
        rho_smooth = evaluate(problem.phi, y, 0, problem.config, problem.classic_until)
        # every iteration that does not break accepts a step
        record = RestartRecord(first + i, rho_exact, rho_smooth, J, len(trace) - 1, converged, ms)
        outcomes.append((record, (u, y, trace)))
    return outcomes


def synthesize(problem):
    """Search for controls maximizing exact satisfaction margin.

    Runs the baseline plus problem.restarts seeded ascents in lockstep,
    then reports the restart with the highest exact robustness; ties fall
    to the higher objective, then the lower restart index.
    Raises SynthesisFailure when every restart diverges, so a non-finite
    answer is never returned silently.
    """
    start = time.perf_counter()
    outcomes = _run_restarts(problem, _initial_controls(problem))
    records = [rec for rec, _ in outcomes]
    candidates = [(rec, payload) for rec, payload in outcomes if not rec.failed]
    if not candidates:
        raise SynthesisFailure(
            f"all {len(outcomes)} restarts diverged; the model or start state "
            "is producing non-finite trajectories"
        )
    best_rec, best_payload = max(
        candidates, key=lambda rp: (rp[0].rho_exact, rp[0].objective, -rp[0].index)
    )
    u, y, trace = best_payload
    wall = time.perf_counter() - start
    return SynthesisResult(
        u_star=u,
        y_star=y,
        rho_smooth=best_rec.rho_smooth,
        rho_exact=best_rec.rho_exact,
        satisfied=best_rec.rho_exact > 0.0,
        iterations=best_rec.iterations,
        objective_trace=trace,
        wall_time=wall,
        restart_index=best_rec.index,
        restart_records=records,
    )


def k_continuation(problem, k_schedule):
    """Sharpness continuation: solve soft, then re-solve sharper, warm.

    The first stage is a full synthesize() at the smallest sharpness; each
    later stage runs a single ascent warm-started from the previous
    stage's winner with k1 = k2 = k. The result reports robustness at the
    final sharpness; its restart_index and restart_records describe the
    first stage. A one-element schedule is exactly synthesize().
    """
    ks = _convert("k_schedule", k_schedule, list, "a list of numbers")
    ks = [_real("k_schedule", k, sign="positive") for k in ks]
    if not ks:
        raise ValueError("k_schedule must be nonempty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_schedule must be strictly increasing")

    start = time.perf_counter()
    first = synthesize(replace(problem, k1=ks[0], k2=ks[0]))
    if len(ks) == 1:
        return first

    stages = [
        ContinuationStage(
            k=ks[0], u_init=None, u_star=first.u_star,
            rho_exact=first.rho_exact, iterations=first.iterations,
        )
    ]
    trace = list(first.objective_trace)
    for k in ks[1:]:
        u_init = stages[-1].u_star
        ((record, payload),) = _run_restarts(replace(problem, k1=k, k2=k), [u_init], len(stages))
        if record.failed:
            raise SynthesisFailure(f"continuation stage k={k} diverged from its warm start")
        u, y, stage_trace = payload
        stages.append(
            ContinuationStage(
                k=k, u_init=u_init, u_star=u,
                rho_exact=record.rho_exact, iterations=record.iterations,
            )
        )
        trace.extend(stage_trace)

    # the last stage ran at ks[-1] on the reported controls, so its record
    # already holds the final robustness
    return replace(
        first,
        u_star=u,
        y_star=y,
        rho_smooth=record.rho_smooth,
        rho_exact=record.rho_exact,
        satisfied=record.rho_exact > 0.0,
        iterations=sum(s.iterations for s in stages),
        objective_trace=trace,
        wall_time=time.perf_counter() - start,
        stages=stages,
    )
