"""Gradient-based control synthesis against a smooth robustness objective.

The objective is J(u) = rho_smooth(y(u)) - w * sum_t u_t . u_t, the smooth
(ef) robustness of the rolled-out output signal minus an optional control
effort penalty. Each restart climbs J with a limited-memory quasi-Newton
ascent: search directions come from the two-loop recursion over recent
(step, gradient-change) pairs, written over their Gram matrix of inner
products so that a direction costs four matrix-vector products and a
short scalar recursion (Byrd, Nocedal and Schnabel 1994; Nocedal and
Wright, Numerical Optimization, 7.2). Steps are chosen by a backtracking
line search that only ever accepts a non-decrease of J. A rejected probe
returns J and the gradient at the candidate, so the next step length is
the peak of the cubic through both ends of the probed step with their
slopes, kept within 0.1 to 0.5 of the step; after a divergence, or when
the cubic has no finite peak, the step halves (Nocedal and Wright, 3.5;
More and Thuente 1994 for the safeguards). The ascent stops when the
gradient's infinity norm drops below _GTOL, when an accepted step raises
J by at most _FTOL relative to max(|J|, 1), the stop of L-BFGS-B with
factr = 1e7 (Byrd, Lu, Nocedal and Zhu 1995), when the line search gives
out, or when the iteration budget runs out; each ascent reports which.
objective returns a finite J and gradient or a divergence, so the ascent
checks neither again. Where the infinity norms of its vectors allow a
product of them to overflow, the product gives inf or nan without a
warning, as it would unchecked.

Restart 0 always starts from u = 0; the remaining restarts start from
seeded uniform noise (over the control bounds when given, otherwise over
[-1, 1] per entry); iterates are never projected back into the bounds.
The restarts climb in lockstep: each round evaluates the next point
every unfinished ascent asks for in one objective call on their stack,
and each ascent gets the values it would get on its own. The reported
result is the restart with the highest exact robustness, with ties
broken by objective value and then by restart index.

Everything here is deterministic for a fixed seed: same problem, same
seed, bit-identical result.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import RolloutDivergence, _backward, _simulate, rollout
from .formula import _array, _check_flag, _convert, _real, _whole, horizon
from .robustness import EXACT, SemanticsConfig, _plan, evaluate

__all__ = [
    "SynthesisFailure",
    "SynthesisProblem",
    "RestartRecord",
    "ContinuationStage",
    "SynthesisResult",
    "objective",
    "synthesize",
    "k_continuation",
    "DEFAULT_MAX_ITERS",
    "DEFAULT_RESTARTS",
]

DEFAULT_MAX_ITERS = 500
DEFAULT_RESTARTS = 10

_LBFGS_MEMORY = 10
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 40
_GTOL = 1e-6
_FTOL = 2.2e-9  # 1e7 times the machine epsilon


class SynthesisFailure(RuntimeError):
    """Every restart failed to produce a finite trajectory."""


@dataclass(frozen=True)
class SynthesisProblem:
    """One synthesis instance: model, start state, formula and knobs.

    @param model:          SystemModel to drive
    @param x0:             initial state, model.n finite numbers
    @param phi:            formula over the model's p outputs (see evaluate)
    @param T:              trajectory length minus one (controls are (T+1, m));
                           phi may look at most T steps ahead
    @param k1, k2:         finite sharpness of the smooth semantics, k1 > 0
                           and k2 >= 0
    @param control_weight: effort penalty coefficient w >= 0
    @param control_bounds: optional per-dimension (lo, hi) pairs, length m,
                           with lo < hi and a finite width hi - lo; used
                           only to sample restart initializations
    @param restarts:       number of seeded random restarts (the u = 0
                           baseline always runs in addition, as restart 0)
    @param seed:           nonnegative RNG seed for the restart initializations
    @param max_iters:      iteration budget of each ascent, at least 1
    @param classic_until:  classic until/release convention (see evaluate)

    Every knob is checked and normalised on construction; a bad value
    raises ValueError("key: why"), such as "k1: must be positive".
    A bool or a string is no number. The flag must be true or false:
    1, 0 and np.True_ pass and are kept as given, while a string or a
    numpy array is refused. Scenario files and build_problem overrides
    pass through these same checks.

    Construction checks phi's horizon against T before any compile, then
    compiles phi's plan under the problem's until convention, or finds the
    one the formula object keeps while it lives (the plan is dropped with
    the formula), and reads phi's predicate widths from it. So the checks
    guarantee what evaluate would check on every call: evaluation at
    t = 0, a horizon of at most T and predicates as wide as the model's
    outputs. objective reads what it needs of a problem once, on its
    first call, and keeps it on the problem: the ef semantics (config),
    the start state as a read-only array and the plan. A problem is
    frozen, and one made by dataclasses.replace reads its own.
    """

    model: object
    x0: tuple
    phi: object
    T: int
    k1: float
    k2: float
    control_weight: float = 0.0
    control_bounds: tuple | None = None
    restarts: int = DEFAULT_RESTARTS
    seed: int = 0
    max_iters: int = DEFAULT_MAX_ITERS
    classic_until: bool = False

    def __post_init__(self):
        x0 = _array("x0", self.x0, shape=(self.model.n,))
        object.__setattr__(self, "x0", tuple(x0.tolist()))
        for key, sign in (("T", "nonnegative"), ("restarts", "nonnegative"),
                          ("seed", "nonnegative"), ("max_iters", "positive")):
            object.__setattr__(self, key, _whole(key, getattr(self, key), sign=sign))
        for key, sign in (("k1", "positive"), ("k2", "nonnegative"),
                          ("control_weight", "nonnegative")):
            object.__setattr__(self, key, _real(key, getattr(self, key), sign=sign))
        _check_flag("classic_until", self.classic_until)
        if self.control_bounds is not None:
            bounds = _array("control_bounds", self.control_bounds, shape=(self.model.m, 2))
            bounds = tuple(map(tuple, bounds.tolist()))
            object.__setattr__(self, "control_bounds", bounds)
            if any(not lo < hi for lo, hi in bounds):
                raise ValueError("control_bounds: every pair needs lo < hi")
            if any(math.isinf(hi - lo) for lo, hi in bounds):
                raise ValueError("control_bounds: every pair needs a finite width hi - lo")
        # checked before the compile, whose cost grows with the horizon
        ahead = horizon(self.phi)
        if ahead > self.T:
            raise ValueError(f"T: formula looks {ahead} steps ahead but T is {self.T}")
        wrong = _plan(self.phi, self.classic_until).dims - {self.model.p}
        if wrong:
            raise ValueError(f"phi: a predicate reads {min(wrong)} dimensions, "
                             f"but the model outputs {self.model.p}")

    @functools.cached_property
    def config(self):
        return SemanticsConfig.ef(self.k1, self.k2)

    @functools.cached_property
    def _x0_array(self):
        x0 = np.array(self.x0)
        x0.setflags(write=False)
        return x0

    @functools.cached_property
    def _phi_plan(self):
        return _plan(self.phi, self.classic_until)


def objective(problem, u):
    """J(u) and dJ/du for one control sequence of shape (T+1, m).

    A stack of R sequences (R, T+1, m) gives, in one pass, a list of R
    outcomes, each the row's (J, dJ) or RolloutDivergence, bit for bit
    what the row gives on its own. J and dJ are always finite. A row that
    diverges in the rollout skips the robustness evaluation, and the rows
    that remain go through phi's plan in one call. A predicate margin or
    control gradient that is not finite is a divergence at its first
    timestep, and a J or dJ that overflows in the effort term one at the
    row of u where the running sum of squares, or else the running penalty
    or dJ, first does. Where a row has more than one, the margin's comes
    first, then the control gradient's, then the effort term's.
    """
    if not isinstance(u, np.ndarray):  # so that its number of axes is known
        u = _array("u", u)
    stack = u.ndim == 3
    U = _array("u", u, shape=(None,) * stack + (problem.T + 1, problem.model.m))
    X, U, Y, outcomes = _simulate(problem.model, problem._x0_array, U, stack)
    live = [r for r, error in enumerate(outcomes) if error is None]
    if live:
        rows = live if len(live) < len(outcomes) else slice(None)  # no copy if all live
        rho, dY, first_bad = problem._phi_plan.apply(Y[rows], 0, problem.config, True)
        U = U[rows]
        du, errors = _backward(problem.model, X[rows], U, dY)
        errors = [error if t is None else RolloutDivergence(t, "predicate margin")
                  for error, t in zip(errors, first_bad)]
        w = problem.control_weight
        with np.errstate(over="ignore", invalid="ignore"):
            squares = U * U
            effort = squares.reshape(len(U), -1).sum(axis=-1)
            J, dJ = rho - w * effort, du - 2.0 * (w * U)  # 2.0 * w may overflow
            if not (np.isfinite(J).all() and np.isfinite(dJ).all()):  # one test, then by row
                running = np.add.accumulate(squares.sum(axis=-1), axis=-1)
                dJ_finite = np.isfinite(dJ).all(axis=-1)
                fine = np.isfinite(np.reshape(rho, (-1, 1)) - w * running) & dJ_finite
                # where the sum of squares overflows, or if it stays finite, the running J or dJ
                over = ~np.isfinite(running) | (np.isfinite(effort)[:, None] & ~fine)
                over[:, -1] = True  # the last row, where the sums differ only in order
                for i in np.flatnonzero(~(np.isfinite(J) & dJ_finite.all(axis=-1))):
                    if errors[i] is None:
                        errors[i] = RolloutDivergence(int(over[i].argmax()), "control effort")
        for i, r in enumerate(live):
            outcomes[r] = (float(J[i]), dJ[i]) if errors[i] is None else errors[i]
    if not stack and isinstance(outcomes[0], RolloutDivergence):
        raise outcomes[0]
    return outcomes if stack else outcomes[0]


@dataclass
class RestartRecord:
    """Outcome of one local ascent. wall_ms is its share of the rounds it
    took part in, each round's wall time split equally among its ascents.
    stop_reason is "gradient" (the gradient's infinity norm fell below
    _GTOL), "no gain" (an accepted step raised J by at most _FTOL
    relative), "max_iters", "line search" (_MAX_BACKTRACKS step lengths
    rejected) or "diverged" (failed)."""

    index: int
    rho_exact: float
    rho_smooth: float
    objective: float
    iterations: int
    stop_reason: str
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


def _quiet(bound):
    """No context while twice bound, a Python float over every result, is
    finite; else one where an overflow gives inf or nan without a warning."""
    if 2.0 * bound < math.inf:
        return contextlib.nullcontext()
    return np.errstate(over="ignore", invalid="ignore")


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


def _backtrack_ratio(J, slope, Jc, slope_c):
    """Where the cubic p with p(0) = J, p'(0) = slope, p(1) = Jc and
    p'(1) = slope_c peaks, kept within [0.1, 0.5]; 0.5 when it has no
    finite peak. Python floats, so nothing warns."""
    a, b = slope + slope_c - 2.0 * (Jc - J), 3.0 * (Jc - J) - 2.0 * slope - slope_c
    try:  # p'(t) = 3a t^2 + 2b t + slope = 0 where p'' < 0, in the form exact at a = 0
        t = slope / (math.sqrt(b * b - 3.0 * a * slope) - b)
    except (ZeroDivisionError, ValueError):  # a = b = 0, or no real root
        return 0.5
    return min(max(t, 0.1), 0.5) if math.isfinite(t) else 0.5


def _ascend(problem, u):
    """Maximize J from u; returns (u, J, trace, stop_reason), where trace
    holds J at the start and after each accepted step.

    It yields each point to evaluate and is sent (J, g) or a divergence: at
    the start that marks the ascent failed (None), in the line search it
    rejects the step length.
    """
    outcome = yield u
    if isinstance(outcome, RolloutDivergence):
        return None
    J, g = outcome
    n, gnorm = u.size, float(np.abs(g).max())
    trace = [J]
    memory = _Memory(n)
    for it in range(problem.max_iters):
        if gnorm < _GTOL:
            stop = "gradient"
            break
        g1 = g.ravel()
        d = memory.direction(g)
        dnorm = float(np.abs(d).max())  # not finite when d is not
        with _quiet(n * dnorm * gnorm):
            if not math.isfinite(dnorm) or float(d.ravel().dot(g1)) <= 0.0:
                d = g.copy()
                memory.order.clear()
        alpha = 1.0 if it > 0 else 1.0 / max(1.0, gnorm)
        for _ in range(_MAX_BACKTRACKS):
            cand = u + alpha * d
            outcome = yield cand
            ratio = 0.5  # after a divergence, which has no gradient
            if not isinstance(outcome, RolloutDivergence):
                Jc, gc = outcome
                s = (cand - u).ravel()
                step, gcnorm = float(np.abs(s).max()), float(np.abs(gc).max())
                with _quiet(n * (gnorm + gcnorm) * step):
                    gain, slope_c = float(g1.dot(s)), float(gc.ravel().dot(s))
                if Jc >= J + _ARMIJO_C1 * max(gain, 0.0):
                    break
                ratio = _backtrack_ratio(J, gain, Jc, slope_c)
            alpha *= ratio
        else:  # no step length was accepted
            stop = "line search"
            break
        bound = step + gnorm + gcnorm  # over s, the accepted step, and g - gc
        with _quiet(n * bound * bound):
            y = (g - gc).ravel()
            sy, ss, yy = float(s.dot(y)), float(s.dot(s)), float(y.dot(y))
        if sy > 1e-10 * math.sqrt(ss) * math.sqrt(yy):
            memory.add(s, y, sy, yy)
        gained = Jc - J > _FTOL * max(abs(Jc), abs(J), 1.0)
        u, J, g, gnorm = cand, Jc, gc, gcnorm
        trace.append(J)
        if not gained:
            stop = "no gain"
            break
    else:
        stop = "max_iters"
    return u, J, trace, stop


def _initial_controls(problem):
    """Restart starting points: the zero baseline plus seeded uniform draws."""
    shape, bounds = (problem.T + 1, problem.model.m), problem.control_bounds
    lo, hi = (-1.0, 1.0) if bounds is None else np.array(bounds).T
    rng = np.random.default_rng(problem.seed)
    return [np.zeros(shape)] + [rng.uniform(lo, hi, size=shape) for _ in range(problem.restarts)]


def _run_restarts(problem, starts):
    """Ascents from each start in lockstep, scored exactly and smoothly at
    problem's sharpness; returns one (record, (u, y, trace)) per start, in
    order, with None for the payload of one that diverged."""
    ascents = [_ascend(problem, u0) for u0 in starts]
    asks = [next(ascent) for ascent in ascents]
    done, wall_ms, live = {}, [0.0] * len(starts), list(range(len(starts)))
    while live:
        start = time.perf_counter()
        for i, outcome in zip(live, objective(problem, np.array([asks[i] for i in live]))):
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
            record = RestartRecord(i, *[-math.inf] * 3, 0, "diverged", ms, True)
            outcomes.append((record, None))
            continue
        u, J, trace, stop = done[i]
        y = rollout(problem.model, problem.x0, u)
        rho_exact = evaluate(problem.phi, y, 0, EXACT, problem.classic_until)
        rho_smooth = evaluate(problem.phi, y, 0, problem.config, problem.classic_until)
        # every iteration that does not break accepts a step
        record = RestartRecord(i, rho_exact, rho_smooth, J, len(trace) - 1, stop, ms)
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
    best_rec, (u, y, trace) = max(
        candidates, key=lambda rp: (rp[0].rho_exact, rp[0].objective, -rp[0].index))
    return SynthesisResult(
        u_star=u, y_star=y,
        rho_smooth=best_rec.rho_smooth, rho_exact=best_rec.rho_exact,
        satisfied=best_rec.rho_exact > 0.0, iterations=best_rec.iterations,
        objective_trace=trace, wall_time=time.perf_counter() - start,
        restart_index=best_rec.index, restart_records=records,
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
        raise ValueError("k_schedule: must be nonempty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_schedule: must be strictly increasing")

    start = time.perf_counter()
    first = synthesize(replace(problem, k1=ks[0], k2=ks[0]))
    if len(ks) == 1:
        return first

    stages = [ContinuationStage(ks[0], None, first.u_star, first.rho_exact, first.iterations)]
    trace = list(first.objective_trace)
    for k in ks[1:]:
        u_init = stages[-1].u_star
        ((record, payload),) = _run_restarts(replace(problem, k1=k, k2=k), [u_init])
        if record.failed:
            raise SynthesisFailure(f"continuation stage k={k} diverged from its warm start")
        u, y, stage_trace = payload
        stages.append(ContinuationStage(k, u_init, u, record.rho_exact, record.iterations))
        trace.extend(stage_trace)

    # the last stage ran at ks[-1] on the reported controls, so its record
    # already holds the final robustness
    return replace(
        first, u_star=u, y_star=y,
        rho_smooth=record.rho_smooth, rho_exact=record.rho_exact,
        satisfied=record.rho_exact > 0.0, iterations=sum(s.iterations for s in stages),
        objective_trace=trace, wall_time=time.perf_counter() - start, stages=stages,
    )
