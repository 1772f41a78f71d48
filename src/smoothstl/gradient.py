"""Analytic gradients of the smooth robustness value.

eval_with_gradient runs the formula's evaluation plan (see the robustness
module) forward, keeping each group's weights (a group is one segmented
reduction over reductions of one kind at one depth: a flat 1-D gather, or
a dense (L, n) block of 128 or more same-length segments whose weights
have the block's shape), then sweeps the groups backwards: each scatters
its output adjoints, times its weights, back through the same gather that
fed it (a dense block's gather and weights are flattened first, since
np.add.at is about 3x slower on a 2-D index), and the leaf adjoints
reach the signal through the predicate coefficients (one matrix product
for the affine atoms) or the callable predicates' jacobians. One forward
plus one backward pass costs a small constant times one evaluation,
independent of the signal dimension.

The held history of an until or release is a scan, whose row j depends
on every row above it, so it keeps no weights but the running sums of
its forward pass, and its backward step runs the matching reverse
recurrence before the scatter. For the soft minimum, with m_j the running
minimum, S_j the running sum and e_i = exp(-k1 (a_i - m_i)),

  B_i = adjoint_i / S_i + exp(-k1 (m_i - m_{i+1})) B_{i+1},
  entry adjoint_i = e_i B_i,

taken by doubling like the forward scan. The soft maximum runs the same
recurrence on two sums, one for each part of its weights (see below):
the Boltzmann weights, and the weights times the gaps to the soft
maximum. Neither needs more memory than the forward pass kept.

Weight facts used by tests and by the chain rule through dynamics:

  soft minimum   weights are a softmax of -k1 * a: positive, sum to one,
                 concentrated on the smallest entries.
  soft maximum   weights are w_i * (1 + k2 * (a_i - softmax value)) with w
                 the Boltzmann weights; they also sum to one but entries
                 can be negative, so the soft maximum is not monotone in
                 its arguments even though it stays below the true max.
                 An entry whose Boltzmann weight underflows gets exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formula import _real
from .robustness import (
    SemanticsConfig,
    SemanticsError,
    _as_vector,
    _evaluate,
    _one_segment,
    _read_series_csv,
    _soft_max,
    _soft_min,
    _write_series_csv,
    as_signal,
    evaluate,
)

__all__ = [
    "RobustnessGradient",
    "grad_smooth_min",
    "grad_smooth_max",
    "eval_with_gradient",
    "finite_difference_gradient",
    "save_gradient_csv",
    "load_gradient_csv",
]


def grad_smooth_min(a, k1):
    """Gradient of smooth_min(a, k1) with respect to a.

    @param a:  argument vector
    @param k1: sharpness, positive and finite
    @return:   vector of positive weights summing to one
    """
    return _one_segment(_soft_min, _as_vector(a), _real("k1", k1, sign="positive"), keep=True)


def grad_smooth_max(a, k2):
    """Gradient of smooth_max(a, k2) with respect to a.

    Sums to one; individual entries may be negative for arguments far
    below the soft maximum.
    """
    return _one_segment(_soft_max, _as_vector(a), _real("k2", k2, sign="nonnegative"), keep=True)


@dataclass
class RobustnessGradient:
    """Smooth robustness value plus its derivative in every signal entry.

    dsignal has the signal's own shape (T+1, p). Entries at timesteps the
    formula never looks at are exactly zero.
    """

    value: float
    dsignal: np.ndarray


def eval_with_gradient(phi, signal, t=0, config=None, classic_until=False):
    """Smooth robustness and its gradient with respect to the signal.

    Only the ef semantics is differentiable here; the value returned is
    bit-identical to evaluate() with the same arguments because both run
    the same forward pass of the same plan. A gradient that is not finite
    raises SemanticsError, as a non-finite margin does.
    """
    if not (isinstance(config, SemanticsConfig) and config.kind == "ef"):
        raise SemanticsError(f"config: eval_with_gradient needs ef semantics, got {config!r}")
    value, dsignal = _evaluate(phi, as_signal(signal).values, t, config, classic_until, True)
    return RobustnessGradient(value=float(value), dsignal=dsignal)


def finite_difference_gradient(phi, signal, t=0, config=None, h=1e-5, classic_until=False):
    """Central-difference estimate of d robustness / d signal.

    Slow (two evaluations per signal entry); exists as the reference the
    analytic gradient is checked against.
    """
    signal = as_signal(signal)
    h = _real("h", h, sign="positive")
    base = signal.values.copy()
    out = np.zeros_like(base)
    for ts in range(base.shape[0]):
        for j in range(base.shape[1]):
            bumped = base.copy()
            bumped[ts, j] = base[ts, j] + h
            hi = evaluate(phi, bumped, t, config, classic_until)
            bumped[ts, j] = base[ts, j] - h
            lo = evaluate(phi, bumped, t, config, classic_until)
            out[ts, j] = (hi - lo) / (2.0 * h)
    return out


# Gradient file format mirrors the signal format with d_ prefixes.


def save_gradient_csv(grad, path):
    _write_series_csv(path, grad.dsignal, "d_y")


def load_gradient_csv(path):
    return _read_series_csv(path, "d_y", SemanticsError)
