"""Robust semantics for formulas over discrete-time signals.

Three semantics differ only in the reducer that stands in for min and max:

  exact   true min/max. The sign of the result decides satisfaction.
  ef      every min is replaced by a log-sum-exp soft minimum and every
          max by a Boltzmann-weighted soft maximum. Both substitutions
          under-approximate, so a positive smooth value still certifies
          satisfaction, and both are smooth in the signal, which is what
          the gradient and synthesis modules rely on.
  lse     the classical log-sum-exp pair. Its soft maximum sits above the
          true maximum, so a positive value proves nothing; it exists as
          a baseline to compare against.

Each formula is compiled once, per until convention, into an evaluation
plan. The plan lists the formula's nodes (by object identity) in
topological order, each with the sorted times its parents read, relative
to the evaluation time. Predicates are the leaves, computed for all
affine atoms at once as one matrix product over the plan's window: the
samples from the earliest to the latest one a leaf reads (the horizon),
so that F[140,150] goal over 151 samples computes margins, leaf
adjoints and the signal gradient on 11 rows. Every and/or/always/eventually
node is a min or max per time over a flat gather of its children's slots.
An until or release is three steps:

  held    one scan of the held operand: a (W, n) gather whose column c
          is the operand at ts[c] + first .. ts[c] + hi (first = lo, or 0
          in the classic convention), reduced to all W running prefixes
          at once, so the held history costs O(W n) entries, not O(W^2 n);
  pairs   a min (until) or max (release) of the pointwise operand at
          ts[c] + e and the prefix ending there, for e = lo .. hi;
  outer   a max (until) or min (release) over each time's pairs.

Pairs and outer are reductions like the others. A reduction's depth is one
more than the deepest slot it reads, and the reductions of one kind (min
or max) at one depth run together, so a pass costs a few reducer calls per
(depth, kind), not one per node; every scan runs on its own. Inside a
(depth, kind), the segments come in two layouts:

  dense   every segment length shared by at least _DENSE_SEGMENTS (128)
          segments is a block of its own: an (L, n) gather, one column
          per segment, reduced along axis 0 with plain broadcasting.
  flat    all other segments share one 1-D gather, reduced per segment
          with ufunc.reduceat.

The rule sends the long windows of offline monitoring and the large blocks
of wide formulas dense, where a block costs a few numpy calls whatever its
segment count, and keeps small, mixed groups in one flat call each,
whatever the stack height. Every reducer works segment by segment, so
neither grouping nor layout changes an exact value; a soft sum over a
dense column adds its entries in order where reduceat adds them pairwise,
which can move the last bit for segments of 8 or more entries. The exact
scans are running minima and maxima, so exact values are bit-identical to
reducing every prefix on its own; the soft scans sum in another order (see
the scan notes below) and agree with reducing each prefix on its own to
about 1e-15 of the inputs' scale. A node reached at a time is reduced once
at that time, and a scan counts one application per prefix, which is what
the operator counts measure.
Every semantics runs the same gathers: a release is smoothed as the dual
of the until in effect, an outer soft min of inner soft maxes. A plan is
kept, keyed by its formula object, for as long as that formula lives, and
is dropped with it, so a formula evaluated repeatedly is compiled once. A
signal too short for the formula is refused before any compile.

Every semantics runs on the formula's negation normal form, which the
plan builds when the formula is not in it: negation is folded into the
atoms so that only soft minima and maxima remain, keeping every smooth
step differentiable and one-sided. So any formula gets its normal form's
values and gradients, bit for bit.

A margin that is not finite is, like a rollout's divergence, an outcome per
signal: a run reports each signal's first such sample, or None, and runs the
signal on margins of 0, whose results no caller reads. evaluate raises
SemanticsError for it; synthesis makes it that restart's divergence.

Sharpness conventions: k1 > 0 tightens the soft minimum (gap at most
log(m)/k1 for m arguments), k2 >= 0 tightens the soft maximum, with
k2 = 0 degenerating to the arithmetic mean. The lse baseline uses a
single sharpness k > 0 for both. Every sharpness must be finite.
"""

from __future__ import annotations

import csv
import math
import weakref
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .formula import (
    And,
    Always,
    CallablePredicate,
    Eventually,
    Not,
    Or,
    Pred,
    Release,
    Until,
    _array,
    _check_flag,
    _real,
    _whole,
    horizon,
    is_nnf,
    to_nnf,
)

__all__ = [
    "SemanticsError",
    "Signal",
    "SemanticsConfig",
    "EXACT",
    "smooth_min",
    "smooth_max",
    "lse_max",
    "min_error_bound",
    "max_error_bound",
    "evaluate",
    "OperatorCounter",
    "count_operator_evals",
    "save_signal_csv",
    "load_signal_csv",
]


class SemanticsError(ValueError):
    """Raised when a formula/signal/configuration combination is invalid."""


class Signal:
    """A finite discrete-time signal: samples y_0 .. y_T, each of length p.

    Values are stored as a read-only float array of shape (T+1, p). A 1-D
    input is treated as a scalar signal of shape (T+1, 1). All entries must
    be finite.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = _array("signal", values, SemanticsError)
        arr = arr[:, None] if arr.ndim == 1 else arr
        arr = _array("signal", arr, SemanticsError, (None, None)).copy()
        arr.setflags(write=False)
        self.values = arr

    @property
    def p(self):
        return self.values.shape[1]

    @property
    def T(self):
        """Index of the last sample."""
        return self.values.shape[0] - 1

    def __len__(self):
        return self.values.shape[0]

    def sample(self, t):
        t = _whole("t", t, SemanticsError, "nonnegative")
        if t > self.T:
            raise SemanticsError(f"t: must be at most {self.T}, got {t}")
        return self.values[t]

    def __repr__(self):
        return f"Signal(T={self.T}, p={self.p})"


def as_signal(signal):
    return signal if isinstance(signal, Signal) else Signal(signal)


@dataclass(frozen=True)
class SemanticsConfig:
    """Which semantics to evaluate, and at what sharpness.

    kind is one of "exact", "ef", "lse". Every construction checks that the
    kind takes exactly the finite sharpness parameters it needs: exact takes
    none (SemanticsConfig("exact"), or EXACT), and the classmethods ef and
    lse spell the other two.
    """

    kind: str
    k1: float | None = None
    k2: float | None = None
    k: float | None = None

    def __post_init__(self):
        needs = {"exact": (), "ef": ("k1", "k2"), "lse": ("k",)}.get(self.kind)
        if needs is None:
            raise SemanticsError(f"unknown semantics kind {self.kind!r}")
        for name in ("k1", "k2", "k"):
            value = getattr(self, name)
            if name in needs:
                sign = "nonnegative" if name == "k2" else "positive"
                object.__setattr__(self, name, _real(name, value, SemanticsError, sign))
            elif value is not None:
                raise SemanticsError(f"{self.kind} semantics takes no sharpness parameters")

    @classmethod
    def ef(cls, k1, k2):
        return cls("ef", k1=k1, k2=k2)

    @classmethod
    def lse(cls, k):
        return cls("lse", k=k)

    @property
    def _reducers(self):
        """The (reducer, sharpness) of each op a plan runs, read anew each time."""
        if self.kind == "exact":
            return ((_exact_max, None), (_exact_min, None),
                    (_scan_exact_max, None), (_scan_exact_min, None))
        if self.kind == "ef":
            return ((_soft_max, self.k2), (_soft_min, self.k1),
                    (_scan_soft_max, self.k2), (_scan_soft_min, self.k1))
        k = self.k
        return (_lse_max, k), (_soft_min, k), (_scan_lse_max, k), (_scan_soft_min, k)


EXACT = SemanticsConfig("exact")


_counter_var: ContextVar = ContextVar("smoothstl_op_counter", default=None)


class OperatorCounter:
    """Tallies soft-operator work inside a count_operator_evals() block.

    applications counts operator calls; scalars counts the total number of
    arguments they processed, which is the cost model used by the scaling
    sweeps; forwards counts whole smooth evaluations, so scalars/forwards
    is the per-evaluation cost of a formula.
    """

    __slots__ = ("applications", "scalars", "forwards")

    def __init__(self):
        self.applications = 0
        self.scalars = 0
        self.forwards = 0


@contextmanager
def count_operator_evals():
    counter = OperatorCounter()
    token = _counter_var.set(counter)
    try:
        yield counter
    finally:
        _counter_var.reset(token)


# Segmented reducers. Each reduces its input a to one value per segment
# and returns (values, weights): weights is the derivative of each value in
# its segment's entries when keep is set, else None. a comes in one of two
# layouts. Flat: a 1-D array cut into nonempty segments that begin at
# starts, with seg mapping every entry to its segment. Dense: an (L, n)
# array whose n columns are segments of length L, reduced along axis 0;
# starts is None and seg is Ellipsis. Either may carry a leading axis of
# rows, one per signal, each reduced bit for bit as it is alone; _take(v,
# seg) lines per-segment values v up with the entries. The soft ones work
# in shifted form, so exponent arguments are at most zero and, being capped
# at _EXP_CUTOFF, never overflow; the under-approximation survives in
# floating point because each correction is a sum of one-signed quantities.
# Margins spread beyond the float range overflow a shifted difference a - m
# to an infinity; every such difference is capped (_cap) before use, so the
# values stay finite and sound, and _Plan.run turns the warning off.

_EXP_CUTOFF = 800.0  # exp(-x) is exactly 0.0 in float64 for every x above this
_HUGE = float(np.finfo(float).max)


# Below this sharpness the soft minimum's correction log(s)/k (log(s) < 50)
# can pass half an ulp of the largest float, so m - log(s)/k can overflow;
# only there do the soft minimums clamp their values at -_HUGE.
_TINY_K = 1e-290


def _cap(k):
    """The largest |a - m| a soft reducer at sharpness k tells apart: past
    _EXP_CUTOFF / k every weight exp(-k |a - m|) is exactly 0, and at
    k = 0, where every weight is 1, the largest float, so k |a - m| and a
    weighted average of capped differences are finite."""
    return min(_EXP_CUTOFF / k, _HUGE) if k > 0 else _HUGE

# the kinds of reduction a plan runs, in the order it runs them at one depth
_MAX, _MIN, _SCAN_MAX, _SCAN_MIN = range(4)


def _take(v, idx):
    """v[..., idx]: plain indexing of one row, np.take (3x faster than
    v[:, idx]) of a stack. A dense block's seg, ..., adds a row axis."""
    if v.ndim == 1:
        return v[idx]
    return v[:, None] if idx is ... else v.take(idx, axis=-1)


def _reduce(ufunc, a, starts):
    return ufunc.reduce(a, axis=-2) if starts is None else ufunc.reduceat(a, starts, axis=-1)


def _exact_min(a, starts, seg, k, keep):
    return _reduce(np.minimum, a, starts), None


def _exact_max(a, starts, seg, k, keep):
    return _reduce(np.maximum, a, starts), None


def _soft_min(a, starts, seg, k, keep):
    m = _reduce(np.minimum, a, starts)
    e = np.exp(-k * np.minimum(a - _take(m, seg), _EXP_CUTOFF / k))
    s = _reduce(np.add, e, starts)
    out = m - np.log(s) / k
    if k < _TINY_K:
        out = np.maximum(out, -_HUGE)
    return out, (e / _take(s, seg) if keep else None)


def _boltzmann(a, starts, seg, k):
    """Segment maxima m, gaps d = a - m and the weights exp(k d), normalised
    per segment. A weight that underflows is exactly 0: the gaps are floored
    where exp would give 0 anyway, so k d stays finite."""
    m = _reduce(np.maximum, a, starts)
    d = np.maximum(a - _take(m, seg), -_cap(k))
    w = np.exp(k * d)
    w /= _take(_reduce(np.add, w, starts), seg)
    return m, d, w


def _soft_max(a, starts, seg, k, keep):
    m, d, w = _boltzmann(a, starts, seg, k)
    out = m + _reduce(np.add, w * d, starts)
    if not keep:
        return out, None
    # only zero-weight entries reach the floor, or overflowed ones at k = 0
    gap = np.maximum(a - _take(out, seg), -_cap(k))
    return out, w * (1.0 + k * gap)


def _lse_max(a, starts, seg, k, keep):
    out, _ = _soft_min(-a, starts, seg, k, False)
    return -out, None


# Scans. Each reduces every prefix of the columns of a (W, n) array, or of
# each such block of a stack: row j of its output, flattened per block,
# reduces rows 0..j. starts and seg are None. With keep, the second value
# is a function that maps the output's adjoints, shaped like a, to the
# adjoints of a's entries. Scans double: after the pass with stride
# h = 1, 2, 4, ..., row j covers rows j-2h+1..j, so a scan takes about
# log2(W) whole-block numpy calls per quantity, where a walk down the rows
# would take W calls of about a microsecond each whatever their width. The
# soft ones keep the running extreme m and, per row, sums in the shifted
# form of the reducers above, taken relative to that row's m; a sum moved
# from row i to a later row j is rescaled by r = exp(-k |m_j - m_i|), so
# every exponent stays at most zero and every sum is one-signed, as above.


def _running(ufunc, a):
    """ufunc.accumulate(a) along axis -2 for an idempotent ufunc (minimum
    or maximum). On the (11, 401) block of a long until this takes half the
    time of accumulate itself, which walks the array column by column."""
    out = a.copy()
    h = 1
    while h < out.shape[-2]:
        # not out=: numpy's overlap check on that costs more than the copy
        out[..., h:, :] = ufunc(out[..., h:, :], out[..., :-h, :])
        h *= 2
    return out


def _flatten(x):
    """The (..., W, n) blocks of x, each flattened."""
    return x.reshape(x.shape[:-2] + (-1,))


def _strides(m, k, rising):
    """(h, rise, r) per stride h = 1, 2, 4, ... below len(m): rise[i] is how
    far the running extreme m moves from row i to row i + h, made of steps
    capped at _cap(k), and r = exp(-k rise), formed as products of the
    one-row factors."""
    rise = m[..., 1:, :] - m[..., :-1, :] if rising else m[..., :-1, :] - m[..., 1:, :]
    rise = np.minimum(rise, _cap(k))
    r = np.exp(-k * rise)
    levels, h = [(1, rise, r)], 2
    while h < m.shape[-2]:
        _, rise, r = levels[-1]
        half = h // 2
        hi, lo = np.s_[..., half:, :], np.s_[..., :-half, :]
        levels.append((h, rise[hi] + rise[lo], r[hi] * r[lo]))
        h *= 2
    return levels


def _scan_exact_min(a, starts, seg, k, keep):
    return _flatten(_running(np.minimum, a)), None


def _scan_exact_max(a, starts, seg, k, keep):
    return _flatten(_running(np.maximum, a)), None


def _scan_soft_min(a, starts, seg, k, keep):
    """Running m_j - log(S_j)/k with S_j the sum of exp(-k (a_i - m_j)) over
    i <= j. The minimum's own term is exactly 1, so S_j >= 1 and the value
    never exceeds the running minimum."""
    m = _running(np.minimum, a)
    e = np.exp(-k * np.minimum(a - m, _EXP_CUTOFF / k))
    levels = _strides(m, k, rising=False)
    s = e.copy()
    for h, _, r in levels:
        s[..., h:, :] += r * s[..., :-h, :]
    out = _flatten(m - np.log(s) / k)
    if k < _TINY_K:
        out = np.maximum(out, -_HUGE)
    if not keep:
        return out, None

    def back(adjoint):
        # entry i's derivative in value j >= i is e_i exp(-k (m_i - m_j)) / S_j,
        # so it gets e_i times the rescaled sum of adjoint_j / S_j over j >= i
        b = adjoint / s
        for h, _, r in levels:
            b[..., :-h, :] += r * b[..., h:, :]
        return e * b

    return out, back


def _scan_soft_max(a, starts, seg, k, keep):
    """Running Boltzmann average m_j + P_j/Z_j: Z_j sums the weights
    exp(k (a_i - m_j)) and P_j the weighted gaps a_i - m_j over i <= j.
    Moving sums from row i to row j, where the running maximum is higher
    by rise, rescales both and lowers every gap in P by rise."""
    m = _running(np.maximum, a)
    d = np.maximum(a - m, -_cap(k))  # as in _boltzmann
    e = np.exp(k * d)
    levels = _strides(m, k, rising=True)
    z, p = e.copy(), e * d
    for h, rise, r in levels:
        p[..., h:, :] += r * (p[..., :-h, :] - rise * z[..., :-h, :])
        z[..., h:, :] += r * z[..., :-h, :]
    gap = p / z  # the value minus the running maximum, at most zero
    # at k = 0 the sums of capped rises and gaps can still overflow
    out = _flatten(np.maximum(m + gap, -_HUGE))
    if not keep:
        return out, None

    def back(adjoint):
        # entry i's derivative in value j >= i is w_ij (1 + k (a_i - value_j))
        # with w_ij = e_i exp(-k (m_j - m_i)) / Z_j and a_i - value_j =
        # d_i - (m_j - m_i) - gap_j; A and D sum the two parts over j >= i
        # (D carries a factor k, so at k = 0, where gap may be infinite, it
        # is left out)
        q = adjoint / z
        A, D = q.copy(), (-q * gap if k > 0 else 0.0)
        for h, rise, r in levels:
            if k > 0:
                D[..., :-h, :] += r * (D[..., h:, :] - rise * A[..., h:, :])
            A[..., :-h, :] += r * A[..., h:, :]
        return e * ((1.0 + k * d) * A + k * D)

    return out, back


def _scan_lse_max(a, starts, seg, k, keep):
    out, _ = _scan_soft_min(-a, starts, seg, k, False)
    return -out, None


def _one_segment(reducer, a, k, keep=False):
    """Run a reducer over the whole vector a as a single segment."""
    zeros = np.zeros(a.size, dtype=np.intp)
    with np.errstate(over="ignore"):  # see _Plan.run
        out, weights = reducer(a, zeros[:1], zeros, k, keep)
    return weights if keep else float(out[0])


def _tick(applications, scalars, forwards=0):
    counter = _counter_var.get()
    if counter is not None:
        counter.applications += applications
        counter.scalars += scalars
        counter.forwards += forwards


def _as_vector(a):
    """a as a finite float vector; a single number is a vector of one."""
    a = _array("a", a)
    return a[None] if a.ndim == 0 else _array("a", a, shape=(None,))


def smooth_min(a, k1):
    """Soft minimum: min(a) shifted down by a log-sum-exp correction.

    Never exceeds the true minimum, and trails it by at most log(m)/k1 for
    m arguments; exact for a single argument. Larger k1 is tighter.
    """
    a = _as_vector(a)
    k1 = _real("k1", k1, sign="positive")
    _tick(1, a.size)
    return _one_segment(_soft_min, a, k1)


def smooth_max(a, k2):
    """Soft maximum: the Boltzmann-weighted average of the arguments.

    Never exceeds the true maximum. At k2 = 0 it is the arithmetic mean;
    as k2 grows the weights concentrate on the largest entries. The gap to
    the true maximum shrinks with both k2 and the runner-up margin (see
    max_error_bound).
    """
    a = _as_vector(a)
    k2 = _real("k2", k2, sign="nonnegative")
    _tick(1, a.size)
    return _one_segment(_soft_max, a, k2)


def lse_max(a, k):
    """Log-sum-exp maximum: an over-approximation (at least the true max).

    A positive value therefore certifies nothing about the true sign; this
    operator exists as the baseline the sound pair is compared against.
    """
    a = _as_vector(a)
    k = _real("k", k, sign="positive")
    _tick(1, a.size)
    return _one_segment(_lse_max, a, k)


def min_error_bound(m, k1):
    """Worst-case gap  min(a) - smooth_min(a, k1)  over m arguments."""
    m = _whole("m", m, sign="positive")
    bound = math.log(m) / _real("k1", k1, sign="positive")
    if math.isinf(bound):  # a finite stand-in would understate the gap
        raise ValueError(f"k1: too small for a finite bound over {m} arguments, got {k1}")
    return bound


def max_error_bound(a, k2):
    """Gap bound  max(a) - smooth_max(a, k2)  for a sorted descending.

    Requires at least two entries, sorted from largest to smallest. The
    bound tightens exponentially in k2 times the gap between the top two
    entries. It is always finite: past the largest float it is capped.
    """
    a = _as_vector(a)
    if a.size < 2:
        raise ValueError("a: needs at least two entries")
    if np.any(a[1:] > a[:-1]):
        raise ValueError("a: must be sorted in descending order")
    k2 = _real("k2", k2, sign="nonnegative")
    m = a.size
    top, low = float(a[0]), float(a[-1])
    # at k2 = 0 the top two entries' gap, which may overflow, plays no part
    x = k2 * (top - float(a[1])) if k2 > 0 else 0.0
    # a spread past the largest float is halved here and the bound doubled
    # below; a bound past it is capped there
    scale = 2.0 if math.isinf(top - low) else 1.0
    spread = top / scale - low / scale
    if x > 700.0:
        # asymptotic form; slightly larger than the exact expression, so
        # still a valid upper bound, and exp cannot overflow
        bound = spread * (m - 1) * math.exp(-x)
        if not math.isfinite(bound):  # (m - 1) times the spread overflowed
            bound = spread * ((m - 1) * math.exp(-x))
    else:
        bound = spread / (math.exp(x) / (m - 1) + 1.0)
    return min(scale * bound, _HUGE)


# ---------------------------------------------------------------------------
# evaluation plans


def _is_leaf(node):
    return isinstance(node, Pred) or (isinstance(node, Not) and isinstance(node.child, Pred))


def _reads(node, classic_until):
    """(child, first, last): the child is read at t+first .. t+last for
    every time t the node is evaluated at."""
    if isinstance(node, (And, Or)):
        return [(c, 0, 0) for c in node.children]
    lo, hi = node.interval.lo, node.interval.hi
    if isinstance(node, (Always, Eventually)):
        return [(node.child, lo, hi)]
    # until and release: in the classic convention the left operand is
    # held from t itself; otherwise every read starts at t + lo
    return [(node.left, 0 if classic_until else lo, hi), (node.right, lo, hi)]


# A (depth, kind) group's block of at least this many same-length segments
# is reduced densely. Measured on a 2-core Xeon with numpy 2.4.6, soft
# reducers with keep plus backward, lengths 2, 4 and 6: a block that fills
# its group breaks even at 0 to 125 segments at 1 row, 3 to 29 at 11 rows;
# one that adds a call beside a flat rest, at 218 to 411 and 42 to 63. Not
# keyed on the stack height: np.add.at sums a shared slot in another order
# per layout, so a row's gradient would differ in the last bit by height.
_DENSE_SEGMENTS = 128


def _starts(lengths):
    return np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.intp)


def _group(reductions, n_leaf, size):
    """Group reductions, given in evaluation order as (op, idx, lengths,
    out), into the segmented reductions and scans a plan runs. A reduction
    (op _MAX or _MIN) has one segment per length; a scan (op _SCAN_MAX or
    _SCAN_MIN) has lengths None and a (W, n) idx. Leaves are at depth 0,
    and a reduction is one deeper than the deepest slot it reads. The
    reductions of one (depth, op) form one group; inside it, every length
    shared by at least _DENSE_SEGMENTS segments gets a dense reduction of
    its own, and all other segments share one flat reduction. Every scan is
    a group of its own. Groups run by depth and keep evaluation order
    inside. Returns them as (op, idx, starts, seg, out, stop) tuples:
    vals[out:stop] holds one reduction of vals[idx] per segment, or a
    scan's output. A flat idx is 1-D, with segments beginning at starts and
    seg mapping entries to segments; a dense idx is (L, n), one column per
    segment, with starts None and seg Ellipsis; a scan keeps its (W, n) idx,
    with starts and seg None.
    """
    depth = np.zeros(size, dtype=np.intp)
    groups = {}
    for red in reductions:
        op, idx, lengths, out = red
        scan = lengths is None
        depth[out : out + (idx.size if scan else lengths.size)] = depth[idx].max() + 1
        groups.setdefault((depth[out], op, out) if scan else (depth[out], op), []).append(red)
    slot, stop, grouped = np.arange(size), n_leaf, []
    for (_, op, *_), members in sorted(groups.items()):
        # every slot read lies in an earlier group, so is already moved
        if members[0][2] is None:  # a scan, a group of its own
            ((_, idx, _, out),) = members
            slot[out : out + idx.size] = np.arange(stop, stop + idx.size)
            grouped.append((op, slot[idx], None, None, stop, stop + idx.size))
            stop += idx.size
            continue
        idx = slot[np.concatenate([red[1].ravel() for red in members])]
        lengths = np.concatenate([red[2] for red in members])
        outs = np.concatenate([out + np.arange(part.size) for _, _, part, out in members])
        starts = _starts(lengths)
        flat = np.ones(lengths.size, dtype=bool)
        parts = []
        # the counts are compared as Python ints: in a run whose plans have
        # no dense block, a first numpy comparison would add 0.13 MB to the
        # peak memory
        for L, count in enumerate(np.bincount(lengths).tolist()):
            if count >= _DENSE_SEGMENTS:
                pick = lengths == L
                flat &= ~pick
                parts.append((pick, idx[starts[pick] + np.arange(L)[:, None]], None, ...))
        if flat.any():
            rest = lengths[flat]
            seg = np.repeat(np.arange(rest.size), rest)
            parts.append((flat, idx[np.repeat(flat, lengths)], _starts(rest), seg))
        for pick, part_idx, part_starts, seg in parts:
            n = int(np.count_nonzero(pick))
            slot[outs[pick]] = np.arange(stop, stop + n)
            grouped.append((op, part_idx, part_starts, seg, stop, stop + n))
            stop += n
    return grouped


_WARN = nullcontext()  # for what cannot overflow: exact reducers, margins known finite


class _Plan:
    """A formula compiled for one until convention; see the module notes.

    vals, the flat array a run fills, holds the leaf margins first, then the
    results of each group of reductions (node results and the scratch
    results of until and release) in the order the groups run; every
    semantics runs the same groups, in order. The root's reduction is the
    only one at the greatest depth, so it runs last and its result keeps
    the last slot. A run on a stack of R windows fills vals (R, size).

    A run's window Y is the samples t + first .. t + horizon of a signal
    evaluated at t (see the module notes); rows, leaves and the callables'
    rows count from its first sample.
    """

    def __init__(self, phi, classic_until):
        root = phi if is_nnf(phi) else to_nnf(phi)

        order, seen = [], set()

        def visit(node):
            if id(node) in seen:
                return
            seen.add(id(node))
            if not _is_leaf(node):
                for child, _, _ in _reads(node, classic_until):
                    visit(child)
            order.append(node)

        visit(root)  # children before parents

        times = {id(root): {0}}
        for node in reversed(order):
            if _is_leaf(node):
                continue
            ts = times[id(node)]
            for child, first, last in _reads(node, classic_until):
                reach = times.setdefault(id(child), set())
                for t in ts:
                    reach.update(range(t + first, t + last + 1))
        times = {key: np.array(sorted(ts), dtype=np.intp) for key, ts in times.items()}

        # leaves: one column per distinct predicate object, affine ones first
        leaves = [node for node in order if _is_leaf(node)]
        atoms = [
            (node.child.predicate, -1.0) if isinstance(node, Not) else (node.predicate, 1.0)
            for node in leaves
        ]
        preds = sorted(
            {id(p): p for p, _ in atoms}.values(), key=lambda p: isinstance(p, CallablePredicate)
        )
        column = {id(p): j for j, p in enumerate(preds)}
        linear = [p for p in preds if not isinstance(p, CallablePredicate)]
        self.dims = {p.dim for p in preds}
        self.coeffs = np.zeros((len(linear), max(self.dims)))
        for i, p in enumerate(linear):
            self.coeffs[i, : p.dim] = p.coefficients
        self.offsets = np.array([p.offset for p in linear])
        self.n_linear, self.n_preds = len(linear), len(preds)

        base, size = {}, 0
        for node in leaves:
            base[id(node)] = size
            size += times[id(node)].size
        self.n_leaf = size
        spans = [(times[id(node)], p, sign) for node, (p, sign) in zip(leaves, atoms)]
        self.first = int(min(ts[0] for ts, _, _ in spans))
        self.horizon = int(max(ts[-1] for ts, _, _ in spans))
        self.rows = np.concatenate([ts for ts, _, _ in spans]) - self.first
        self.cols = np.concatenate([np.full(ts.size, column[id(p)]) for ts, p, _ in spans])
        self.signs = np.concatenate([np.full(ts.size, sign) for ts, _, sign in spans])
        self.leaves = self.rows * self.n_preds + self.cols
        self.callables = [
            (j, p, np.unique(self.rows[self.cols == j]))
            for j, p in enumerate(preds)
            if j >= self.n_linear
        ]
        # Affine margins that no finite sample can take past the float range:
        # each reads one coordinate with a coefficient of at most 1 in size,
        # and its offset is below half an ulp of the largest float (safe);
        # or, with coefficients and offsets of moderate size, the samples'
        # squares sum to a finite number, so none exceeds 1.4e154 (bounded).
        with np.errstate(over="ignore"):  # an infinite norm is just not bounded
            norms, offsets = np.abs(self.coeffs).sum(axis=-1), np.abs(self.offsets)
        one = (np.count_nonzero(self.coeffs, axis=-1) <= 1) & (norms <= 1)
        self.safe = not self.callables and one.all() and (offsets < 2.0**969).all()
        self.bounded = not self.callables and (norms <= 1e150).all() and (offsets <= 1e300).all()

        def slots(node, at):
            return base[id(node)] + np.searchsorted(times[id(node)], at)

        reductions = []  # in evaluation order until grouped
        for node in order:
            if _is_leaf(node):
                continue
            ts = times[id(node)]
            if isinstance(node, (Until, Release)):
                size = self._add_until(reductions, node, ts, classic_until, slots, size)
            else:
                if isinstance(node, (And, Or)):
                    idx = np.stack([slots(c, ts) for c in node.children], axis=1)
                else:
                    lo, hi = node.interval.lo, node.interval.hi
                    idx = slots(node.child, ts[:, None] + np.arange(lo, hi + 1))
                op = _MIN if isinstance(node, (And, Always)) else _MAX
                reductions.append((op, idx, np.full(ts.size, idx.shape[1]), size))
                size += ts.size
            base[id(node)] = size - ts.size
        self.size = size
        self.groups = _group(reductions, self.n_leaf, size)
        self.root = base[id(root)]
        self.applications = sum(stop - out for *_, out, stop in self.groups)
        self.scalars = sum(red[1].size for red in self.groups)
        # backward's flat indices for the last stack shape it ran on: one
        # entry, since one per stack height held twice the plans' memory
        self.scatter = None, None

    def _add_until(self, reductions, node, ts, classic_until, slots, size):
        """Append to reductions the three of an until or release node: a scan
        of the held operand, (pointwise, held) pairs, and the outer reduction
        over the pairs; its results go last, after the two scratch blocks."""
        lo, hi = node.interval.lo, node.interval.hi
        first = 0 if classic_until else lo
        n_t, width, rows = ts.size, hi - lo + 1, hi - first + 1
        # the classic convention holds the left operand, the default one the
        # right; a release is the until with min and max swapped
        held, pointwise = (node.left, node.right) if classic_until else (node.right, node.left)
        until = isinstance(node, Until)
        scan, inner, outer = (_SCAN_MIN, _MIN, _MAX) if until else (_SCAN_MAX, _MAX, _MIN)
        # held block: row j, column c is the held operand at ts[c] + first + j,
        # so the scan's row e - first is the held history of the pair at
        # ts[c] + e; pairs and outer run per time, e = lo .. hi
        block = slots(held, ts + np.arange(first, hi + 1)[:, None])
        ends = np.arange(lo, hi + 1)
        history = size + (ends - first) * n_t + np.arange(n_t)[:, None]
        pairs = np.stack([slots(pointwise, ts[:, None] + ends).ravel(), history.ravel()], 1)
        pairs_out = size + rows * n_t
        outer_out = pairs_out + n_t * width
        reductions += [
            (scan, block, None, size),
            (inner, pairs, np.full(n_t * width, 2), pairs_out),
            (outer, np.arange(pairs_out, outer_out), np.full(n_t, width), outer_out),
        ]
        return outer_out + n_t

    def margins(self, Y):
        """Predicate margins at the rows of a window Y, or of a stack of them,
        one column per predicate; callable ones only at the rows read."""
        linear = Y @ self.coeffs.T - self.offsets
        if not self.callables:
            return linear
        S = np.empty(Y.shape[:-1] + (self.n_preds,))
        S[..., : self.n_linear] = linear
        for col, pred, rows in self.callables:
            at = Y[..., rows, :]
            vals = np.array([pred.value(y) for y in at.reshape(-1, at.shape[-1])], dtype=float)
            S[..., rows, col] = vals.reshape(at.shape[:-1])
        return S

    def run(self, Y, start, reducers, keep, smooth):
        """Fill vals (a row per window of a stack Y); with keep, also weights;
        and per window its first sample (start at its first row) whose margin
        is not finite, or None, the window then running on margins of 0. One
        errstate a run turns off the warnings of what may overflow: the
        margins of a checked run, and the smooth reducers, which cap every
        shifted difference that does."""
        vals = np.empty(Y.shape[:-2] + (self.size,))
        bad = [None] * (vals.size // self.size)
        # np.vdot, unlike an errstate, costs about one reduction (and does
        # not report an overflow of its own)
        checked = not (self.safe or self.bounded and math.isfinite(np.vdot(Y, Y)))
        if checked:
            quiet = np.errstate(over="ignore", invalid="ignore")
        else:
            quiet = np.errstate(over="ignore") if smooth else _WARN
        weights = []
        with quiet:
            vals[..., : self.n_leaf] = _take(_flatten(self.margins(Y)), self.leaves) * self.signs
            if checked:
                finite = np.isfinite(vals[..., : self.n_leaf])
                if not finite.all():
                    windows = finite.reshape(-1, self.n_leaf)
                    bad = [None if f.all() else start + int(self.rows[~f].min()) for f in windows]
                    vals[..., : self.n_leaf][~finite] = 0.0
            for op, idx, starts, seg, out, stop in self.groups:
                fn, k = reducers[op]
                vals[..., out:stop], w = fn(_take(vals, idx), starts, seg, k, keep)
                weights.append(w)
        return vals, weights, bad

    def apply(self, values, t, config, gradient):
        """The root value at time t of the samples (T+1, p) of a signal, or
        of each signal of a stack (R, T+1, p), with gradient set the gradient
        in the samples, else None, and per signal of a stack the first sample
        whose margin is not finite, or None (a signal raises SemanticsError):
        _evaluate after its checks, which a caller that skips them must
        guarantee. A bad row counts no forward, and its results mean nothing."""
        Y = values[..., t + self.first : t + self.horizon + 1, :]
        if len(Y) == 1 and Y.ndim == 3:
            Y = Y[0]
        smooth = config.kind != "exact"
        vals, weights, bad = self.run(Y, t + self.first, config._reducers, gradient, smooth)
        n = bad.count(None)
        if values.ndim == 2 and not n:
            raise SemanticsError("predicate produced a non-finite margin")
        if smooth:
            _tick(self.applications * n, self.scalars * n, forwards=n)
        if not gradient:
            return vals[..., self.root], None, bad
        dY = self.backward(Y, weights, bad)
        # only a plan neither safe nor bounded can give one that is not finite,
        # and a stack's caller reads it by row
        if values.ndim == 2 and not (self.safe or self.bounded or np.isfinite(dY).all()):
            raise SemanticsError("predicate produced a non-finite gradient")
        dsignal = np.zeros_like(values)
        dsignal[..., t + self.first : t + self.horizon + 1, :] = dY
        return vals[..., self.root], dsignal, bad

    def backward(self, Y, weights, bad):
        """Gradient of the root value in the window Y, or in each window of
        a stack, from the weights a smooth run with keep returned; 0 in a
        window run reports bad, so no callable's jacobian runs on it."""
        lead, rows, cols = Y.shape[:-2], Y.shape[-2], self.n_preds
        adjoint = np.zeros(lead + (self.size,))
        adjoint[..., self.root] = 1.0
        if bad.count(None) < len(bad):
            adjoint.reshape(-1, self.size)[:, self.root] = [row is None for row in bad]
        flat = adjoint.reshape(-1)  # np.add.at is about 3x slower on a 2-D index
        key, scatter = self.scatter
        if key != Y.shape[:-1]:
            scatter = [_flat_index(red[1], self.size, lead) for red in self.groups[::-1]]
            scatter.append(_flat_index(self.leaves, rows * cols, lead))
            if lead:  # one window needs only views
                self.scatter = Y.shape[:-1], scatter
        *into, leaves = scatter
        for (_, idx, _, seg, out, stop), w, at in zip(self.groups[::-1], weights[::-1], into):
            part = adjoint[..., out:stop]
            if seg is None:  # a scan; w maps its output adjoints to its entries'
                part = w(part.reshape(lead + idx.shape))
            else:
                part = w * _take(part, seg)
            np.add.at(flat, at, part.reshape(-1))
        # leaf adjoints, summed per (row, predicate), then pushed to the samples
        G = np.bincount(
            leaves,
            weights=(adjoint[..., : self.n_leaf] * self.signs).reshape(-1),
            minlength=math.prod(lead) * rows * cols,
        ).reshape(lead + (rows, cols))
        # only a plan neither safe nor bounded can overflow here; _evaluate checks
        with _WARN if self.safe or self.bounded else np.errstate(over="ignore", invalid="ignore"):
            dY = G[..., : self.n_linear] @ self.coeffs
            for col, pred, at in self.callables:
                at, Gs = _flat_index(at, rows, lead), G.reshape(-1, cols)
                dYs, Ys = dY.reshape(-1, dY.shape[-1]), Y.reshape(-1, Y.shape[-1])
                for r in at[Gs[at, col] != 0.0]:
                    dYs[r] += Gs[r, col] * pred.gradient(Ys[r])
        return dY


def _flat_index(idx, width, lead):
    """idx in each row of a flattened stack of shape lead + (width,)."""
    if not lead:
        return idx.reshape(-1)
    return (idx.reshape(-1) + width * np.arange(math.prod(lead))[:, None]).reshape(-1)


_plans = {}


def _plan(phi, classic_until):
    """phi's plan, compiled on first use and kept while phi lives: the entry
    leaves when phi does, before its id can be reused."""
    key = (id(phi), bool(classic_until))
    plan = _plans.get(key)
    if plan is None:
        plan = _plans[key] = _Plan(phi, bool(classic_until))
        weakref.finalize(phi, _plans.pop, key, None)
    return plan


def _evaluate(phi, values, t, config, classic_until, gradient=False):
    """Validate the arguments and run phi's plan at time t on the samples
    (T+1, p) of a signal, or on each signal of a finite stack (R, T+1, p).

    Returns the value, or R values, and with gradient set the gradient in
    the samples, else None; each row of a stack is bit for bit its signal's
    own. A stack counts R forwards; one of one runs unstacked (faster). A
    margin that is not finite, in any row, raises SemanticsError. A
    signal's gradient must be finite; a stack's is returned as it is.
    """
    if not isinstance(config, SemanticsConfig):
        raise SemanticsError(f"config: needs a SemanticsConfig, got {config!r}")
    if type(t) is not int or t < 0:
        t = _whole("t", t, SemanticsError, "nonnegative")
    _check_flag("classic_until", classic_until, SemanticsError)
    # the length is checked before a compile, whose cost grows with the horizon
    plan = _plans.get((id(phi), bool(classic_until)))
    need, last = t + (horizon(phi) if plan is None else plan.horizon), values.shape[-2] - 1
    if need > last:
        raise SemanticsError(
            f"signal: too short: evaluation at t={t} needs samples through "
            f"t={need} but the signal ends at t={last}"
        )
    if plan is None:
        plan = _plan(phi, classic_until)
    p = values.shape[-1]
    if plan.dims != {p}:
        bad = min(plan.dims - {p})
        raise SemanticsError(f"signal: needs {bad} dimensions for a predicate, got {p}")
    value, dsignal, first_bad = plan.apply(values, t, config, gradient)
    if first_bad.count(None) < len(first_bad):  # a signal's raises in apply
        raise SemanticsError("predicate produced a non-finite margin")
    return value, dsignal


def evaluate(phi, signal, t=0, config=EXACT, classic_until=False):
    """Robustness of phi over the signal, evaluated at time t.

    @param phi:           formula; every kind evaluates its negation normal form
    @param signal:        Signal, or anything Signal() accepts
    @param t:             evaluation timestep (default 0)
    @param config:        SemanticsConfig choosing exact / ef / lse
    @param classic_until: switch the until operator (and the release dual)
                          to the convention where the held operand's
                          history starts at t instead of t plus the window
                          start, with the hold on the left operand; true or
                          false (1, 0 and np.True_ pass), while a string or
                          a numpy array raises SemanticsError

    The signal must reach t + horizon(phi), and every predicate margin
    the formula reads must be finite. Positive exact robustness means the
    formula is satisfied; positive ef robustness implies positive exact
    robustness, while lse offers no such guarantee.
    """
    return float(_evaluate(phi, as_signal(signal).values, t, config, classic_until)[0])


# ---------------------------------------------------------------------------
# CSV files


def _read_series_csv(path, prefix, error):
    """Finite (T+1, p) array from a file with header t,{prefix}0,..., whose t
    column runs 0, 1, 2, ...; errors name the file and the row. Blank
    lines are skipped, and every row length is checked before any number."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise error(f"{path}: empty file")
        if header[:1] != ["t"] or len(header) < 2:
            raise error(f"{path}: expected header t,{prefix}0,... got {header!r}")
        for j, name in enumerate(header[1:]):
            if name != f"{prefix}{j}":
                raise error(f"{path}: column {j + 1} should be {prefix}{j}, got {name!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise error(
                    f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}"
                )
            rows.append((lineno, row))
    if not rows:
        raise error(f"{path}: no rows")
    out = np.empty((len(rows), len(header) - 1))
    for t, (lineno, row) in enumerate(rows):
        try:
            step = int(row[0])
            out[t] = [float(v) for v in row[1:]]
        except ValueError:
            raise error(f"{path}: row {lineno} has a malformed number") from None
        if not np.isfinite(out[t]).all():
            raise error(f"{path}: row {lineno} has a non-finite number")
        if step != t:
            raise error(f"{path}: row {lineno}: timesteps must run 0,1,2,... without gaps")
    return out


def _write_series_csv(path, values, prefix):
    values = _array(prefix, values, shape=(None, None))  # what the readers take
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{prefix}{j}" for j in range(values.shape[1])])
        for t in range(values.shape[0]):
            writer.writerow([t] + [repr(float(v)) for v in values[t]])


# Signal file format: a header row  t,y0,...,y{p-1}  followed by one row
# per timestep. Values are written with repr, which round-trips float64
# exactly.


def save_signal_csv(signal, path):
    _write_series_csv(path, as_signal(signal).values, "y")


def load_signal_csv(path):
    return Signal(_read_series_csv(path, "y", SemanticsError))
