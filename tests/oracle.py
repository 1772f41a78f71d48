"""Reference evaluators used only by the tests.

Everything here is written straight from the operator definitions as plain
Python recursion with explicit loops: no shared subterm tables, no
vectorization, no prefix scans. Deliberately slow. The point is to give the
test suite a second, independently coded route to the same numbers, so a
structural bug in the library cannot hide by agreeing with itself.
"""

import math

import numpy as np

from smoothstl.formula import (
    Always,
    And,
    Eventually,
    Not,
    Or,
    Pred,
    Release,
    Until,
)


def leaf_value(predicate, row):
    if hasattr(predicate, "coefficients"):
        c = np.asarray(predicate.coefficients, dtype=float)
        return float(np.dot(c, np.asarray(row, dtype=float))) - predicate.offset
    return float(predicate.value(np.asarray(row, dtype=float)))


def naive_exact(phi, y, t=0, classic_until=False):
    """Exact robustness by direct recursion.

    ``y`` is any indexable sequence of sample rows. Until and release are
    spelled out as nested loops for both operator conventions; release is
    the De Morgan dual of whichever until is in effect.
    """

    def rec(f, u):
        return naive_exact(f, y, u, classic_until)

    if isinstance(phi, Pred):
        return leaf_value(phi.predicate, y[t])
    if isinstance(phi, Not):
        return -rec(phi.child, t)
    if isinstance(phi, And):
        return min(rec(c, t) for c in phi.children)
    if isinstance(phi, Or):
        return max(rec(c, t) for c in phi.children)
    if isinstance(phi, Always):
        lo, hi = phi.interval.lo, phi.interval.hi
        return min(rec(phi.child, t + d) for d in range(lo, hi + 1))
    if isinstance(phi, Eventually):
        lo, hi = phi.interval.lo, phi.interval.hi
        return max(rec(phi.child, t + d) for d in range(lo, hi + 1))
    if isinstance(phi, Until):
        lo, hi = phi.interval.lo, phi.interval.hi
        best = -math.inf
        for tp in range(t + lo, t + hi + 1):
            if classic_until:
                hold = min(rec(phi.left, u) for u in range(t, tp + 1))
                best = max(best, min(rec(phi.right, tp), hold))
            else:
                hold = min(rec(phi.right, u) for u in range(t + lo, tp + 1))
                best = max(best, min(rec(phi.left, tp), hold))
        return best
    if isinstance(phi, Release):
        lo, hi = phi.interval.lo, phi.interval.hi
        worst = math.inf
        for tp in range(t + lo, t + hi + 1):
            if classic_until:
                hold = max(rec(phi.left, u) for u in range(t, tp + 1))
                worst = min(worst, max(rec(phi.right, tp), hold))
            else:
                hold = max(rec(phi.right, u) for u in range(t + lo, tp + 1))
                worst = min(worst, max(rec(phi.left, tp), hold))
        return worst
    raise TypeError(f"no exact rule for {type(phi).__name__}")


# scalar smoothing written independently of the library: shifted so large
# sharpness never overflows, but otherwise straight from the formulas

def soft_min(values, k1):
    vals = [float(v) for v in values]
    m = min(vals)
    return m - math.log(sum(math.exp(-k1 * (v - m)) for v in vals)) / k1


def soft_max(values, k2):
    vals = [float(v) for v in values]
    if k2 == 0:
        return sum(vals) / len(vals)
    m = max(vals)
    weights = [math.exp(k2 * (v - m)) for v in vals]
    return sum(w * v for w, v in zip(weights, vals)) / sum(weights)


def lse_soft_max(values, k):
    vals = [float(v) for v in values]
    m = max(vals)
    return m + math.log(sum(math.exp(k * (v - m)) for v in vals)) / k


def ef_ops(k1, k2):
    return (lambda v: soft_min(v, k1)), (lambda v: soft_max(v, k2))


def lse_ops(k):
    return (lambda v: soft_min(v, k)), (lambda v: lse_soft_max(v, k))


def naive_soft(phi, y, min_op, max_op, t=0, classic_until=False):
    """Smooth robustness by direct recursion over a min/max operator pair.

    Expects negation normal form, on which the library runs every formula.
    Until and release transcribe the exact clauses of naive_exact with
    min_op and max_op in place of min and max, so release is the De Morgan
    dual of whichever until is in effect (outer min of inner maxes) in
    both conventions.
    """

    def rec(f, u):
        return naive_soft(f, y, min_op, max_op, u, classic_until)

    if isinstance(phi, Pred):
        return leaf_value(phi.predicate, y[t])
    if isinstance(phi, Not):
        if not isinstance(phi.child, Pred):
            raise ValueError("smooth oracle needs negation normal form")
        return -leaf_value(phi.child.predicate, y[t])
    if isinstance(phi, And):
        return min_op([rec(c, t) for c in phi.children])
    if isinstance(phi, Or):
        return max_op([rec(c, t) for c in phi.children])
    if isinstance(phi, Always):
        lo, hi = phi.interval.lo, phi.interval.hi
        return min_op([rec(phi.child, t + d) for d in range(lo, hi + 1)])
    if isinstance(phi, Eventually):
        lo, hi = phi.interval.lo, phi.interval.hi
        return max_op([rec(phi.child, t + d) for d in range(lo, hi + 1)])
    if isinstance(phi, Until):
        lo, hi = phi.interval.lo, phi.interval.hi
        cands = []
        for tp in range(t + lo, t + hi + 1):
            if classic_until:
                hold = min_op([rec(phi.left, u) for u in range(t, tp + 1)])
                cands.append(min_op([rec(phi.right, tp), hold]))
            else:
                hold = min_op([rec(phi.right, u) for u in range(t + lo, tp + 1)])
                cands.append(min_op([rec(phi.left, tp), hold]))
        return max_op(cands)
    if isinstance(phi, Release):
        lo, hi = phi.interval.lo, phi.interval.hi
        cands = []
        for tp in range(t + lo, t + hi + 1):
            if classic_until:
                hold = max_op([rec(phi.left, u) for u in range(t, tp + 1)])
                cands.append(max_op([rec(phi.right, tp), hold]))
            else:
                hold = max_op([rec(phi.right, u) for u in range(t + lo, tp + 1)])
                cands.append(max_op([rec(phi.left, tp), hold]))
        return min_op(cands)
    raise TypeError(f"no smooth rule for {type(phi).__name__}")
