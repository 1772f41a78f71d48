"""Shared random generators for the test suite.

The formula generator only produces negation normal form (negation is
applied directly to predicates), so its output is what the library
evaluates and what the smooth oracle takes; wrap it in ~ for a formula
outside it. Horizons are kept within an explicit budget so matching
signals stay short.
"""

import os
from pathlib import Path

import numpy as np

from smoothstl.formula import LinearPredicate, Not, Pred, conj, disj, horizon
from smoothstl.robustness import Signal

# pytest puts src on its own sys.path; a child interpreter (the module
# entry-point test) finds an uninstalled package only through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def rand_predicate(rng, p):
    coeffs = rng.uniform(-2.0, 2.0, size=p)
    if np.abs(coeffs).max() < 1e-3:
        coeffs[0] = 1.0
    return LinearPredicate(tuple(coeffs), float(rng.uniform(-3.0, 3.0)))


def rand_formula(rng, p, depth, budget):
    """Random formula in negation normal form with horizon at most budget."""
    kinds = ["pred", "notpred"]
    if depth > 0:
        kinds += ["and", "or", "always", "eventually", "until", "release"]
    kind = kinds[rng.integers(len(kinds))]
    if kind == "pred":
        return Pred(rand_predicate(rng, p))
    if kind == "notpred":
        return Not(Pred(rand_predicate(rng, p)))
    if kind in ("and", "or"):
        n = int(rng.integers(2, 4))
        children = [rand_formula(rng, p, depth - 1, budget) for _ in range(n)]
        return conj(*children) if kind == "and" else disj(*children)
    hi = int(rng.integers(0, budget + 1))
    lo = int(rng.integers(0, hi + 1))
    rest = budget - hi
    left = rand_formula(rng, p, depth - 1, rest)
    if kind == "always":
        return left.always(lo, hi)
    if kind == "eventually":
        return left.eventually(lo, hi)
    right = rand_formula(rng, p, depth - 1, rest)
    if kind == "until":
        return left.until(right, lo, hi)
    return left.release(right, lo, hi)


def rand_signal(rng, phi, p, slack=0, scale=5.0):
    """Signal long enough to evaluate phi at t=0, plus slack extra samples."""
    n = horizon(phi) + 1 + slack
    return Signal(rng.uniform(-scale, scale, size=(n, p)))


def node_kinds(phi):
    """Set of node class names appearing in a formula."""
    seen = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        seen.add(type(node).__name__)
        for attr in ("child", "left", "right"):
            if hasattr(node, attr):
                stack.append(getattr(node, attr))
        if hasattr(node, "children"):
            stack.extend(node.children)
    return seen
