"""Abstract syntax trees for bounded-time temporal logic formulas.

A formula is a tree of inequality predicates, boolean connectives (not,
n-ary and/or) and time-bounded temporal operators (always, eventually,
until, release) interpreted over discrete-time vector signals. Nodes are
immutable and hashable, so formulas are safe to share freely, including
across threads.

The conjunction and disjunction constructors keep child lists flattened:
`and`/`or` never appear directly under a node of the same kind. This makes
the n-ary smooth semantics deterministic with respect to how a user groups
connectives in the source text.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

import numpy as np

__all__ = [
    "FormulaError",
    "Interval",
    "LinearPredicate",
    "CallablePredicate",
    "Pred",
    "Not",
    "And",
    "Or",
    "Always",
    "Eventually",
    "Until",
    "Release",
    "Formula",
    "conj",
    "disj",
    "node_count",
    "is_nnf",
    "to_nnf",
    "horizon",
    "format_formula",
    "RegionTable",
]


class FormulaError(ValueError):
    """Raised for structurally invalid formulas, predicates or regions."""


def _number(value, to=float):
    """to(value) for a real number. A bool or a string is refused even
    where to() would take it: float("3") and int(True) both succeed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"not a number: {value!r}")
    return to(value)


def _whole(value, name="value", error=ValueError):
    """value as an int, if it is a whole number: 2.0 passes, and 2.5 never
    truncates to 2. A bool or a string is no number (see _number)."""
    try:
        number = _number(value, int)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise error(f"{name} must be a whole number, got {value!r}")
    return number


def _index(key, value, what="a whole number"):
    """value as an int, or FormulaError("key: needs what, got value"). Strict
    where _whole is lenient: 2.0 is refused, and so is a bool, which
    operator.index would take as 0 or 1."""
    return _convert(key, value, lambda v: _number(v, operator.index), what, FormulaError)


def _pair(value):
    lo, hi = value
    return _number(lo), _number(hi)


def _pairs(value):
    return tuple(_pair(pair) for pair in value)


def _convert(key, value, to, what, error=ValueError):
    """to(value), or error("key: needs what, got value") if that fails."""
    try:
        return to(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{key}: needs {what}, got {value!r}") from None


def _real(key, value, error=ValueError, sign=None):
    """value as a finite float, or error("key: why"). sign "positive" or
    "nonnegative" also bounds it below."""
    x = _convert(key, value, _number, "a number", error)
    if not math.isfinite(x):
        raise error(f"{key}: must be finite")
    if sign is not None and not (x > 0 if sign == "positive" else x >= 0):
        raise error(f"{key}: must be {sign}")
    return x


def _check_flag(key, value, error=ValueError):
    """error("key: needs true or false, got value") unless value is true or
    false. 1, 0 and np.True_ pass; a string such as "false" is truthy, and
    an array's truth is ambiguous, so both are refused."""
    if value is True or value is False:  # the usual case, on every evaluation
        return
    if isinstance(value, np.ndarray) or value not in (True, False):
        raise error(f"{key}: needs true or false, got {value!r}")


def _signal_size(p):
    """p as a signal dimension of at least 1, read as Interval reads its bounds."""
    p = _index("signal dimension p", p)
    if p < 1:
        raise FormulaError("signal dimension p must be at least 1")
    return p


@dataclass(frozen=True)
class LinearPredicate:
    """Affine inequality atom over a single signal sample.

    Encodes the constraint  coefficients . y_t >= offset.  Its robustness
    at time t is the signed margin  coefficients . y_t - offset, positive
    inside the half-space and negative outside.

    The optional label is cosmetic (used for readable region faces) and is
    ignored by equality comparisons.
    """

    coefficients: tuple
    offset: float
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        coeffs = tuple(_real("coefficient", c, FormulaError) for c in self.coefficients)
        if not coeffs:
            raise FormulaError("predicate needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "offset", _real("offset", self.offset, FormulaError))

    @property
    def dim(self):
        return len(self.coefficients)

    def value(self, y):
        """Robustness margin at one sample y (length dim)."""
        return float(np.dot(self.coefficients, y)) - self.offset

    def gradient(self, y):
        """d margin / d y, constant for an affine atom."""
        return np.asarray(self.coefficients, dtype=float)

    def negated(self):
        """Predicate whose margin is the exact negation of this one's."""
        lbl = None if self.label is None else "not " + self.label
        return LinearPredicate(tuple(-c for c in self.coefficients), -self.offset, label=lbl)


@dataclass(frozen=True)
class CallablePredicate:
    """Predicate backed by a user-supplied margin function.

    fn maps one output sample y_t (length dim) to a scalar margin.
    jacobian, when given, maps y_t to the margin's gradient; it is required
    for differentiation. No numeric fallback is injected: differentiating a
    formula containing a jacobian-less callable predicate is an error.
    """

    fn: Callable
    dim: int
    jacobian: Callable | None = None
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not callable(self.fn):
            raise FormulaError("fn must be callable")
        if self.jacobian is not None and not callable(self.jacobian):
            raise FormulaError("jacobian must be callable when given")
        dim = _index("dim", self.dim)
        if dim < 1:
            raise FormulaError("dim: must be positive")
        object.__setattr__(self, "dim", dim)

    def value(self, y):
        return float(self.fn(np.asarray(y, dtype=float)))

    def gradient(self, y):
        if self.jacobian is None:
            name = self.label or "<unnamed>"
            raise FormulaError(
                f"callable predicate {name!r} has no jacobian; supply one to differentiate"
            )
        g = np.asarray(self.jacobian(np.asarray(y, dtype=float)), dtype=float)
        if g.shape != (self.dim,):
            raise FormulaError(
                f"jacobian returned shape {g.shape}, expected ({self.dim},)"
            )
        return g


Predicate = Union[LinearPredicate, CallablePredicate]


@dataclass(frozen=True)
class Interval:
    """Closed integer timestep window [lo, hi] with 0 <= lo <= hi."""

    lo: int
    hi: int

    def __post_init__(self):
        lo = _index("interval bound", self.lo, "whole timesteps")
        hi = _index("interval bound", self.hi, "whole timesteps")
        if lo < 0:
            raise FormulaError(f"interval lower bound must be nonnegative, got {lo}")
        if hi < lo:
            raise FormulaError(f"interval is reversed: [{lo},{hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self):
        return self.hi - self.lo

    def __str__(self):
        return f"[{self.lo},{self.hi}]"


class _Formula:
    """Shared connective sugar and operand check for all node kinds."""

    __slots__ = ()

    def __and__(self, other):
        return conj(self, other)

    def __or__(self, other):
        return disj(self, other)

    def __invert__(self):
        return Not(self)

    def always(self, lo, hi):
        return Always(Interval(lo, hi), self)

    def eventually(self, lo, hi):
        return Eventually(Interval(lo, hi), self)

    def until(self, other, lo, hi):
        return Until(Interval(lo, hi), self, other)

    def release(self, other, lo, hi):
        return Release(Interval(lo, hi), self, other)

    def __str__(self):
        return format_formula(self)

    def __post_init__(self):
        for operand in _operands(self):
            _require_formula(operand, f"{type(self).__name__} operand")


def _require_formula(x, what="operand"):
    if not isinstance(x, _Formula):
        raise FormulaError(f"{what} must be a formula, got {type(x).__name__}")
    return x


@dataclass(frozen=True)
class Pred(_Formula):
    predicate: Predicate

    def __post_init__(self):
        if not isinstance(self.predicate, (LinearPredicate, CallablePredicate)):
            raise FormulaError("Pred wraps a LinearPredicate or CallablePredicate")


@dataclass(frozen=True)
class Not(_Formula):
    child: "Formula"


@dataclass(frozen=True)
class _Connective(_Formula):
    """An n-ary and/or: at least two children, none of its own kind."""

    children: tuple

    def __post_init__(self):
        kind, children = type(self).__name__, tuple(self.children)
        if len(children) < 2:
            raise FormulaError(f"{kind} needs at least two children; use conj()/disj() to build")
        for c in children:
            _require_formula(c, f"{kind} child")
            if type(c) is type(self):
                raise FormulaError(
                    f"{kind} directly under {kind} is not allowed; child lists stay flattened"
                )
        object.__setattr__(self, "children", children)


class And(_Connective):
    pass


class Or(_Connective):
    pass


@dataclass(frozen=True)
class Always(_Formula):
    interval: Interval
    child: "Formula"


@dataclass(frozen=True)
class Eventually(_Formula):
    interval: Interval
    child: "Formula"


@dataclass(frozen=True)
class Until(_Formula):
    interval: Interval
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Release(_Formula):
    interval: Interval
    left: "Formula"
    right: "Formula"


Formula = Union[Pred, Not, And, Or, Always, Eventually, Until, Release]


def _join(kind, formulas):
    """The And or Or of the formulas, splicing in the children of those of
    its own kind; a single formula comes back as it is."""
    flat = []
    for f in formulas:
        flat.extend(f.children if isinstance(_require_formula(f), kind) else (f,))
    if not flat:
        raise FormulaError(f"{'conjunction' if kind is And else 'disjunction'} of nothing")
    return flat[0] if len(flat) == 1 else kind(tuple(flat))


def conj(*formulas):
    """N-ary conjunction; splices nested And children, collapses arity 1."""
    return _join(And, formulas)


def disj(*formulas):
    """N-ary disjunction; splices nested Or children, collapses arity 1."""
    return _join(Or, formulas)


def _operands(phi):
    """phi's child formulas in field order; a FormulaError for anything
    that is not a node."""
    if isinstance(phi, Pred):
        return ()
    if isinstance(phi, (Not, Always, Eventually)):
        return (phi.child,)
    if isinstance(phi, _Connective):
        return phi.children
    if isinstance(phi, (Until, Release)):
        return (phi.left, phi.right)
    raise FormulaError(f"not a formula node: {type(phi).__name__}")


def node_count(phi):
    """Number of AST nodes (predicate atoms count as one node each)."""
    return 1 + sum(node_count(c) for c in _operands(phi))


def is_nnf(phi):
    """True when negation appears only directly above predicates."""
    if isinstance(phi, Not):
        return isinstance(phi.child, Pred)
    return all(is_nnf(c) for c in _operands(phi))


def to_nnf(phi):
    """Negation normal form.

    Pushes negations down to the atoms using the usual dualities:
    and/or, always/eventually and until/release swap under negation.
    The result has the same exact robustness as the input on every
    signal, is idempotent under repeated application, and at most
    doubles the node count.
    """
    return _nnf(phi, False)


# the kind each connective and temporal operator becomes under negation
_DUAL = {
    And: Or, Or: And,
    Always: Eventually, Eventually: Always,
    Until: Release, Release: Until,
}


def _nnf(phi, negate):
    """NNF of phi, or of not phi when negate is set."""
    operands = _operands(phi)
    if isinstance(phi, Pred):
        return Not(phi) if negate else phi
    if isinstance(phi, Not):
        return _nnf(phi.child, not negate)
    kind = _DUAL[type(phi)] if negate else type(phi)
    operands = [_nnf(c, negate) for c in operands]
    if issubclass(kind, _Connective):
        return _join(kind, operands)
    return kind(phi.interval, *operands)


def horizon(phi):
    """Number of future timesteps the formula can look at from its start.

    A signal must provide samples at t .. t+horizon(phi) for evaluation
    at time t to be defined.
    """
    ahead = max((horizon(c) for c in _operands(phi)), default=0)
    if isinstance(phi, (Always, Eventually, Until, Release)):
        return phi.interval.hi + ahead
    return ahead


# Printing. Precedence levels, loosest first: or < and < until/release <
# unary (not, always, eventually) < atoms. The emitted text reparses to a
# structurally identical tree.

_PREC_OR = 1
_PREC_AND = 2
_PREC_UNTIL = 3
_PREC_UNARY = 4
_PREC_ATOM = 5

# the keyword that spells each kind of node but the predicate; the parser
# reads the grammar's reserved words back through the inverse
_KEYWORDS = {
    Not: "not", And: "and", Or: "or",
    Always: "G", Eventually: "F", Until: "U", Release: "R",
}
_RESERVED_WORDS = {word: kind for kind, word in _KEYWORDS.items()}


def format_formula(phi):
    """Render a formula in the textual grammar accepted by parse()."""
    return _fmt(phi, 0)


def _fmt(phi, min_prec):
    text, prec = _fmt_node(phi)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def _fmt_node(phi):
    if isinstance(phi, Pred):
        return _fmt_predicate(phi.predicate), _PREC_ATOM
    word = _KEYWORDS.get(type(phi))
    if word is None:
        raise FormulaError(f"not a formula node: {type(phi).__name__}")
    if isinstance(phi, _Connective):
        prec = _PREC_AND if isinstance(phi, And) else _PREC_OR
        return f" {word} ".join(_fmt(c, prec + 1) for c in phi.children), prec
    if isinstance(phi, (Until, Release)):
        left = _fmt(phi.left, _PREC_UNTIL)
        right = _fmt(phi.right, _PREC_UNARY)
        return f"{left} {word}{phi.interval} {right}", _PREC_UNTIL
    window = getattr(phi, "interval", "")  # a Not has no window
    return f"{word}{window} " + _fmt(phi.child, _PREC_UNARY), _PREC_UNARY


def _fmt_predicate(pred):
    if isinstance(pred, CallablePredicate):
        raise FormulaError(
            "callable predicates have no textual form; only affine atoms print"
        )
    parts = []
    for d, c in enumerate(pred.coefficients):
        if c == 0.0:
            continue
        mag = repr(abs(c))
        if not parts:
            sign = "-" if c < 0 else ""
            parts.append(f"{sign}{mag}*y{d}")
        else:
            joiner = " - " if c < 0 else " + "
            parts.append(f"{joiner}{mag}*y{d}")
    if not parts:
        parts.append(f"{repr(0.0)}*y0")
    return "".join(parts) + f" >= {repr(pred.offset)}"


def _signal_dim(name):
    """The dimension d that the signal variable yd names, or None."""
    return int(name[1:]) if name[:1] == "y" and name[1:].isdecimal() else None


class RegionTable:
    """Named axis-aligned boxes over signal dimensions.

    A region maps a subset of signal dimensions to (lo, hi) bounds. The
    textual grammar lets a region name stand in for the conjunction of its
    face inequalities; `not <name>` expands to the disjunction of the
    negated faces, so membership and avoidance both stay in negation
    normal form after parsing.
    """

    def __init__(self, regions: Mapping[str, Mapping] | None = None):
        regions = {} if regions is None else regions
        if not isinstance(regions, Mapping):
            raise FormulaError(
                f"regions must map region names to bounds, got {type(regions).__name__}"
            )
        self._table = {name: self._check_region(name, faces) for name, faces in regions.items()}

    @staticmethod
    def _check_region(name, faces):
        if not isinstance(name, str) or not name.isidentifier():
            raise FormulaError(f"region name must be an identifier, got {name!r}")
        if name in _RESERVED_WORDS or _signal_dim(name) is not None:
            raise FormulaError(f"region name {name!r} collides with the grammar")
        if not isinstance(faces, Mapping):
            raise FormulaError(
                f"region {name!r}: malformed bounds: expected a mapping from dimensions "
                f"to (lower, upper) pairs, got {type(faces).__name__}"
            )
        if not faces:
            raise FormulaError(f"region {name!r} has no dimensions")
        checked = {}
        for dim, bounds in faces.items():
            try:
                d = int(dim) if isinstance(dim, str) else _number(dim, operator.index)
                lo, hi = _pair(bounds)
            except (TypeError, ValueError):
                raise FormulaError(
                    f"region {name!r}: malformed bounds: dimension {dim!r} needs an "
                    f"integer dimension and a (lower, upper) pair of numbers, got {bounds!r}"
                ) from None
            if d < 0:
                raise FormulaError(f"region {name!r}: dimension must be nonnegative")
            lo = _real(f"region {name!r} lower bound", lo, FormulaError)
            hi = _real(f"region {name!r} upper bound", hi, FormulaError)
            if not lo < hi:
                raise FormulaError(
                    f"region {name!r} dimension {d}: need lower < upper, got [{lo}, {hi}]"
                )
            checked[d] = (lo, hi)
        return dict(sorted(checked.items()))

    def __contains__(self, name):
        return name in self._table

    def __getitem__(self, name):
        return {d: b for d, b in self._table[name].items()}

    def __iter__(self):
        return iter(self._table)

    def __len__(self):
        return len(self._table)

    def __eq__(self, other):
        if not isinstance(other, RegionTable):
            return NotImplemented
        return self._table == other._table

    def __repr__(self):
        return f"RegionTable({self._table!r})"

    def names(self):
        return list(self._table)

    def items(self):
        return [(name, self[name]) for name in self._table]

    def _faces(self, name, p):
        p = _signal_size(p)
        if name not in self._table:
            raise FormulaError(f"unknown region {name!r}")
        faces = []
        for d, (lo, hi) in self._table[name].items():
            if d >= p:
                raise FormulaError(
                    f"region {name!r} uses dimension {d} but the signal has {p}"
                )
            for sign, bound, op in ((1.0, lo, ">="), (-1.0, hi, "<=")):
                unit = [0.0] * p
                unit[d] = sign
                label = f"{name}: y{d} {op} {bound}"
                faces.append(LinearPredicate(tuple(unit), sign * bound, label=label))
        return faces

    def conjunction(self, name, p):
        """Membership formula: the and of all face inequalities."""
        return conj(*[Pred(f) for f in self._faces(name, p)])

    def complement(self, name, p):
        """Avoidance formula: the or of all negated faces, already in NNF."""
        return disj(*[Pred(f.negated()) for f in self._faces(name, p)])

    def inflated(self, margin, names=None):
        """Copy with selected regions grown by margin on every face."""
        margin = _real("inflation margin", margin, FormulaError, "nonnegative")
        grown = {}
        for name in self._table:
            body = self[name]
            if names is None or name in names:
                body = {d: (lo - margin, hi + margin) for d, (lo, hi) in body.items()}
            grown[name] = body
        return RegionTable(grown)

    def to_json_dict(self):
        return {
            name: {str(d): [lo, hi] for d, (lo, hi) in self._table[name].items()}
            for name in self._table
        }

    @classmethod
    def from_json_dict(cls, data):
        return cls(data)
