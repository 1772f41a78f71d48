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


def _whole(key, value, error=ValueError, sign=None):
    """value as an int, or error("key: needs a whole number, got value"): 2.0
    passes, and 2.5 never truncates to 2. A bool or a string is no number
    (see _number). sign bounds it below, as in _real."""
    try:
        number = _number(value, int)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise error(f"{key}: needs a whole number, got {value!r}")
    return _signed(key, number, sign, error)


def _index(key, value, what="a whole number", sign=None):
    """value as an int, or FormulaError("key: needs what, got value"). Strict
    where _whole is lenient: 2.0 is refused, and so is a bool, which
    operator.index would take as 0 or 1. sign bounds it below, as in _real."""
    number = _convert(key, value, lambda v: _number(v, operator.index), what, FormulaError)
    return _signed(key, number, sign, FormulaError)


def _convert(key, value, to, what, error=ValueError):
    """to(value), or error("key: needs what, got value") if that fails."""
    try:
        return to(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{key}: needs {what}, got {value!r}") from None


def _check_text(key, value, error=ValueError):
    """error("key: needs a string, got value") unless value is a str."""
    if not isinstance(value, str):
        raise error(f"{key}: needs a string, got {value!r}")


def _signed(key, x, sign, error):
    """x, or error("key: must be sign") unless sign is None, or x is above 0
    ("positive") or not below it ("nonnegative")."""
    if sign is not None and not (x > 0 if sign == "positive" else x >= 0):
        raise error(f"{key}: must be {sign}")
    return x


def _real(key, value, error=ValueError, sign=None):
    """value as a finite float, or error("key: why"). sign "positive" or
    "nonnegative" also bounds it below."""
    x = _convert(key, value, _number, "a number", error)
    if not math.isfinite(x):
        raise error(f"{key}: must be finite")
    return _signed(key, x, sign, error)


def _numbers(key, value, error=ValueError, shape=None):
    """value as a float ndarray, finite or not, or error("key: why"). An
    ndarray of integer or float dtype passes as it is, and one of float64
    is not copied; anything else is read entry by entry with _number, so a
    bool, a string, a complex number, None or a ragged nesting is no
    number. shape, when given, is the shape it must have, where None
    stands for any positive length (* in the message)."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        value = _convert(key, value, lambda v: np.array(_entries(v), dtype=float), "numbers", error)
    arr = np.asarray(value, dtype=float)
    # the exact shape first: a model's hooks are read three times a round
    if shape is not None and arr.shape != shape and (arr.ndim != len(shape) or any(
            n < 1 if m is None else n != m for n, m in zip(arr.shape, shape))):
        want = ", ".join("*" if m is None else str(m) for m in shape)
        want += "," if len(shape) == 1 else ""  # as Python writes (3,)
        raise error(f"{key}: needs shape ({want}), got {arr.shape}")
    return arr


def _array(key, value, error=ValueError, shape=None):
    """value read by _numbers, and finite, or error("key: why")."""
    arr = _numbers(key, value, error, shape)
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0].tolist()
        where = f" at {bad}" if bad else ""  # a 0-d value has no index
        raise error(f"{key}: must be finite, got {arr[tuple(bad)]}{where}")
    return arr


def _entries(value):
    """value's numbers, read by _number, nested as in its lists, tuples and
    arrays."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_entries(v) for v in value]
    return _number(value)


def _check_flag(key, value, error=ValueError):
    """error("key: needs true or false, got value") unless value is true or
    false. 1, 0 and np.True_ pass; a string such as "false" is truthy, and
    an array's truth is ambiguous, so both are refused."""
    if value is True or value is False:  # the usual case, on every evaluation
        return
    if isinstance(value, np.ndarray) or value not in (True, False):
        raise error(f"{key}: needs true or false, got {value!r}")


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
        coeffs = _convert("coefficients", self.coefficients, tuple, "a list", FormulaError)
        coeffs = tuple(_real("coefficient", c, FormulaError) for c in coeffs)
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

    Their results are read as arguments are, finiteness aside: a margin
    is a real number (a Python or numpy scalar) and a gradient numbers of
    shape (dim,), so a complex, bool or string result, None, or a wrong
    shape raises FormulaError("fn: why") or ("jacobian: why"). A
    non-finite margin is refused by evaluate and is divergence in
    synthesis.
    """

    fn: Callable
    dim: int
    jacobian: Callable | None = None
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not callable(self.fn):
            raise FormulaError("fn: must be callable")
        if self.jacobian is not None and not callable(self.jacobian):
            raise FormulaError("jacobian: must be callable when given")
        object.__setattr__(self, "dim", _index("dim", self.dim, sign="positive"))

    def value(self, y):
        margin = self.fn(np.asarray(y, dtype=float))
        return _convert("fn", margin, _number, "a number", FormulaError)

    def gradient(self, y):
        if self.jacobian is None:
            name = self.label or "<unnamed>"
            raise FormulaError(
                f"callable predicate {name!r} has no jacobian; supply one to differentiate"
            )
        g = self.jacobian(np.asarray(y, dtype=float))
        return _numbers("jacobian", g, FormulaError, (self.dim,))


Predicate = Union[LinearPredicate, CallablePredicate]


@dataclass(frozen=True)
class Interval:
    """Closed integer timestep window [lo, hi] with 0 <= lo <= hi."""

    lo: int
    hi: int

    def __post_init__(self):
        lo = _index("interval bound", self.lo, "whole timesteps", "nonnegative")
        hi = _index("interval bound", self.hi, "whole timesteps")
        if hi < lo:
            raise FormulaError(f"interval: needs lo <= hi, got [{lo},{hi}]")
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
    ahead = {}  # by node identity, so a subformula shared by parents is walked once

    def walk(node):
        if id(node) not in ahead:
            reach = max((walk(c) for c in _operands(node)), default=0)
            if isinstance(node, (Always, Eventually, Until, Release)):
                reach += node.interval.hi
            ahead[id(node)] = reach
        return ahead[id(node)]

    return walk(phi)


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
                f"regions: must map region names to bounds, got {type(regions).__name__}"
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
                # digits only, as in a signal variable; _number refuses any other string
                d = int(dim) if isinstance(dim, str) and dim.isdecimal() else _number(dim, operator.index)
                lo, hi = map(_number, bounds)
            except (TypeError, ValueError):
                raise FormulaError(
                    f"region {name!r}: malformed bounds: dimension {dim!r} needs an "
                    f"integer dimension and a (lower, upper) pair of numbers, got {bounds!r}"
                ) from None
            _signed(f"region {name!r} dimension", d, "nonnegative", FormulaError)
            lo = _real(f"region {name!r} lower bound", lo, FormulaError)
            hi = _real(f"region {name!r} upper bound", hi, FormulaError)
            if not lo < hi:
                raise FormulaError(
                    f"region {name!r} dimension {d}: needs lower < upper, got [{lo}, {hi}]"
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
        p = _index("signal dimension p", p, sign="positive")
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
