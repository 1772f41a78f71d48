"""Text grammar for formulas.

Grammar, whitespace-insensitive, with '#' comments running to end of line:

    formula   := or
    or        := and ('or' and)*
    and       := until ('and' until)*
    until     := unary (('U' | 'R') window unary)*
    unary     := 'not' unary | 'G' window unary | 'F' window unary | atom
    window    := '[' int ',' int ']'
    atom      := '(' formula ')' | predicate | region-name
    predicate := sum '>=' signed-number
    sum       := ['-'] term (('+' | '-') term)*
    term      := number ['*' yvar] | yvar

The keywords are spelled once, in formula._KEYWORDS, which the printer
writes from; the parser reads them back through its inverse. A y followed
by digits is a signal variable (formula._signal_dim), never a region name.

Temporal and `not` operators bind to the immediately following formula, so
`G[0,2] p and q` is `(G[0,2] p) and q`. Until/release chain to the left.
A bare region name expands to the conjunction of its face inequalities;
`not <region>` expands to the disjunction of the negated faces. Bare
numeric terms on the left of '>=' fold into the threshold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .formula import (
    Always,
    And,
    Eventually,
    FormulaError,
    Interval,
    LinearPredicate,
    Not,
    Or,
    Pred,
    RegionTable,
    Release,
    Until,
    _RESERVED_WORDS,
    _check_text,
    _index,
    _join,
    _signal_dim,
)

__all__ = ["ParseError", "parse"]


class ParseError(ValueError):
    """Syntax or lookup failure, carrying the 1-based source position."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<NUM>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<GE>>=)
  | (?P<LBRACK>\[) | (?P<RBRACK>\])
  | (?P<LPAREN>\() | (?P<RPAREN>\))
  | (?P<COMMA>,) | (?P<STAR>\*) | (?P<PLUS>\+) | (?P<MINUS>-)
    """,
    re.VERBOSE,
)

# the connectives, loosest first
_CONNECTIVES = (Or, And)


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "IDENT" and _signal_dim(chunk) is not None:
            kind = "VAR"
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, regions, p):
        self.tokens = tokens
        self.pos = 0
        self.regions = regions
        self.p = p

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ParseError(f"expected {what}, got {got!r}", tok.line, tok.col)
        return self.advance()

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def _keyword(self):
        """The kind of node the next token's keyword spells, or None."""
        tok = self.peek()
        return _RESERVED_WORDS.get(tok.text) if tok.kind == "IDENT" else None

    # precedence ladder

    def parse_formula(self, level=0):
        if level == len(_CONNECTIVES):
            return self.parse_until()
        kind = _CONNECTIVES[level]
        parts = [self.parse_formula(level + 1)]
        while self._keyword() is kind:
            self.advance()
            parts.append(self.parse_formula(level + 1))
        return _join(kind, parts)

    def parse_until(self):
        left = self.parse_unary()
        while (kind := self._keyword()) in (Until, Release):
            self.advance()
            left = kind(self.parse_window(), left, self.parse_unary())
        return left

    def parse_unary(self):
        kind = self._keyword()
        if kind is Not:
            self.advance()
            nxt = self.peek()
            if nxt.kind == "IDENT" and self._keyword() not in (Not, Always, Eventually):
                # bare `not <region>` expands directly to negated faces
                self.advance()
                return self._region(nxt, complement=True)
            return Not(self.parse_unary())
        if kind in (Always, Eventually):
            self.advance()
            return kind(self.parse_window(), self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.parse_formula()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind in ("NUM", "MINUS", "VAR"):
            return self.parse_predicate()
        if tok.kind == "IDENT":
            if tok.text in _RESERVED_WORDS:
                self.fail(f"unexpected keyword {tok.text!r}")
            self.advance()
            return self._region(tok, complement=False)
        self.fail(f"expected a formula, got {tok.text or 'end of input'!r}")

    # pieces

    def parse_window(self):
        self.expect("LBRACK", "'['")
        lo = self._window_bound()
        self.expect("COMMA", "','")
        hi = self._window_bound()
        closing = self.expect("RBRACK", "']'")
        if hi < lo:
            self.fail(f"reversed window [{lo},{hi}]", closing)
        return Interval(lo, hi)

    def _window_bound(self):
        tok = self.peek()
        if tok.kind == "MINUS":
            self.fail("window bounds must be nonnegative")
        tok = self.expect("NUM", "a timestep")
        if not tok.text.isdigit():
            self.fail(f"window bounds must be whole timesteps, got {tok.text!r}", tok)
        return int(tok.text)

    def _region(self, tok, complement):
        if self.regions is None or tok.text not in self.regions:
            self.fail(f"unknown region {tok.text!r}", tok)
        try:
            if complement:
                return self.regions.complement(tok.text, self.p)
            return self.regions.conjunction(tok.text, self.p)
        except FormulaError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def parse_predicate(self):
        coeffs = [0.0] * self.p
        shift = 0.0
        first = True
        while True:
            sign = 1.0
            tok = self.peek()
            if tok.kind == "MINUS":
                self.advance()
                sign = -1.0
            elif tok.kind == "PLUS" and not first:
                self.advance()
            dim, value = self._term()
            if dim is None:
                shift += sign * value
            else:
                coeffs[dim] += sign * value
            first = False
            if self.peek().kind not in ("PLUS", "MINUS"):
                break
        self.expect("GE", "'>='")
        offset = self._signed_number() - shift
        return Pred(LinearPredicate(tuple(coeffs), offset))

    def _term(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            value = float(tok.text)
            if self.peek().kind == "STAR":
                self.advance()
                var = self.expect("VAR", "a signal variable like y0")
                return self._var_dim(var), value
            return None, value
        if tok.kind == "VAR":
            self.advance()
            return self._var_dim(tok), 1.0
        self.fail(f"expected a term, got {tok.text or 'end of input'!r}")

    def _var_dim(self, tok):
        dim = _signal_dim(tok.text)
        if dim >= self.p:
            self.fail(f"signal has {self.p} dimensions, so {tok.text!r} is out of range", tok)
        return dim

    def _signed_number(self):
        sign = 1.0
        if self.peek().kind == "MINUS":
            self.advance()
            sign = -1.0
        tok = self.expect("NUM", "a number")
        return sign * float(tok.text)


def parse(text, regions=None, p=2):
    """Parse formula text into an AST.

    @param text:    formula source string, possibly spanning several lines
    @param regions: RegionTable resolving bare region names, or None
    @param p:       signal dimension, a whole number of at least 1 (else
                    FormulaError); out-of-range y-variables are rejected

    Raises ParseError with a 1-based line and column on any syntax error,
    unknown region, fractional or reversed window, or out-of-range
    dimension.
    """
    if regions is not None and not isinstance(regions, RegionTable):
        regions = RegionTable(regions)
    _check_text("text", text, FormulaError)
    parser = _Parser(_tokenize(text), regions, _index("signal dimension p", p, sign="positive"))
    phi = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.fail(f"unexpected trailing input {tok.text!r}")
    return phi
