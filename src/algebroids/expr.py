"""Parser for the expression grammar used by spec files and the CLI.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-'* atom ('^' INT)?
    atom   := RATIONAL | IDENT | '(' expr ')'

Rational literals look like `3` or `1/2`; negative literals are unary minus
applied to a literal.  Identifiers are `[A-Za-z_][A-Za-z0-9_]*` followed by
any number of trailing `*` characters (momentum markers), so `x*` is a single
identifier and products must be spelled with an explicit `*` surrounded by
whitespace (`x* * y`).  Juxtaposition is not multiplication.  `^` takes a
non-negative integer exponent.  Odd identifiers multiply in the order
written; the normal form (and its Koszul sign) is produced on parse.
Parentheses nest at most MAX_DEPTH deep; an exponent, and the total degree
of every monomial of a product or power, is at most MAX_DEGREE; a product or
power whose term count can exceed MAX_TERMS is refused before it is expanded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .errors import ParseError, UndeclaredVariable
from .gpoly import Chart, GPoly

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*\*{0,3})
  | (?P<op>[-+*^()])
""", re.VERBOSE)

MAX_DEPTH = 100   # parenthesis nesting; each level costs four parser frames
MAX_DEGREE = 200  # total degree of a monomial; it keeps the Leibniz
#                   recursion the tests check the bracket engine against,
#                   one frame per factor, within Python's stack
MAX_TERMS = 10_000  # terms a product or power may expand to


def _within_terms(bound: int, line: int, col: int):
    """Refuse a product before it is expanded when its term-count bound is
    above the budget."""
    if bound > MAX_TERMS:
        raise ParseError(f"a product of up to {bound} terms is above "
                         f"{MAX_TERMS} terms", line, col)


def _within_degree(poly: GPoly, line: int, col: int) -> GPoly:
    if any(sum(poly.chart.unpack(m)) > MAX_DEGREE for m in poly.terms):
        raise ParseError(f"a monomial of degree above {MAX_DEGREE}", line, col)
    return poly


def tokenize(text: str, line: int = 1):
    tokens = []
    pos = 0
    col = 1
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, chart: Chart):
        self.tokens = tokens
        self.chart = chart
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> GPoly:
        out = self.expr()
        kind, value, line, col = self.peek()
        if kind != "eof":
            if kind in ("ident", "num") or value == "(":
                raise ParseError(
                    f"missing operator before {value!r} (juxtaposition is not multiplication)",
                    line, col, expected=["+", "-", "*", "^"])
            raise ParseError(f"unexpected {value!r}", line, col)
        return out

    def expr(self) -> GPoly:
        out = self.term()
        while True:
            kind, value, _, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                out = out + rhs if value == "+" else out - rhs
            else:
                return out

    def term(self) -> GPoly:
        out = self.factor()
        while True:
            kind, value, _, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                _, _, line, col = self.peek()
                rhs = self.factor()
                _within_terms(len(out.terms) * len(rhs.terms), line, col)
                out = _within_degree(out * rhs, line, col)
            else:
                return out

    def factor(self) -> GPoly:
        sign = 1
        while True:
            kind, value, _, _ = self.peek()
            if kind == "op" and value == "-":
                self.next()
                sign = -sign
            else:
                break
        _, _, start_line, start_col = self.peek()
        out = self.atom()
        kind, value, line, col = self.peek()
        if kind == "op" and value == "^":
            self.next()
            kind, value, line, col = self.peek()
            if kind != "num" or "/" in value:
                raise ParseError("exponent must be a non-negative integer",
                                 line, col, expected=["integer"])
            if int(value) > MAX_DEGREE:
                raise ParseError(f"exponent {value} is above {MAX_DEGREE}",
                                 line, col)
            self.next()
            n, t = int(value), len(out.terms)
            # the n-th power of t terms has at most as many terms as there
            # are monomials of degree n in t letters
            if t:
                _within_terms(comb(t + n - 1, n), start_line, start_col)
            out = _within_degree(out ** n, start_line, start_col)
        return out if sign > 0 else -out

    def atom(self) -> GPoly:
        kind, value, line, col = self.next()
        if kind == "num":
            try:
                return self.chart.const(Fraction(value))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {value!r}",
                                 line, col) from None
        if kind == "ident":
            if not self.chart.has(value):
                raise UndeclaredVariable(value, line, col)
            return self.chart.var_poly(value)
        if kind == "op" and value == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_DEPTH}", line, col)
            out = self.expr()
            self.depth -= 1
            kind, value, line, col = self.next()
            if value != ")":
                raise ParseError("unbalanced parenthesis", line, col,
                                 expected=[")"])
            return out
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input",
                         line, col, expected=["literal", "identifier", "("])


def parse_expression(text: str, chart: Chart, line: int = 1) -> GPoly:
    """Parse an expression string into a normal-form polynomial on `chart`."""
    return _Parser(tokenize(text, line), chart).parse()
