"""Text input format for free series.

Grammar (whitespace ignored):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' integer)?
    atom   := number | 'i' | 'z'<k> | matrix | '(' expr ')'
    matrix := '[' '[' number (',' number)* ']' (',' '[' ... ']')* ']'

Numbers are decimal floats; coefficients are exact binary floating point.
Variables z1..zd do not commute: z1*z2 and z2*z1 are different words.
Matrix literals give constant matrix coefficients.  Errors carry the
offending position in the input string.
"""

from __future__ import annotations

import re

import numpy as np

from .series import (FreeSeries, constant_series, identity_series,
                     letter_series, multiply, series_degree)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"""\s*(?:
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<var>z\d+)
  | (?P<imag>i)
  | (?P<sym>[-+*^()\[\],])
)""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, d: int, deg: int, shape: tuple[int, int]):
        self.tokens = _tokenize(text)
        self.k = 0
        self.d = d
        self.deg = deg
        self.p, self.q = shape

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.take()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> FreeSeries:
        out = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return out

    def expr(self) -> FreeSeries:
        # leading sign
        sign = 1.0
        while self.peek()[1] in ("+", "-"):
            if self.take()[1] == "-":
                sign = -sign
        out = self.term() * sign
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> FreeSeries:
        out = self.factor()
        while self.peek()[1] == "*":
            self.take()
            rhs = self.factor()
            out = self._mul(out, rhs)
        return out

    def _mul(self, a: FreeSeries, b: FreeSeries) -> FreeSeries:
        da, db = series_degree(a), series_degree(b)
        if da + db > self.deg:
            raise ParseError(
                f"product of degree {da + db} exceeds truncation {self.deg}",
                self.peek()[2])
        if a.q != b.p:
            # scalar coefficients broadcast against matrix ones
            if a.p == a.q == 1:
                a = _scalar_times_eye(a, b.p, b.p)
            elif b.p == b.q == 1:
                b = _scalar_times_eye(b, a.q, a.q)
        return multiply(a, b)

    def factor(self) -> FreeSeries:
        out = self.atom()
        if self.peek()[1] == "^":
            self.take()
        else:
            return out
        kind, val, pos = self.take()
        if kind != "num" or not val.isdigit():
            raise ParseError("exponent must be a nonnegative integer", pos)
        n = int(val)
        acc = identity_series(self.d, self.deg, out.p) if out.p == out.q \
            else None
        if acc is None:
            raise ParseError("cannot raise a non-square series to a power", pos)
        for _ in range(n):
            acc = self._mul(acc, out)
        return acc

    def atom(self) -> FreeSeries:
        kind, val, pos = self.take()
        if kind == "num":
            return constant_series(self.d, self.deg, float(val))
        if kind == "imag":
            return constant_series(self.d, self.deg, 1j)
        if kind == "var":
            k = int(val[1:])
            if not 1 <= k <= self.d:
                raise ParseError(f"variable {val} exceeds alphabet size {self.d}", pos)
            return letter_series(self.d, self.deg, k)
        if val == "(":
            out = self.expr()
            self.expect(")")
            return out
        if val == "[":
            return self.matrix(pos)
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)

    def matrix(self, open_pos: int) -> FreeSeries:
        self.expect("[")
        rows = [self.row()]
        while self.peek()[1] == ",":
            self.take()
            self.expect("[")
            rows.append(self.row())
        self.expect("]")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ParseError("ragged matrix literal", open_pos)
        return constant_series(self.d, self.deg, np.array(rows, dtype=complex))

    def row(self) -> list[complex]:
        # called after the opening '[' of the row has been consumed
        entries = [self.scalar()]
        while self.peek()[1] == ",":
            self.take()
            entries.append(self.scalar())
        self.expect("]")
        return entries

    def scalar(self) -> complex:
        sign = 1.0
        while self.peek()[1] in ("+", "-"):
            if self.take()[1] == "-":
                sign = -sign
        kind, val, pos = self.take()
        if kind == "num":
            value = complex(float(val))
        elif kind == "imag":
            value = 1j
        else:
            raise ParseError("expected a number in matrix literal", pos)
        if kind == "num" and self.peek()[0] == "imag":
            self.take()
            value = value * 1j
        return sign * value


def parse(text: str, d: int, deg: int, shape: tuple[int, int] = (1, 1)) -> FreeSeries:
    """Parse an expression in z1..zd into a FreeSeries."""
    if d < 1 or deg < 0:
        raise ValueError("need d >= 1, deg >= 0")
    parser = _Parser(text, d, deg, shape)
    out = parser.parse()
    if (out.p, out.q) == (1, 1) and shape != (1, 1):
        out = _scalar_times_eye(out, *shape)
    return out


def _scalar_times_eye(F: FreeSeries, p: int, q: int) -> FreeSeries:
    """A scalar series with each coefficient c replaced by c I (p x q)."""
    return FreeSeries(F.d, F.deg, F.array * np.eye(p, q))
