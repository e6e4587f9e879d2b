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

The parser multiplies out (word, coefficient) terms and builds the
coefficient array once, with the floating-point steps of the series
operations on the dense array: a product's coefficient at w adds
F_b @ G_c to zero over the splits w = b.c by increasing |b|, and a sign
flip or a sum also reaches the zeros of the words it does not list.
Two results can differ from the dense computation: a product of two
matrix factors whose dot products sum two or more inexact terms, in the
last place (BLAS rounds these by the batch shape, which for the dense
array depends on d and the grade); and a product with a non-finite
coefficient, which the dense array spreads as NaN over words that no
term reaches.
"""

from __future__ import annotations

import re

import numpy as np

from .series import FreeSeries
from .words import index_map


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


class _Terms:
    """A series being parsed: the p x q coefficients of the words it
    lists, and `rest`, the block every other word holds.  rest is zero,
    but with the signs that a sign flip gives the dense array's zeros."""

    def __init__(self, terms: dict, rest: np.ndarray):
        self.terms = terms
        self.rest = rest
        self.p, self.q = rest.shape

    @classmethod
    def single(cls, word: tuple, m) -> "_Terms":
        m = np.atleast_2d(np.asarray(m, dtype=complex))
        return cls({word: m}, np.zeros(m.shape, dtype=complex))

    def degree(self) -> int:
        """series_degree of the dense array: a NaN counts as nonzero."""
        return max((len(w) for w, m in self.terms.items() if m.any()), default=0)

    def times(self, scalar) -> "_Terms":
        """Each coefficient times a float or a float array, every unlisted
        word's zero too."""
        return _Terms({w: m * scalar for w, m in self.terms.items()},
                      self.rest * scalar)

    def __add__(self, other: "_Terms") -> "_Terms":
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("series shape/alphabet mismatch")
        terms = {w: m + other.terms.get(w, other.rest)
                 for w, m in self.terms.items()}
        terms.update((w, self.rest + m) for w, m in other.terms.items()
                     if w not in self.terms)
        return _Terms(terms, self.rest + other.rest)


class _Parser:
    def __init__(self, text: str, d: int, deg: int):
        self.tokens = _tokenize(text)
        index_map(d, deg)  # the basis cap, before any atom
        self.k = 0
        self.d = d
        self.deg = deg

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

    def parse(self) -> _Terms:
        out = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return out

    def expr(self) -> _Terms:
        # leading sign
        sign = 1.0
        while self.peek()[1] in ("+", "-"):
            if self.take()[1] == "-":
                sign = -sign
        out = self.term().times(sign)
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            out = out + (rhs if op == "+" else rhs.times(-1.0))
        return out

    def term(self) -> _Terms:
        out = self.factor()
        while self.peek()[1] == "*":
            self.take()
            rhs = self.factor()
            out = self._mul(out, rhs)
        return out

    def _mul(self, a: _Terms, b: _Terms) -> _Terms:
        da, db = a.degree(), b.degree()
        if da + db > self.deg:
            raise ParseError(
                f"product of degree {da + db} exceeds truncation {self.deg}",
                self.peek()[2])
        if a.q != b.p:
            # scalar coefficients broadcast against matrix ones
            if a.p == a.q == 1:
                a = a.times(np.eye(b.p))
            elif b.p == b.q == 1:
                b = b.times(np.eye(a.q))
        if a.q != b.p:
            raise ValueError("shape mismatch in series product")
        zero = np.zeros((a.p, b.q), dtype=complex)
        terms: dict = {}
        for u, x in sorted(a.terms.items(), key=lambda t: len(t[0])):
            for v, y in b.terms.items():
                if len(u) + len(v) <= self.deg:
                    terms[u + v] = terms.get(u + v, zero) + x @ y
        return _Terms(terms, zero)

    def factor(self) -> _Terms:
        out = self.atom()
        if self.peek()[1] == "^":
            self.take()
        else:
            return out
        kind, val, pos = self.take()
        if kind != "num" or not val.isdigit():
            raise ParseError("exponent must be a nonnegative integer", pos)
        if out.p != out.q:
            raise ParseError("cannot raise a non-square series to a power", pos)
        acc = _Terms.single((), np.eye(out.p))
        for _ in range(int(val)):
            acc = self._mul(acc, out)
        return acc

    def atom(self) -> _Terms:
        kind, val, pos = self.take()
        if kind == "num":
            return _Terms.single((), float(val))
        if kind == "imag":
            return _Terms.single((), 1j)
        if kind == "var":
            k = int(val[1:])
            if not 1 <= k <= self.d:
                raise ParseError(f"variable {val} exceeds alphabet size {self.d}", pos)
            if not self.deg:  # as FreeSeries.from_terms refuses the letter
                raise ValueError(f"word {(k,)} exceeds degree 0")
            return _Terms.single((k,), 1.0)
        if val == "(":
            out = self.expr()
            self.expect(")")
            return out
        if val == "[":
            return self.matrix(pos)
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)

    def matrix(self, open_pos: int) -> _Terms:
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
        return _Terms.single((), np.array(rows, dtype=complex))

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
    out = _Parser(text, d, deg).parse()
    if (out.p, out.q) == (1, 1) and shape != (1, 1):
        out = out.times(np.eye(*shape))
    F = FreeSeries.from_terms(d, deg, out.p, out.q, out.terms)
    if out.rest.view(np.uint64).any():  # zeros signed by a leading '-'
        unlisted = np.ones(len(F.array), dtype=bool)
        unlisted[[index_map(d, deg)[w] for w in out.terms]] = False
        F.array[unlisted] = out.rest
    return F
