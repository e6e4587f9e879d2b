"""Words of the free monoid on d letters.

Words index the orthonormal basis of the truncated Fock space and the
coefficients of every free power series in this package.  Letters are
1-based (``1..d``); the empty tuple is the unit word.  Throughout the
package the lightweight representation of a word is a plain tuple of
ints; the :class:`Word` class adds alphabet validation and JSON
round-tripping on top of that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

DEFAULT_MAX_BASIS = 10**6


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed the configured basis cap."""


def max_basis_size() -> int:
    """Basis cap; overridable through the FREEHARDY_MAX_BASIS env var."""
    raw = os.environ.get("FREEHARDY_MAX_BASIS")
    if raw is None:
        return DEFAULT_MAX_BASIS
    return int(raw)


@dataclass(frozen=True)
class Word:
    """A word in the free monoid on ``d`` letters (letters are 1-based)."""

    letters: tuple[int, ...]
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("alphabet size must be positive")
        object.__setattr__(self, "letters", tuple(int(k) for k in self.letters))
        for k in self.letters:
            if not 1 <= k <= self.d:
                raise ValueError(f"letter {k} outside 1..{self.d}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def to_json(self) -> list[int]:
        return list(self.letters)

    @classmethod
    def from_json(cls, data: Sequence[int], d: int) -> "Word":
        return cls(tuple(data), d)


def concat(a: Word, b: Word) -> Word:
    """Concatenate two words over the same alphabet."""
    if a.d != b.d:
        raise ValueError(f"alphabet mismatch: {a.d} != {b.d}")
    return Word(a.letters + b.letters, a.d)


def dagger(a: Word) -> Word:
    """Transpose (letter reversal); an involutive anti-homomorphism."""
    return Word(a.letters[::-1], a.d)


def left_quotient(a: Word, b: Word):
    """Return the word g with b = a.g when a is a prefix of b, else None.

    None plays the role of "not divisible"; it is a value, not an error.
    """
    if a.d != b.d:
        raise ValueError(f"alphabet mismatch: {a.d} != {b.d}")
    n = len(a.letters)
    if b.letters[:n] != a.letters:
        return None
    return Word(b.letters[n:], a.d)


def word_count(d: int, max_len: int) -> int:
    """Number of words of length <= max_len."""
    if d == 1:
        return max_len + 1
    return (d ** (max_len + 1) - 1) // (d - 1)


def enumerate_tuples(d: int, max_len: int, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All words of length <= max_len as tuples, in graded-lex order.

    Graded order (length first, letters as digits within each grade) keeps
    every multiplication operator block lower triangular and makes grade
    boundaries O(1) to locate.  The cap is checked outside the cache, so
    a lowered FREEHARDY_MAX_BASIS applies to bases enumerated before.
    """
    if d < 1 or max_len < 0:
        raise ValueError("need d >= 1 and max_len >= 0")
    limit = cap if cap is not None else max_basis_size()
    total = word_count(d, max_len)
    if total > limit:
        raise CapacityError(
            f"basis of {total} words exceeds cap {limit} "
            f"(set FREEHARDY_MAX_BASIS to raise it)"
        )
    return _graded_tuples(d, max_len)


@lru_cache(maxsize=None)
def _graded_tuples(d: int, max_len: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = [()]
    grade: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        grade = [w + (k,) for w in grade for k in range(1, d + 1)]
        out.extend(grade)
    return tuple(out)


def enumerate_words(d: int, max_len: int) -> list[Word]:
    """Graded enumeration as :class:`Word` values; position 0 is the unit."""
    return [Word(w, d) for w in enumerate_tuples(d, max_len)]


@lru_cache(maxsize=None)
def index_map(d: int, max_len: int) -> dict[tuple[int, ...], int]:
    """Word tuple -> position in ``enumerate_tuples(d, max_len)``."""
    return {w: i for i, w in enumerate(enumerate_tuples(d, max_len))}
