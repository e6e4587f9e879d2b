"""Words of the free monoid on d letters, and the graded-lex index arithmetic.

Words index the orthonormal basis of the truncated Fock space and the
coefficients of every free power series in this package.  Letters are
1-based (``1..d``); the empty tuple is the unit word.  A word is a plain
tuple of ints: concatenation is ``a + b`` and the transpose is
``a[::-1]``.

This module owns the layout of every graded array in the package: words
of length <= N in graded-lex order.  A word of grade g whose letters,
read as base-d digits (letter k is digit k - 1), have value r sits at
``grade_offsets(d, N)[g] + r``.  Concatenation stacks digits, so the
index of w.b or b.w is affine in the index of b within its grade;
``shift_indices`` and ``reversal`` compute such index maps as arrays.
Every entry point that enumerates a basis or sizes a new array checks
``FREEHARDY_MAX_BASIS`` on each call, outside any cache.
``cached_offsets`` does not: it serves code that indexes an array which
already exists, and so passed the cap when it was made.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

DEFAULT_MAX_BASIS = 10**6


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed the configured basis cap."""


def max_basis_size() -> int:
    """Basis cap; overridable through the FREEHARDY_MAX_BASIS env var."""
    raw = os.environ.get("FREEHARDY_MAX_BASIS")
    if raw is None:
        return DEFAULT_MAX_BASIS
    return int(raw)


def word_count(d: int, max_len: int) -> int:
    """Number of words of length <= max_len."""
    if d == 1:
        return max_len + 1
    return (d ** (max_len + 1) - 1) // (d - 1)


def enumerate_tuples(d: int, max_len: int) -> tuple[tuple[int, ...], ...]:
    """All words of length <= max_len as tuples, in graded-lex order.

    Graded order (length first, letters as digits within each grade) keeps
    every multiplication operator block lower triangular and makes grade
    boundaries O(1) to locate.  The cap is checked outside the cache, so
    a lowered FREEHARDY_MAX_BASIS applies to bases enumerated before.
    """
    _check_cap(d, max_len)
    return _graded_tuples(d, max_len)


def _check_cap(d: int, max_len: int) -> None:
    if d < 1 or max_len < 0:
        raise ValueError("need d >= 1 and max_len >= 0")
    limit = max_basis_size()
    if word_count(d, max_len) > limit:
        # the count itself can pass the digits that str() of an int allows
        raise CapacityError(
            f"basis of words of length <= {max_len} on {d} letters exceeds "
            f"cap {limit} (set FREEHARDY_MAX_BASIS to raise it)"
        )


@lru_cache(maxsize=None)
def _graded_tuples(d: int, max_len: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = [()]
    grade: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        grade = [w + (k,) for w in grade for k in range(1, d + 1)]
        out.extend(grade)
    return tuple(out)


def index_map(d: int, max_len: int) -> dict[tuple[int, ...], int]:
    """Position of each word tuple in ``enumerate_tuples(d, max_len)``."""
    _check_cap(d, max_len)
    return _index_map(d, max_len)


@lru_cache(maxsize=None)
def _index_map(d: int, max_len: int) -> dict[tuple[int, ...], int]:
    return {w: i for i, w in enumerate(_graded_tuples(d, max_len))}


def grade_offsets(d: int, N: int) -> list[int]:
    """Position of the first word of each grade 0..N+1 in the graded
    basis of words of length <= N; the last entry is the basis size."""
    _check_cap(d, N)
    return list(cached_offsets(d, N))


@lru_cache(maxsize=None)
def cached_offsets(d: int, N: int) -> tuple[int, ...]:
    """grade_offsets with no cap check, for indexing an existing array."""
    if d < 1 or N < 0:
        raise ValueError("need d >= 1 and max_len >= 0")
    return tuple(word_count(d, g - 1) for g in range(N + 2))


def shift_indices(d: int, N: int, w: tuple[int, ...],
                  left: bool) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (rows, cols) pairing the position of w.b (left) or
    b.w (right) with the position of b, for every word b of length
    <= N - |w|, in graded order of b."""
    off = grade_offsets(d, N)
    ga = len(w)
    if ga > N:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    r = 0  # rank of w within its grade
    for k in w:
        r = r * d + (k - 1)
    rows = []
    for gb in range(N - ga + 1):
        rel = np.arange(d ** gb, dtype=np.int64)
        if left:
            rows.append(off[ga + gb] + r * d ** gb + rel)
        else:
            rows.append(off[ga + gb] + rel * d ** ga + r)
    return np.concatenate(rows), np.arange(off[N - ga + 1], dtype=np.int64)


def reversal(d: int, N: int) -> np.ndarray:
    """Permutation sending the position of each word of length <= N to
    the position of the reversed word; cached, so read-only."""
    _check_cap(d, N)
    return _reversal(d, N)


@lru_cache(maxsize=None)
def _reversal(d: int, N: int) -> np.ndarray:
    off = grade_offsets(d, N)
    out = np.empty(off[-1], dtype=np.int64)
    for g in range(N + 1):
        rel = np.arange(d ** g, dtype=np.int64)
        rev = np.zeros_like(rel)
        digits = rel.copy()
        for _ in range(g):
            rev = rev * d + digits % d
            digits //= d
        out[off[g]:off[g + 1]] = off[g] + rev
    out.flags.writeable = False
    return out
