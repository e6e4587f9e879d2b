"""Free power series with matrix coefficients, truncated by total degree.

A FreeSeries holds one complex array of shape (word_count(d, deg), p, q),
the p x q coefficient of each word in the graded-lex layout of
:mod:`freehardy.words`.  Lower degrees are a prefix of that layout, so
truncating or zero-padding to another degree is a slice or a pad.
Evaluation at a d-tuple of n x n matrices Z follows the convention

    F(Z) = sum_alpha Z^alpha (x) F_alpha,   Z^alpha = Z_{i1} ... Z_{i|alpha|},

with the matrix level as the outer Kronecker factor.  evaluate takes a
point or a stack of blocks alike, and sums over the words in one matrix
product with the word powers.  Products clip to the smaller carried
degree; overflow coefficients are dropped, never wrapped.

In this layout, grade g of a product is a sum over s of row-major outer
products of grade s of one factor with grade g - s of the other: one
BLAS matrix product per pair of grades, over max(0, g - deg G) <= s <=
min(g, deg F) only, deg being the degree of the nonzero part.  So Cayley
transforms at degree 12..16 over d = 2 stay fast.

Work stops where the rest is known to be zero, and the results are those
of the full computation bit for bit (a grade of word powers left unwritten
up to the sign of its zeros): series_degree scans the grades from the top
down to the first nonzero one; word_powers stops at the first grade whose
product is all zero, so at a point jointly nilpotent of order k it
multiplies out k grades; and cayley writes I -/+ F and 2 X^{-1} -/+ I in
place around its one inverse.

The norm of the left multiplier T = sum_w F_w (x) L_w is bracketed from
both sides.  schur_norm_estimate is the norm of T on words of length
<= N, a lower bound that grows with N.  schur_norm_bound reads the terms
alone: on term words that are pairwise not prefixes of one another T is
a column of isometries with orthogonal ranges, of norm
||sum F_w* F_w||^(1/2), and the bound sums that over the levels of the
prefix order.  With one level it is the norm, and the model-space gate
in gleason reads it first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import Side
from .words import (cached_offsets, enumerate_tuples, grade_offsets,
                    index_map, reversal, shift_indices, word_count)


@dataclass
class FreeSeries:
    """The coefficients of the words of length <= deg as one array:
    array[i] is the p x q coefficient at the i-th word of
    enumerate_tuples(d, deg).  The constructor checks the shape once;
    from_terms and from_json are the entry points for outside input."""

    d: int
    deg: int
    array: np.ndarray

    def __post_init__(self):
        self.array = np.asarray(self.array, dtype=complex)
        n = word_count(self.d, self.deg)
        if self.array.ndim != 3 or len(self.array) != n:
            raise ValueError(f"coefficient array of shape {self.array.shape} "
                             f"does not have {n} rows")

    @property
    def p(self) -> int:
        return self.array.shape[1]

    @property
    def q(self) -> int:
        return self.array.shape[2]

    @classmethod
    def from_terms(cls, d: int, deg: int, p: int, q: int,
                   terms) -> "FreeSeries":
        """The series with the given {word: p x q matrix} terms, or
        (word, matrix) pairs; other words get zero.  Refuses letters
        outside 1..d, words longer than deg, a word given twice, another
        shape and bool entries."""
        idx = index_map(d, deg)
        out = np.zeros((len(idx), p, q), dtype=complex)
        seen = set()
        for w, m in (terms.items() if isinstance(terms, dict) else terms):
            w = tuple(w)
            if len(w) > deg:
                raise ValueError(f"word {w} exceeds degree {deg}")
            if any(not 1 <= k <= d for k in w):
                raise ValueError(f"word {w} has letters outside 1..{d}")
            if w in seen:
                raise ValueError(f"word {w} is given twice")
            seen.add(w)
            _refuse_bools(m)
            m = np.asarray(m, dtype=complex)
            if m.shape != (p, q):
                raise ValueError(f"coefficient at {w} has shape {m.shape}, "
                                 f"expected ({p}, {q})")
            out[idx[w]] = m
        return cls(d, deg, out)

    def terms(self):
        """(word, coefficient) for each nonzero coefficient, in graded
        order."""
        words = enumerate_tuples(self.d, self.deg)
        for i in np.flatnonzero(self.array.any(axis=(1, 2))):
            yield words[i], self.array[i]

    def coeff(self, word) -> np.ndarray:
        i = index_map(self.d, self.deg).get(tuple(word))
        if i is None:
            return np.zeros((self.p, self.q), dtype=complex)
        return self.array[i]

    def copy(self) -> "FreeSeries":
        return FreeSeries(self.d, self.deg, self.array.copy())

    def truncate(self, deg: int) -> "FreeSeries":
        """The same coefficients carried to degree deg: a prefix of the
        array in graded order (a view of it), zero-padded when
        deg > self.deg; only the padding checks the basis cap."""
        if deg <= self.deg:
            return FreeSeries(self.d, deg,
                              self.array[:cached_offsets(self.d, deg)[-1]])
        out = np.zeros((grade_offsets(self.d, deg)[-1], self.p, self.q),
                       dtype=complex)
        out[:len(self.array)] = self.array
        return FreeSeries(self.d, deg, out)

    def __add__(self, other: "FreeSeries") -> "FreeSeries":
        if (self.d, self.p, self.q) != (other.d, other.p, other.q):
            raise ValueError("series shape/alphabet mismatch")
        deg = min(self.deg, other.deg)
        return FreeSeries(self.d, deg, self.truncate(deg).array
                          + other.truncate(deg).array)

    def __sub__(self, other: "FreeSeries") -> "FreeSeries":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "FreeSeries":
        return FreeSeries(self.d, self.deg, self.array * scalar)

    __rmul__ = __mul__

    def max_coeff_diff(self, other: "FreeSeries") -> float:
        deg = max(self.deg, other.deg)
        diff = self.truncate(deg).array - other.truncate(deg).array
        return float(np.max(np.abs(diff), initial=0.0))

    def to_json(self) -> dict:
        """The file format; terms lists the nonzero coefficients only."""
        terms = [{"word": list(w), "re": m.real.tolist(),
                  "im": m.imag.tolist()} for w, m in self.terms()]
        return {"d": self.d, "deg": self.deg, "p": self.p, "q": self.q,
                "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "FreeSeries":
        terms = []
        for t in json_field(data, "terms", list):
            word, re, im = (json_field(t, k, list) for k in ("word", "re", "im"))
            if not all(type(k) is int for k in word):
                raise ValueError(f"field 'word' holds a non-letter: {word!r}")
            try:
                _refuse_bools([re, im])
                re_im = np.array([re, im])  # one shape for both parts
                terms.append((word, re_im[0] + 1j * re_im[1]))
            except (TypeError, ValueError):
                raise ValueError(f"fields 're', 'im' of word {word} are not "
                                 "numeric matrices") from None
        return cls.from_terms(*(json_field(data, k, int, low) for k, low in
                                (("d", 1), ("deg", 0), ("p", 1), ("q", 1))),
                              terms)


@dataclass
class MatrixPoint:
    """A d-tuple of complex n x n matrices; a point of the NC unit ball
    when the row norm is strictly below 1."""

    d: int
    n: int
    mats: list[np.ndarray]

    def __post_init__(self):
        if len(self.mats) != self.d:
            raise ValueError(f"expected {self.d} matrices, got {len(self.mats)}")
        self.mats = [np.asarray(m, dtype=complex).reshape(self.n, self.n)
                     for m in self.mats]

    def row_norm(self) -> float:
        return float(np.linalg.norm(np.hstack(self.mats), 2))


def mat_to_json(m) -> list:
    """A complex matrix as nested rows of [re, im] pairs, the layout of
    report, point and colligation files."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def mat_from_json(rows, name: str = "matrix") -> np.ndarray:
    try:
        _refuse_bools(rows)
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError):
        raise ValueError(
            f"field {name!r} is not a matrix of [re, im] pairs") from None


def _refuse_bools(x):
    """TypeError on a bool anywhere in nested lists, or a bool array: JSON
    true and false are not numbers, though Python reads them as 1 and 0."""
    stack = [x]
    while stack:
        y = stack.pop()
        if type(y) is bool or getattr(y, "dtype", None) == bool:
            raise TypeError("bool is not a number")
        if isinstance(y, list):
            stack.extend(y)


def json_field(data, key: str, kind: type, low: int | None = None):
    """data[key] if it is of type kind (bool is not int) and not below
    low, else ValueError."""
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, kind) or (kind is int and type(value) is bool):
        raise ValueError(f"field {key!r} is missing or not {kind.__name__}")
    if low is not None and value < low:
        raise ValueError(f"field {key!r} is {value}, below {low}")
    return value


def identity_series(d: int, deg: int, p: int = 1) -> FreeSeries:
    return FreeSeries.from_terms(d, deg, p, p, {(): np.eye(p)})


def constant_series(d: int, deg: int, mat) -> FreeSeries:
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    return FreeSeries.from_terms(d, deg, *mat.shape, {(): mat})


def letter_series(d: int, deg: int, k: int, p: int = 1) -> FreeSeries:
    """The series Z_k with identity coefficient."""
    return FreeSeries.from_terms(d, deg, p, p, {(k,): np.eye(p)})


def series_degree(F: FreeSeries) -> int:
    """Length of the longest word with a nonzero coefficient, 0 if none.
    Scans the grades from the top down and stops at the first one that
    holds a nonzero (or NaN) coefficient."""
    off = cached_offsets(F.d, F.deg)
    for g in range(F.deg, 0, -1):
        if F.array[off[g]:off[g + 1]].any():
            return g
    return 0


def _convolve(out: np.ndarray, F: np.ndarray, G: np.ndarray, off: list[int],
              s_min: int, top_f: int, top_g: int) -> np.ndarray:
    """Add to out, grades upward, F_b G_c over words b.c with |b| = s in
    max(s_min, g - top_g) .. min(g, top_f): one matmul per (s, g) into the
    row-major position (rank b, rank c) of b.c.  F may end at grade top_f,
    and G may be out if s_min > 0."""
    Og, Fg, Gg = ([x[i:j] for i, j in zip(off, off[1:])] for x in (out, F, G))
    for g in range(len(off) - 1):
        for s in range(max(s_min, g - top_g), min(g, top_f) + 1):
            (n_s, p, k), (n_t, _, q) = Fg[s].shape, Gg[g - s].shape
            x = Fg[s].reshape(-1, k) @ Gg[g - s].swapaxes(0, 1).reshape(k, -1)
            Og[g].reshape(n_s, n_t, p, q)[...] += \
                x.reshape(n_s, p, n_t, q).transpose(0, 2, 1, 3)
    return out


# ---------------------------------------------------------------------------
# arithmetic

def multiply(F: FreeSeries, G: FreeSeries) -> FreeSeries:
    """Coefficient convolution (FG)_a = sum_{bc=a} F_b G_c, clipped to the
    smaller carried degree."""
    if F.q != G.p or F.d != G.d:
        raise ValueError("shape mismatch in series product")
    deg = min(F.deg, G.deg)
    off = grade_offsets(F.d, deg)
    out = np.zeros((off[-1], F.p, G.q), dtype=complex)
    return FreeSeries(F.d, deg, _convolve(
        out, F.truncate(deg).array, G.truncate(deg).array, off, 0,
        series_degree(F), series_degree(G)))


def strip_letter(F: FreeSeries, k: int) -> FreeSeries:
    """The series of degree deg - 1 whose coefficient at b is F at k.b."""
    deg = max(F.deg - 1, 0)
    rows, _ = shift_indices(F.d, F.deg, (k,), left=True)
    out = np.zeros((word_count(F.d, deg), F.p, F.q), dtype=complex)
    out[:len(rows)] = F.array[rows]
    return FreeSeries(F.d, deg, out)


def dagger_series(F: FreeSeries) -> FreeSeries:
    """Transpose symbol: coefficient at alpha moves to the reversed word."""
    return FreeSeries(F.d, F.deg, F.array[reversal(F.d, F.deg)])


def invert_series(F: FreeSeries) -> FreeSeries:
    """Two-sided inverse up to the carried degree, by grade recursion."""
    if F.p != F.q:
        raise ValueError("only square series are invertible")
    try:
        F0inv = np.linalg.inv(F.array[0])
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("constant term is singular") from None
    off, top = grade_offsets(F.d, F.deg), series_degree(F)
    out = np.zeros(F.array.shape, dtype=complex)
    out[0] = F0inv
    # G_a = sum of (-F0inv F_b) G_c over splits a = b.c with 0 < |b| <= top
    return FreeSeries(F.d, F.deg, _convolve(
        out, -F0inv @ F.array[:off[top + 1]], out, off, 1, top, F.deg))


def cayley(F: FreeSeries, direction: str) -> FreeSeries:
    """Fractional-linear bijection between the Schur and Herglotz classes.

    direction "schur_to_herglotz": H = (I + B)(I - B)^{-1}, needs ||B_0|| < 1.
    direction "herglotz_to_schur": B = (H - I)(H + I)^{-1}.

    Each takes one inverse: with X = I - B, I + B = 2I - X, so
    H = 2 X^{-1} - I; likewise B = I - 2 (H + I)^{-1}.  Truncation keeps
    this exact: trunc((2I - X) Y) = 2Y - I when trunc(X Y) = I.

    X is written into one array and 2 X^{-1} -/+ I into the inverse's own
    array: no identity series and no temporaries.  The steps are those of
    the series composition 2.0 * invert_series(I - B) - I (or
    I - 2.0 * invert_series(H + I)), so the result is bit for bit the
    same, signs of zero and NaN included.  There a difference A - C is
    A + (-1.0 * C), a complex product, and -1.0 * I is -0.0 + 0.0j off
    the constant diagonal.
    """
    if F.p != F.q:
        raise ValueError("cayley needs square coefficients")
    eye = np.eye(F.p)
    if direction == "schur_to_herglotz":
        if np.linalg.norm(F.array[0], 2) >= 1:
            raise np.linalg.LinAlgError("constant term not a strict contraction")
        X = F.array * -1.0      # I - B is I + (-1.0 * B)
        X += 0.0
        X[0] += eye
        G = invert_series(FreeSeries(F.d, F.deg, X)).array
        G *= 2.0
        G.imag += 0.0           # - I adds -0.0 + 0.0j off its diagonal
        G[0] -= eye
        return FreeSeries(F.d, F.deg, G)
    if direction == "herglotz_to_schur":
        X = F.array + 0.0
        X[0] += eye
        if np.linalg.cond(X[0]) > 1e14:
            raise np.linalg.LinAlgError("I + H(0) numerically singular")
        G = invert_series(FreeSeries(F.d, F.deg, X)).array
        G *= 2.0
        G *= -1.0               # I - 2G is I + (-1.0 * 2G)
        G += 0.0
        G[0] += eye
        return FreeSeries(F.d, F.deg, G)
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# evaluation

def word_powers(Z, deg: int) -> np.ndarray:
    """Array of Z^alpha for every word of length <= deg, graded-lex order:
    (words, n, n) at a MatrixPoint, (k, words, n, n) at a stack (d, k, n, n).

    Grade g + 1 is grade g times the letters, so once a grade is all zero
    every later one is too: the loop stops there and leaves the zeros of
    the allocation.  At a point (or stack) jointly nilpotent of order k
    that costs k grades whatever deg is.  The grades it writes are bit
    for bit those of the full loop; those it skips equal them as values
    (a product of zeros may carry a sign)."""
    if isinstance(Z, MatrixPoint):
        return word_powers(np.array(Z.mats)[:, None], deg)[0]
    d, k, n, _ = Z.shape
    off = grade_offsets(d, deg)
    row = Z.transpose(1, 2, 0, 3).reshape(k, n, d * n)
    out = np.zeros((k, off[-1], n, n), dtype=complex)
    out[:, 0] = np.eye(n)
    for g in range(deg):  # child w.j of w sits at row (w, j) of grade g + 1
        L = off[g + 1] - off[g]
        x = out[:, off[g]:off[g + 1]].reshape(k, L * n, n) @ row
        if not x.any():
            break
        out[:, off[g + 1]:off[g + 2]].reshape(k, L, d, n, n)[...] = \
            x.reshape(k, L, n, d, n).transpose(0, 1, 3, 2, 4)
    return out


def szego_coords(Z: MatrixPoint, y, v, deg: int) -> np.ndarray:
    """Coordinates x_a = <Z^a v, y> of the Szego kernel vector pinned at
    (Z, y, v), for every word of length <= deg in graded-lex order."""
    y = np.asarray(y, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    return (word_powers(Z, deg) @ v).conj() @ y


def evaluate(F: FreeSeries, Z) -> np.ndarray:
    """F(Z) = sum Z^alpha (x) F_alpha: an (n p) x (n q) matrix at a
    MatrixPoint, and (k, n p, n q) at a stack (d, k, n, n) of blocks.  The
    word powers of Z up to the degree of F's nonzero part, then one matmul
    over the words into entries ((i, j), (a, b)), transposed to the layout
    ((i, a), (j, b)).  The word powers stop at the first vanishing grade,
    so at a point jointly nilpotent of order k only k grades are
    multiplied out; the grades they leave unwritten differ from the full
    loop's at most in the sign of a zero, which the sum over the words
    does not see."""
    if F.d != (Z.d if isinstance(Z, MatrixPoint) else len(Z)):
        raise ValueError("alphabet mismatch between series and point")
    F = F.truncate(series_degree(F))
    pows, (w, p, q) = word_powers(Z, F.deg), F.array.shape
    *k, _, n, _ = pows.shape
    x = pows.reshape(-1, w, n * n).swapaxes(1, 2) @ F.array.reshape(w, p * q)
    return x.reshape(*k, n, n, p, q).swapaxes(-3, -2).reshape(*k, n * p, n * q)


# ---------------------------------------------------------------------------
# multiplication operators on the truncated Fock space

def multiplier_matrix(F: FreeSeries, side: Side, N: int) -> np.ndarray:
    """Matrix of the left (or right) multiplication operator by F on
    F2(d, N) (x) C^q, mapping into F2(d, N) (x) C^p.

    Layout is word-major: basis vector (alpha, j) sits at row
    index(alpha) * p + j.  Left action sends e_beta (x) v to
    sum_alpha e_{alpha.beta} (x) F_alpha v; right action appends the
    coefficient word instead.  Words past grade N are dropped.
    """
    if F.deg > N:
        raise ValueError("series degree exceeds Fock truncation")
    nw = grade_offsets(F.d, N)[-1]  # checks the basis cap before allocating
    out = np.zeros((nw, F.p, nw, F.q), dtype=complex)
    for w, m in F.terms():
        rows, cols = shift_indices(F.d, N, w, side is Side.LEFT)
        out[rows, :, cols, :] += m
    return out.reshape(nw * F.p, nw * F.q)


# schur_norm_estimate runs Lanczos from this size word_count(d, N) *
# max(p, q) of the left multiplier up, and a dense SVD below it.  With one
# BLAS thread the measured cost curves (dense vs Lanczos) cross between 200
# and 255 for random dense degree-2 symbols at d >= 2 (6 vs 9 ms at 189,
# 10 vs 10 ms at 200, 15 vs 12 ms at 242, 110 vs 21 ms at 510), and below
# 127 for the two- and three-term symbols of the model-space commands.  At
# d = 1 the multiplier is a Toeplitz matrix whose top singular values
# cluster, Lanczos needs nearly n steps, and the dense SVD wins at every
# size measured (11 vs 60 ms at 256).
LANCZOS_MIN_SIZE = 200


def fock_degree(F: FreeSeries, N: int) -> int:
    """series_degree(F), once a multiplier by F fits F2(d, N): ValueError
    when the degree, not the carried degree, exceeds N, CapacityError
    when the words of length <= N pass the basis cap, and ValueError when
    a coefficient is not finite, in that order."""
    deg = series_degree(F)
    if deg > N:
        raise ValueError(f"series degree {deg} exceeds Fock truncation {N}")
    grade_offsets(F.d, N)
    if not np.isfinite(F.array).all():
        raise ValueError("series has a coefficient that is not finite")
    return deg


def schur_norm_estimate(F: FreeSeries, N: int) -> float:
    """Operator norm of the truncated left multiplication matrix: a lower
    bound for the multiplier norm, nondecreasing in N.

    The dense 2-norm of multiplier_matrix at d = 1 or below
    LANCZOS_MIN_SIZE; otherwise the top Ritz value of _lanczos_norm, which
    agrees with the dense norm to rounding.  Refuses what fock_degree
    refuses."""
    F = F.truncate(fock_degree(F, N))
    size = cached_offsets(F.d, N)[-1] * max(F.p, F.q)
    if F.d == 1 or size < LANCZOS_MIN_SIZE:
        return float(np.linalg.norm(multiplier_matrix(F, Side.LEFT, N), 2))
    return _lanczos_norm(F, N)


def schur_norm_bound(F: FreeSeries) -> float:
    """An upper bound for the norm of the left multiplier
    T = sum_w F_w (x) L_w of F on the whole Fock space, from F's terms.

    A term word's level is the number of term words that are proper
    prefixes of it; those form a chain, so this is the longest chain below
    it (Mirsky's antichain partition).  Words of one level are pairwise
    not prefixes of one another, so their L_w are isometries with
    orthogonal ranges and ||sum_level F_w (x) L_w||^2 = ||sum_level
    F_w* F_w|| (Popescu, Math. Ann. 303, 1995).  The bound is the sum over
    the levels of these norms, each the top eigenvalue of a q x q Gram; it
    equals ||T|| when there is one level.  The parent of the word of rank
    r in grade g has rank r // d in grade g - 1, so the counts of term
    prefixes take one np.repeat per grade.  A coefficient too large to
    square, or not finite, gives inf or nan: no bound."""
    is_term = F.array.any(axis=(1, 2))
    at = np.flatnonzero(is_term)
    if not len(at):
        return 0.0
    off = cached_offsets(F.d, F.deg)
    below = np.zeros(len(is_term), dtype=np.int64)  # term proper prefixes
    for g in range(1, F.deg + 1):
        below[off[g]:off[g + 1]] = np.repeat(
            below[off[g - 1]:off[g]] + is_term[off[g - 1]:off[g]], F.d)
    level, C = below[at], F.array[at]
    gram = np.zeros((level.max() + 1, F.q, F.q), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(gram, level, C.conj().swapaxes(1, 2) @ C)
        top = np.linalg.eigvalsh(gram)[:, -1]
    return float(np.sqrt(np.maximum(top, 0.0)).sum())


def _left_products(F: FreeSeries, N: int):
    """x -> T x and y -> T* y for the left multiplier T of F on F2(d, N),
    on arrays of shape (nw, q) and (nw, p), without forming T.  Each
    (row, col) pair of shift_indices over F.terms() adds F_w x[col] to
    row; a product gathers x at the pairs, applies the coefficients in one
    einsum and sums the pairs of each row with one reduceat."""
    nw = grade_offsets(F.d, N)[-1]
    pairs = [(shift_indices(F.d, N, w, left=True), m) for w, m in F.terms()]
    rows = np.concatenate([r for (r, _), _ in pairs])
    cols = np.concatenate([c for (_, c), _ in pairs])
    coef = np.repeat(np.stack([m for _, m in pairs]),
                     [len(r) for (r, _), _ in pairs], axis=0)

    def grouped_by(target):
        order = np.argsort(target, kind="stable")
        starts = np.flatnonzero(np.diff(target[order], prepend=-1))
        return order, starts, target[order][starts]

    r_order, r_starts, r_out = grouped_by(rows)
    c_order, c_starts, c_out = grouped_by(cols)
    coef_r, src_r = coef[r_order], cols[r_order]
    coef_c, src_c = coef[c_order].conj(), rows[c_order]

    def matvec(x):
        out = np.zeros((nw, F.p), dtype=complex)
        out[r_out] = np.add.reduceat(
            np.einsum("kpq,kq->kp", coef_r, x[src_r]), r_starts)
        return out

    def rmatvec(y):
        out = np.zeros((nw, F.q), dtype=complex)
        out[c_out] = np.add.reduceat(
            np.einsum("kpq,kp->kq", coef_c, y[src_c]), c_starts)
        return out

    return nw, matvec, rmatvec


def _lanczos_norm(F: FreeSeries, N: int) -> float:
    """Largest singular value of the left multiplier T of F on F2(d, N)
    by Golub-Kahan-Lanczos bidiagonalization with full reorthogonalization
    (Golub and Kahan 1965), from a fixed seeded start vector.

    With T V_k = U_k B_k and T* U_k = V_k B_k* + beta_k v_{k+1} e_k*, the
    top singular triple (s, x, y) of the bidiagonal B_k gives
    ||T* U_k x - s V_k y|| = beta_k |x_k|.  The loop stops when that
    residual is at most 1e-14 s or the Krylov space is exhausted, and
    returns s, a lower bound for ||T||.  Each reading of the residual is an
    SVD of B_k, so it is read at k = 1..8 and then every k/4 steps."""
    if not F.array.any():
        return 0.0
    nw, matvec, rmatvec = _left_products(F, N)
    p, q = F.p, F.q
    kmax = nw * min(p, q)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(nw * q) + 1j * rng.standard_normal(nw * q)
    U = np.empty((min(kmax, 32), nw * p), dtype=complex)
    V = np.empty((len(U), nw * q), dtype=complex)
    V[0] = v / np.linalg.norm(v)
    alpha, beta = [], [0.0]  # diagonal and superdiagonal of B_k
    u = np.zeros(nw * p, dtype=complex)
    check = 1
    for k in range(kmax):
        u = matvec(V[k].reshape(nw, q)).reshape(-1) - beta[k] * u
        u = _reorthogonalize(u, U[:k])
        alpha.append(float(np.linalg.norm(u)))
        if alpha[k] == 0.0:  # T V_k lies in the span of U_{k-1}
            break
        u /= alpha[k]
        U = _with_row(U, k, u)
        v = rmatvec(u.reshape(nw, p)).reshape(-1) - alpha[k] * V[k]
        v = _reorthogonalize(v, V[:k + 1])
        beta.append(float(np.linalg.norm(v)))
        if k + 1 in (check, kmax) or beta[k + 1] == 0.0:
            P, s, _ = np.linalg.svd(np.diag(alpha) + np.diag(beta[1:-1], 1))
            if beta[k + 1] * abs(P[-1, 0]) <= 1e-14 * s[0] or k + 1 == kmax:
                return float(s[0])
            check = k + 1 + max(1, (k + 1) // 4)
        V = _with_row(V, k + 1, v / beta[k + 1])
    return float(np.linalg.norm(np.diag(alpha) + np.diag(beta[1:], 1), 2))


def _with_row(Q: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    """Q with x written to row k, doubling the rows of Q when it is full."""
    if k == len(Q):
        Q = np.concatenate([Q, np.empty_like(Q)])
    Q[k] = x
    return Q


def _reorthogonalize(x: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """x minus its projection on the orthonormal rows of Q, in two
    classical Gram-Schmidt passes ("twice is enough")."""
    for _ in range(2):
        x = x - (Q @ x.conj()).conj() @ Q
    return x


def range_basis(A: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal basis of the range of A: the left singular vectors whose
    singular values exceed rtol times the largest."""
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    return U[:, s > rtol * max(float(s[0]) if len(s) else 0.0, 1e-300)]


def _nonzeros(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero entries of the 2-D X, whose
    last axis is contiguous, in row-major order."""
    nz = (X.view(np.float64) != 0).view(np.uint16) if np.iscomplexobj(X) else X
    return np.divmod(np.flatnonzero(nz != 0), X.shape[1])  # faster than X != 0


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The least vertex of the component of each vertex 0..n-1 of the
    graph whose edges run from cols[k] to rows[k]; give both directions
    of an undirected edge."""
    new, label = np.arange(n), None
    while not np.array_equal(new, label):
        label, new = new, new.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
    return label


def _blocks_by_size(label: np.ndarray) -> list[np.ndarray]:
    """For each component size s, ascending, the vertices of the
    components of that size as a (components, s) array, a row per
    component in the order of its least vertex."""
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))  # by component size, then component
    return [order[size[order] == s].reshape(-1, s) for s in np.unique(size)]


# gram_spectrum splits U*U by its components from this many columns up.
# With one BLAS thread, on the realize colligations of sparse symbols, the
# labelling and one batched eigvalsh per component size cost 100-350 us,
# and the dense Gram with its eigvalsh is faster below 48 columns (255
# against 330 us at 41); the split is ahead from 47 (111 against 127 us),
# takes 330-360 against 480-570 us at 64 and 1.5 against 20 ms at 256
# (a 2x2 symbol at d = 2, N = 7).
GRAM_SPLIT_MIN = 48


def gram_spectrum(U: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Ascending eigenvalues of U*U - shift I, for a 2-D U.

    Columns of U joined by a chain of shared nonzero rows (U's exact
    nonzero pattern) make a component, and U*U is block diagonal over the
    components.  From GRAM_SPLIT_MIN columns up, when no component holds
    half of the columns, each component's Gram is formed from its own rows
    and columns (padded with zero rows to the most of its size) and
    eigvalsh runs once per component size on the stack; otherwise the
    spectrum is eigvalsh(U*U - shift I) of the whole."""
    m, n = U.shape
    label = np.zeros(n + m, dtype=np.int64)
    if n >= GRAM_SPLIT_MIN:
        rows, cols = _nonzeros(np.ascontiguousarray(U))
        # columns are vertices 0..n-1 and rows n..n+m-1; a row that meets
        # half of the columns decides without the labelling
        if 2 * np.bincount(rows, minlength=1).max() < n:
            label = _components(n + m, np.concatenate([cols, rows + n]),
                                np.concatenate([rows + n, cols]))
    col_label, row_label = label[:n], label[n:]
    if 2 * np.bincount(col_label, minlength=1).max() >= n:
        G = U.conj().T @ U
        return np.linalg.eigvalsh(G - shift * np.eye(n) if shift else G)
    # the rows that meet a column, grouped by component; a component's
    # least vertex is a column, so its label is below n
    live = np.flatnonzero(row_label < n)
    live = live[np.argsort(row_label[live], kind="stable")]
    count = np.bincount(row_label[live], minlength=n)
    first = np.cumsum(count) - count
    spectra = []
    for idx in _blocks_by_size(col_label):
        comp = col_label[idx[:, 0]]
        slot = np.arange(count[comp].max())
        pad = slot[None, :] >= count[comp][:, None]
        at = live[np.minimum(first[comp][:, None] + slot, len(live) - 1)]
        X = np.where(pad[:, :, None], 0.0, U[at[:, :, None], idx[:, None, :]])
        G = X.conj().swapaxes(1, 2) @ X
        if shift:
            G -= shift * np.eye(idx.shape[1])
        spectra.append(np.linalg.eigvalsh(G).ravel())
    return np.sort(np.concatenate(spectra))


def factor_psd(G: np.ndarray, rank_tol: float):
    """W, W+, the ascending spectrum of the Hermitian G and the cut: the
    eigenvectors V whose eigenvalues lambda exceed cut = rank_tol * max
    |eigenvalue| give W = V sqrt(lambda), with G ~ W W*, and its left
    inverse W+ = (V / sqrt(lambda))*.  Eigenvalues below -cut are the
    caller's to refuse.  A connected G (by its exact nonzero pattern)
    takes one eigh; otherwise eigh runs once per component size on the
    stacked blocks, and W and W+ are written from the blocks."""
    n = len(G)
    label = _components(n, *_nonzeros(G))
    if not label.any():
        evals, vecs = np.linalg.eigh(G)
        cut = rank_tol * max(float(np.abs(evals).max()), 1e-300)
        lam, V = np.sqrt(evals[evals > cut]), vecs[:, evals > cut]
        return V * lam[None, :], (V / lam[None, :]).conj().T, evals, cut
    idx = _blocks_by_size(label)
    eig = [np.linalg.eigh(G[i[:, :, None], i[:, None, :]]) for i in idx]
    flat = np.concatenate([lam.ravel() for lam, _ in eig])
    evals = np.sort(flat)
    cut = rank_tol * max(float(np.abs(evals).max()), 1e-300)
    kept = int(np.count_nonzero(evals > cut))
    col = np.empty(n, dtype=np.int64)  # the column of each eigenvalue
    col[np.argsort(flat, kind="stable")] = np.arange(kept - n, kept)
    W = np.zeros((n, kept), dtype=np.result_type(G, 1.0))
    WplusT, at = np.zeros_like(W), 0
    for i, (lam, vecs) in zip(idx, eig):
        c, j = np.nonzero(lam > cut)
        k = col[at + c * lam.shape[1] + j][:, None]
        V, root = vecs[c, :, j], np.sqrt(lam[c, j])[:, None]
        W[i[c], k] = V * root
        WplusT[i[c], k] = (V / root).conj()
        at += lam.size
    return W, WplusT.T, evals, cut


def normalize_schur(F: FreeSeries, N: int, target: float = 0.9) -> FreeSeries:
    """Scale F so the truncated multiplier norm estimate equals target."""
    est = schur_norm_estimate(F, N)
    if est == 0:
        return F.copy()
    return F * (target / est)
