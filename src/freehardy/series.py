"""Free power series with matrix coefficients, truncated by total degree.

A FreeSeries is a map from words to complex p x q coefficient matrices.
Evaluation at a d-tuple of n x n matrices Z follows the convention

    F(Z) = sum_alpha Z^alpha (x) F_alpha,   Z^alpha = Z_{i1} ... Z_{i|alpha|},

with the matrix level as the outer Kronecker factor.  Products clip to the
smaller carried degree; overflow coefficients are dropped, never wrapped.

The heavy operations (multiply, invert, evaluate) run on dense
coefficient arrays in the graded-lex layout of :mod:`freehardy.words`.
There, grade g of a product is a sum over s of row-major outer products
of grade s of one factor with grade g - s of the other, one einsum per
pair of grades, so Cayley transforms at degree 12..16 over d = 2 stay
fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import Side
from .words import enumerate_tuples, grade_offsets, index_map, shift_indices


@dataclass
class FreeSeries:
    d: int
    deg: int
    p: int
    q: int
    coeffs: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for w, m in self.coeffs.items():
            w = tuple(w)
            if len(w) > self.deg:
                raise ValueError(f"word {w} exceeds degree {self.deg}")
            if any(not 1 <= k <= self.d for k in w):
                raise ValueError(f"word {w} has letters outside 1..{self.d}")
            m = np.asarray(m, dtype=complex)
            if m.shape != (self.p, self.q):
                raise ValueError(
                    f"coefficient at {w} has shape {m.shape}, "
                    f"expected ({self.p}, {self.q})")
            clean[w] = m
        self.coeffs = clean

    def coeff(self, word) -> np.ndarray:
        return self.coeffs.get(tuple(word),
                               np.zeros((self.p, self.q), dtype=complex))

    def copy(self) -> "FreeSeries":
        return FreeSeries(self.d, self.deg, self.p, self.q,
                          {w: m.copy() for w, m in self.coeffs.items()})

    def truncate(self, deg: int) -> "FreeSeries":
        return FreeSeries(self.d, deg, self.p, self.q,
                          {w: m for w, m in self.coeffs.items()
                           if len(w) <= deg})

    def __add__(self, other: "FreeSeries") -> "FreeSeries":
        _check_same_shape(self, other)
        deg = min(self.deg, other.deg)
        out = {w: m.copy() for w, m in self.coeffs.items() if len(w) <= deg}
        for w, m in other.coeffs.items():
            if len(w) <= deg:
                out[w] = out.get(w, 0) + m
        return FreeSeries(self.d, deg, self.p, self.q, out)

    def __sub__(self, other: "FreeSeries") -> "FreeSeries":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "FreeSeries":
        return FreeSeries(self.d, self.deg, self.p, self.q,
                          {w: m * scalar for w, m in self.coeffs.items()})

    __rmul__ = __mul__

    def max_coeff_diff(self, other: "FreeSeries") -> float:
        words = set(self.coeffs) | set(other.coeffs)
        if not words:
            return 0.0
        return max(float(np.max(np.abs(self.coeff(w) - other.coeff(w))))
                   for w in words)

    def to_json(self) -> dict:
        terms = []
        for w in sorted(self.coeffs, key=lambda t: (len(t), t)):
            m = self.coeffs[w]
            terms.append({"word": list(w),
                          "re": m.real.tolist(),
                          "im": m.imag.tolist()})
        return {"d": self.d, "deg": self.deg, "p": self.p, "q": self.q,
                "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "FreeSeries":
        coeffs = {}
        for t in json_field(data, "terms", list):
            word, re, im = (json_field(t, k, list) for k in ("word", "re", "im"))
            if not all(type(k) is int for k in word):
                raise ValueError(f"field 'word' holds a non-letter: {word!r}")
            try:
                _refuse_bools([re, im])
                re_im = np.array([re, im])  # one shape for both parts
                coeffs[tuple(word)] = re_im[0] + 1j * re_im[1]
            except (TypeError, ValueError):
                raise ValueError(f"fields 're', 'im' of word {word} are not "
                                 "numeric matrices") from None
        return cls(*(json_field(data, k, int, low) for k, low in
                     (("d", 1), ("deg", 0), ("p", 1), ("q", 1))), coeffs)


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

    def word_product(self, word) -> np.ndarray:
        out = np.eye(self.n, dtype=complex)
        for k in word:
            out = out @ self.mats[k - 1]
        return out


def direct_sum(points: list[MatrixPoint]) -> MatrixPoint:
    """The block-diagonal point Z_1 (+) ... (+) Z_k.  NC functions and
    kernels respect direct sums: their value here holds the value at each
    Z_i as a diagonal block."""
    if len({Z.d for Z in points}) != 1:
        raise ValueError("direct sum needs points over one alphabet")
    n = sum(Z.n for Z in points)
    mats = np.zeros((points[0].d, n, n), dtype=complex)
    lo = 0
    for Z in points:
        mats[:, lo:lo + Z.n, lo:lo + Z.n] = Z.mats
        lo += Z.n
    return MatrixPoint(points[0].d, n, list(mats))


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
    """TypeError on a bool anywhere in nested lists: JSON true and false
    are not numbers, though Python reads them as 1 and 0."""
    stack = [x]
    while stack:
        y = stack.pop()
        if type(y) is bool:
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


def _check_same_shape(F: FreeSeries, G: FreeSeries):
    if (F.d, F.p, F.q) != (G.d, G.p, G.q):
        raise ValueError("series shape/alphabet mismatch")


def identity_series(d: int, deg: int, p: int = 1) -> FreeSeries:
    return FreeSeries(d, deg, p, p, {(): np.eye(p, dtype=complex)})


def constant_series(d: int, deg: int, mat) -> FreeSeries:
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    return FreeSeries(d, deg, mat.shape[0], mat.shape[1], {(): mat})


def letter_series(d: int, deg: int, k: int, p: int = 1) -> FreeSeries:
    """The series Z_k with identity coefficient."""
    return FreeSeries(d, deg, p, p, {(k,): np.eye(p, dtype=complex)})


# ---------------------------------------------------------------------------
# dense layout

def to_dense(F: FreeSeries, deg: int | None = None) -> np.ndarray:
    """Coefficient array of shape (word_count, p, q) in graded-lex order."""
    if deg is None:
        deg = F.deg
    idx = index_map(F.d, deg)
    out = np.zeros((len(idx), F.p, F.q), dtype=complex)
    for w, m in F.coeffs.items():
        if len(w) <= deg:
            out[idx[w]] = m
    return out


def from_dense(d: int, deg: int, arr: np.ndarray) -> FreeSeries:
    basis = enumerate_tuples(d, deg)
    p, q = arr.shape[1], arr.shape[2]
    nonzero = np.flatnonzero(arr.reshape(len(arr), -1).any(axis=1))
    return FreeSeries(d, deg, p, q, {basis[i]: arr[i] for i in nonzero})


def _grades(arr: np.ndarray, off: list[int]) -> list[np.ndarray]:
    return [arr[off[g]:off[g + 1]] for g in range(len(off) - 1)]


def _grade_product(F: list[np.ndarray], G: list[np.ndarray], g: int,
                   s_min: int = 0) -> np.ndarray:
    """Grade g of the product: word b.c with |b| = s sits at row-major
    position (rank of b, rank of c) within the grade."""
    out = 0
    for s in range(s_min, g + 1):
        x = np.einsum("ipk,jkq->ijpq", F[s], G[g - s])
        out = out + x.reshape(-1, x.shape[2], x.shape[3])
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
    Fg = _grades(to_dense(F, deg), off)
    Gg = _grades(to_dense(G, deg), off)
    out = np.concatenate([_grade_product(Fg, Gg, g) for g in range(deg + 1)])
    return from_dense(F.d, deg, out)


def dagger_series(F: FreeSeries) -> FreeSeries:
    """Transpose symbol: coefficient at alpha moves to the reversed word."""
    return FreeSeries(F.d, F.deg, F.p, F.q,
                      {w[::-1]: m.copy() for w, m in F.coeffs.items()})


def invert_series(F: FreeSeries) -> FreeSeries:
    """Two-sided inverse up to the carried degree, by grade recursion."""
    if F.p != F.q:
        raise ValueError("only square series are invertible")
    F0 = F.coeff(())
    try:
        F0inv = np.linalg.inv(F0)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("constant term is singular") from None
    Fg = _grades(to_dense(F), grade_offsets(F.d, F.deg))
    out = [F0inv[None]]
    for g in range(1, F.deg + 1):
        # G_a = -F0inv . sum over splits a = b.c with nonempty F factor b
        acc = _grade_product(Fg, out, g, s_min=1)
        out.append(-np.einsum("pk,skq->spq", F0inv, acc))
    return from_dense(F.d, F.deg, np.concatenate(out))


def cayley(F: FreeSeries, direction: str) -> FreeSeries:
    """Fractional-linear bijection between the Schur and Herglotz classes.

    direction "schur_to_herglotz": H = (I + B)(I - B)^{-1}, needs ||B_0|| < 1.
    direction "herglotz_to_schur": B = (H - I)(H + I)^{-1}.
    """
    if F.p != F.q:
        raise ValueError("cayley needs square coefficients")
    I = identity_series(F.d, F.deg, F.p)
    if direction == "schur_to_herglotz":
        if np.linalg.norm(F.coeff(()), 2) >= 1:
            raise np.linalg.LinAlgError("constant term not a strict contraction")
        return multiply(I + F, invert_series(I - F))
    if direction == "herglotz_to_schur":
        H0 = F.coeff(())
        if np.linalg.cond(np.eye(F.p) + H0) > 1e14:
            raise np.linalg.LinAlgError("I + H(0) numerically singular")
        return multiply(F - I, invert_series(F + I))
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# evaluation

def word_powers(Z: MatrixPoint, deg: int) -> np.ndarray:
    """Array of Z^alpha for every word of length <= deg, graded-lex order."""
    off = grade_offsets(Z.d, deg)
    n = Z.n
    out = np.zeros((off[-1], n, n), dtype=complex)
    out[0] = np.eye(n)
    for g in range(deg):
        parents = out[off[g]:off[g + 1]]
        for k in range(Z.d):
            child = off[g + 1] + np.arange(len(parents)) * Z.d + k
            out[child] = parents @ Z.mats[k]
    return out


def szego_coords(Z: MatrixPoint, y, v, deg: int) -> np.ndarray:
    """Coordinates x_a = <Z^a v, y> of the Szego kernel vector pinned at
    (Z, y, v), for every word of length <= deg in graded-lex order."""
    y = np.asarray(y, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    return (word_powers(Z, deg) @ v).conj() @ y


def evaluate(F: FreeSeries, Z: MatrixPoint) -> np.ndarray:
    """F(Z) = sum Z^alpha (x) F_alpha, an (n p) x (n q) matrix."""
    if F.d != Z.d:
        raise ValueError("alphabet mismatch between series and point")
    n = Z.n
    if len(F.coeffs) <= 32:
        out = np.zeros((n * F.p, n * F.q), dtype=complex)
        for w, m in F.coeffs.items():
            out += np.kron(Z.word_product(w), m)
        return out
    Zp = word_powers(Z, F.deg)
    C = to_dense(F)
    return np.einsum("wij,wab->iajb", Zp, C).reshape(n * F.p, n * F.q)


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
    for w, m in F.coeffs.items():
        rows, cols = shift_indices(F.d, N, w, side is Side.LEFT)
        out[rows, :, cols, :] += m
    return out.reshape(nw * F.p, nw * F.q)


def schur_norm_estimate(F: FreeSeries, N: int) -> float:
    """Operator norm of the truncated left multiplication matrix: a lower
    bound for the multiplier norm, nondecreasing in N."""
    return float(np.linalg.norm(multiplier_matrix(F, Side.LEFT, N), 2))


def range_basis(A: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal basis of the range of A: the left singular vectors whose
    singular values exceed rtol times the largest."""
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    return U[:, s > rtol * max(float(s[0]) if len(s) else 0.0, 1e-300)]


def normalize_schur(F: FreeSeries, N: int, target: float = 0.9) -> FreeSeries:
    """Scale F so the truncated multiplier norm estimate equals target."""
    est = schur_norm_estimate(F, N)
    if est == 0:
        return F.copy()
    return F * (target / est)
