import math

import numpy as np
import pytest
from hypothesis import settings

from freehardy.fock import Side
from freehardy.kernels import (MEMBERSHIP_CAP, KernelKind, Pinning,
                               kernel_gram, nilpotent_stack)
from freehardy.parser import ParseError, _tokenize
from freehardy.series import (FreeSeries, MatrixPoint, cayley,
                              constant_series, dagger_series, evaluate,
                              identity_series, invert_series, letter_series,
                              multiplier_matrix, multiply, normalize_schur,
                              range_basis, series_degree)
from freehardy.words import (enumerate_tuples, grade_offsets, index_map,
                             reversal, shift_indices, word_count)

# Property tests draw the same examples on every run and have no deadline,
# so a loaded machine neither fails them on time nor changes what they try.
settings.register_profile("freehardy", deadline=None, derandomize=True)
settings.load_profile("freehardy")


def random_series(rng, d, deg, p=1, q=1, scale=1.0):
    coeffs = {}
    for w in enumerate_tuples(d, deg):
        m = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        coeffs[w] = scale * m
    return FreeSeries.from_terms(d, deg, p, q, coeffs)


def random_schur(rng, d, deg, p=1, q=1, target=0.9, N=None):
    F = random_series(rng, d, deg, p, q)
    return normalize_schur(F, N if N is not None else deg + 2, target=target)


def direct_sum(points):
    """The block-diagonal point Z_1 (+) ... (+) Z_k.  NC functions and
    kernels respect direct sums: their value here holds the value at each
    Z_i as a diagonal block."""
    n = sum(Z.n for Z in points)
    mats = np.zeros((points[0].d, n, n), dtype=complex)
    lo = 0
    for Z in points:
        mats[:, lo:lo + Z.n, lo:lo + Z.n] = Z.mats
        lo += Z.n
    return MatrixPoint(points[0].d, n, list(mats))


def nilpotent_point(rng, d, n, scale=0.8):
    mats = [np.triu(rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)), 1) for _ in range(d)]
    Z = MatrixPoint(d, n, mats)
    rn = Z.row_norm()
    if rn > 0:
        Z = MatrixPoint(d, n, [m * (scale / rn) for m in Z.mats])
    return Z


def nilpotent_pins(d, count, rng, n=3, scale=0.8):
    """The pins of kernels.nilpotent_stack, one Pinning each, for tests
    that want Pinning objects: h is left to its default."""
    pins = nilpotent_stack(d, count, rng, n, scale)
    return [Pinning(MatrixPoint(d, n, list(Z)), y, v)
            for Z, y, v in zip(pins.Z.swapaxes(0, 1), pins.y, pins.v)]


def ball_point(rng, d, n, radius=0.4):
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(d)]
    Z = MatrixPoint(d, n, mats)
    return MatrixPoint(d, n, [m * (radius / Z.row_norm()) for m in Z.mats])


def word_powers_oracle(Z, deg):
    """word_powers by the loop that multiplies out every grade up to deg,
    zero or not: (words, n, n) at a MatrixPoint, (k, words, n, n) at a
    stack (d, k, n, n)."""
    if isinstance(Z, MatrixPoint):
        return word_powers_oracle(np.array(Z.mats)[:, None], deg)[0]
    d, k, n, _ = Z.shape
    off = grade_offsets(d, deg)
    row = Z.transpose(1, 2, 0, 3).reshape(k, n, d * n)
    out = np.zeros((k, off[-1], n, n), dtype=complex)
    out[:, 0] = np.eye(n)
    for g in range(deg):
        L = off[g + 1] - off[g]
        x = out[:, off[g]:off[g + 1]].reshape(k, L * n, n) @ row
        out[:, off[g + 1]:off[g + 2]].reshape(k, L, d, n, n)[...] = \
            x.reshape(k, L, n, d, n).transpose(0, 1, 3, 2, 4)
    return out


def series_degree_oracle(F):
    """series_degree from the last nonzero row of the whole array."""
    rows = np.flatnonzero(F.array.any(axis=(1, 2)))
    if not len(rows):
        return 0
    return int(np.searchsorted(grade_offsets(F.d, F.deg), rows[-1],
                               side="right")) - 1


def cayley_oracle(F, direction):
    """cayley as the composition of series operations it replaces:
    2 (I - B)^{-1} - I and I - 2 (H + I)^{-1}."""
    I = identity_series(F.d, F.deg, F.p)
    if direction == "schur_to_herglotz":
        return 2.0 * invert_series(I - F) - I
    return I - 2.0 * invert_series(F + I)


def creation_oracle(side, k, d, N):
    """e_b -> e_{k.b} (left) or e_{b.k} (right) for |b| < N, and 0 on the
    top grade, built from the word list alone."""
    idx = index_map(d, N)
    out = np.zeros((len(idx), len(idx)))
    for b, col in idx.items():
        if len(b) < N:
            out[idx[(k,) + b if side is Side.LEFT else b + (k,)], col] = 1.0
    return out


def creation(side, k, d, N):
    """L_k (left) or R_k (right) on F2(d, N): multiplication by the letter
    Z_k, checked against creation_oracle."""
    T = multiplier_matrix(letter_series(d, 1, k), side, N)
    assert np.array_equal(T, creation_oracle(side, k, d, N))
    return T


def transpose_unitary(d, N):
    """The permutation e_a -> e_{a+} of F2(d, N), a+ the reversed word."""
    return np.eye(word_count(d, N))[:, reversal(d, N)]


def unit_vector(d, N, word):
    e = np.zeros(word_count(d, N))
    e[index_map(d, N)[tuple(word)]] = 1.0
    return e


def szego_oracle(Z, W, P, deg):
    """sum_{|a| <= deg} Z^a P (W^a)*: deg steps of S -> P + sum Z_k S W_k*."""
    S = np.asarray(P, dtype=complex)
    for _ in range(deg):
        S = P + sum(Zk @ S @ Wk.conj().T for Zk, Wk in zip(Z.mats, W.mats))
    return S


def kernel_oracle(spec, Z, W, P):
    """The kernel value at one pair of points by its defining formula
    (kernels module docstring), from evaluate and Kronecker products."""
    S = szego_oracle(Z, W, P, spec.deg)
    if spec.kind is KernelKind.SZEGO:
        return S
    B = spec.B
    amp = np.kron(S, np.eye(B.p))
    if spec.kind is KernelKind.DBR_LEFT:
        return amp - evaluate(B, Z) @ np.kron(S, np.eye(B.q)) @ evaluate(B, W).conj().T
    if spec.kind is KernelKind.HERGLOTZ:
        H = cayley(B, "schur_to_herglotz")
        return 0.5 * (evaluate(H, Z) @ amp + amp @ evaluate(H, W).conj().T)
    G = dagger_series(B)
    inner = evaluate(G, Z) @ np.kron(P, np.eye(B.q)) @ evaluate(G, W).conj().T
    Zp, Wp = (MatrixPoint(V.d, V.n * B.p, [np.kron(m, np.eye(B.p)) for m in V.mats])
              for V in (Z, W))
    return amp - szego_oracle(Zp, Wp, inner, spec.deg)


def coefficient_kernel(spec, alpha, beta):
    """The (alpha, beta) coefficient K_{a,b} of the kernel's double power
    series K(Z,W)[P] = sum K_{a,b} Z^a P (W*)^{b+}."""
    a, b = tuple(alpha), tuple(beta)
    if len(a) > spec.deg or len(b) > spec.deg:
        raise ValueError("word length exceeds kernel degree")
    if spec.kind is KernelKind.SZEGO:
        return np.array([[1.0 + 0j]]) if a == b else np.array([[0.0 + 0j]])
    B = spec.B
    if spec.kind is KernelKind.HERGLOTZ:
        return herglotz_coefficient(cayley(B, "schur_to_herglotz"), a, b)
    out = np.eye(B.p, dtype=complex) if a == b else np.zeros((B.p, B.p), complex)
    for cut in range(min(len(a), len(b)) + 1):
        if spec.kind is KernelKind.DBR_LEFT:
            # common-suffix factorizations a = g.m, b = dl.m
            if cut and a[len(a) - cut:] != b[len(b) - cut:]:
                break
            g, dl = a[:len(a) - cut], b[:len(b) - cut]
        else:
            # common-prefix factorizations, read on reversed words
            if a[:cut] != b[:cut]:
                break
            g, dl = a[cut:][::-1], b[cut:][::-1]
        out = out - B.coeff(g) @ B.coeff(dl).conj().T
    return out


def herglotz_coefficient(H, a, b):
    """Closed-form left Herglotz coefficient kernel from the Cayley
    transform coefficients:

        K_{a,b} = (1/2) H_{(b+ \\ a+)+}^*  if a+ is a strict prefix of b+
                  (1/2) H_{(a+ \\ b+)+}    if b+ is a strict prefix of a+
                  Re H_0                   if a = b
                  0                        otherwise
    """
    if a == b:
        H0 = H.coeff(())
        return 0.5 * (H0 + H0.conj().T)
    ad, bd = a[::-1], b[::-1]
    if bd[:len(ad)] == ad:
        return 0.5 * H.coeff(bd[len(ad):][::-1]).conj().T
    if ad[:len(bd)] == bd:
        return 0.5 * H.coeff(ad[len(bd):][::-1])
    return np.zeros((H.p, H.p), dtype=complex)


def pin_vector(pin, p):
    """y (x) h, h defaulting to ones / sqrt(p) and unused at p = 1."""
    h = pin.h if pin.h is not None else np.ones(p) / np.sqrt(p)
    return pin.y if p == 1 else np.kron(pin.y, h)


def gram_oracle(spec, pins):
    """The pin Gram, one kernel_oracle value per pair of pins."""
    p = 1 if spec.kind is KernelKind.SZEGO else spec.B.p
    G = np.array([[np.vdot(pin_vector(a, p),
                           kernel_oracle(spec, a.Z, b.Z, np.outer(a.v, b.v.conj()))
                           @ pin_vector(b, p)) for b in pins] for a in pins])
    return 0.5 * (G + G.conj().T)


def rank_one_oracle(f, pins):
    """Row i is (v_i (x) I)* f(Z_i)* (y_i (x) h_i), pin by pin."""
    return np.array([(evaluate(f, pin.Z).conj().T @ pin_vector(pin, f.p))
                     .reshape(pin.Z.n, f.q).T @ pin.v.conj() for pin in pins])


def membership_oracle(spec, f, pins, tol=1e-8):
    """membership_norm by its defining test: bisect for the smallest lambda
    with eigvalsh(lambda^2 Gram_K - Gram_c)[0] >= -tol * scale for every
    column c, scale = max(1, ||Gram_K||, ||Gram_c||) in 2-norms."""
    GK = kernel_gram(spec, pins)
    Gfs = [np.outer(u.conj(), u) for u in rank_one_oracle(f, pins).T]
    Gfs = [(0.5 * (G + G.conj().T), max(1.0, float(np.linalg.norm(GK, 2)),
                                         float(np.linalg.norm(G, 2)))) for G in Gfs]

    def ok(lam):
        return all(np.linalg.eigvalsh(lam * lam * GK - Gf)[0] >= -tol * scale
                   for Gf, scale in Gfs)

    if ok(0.0):
        return 0.0
    if not ok(MEMBERSHIP_CAP):
        return np.inf
    lo, hi = 0.0, MEMBERSHIP_CAP
    while hi - lo > tol * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def moment_matrix_oracle(mu, N):
    """moment_matrix one quotient word at a time: the moment of quot goes
    to every block (a, a.quot) and its adjoint to (a.quot, a)."""
    words = enumerate_tuples(mu.d, N)
    n, p = len(words), mu.p
    M = np.zeros((n, p, n, p), dtype=complex)
    for quot, blk in zip(words, mu.array):
        b, a = shift_indices(mu.d, N, quot, left=False)
        M[a, :, b, :] = blk
        if quot:
            M[b, :, a, :] = blk.conj().T
    return M.reshape(n * p, n * p)


def gns_oracle(model, rank_tol):
    """The GNS row pi and the interior basis of a GnsModel from its T, by
    np.linalg.pinv(T_int, rcond=rank_tol) and range_basis(T_int, 1e-12)
    of the interior columns T_int (words of length <= N - 1)."""
    T_int = model.T[:, :word_count(model.d, model.N - 1) * model.p]
    T_words = model.T.reshape(model.rank, -1, model.p)
    pinv = np.linalg.pinv(T_int, rcond=rank_tol)
    pi = [T_words[:, shift_indices(model.d, model.N, (k,), left=True)[0]]
          .reshape(model.rank, -1) @ pinv for k in range(1, model.d + 1)]
    return pi, range_basis(T_int, 1e-12)


def column_schur_oracle(A, a, N):
    """-lambda_min(I - T*T) from a dense eigvalsh (0 if positive), and
    ||T||, for T the right multiplier of the stacked column [A; a] on
    words of length <= N."""
    deg = min(max(A.deg, a.deg), N)
    col = FreeSeries(A.d, deg, np.concatenate(
        [A.truncate(deg).array, a.truncate(deg).array], axis=1))
    T = multiplier_matrix(col, Side.RIGHT, N)
    G = np.eye(T.shape[1], dtype=complex) - T.conj().T @ T
    return (max(0.0, -float(np.linalg.eigvalsh(G)[0])),
            float(np.linalg.norm(T, 2)))


def defect_oracle(B, M):
    """I - T T* on words of length <= M, T the dense right multiplier of
    B's terms of length <= M."""
    T = multiplier_matrix(B.truncate(min(series_degree(B), M)), Side.RIGHT, M)
    return np.eye(T.shape[0]) - T @ T.conj().T


def defect_scatter_oracle(B, M):
    """gleason._defect by one scatter: b.w sits at the shift_indices row of
    b.1^|w| plus the rank of w in its grade, and one subtract.at takes
    every B_w B_v* off I at its flat positions, pairs (w, v) in order."""
    n, p, off = word_count(B.d, M), B.p, np.array(grade_offsets(B.d, M))
    at = np.flatnonzero(B.array.any(axis=(1, 2)))
    grade = np.searchsorted(off, at, side="right") - 1
    one = shift_indices(B.d, M, (1,), left=False)[0]
    base = np.tile(np.arange(n), (grade.max(initial=0) + 1, 1))
    for g in range(1, len(base)):  # b.1^g from b.1^(g - 1), for short b
        base[g, :off[M + 1 - g]] = one[base[g - 1, :off[M + 1 - g]]]
    size = off[M + 1 - grade]  # the words b that w can follow
    k, j, b = np.nonzero(np.arange(n) < np.minimum.outer(size, size)[..., None])
    x, y = (base[grade[t], b] + at[t] - off[grade[t]] for t in (k, j))
    vals = np.einsum("kpq,jrq->kjpr", B.array[at], B.array[at].conj())[k, j]
    i = np.arange(p)
    pos = (x * (p * n) + y)[:, None, None] * p + (i[:, None] * (n * p) + i)
    D = np.eye(n * p, dtype=complex)
    np.subtract.at(D.reshape(-1), pos.ravel(), vals.ravel())
    return D


def membership_residual_oracle(model, E):
    """gleason.a_empty_sq's membership residual one column at a time: the
    largest ||E_j - W W+ E_j|| / max(1, ||E_j||) over the columns of E,
    each projection from its own matrix-vector products."""
    worst = 0.0
    for e in E.T:
        nrm = max(1.0, float(np.linalg.norm(e)))
        proj = model.W @ (model.Wplus @ e)
        worst = max(worst, float(np.linalg.norm(e - proj)) / nrm)
    return worst


def szego_svd_oracle(model, B0):
    """gleason's Szego distance from a second SVD: the largest distance of
    a column of T[:, :p] (I - B0) from range_basis(T[:, p:], 1e-10), over
    its norm floored at 1e-12."""
    p = model.p
    Q = range_basis(model.T[:, p:], 1e-10)
    target = model.T[:, 0:p] @ (np.eye(p) - B0)
    resid = target - Q @ (Q.conj().T @ target)
    worst = 0.0
    for j in range(p):
        scale = max(float(np.linalg.norm(target[:, j])), 1e-12)
        worst = max(worst, float(np.linalg.norm(resid[:, j])) / scale)
    return worst


def membership_bisection_oracle(mu, a, tau, tol=1e-8):
    """kernels.membership_norm's bisection one midpoint at a time, from the
    Gram spectrum mu, the weights a = |Q* w_c|^2 (pins x columns) and the
    per-column tolerances tau."""

    def ok(lam: float) -> bool:
        D = lam * lam * mu[:, None] + tau
        return bool(np.all(D > 0) and np.all((a / D).sum(0) <= 1))

    if ok(0.0):
        return 0.0
    if not ok(MEMBERSHIP_CAP):
        return math.inf
    lo, hi = 0.0, MEMBERSHIP_CAP
    while hi - lo > tol * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def outer_mate_a0sq(c):
    """|a(0)|^2 = exp of the mean of log(1 - |b|^2) over the circle, for
    the one-letter polynomial b(z) = sum c[k] z^k and its outer mate a
    (|a|^2 + |b|^2 = 1 on the circle), on 4096 midpoints."""
    z = np.exp(2j * np.pi * (np.arange(4096) + 0.5) / 4096)
    b = np.polyval(np.asarray(c)[::-1], z)
    return float(np.exp(np.mean(np.log(1.0 - np.abs(b) ** 2))))


def factor_psd_oracle(G, rank_tol):
    """factor_psd by one eigh of the whole of G."""
    evals, vecs = np.linalg.eigh(G)
    cut = rank_tol * max(float(np.abs(evals).max()), 1e-300)
    keep = evals > cut
    lam, V = np.sqrt(evals[keep]), vecs[:, keep]
    return V * lam[None, :], (V / lam[None, :]).conj().T, evals, cut


def spy_linalg(monkeypatch, names):
    """Record (name, shape of the first argument, keyword arguments) of
    every call to the named numpy.linalg routines, the calls numpy makes
    inside numpy.linalg too (np.linalg.norm(x, 2) reaches svd there)."""
    calls = []
    for mod in (np.linalg, np.linalg._linalg):
        for name in names:
            def spy(*args, _name=name, _fn=getattr(mod, name), **kwargs):
                calls.append((_name, np.shape(args[0]), kwargs))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, spy)
    return calls



class DenseParserOracle:
    """The parser that builds a dense FreeSeries for every atom and
    multiplies series by convolution, checked against parse."""

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
                a = scalar_times_eye_oracle(a, b.p, b.p)
            elif b.p == b.q == 1:
                b = scalar_times_eye_oracle(b, a.q, a.q)
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

def parse_oracle(text, d, deg, shape=(1, 1)):
    """parse by DenseParserOracle."""
    if d < 1 or deg < 0:
        raise ValueError("need d >= 1, deg >= 0")
    out = DenseParserOracle(text, d, deg, shape).parse()
    if (out.p, out.q) == (1, 1) and shape != (1, 1):
        out = scalar_times_eye_oracle(out, *shape)
    return out


def scalar_times_eye_oracle(F, p, q):
    """A scalar series with each coefficient c replaced by c I (p x q)."""
    return FreeSeries(F.d, F.deg, F.array * np.eye(p, q))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
