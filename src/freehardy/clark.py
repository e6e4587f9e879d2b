"""Clark moment functionals, GNS row contractions, and Cauchy transforms.

A contractive free series B with square coefficients determines a
Herglotz series H = (I + B)(I - B)^{-1} and through it a completely
positive moment functional mu on free polynomials:

    mu(1)     = Re H_0
    mu(L^a)   = (1/2) H_{a+}^*          (a nonempty, a+ the reversed word)

mu is semi-Dirichlet: the product structure of its moment matrix only
involves prefix quotients, which is what makes the GNS row contraction
computable from a finite moment window.  The skew part of H_0 is not
visible to mu, so it is carried alongside as metadata to allow exact
reconstruction of H.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import (FreeSeries, MatrixPoint, cayley, evaluate, factor_psd,
                     range_basis, szego_coords, word_powers)
from .words import (enumerate_tuples, grade_offsets, reversal, shift_indices,
                    word_count)


class InvalidMomentsError(ValueError):
    """Raised when data fails the positivity needed for a GNS build."""


@dataclass
class MomentFunctional:
    """Moments mu(L^a) of a completely positive functional, |a| <= deg:
    array[i] is the p x p moment at the i-th word of
    enumerate_tuples(d, deg)."""

    d: int
    deg: int
    array: np.ndarray
    im_h0: np.ndarray | None = None

    def __post_init__(self):
        self.array = np.asarray(self.array, dtype=complex)
        n, p = word_count(self.d, self.deg), self.array.shape[-1]
        if self.array.shape != (n, p, p):
            raise ValueError(f"moment array of shape {self.array.shape}, "
                             f"expected ({n}, {p}, {p})")
        if self.im_h0 is not None:
            self.im_h0 = np.asarray(self.im_h0, dtype=complex)

    @property
    def p(self) -> int:
        return self.array.shape[1]

    def to_json(self) -> dict:
        words = enumerate_tuples(self.d, self.deg)
        data = {",".join(map(str, w)): {"re": m.real.tolist(),
                                        "im": m.imag.tolist()}
                for w, m in zip(words, self.array)}
        out = {"d": self.d, "p": self.p, "deg": self.deg, "moments": data}
        if self.im_h0 is not None:
            out["im_h0"] = {"re": self.im_h0.real.tolist(),
                            "im": self.im_h0.imag.tolist()}
        return out


def clark_moments(B: FreeSeries, deg: int) -> MomentFunctional:
    """Moment functional of the Clark state attached to a Schur series B."""
    if B.p != B.q:
        raise ValueError("Clark moments need square coefficients")
    return herglotz_moments(cayley(B.truncate(deg), "schur_to_herglotz"))


def herglotz_moments(H: FreeSeries) -> MomentFunctional:
    """Moment functional, to the carried degree of H, of the Herglotz
    series H: mu(1) = Re H_0 and mu(L^a) = (1/2) H_{a+}^*."""
    moments = 0.5 * H.array[reversal(H.d, H.deg)].conj().transpose(0, 2, 1)
    H0 = H.array[0]
    moments[0] = 0.5 * (H0 + H0.conj().T)
    return MomentFunctional(H.d, H.deg, moments, (H0 - H0.conj().T) / 2j)


def herglotz_from_moments(mu: MomentFunctional, Z: MatrixPoint) -> np.ndarray:
    """Reconstruct the Herglotz series value at a strict ball point:

        H(Z) = i I (x) Im H_0 - I (x) mu(1) + 2 sum_a Z^a (x) mu(L^{a+})*,

    the value of the series with coefficients 2 mu(L^{a+})* and constant
    2 mu(1)* - mu(1) + i Im H_0.  Exact (as a truncated sum) at points
    jointly nilpotent of order <= mu.deg, which are accepted at any row
    norm: their word powers vanish on the top grade.
    """
    if Z.row_norm() >= 1.0 and np.any(
            word_powers(Z, mu.deg)[grade_offsets(Z.d, mu.deg)[-2]:]):
        raise ValueError("point must be in the open ball or jointly nilpotent")
    H = 2.0 * mu.array[reversal(mu.d, mu.deg)].conj().transpose(0, 2, 1)
    H[0] -= mu.array[0]
    if mu.im_h0 is not None:
        H[0] += 1j * mu.im_h0
    return evaluate(FreeSeries(mu.d, mu.deg, H), Z)


def moment_matrix(mu: MomentFunctional, N: int) -> np.ndarray:
    """Matrix M with blocks M[a, b] = mu((L^a)* L^b) over words |.| <= N.

    For a semi-Dirichlet functional only prefix quotients survive, so M
    reads moments of words of length <= N only; mu.deg >= N is required:

        M[a, b] = mu(L^{a\\b})        if a is a prefix of b
                  mu(L^{b\\a})*       if b is a prefix of a
                  0                   otherwise
    """
    if mu.deg < N:
        raise ValueError(f"moment window {mu.deg} too short for N = {N}")
    off = grade_offsets(mu.d, N)
    n, p = off[-1], mu.p
    M = np.zeros((n, p, n, p), dtype=complex)
    for t in range(N + 1):
        # b = a.quot, at a.1^t plus the rank of quot: rows index b, cols a
        b, a = shift_indices(mu.d, N, (1,) * t, left=False)
        b, a = b[:, None] + np.arange(mu.d ** t), a[:, None]
        M[a, :, b, :] = mu.array[off[t]:off[t + 1]]
        if t:
            M[b, :, a, :] = M[a, :, b, :].conj().swapaxes(2, 3)
    return M.reshape(n * p, n * p)


@dataclass
class GnsModel:
    """Finite GNS data of a moment functional: the compression of the
    left regular representation to the closed range of the moment form.

    T maps word coordinates to rank coordinates; columns of Tplus lift
    back.  pi holds the images of the left creation operators, interior
    an orthonormal basis of the image of the words of length <= N - 1,
    and M the moment matrix that the build factored.
    """

    d: int
    N: int
    p: int
    rank: int
    T: np.ndarray
    Tplus: np.ndarray
    pi: list[np.ndarray]
    interior: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False, default=None)
    M: np.ndarray = field(repr=False, default=None)


def gns_build(mu: MomentFunctional, N: int, rank_tol: float = 1e-10) -> GnsModel:
    """GNS construction from the degree-N moment window.

    Raises InvalidMomentsError when the moment matrix has an eigenvalue
    below -rank_tol * ||M||; eigenvalues within that band are treated as
    zero and quotiented out.  One SVD of the interior columns T_int of T
    serves pi and interior, which is range_basis(T_int, 1e-12).
    """
    if N < 1:
        raise ValueError("GNS build needs N >= 1: pi_k is read off grades below N")
    M = moment_matrix(mu, N)
    W, Wplus, evals, cut = factor_psd(M, rank_tol)
    if evals[0] < -cut:
        raise InvalidMomentsError(
            f"moment matrix eigenvalue {evals[0]:.3e} below tolerance")
    T, Tplus = W.conj().T, Wplus.conj().T
    p = mu.p
    # words below the top grade come first in the graded order
    T_int_pinv, U, s = _pinv(T[:, :word_count(mu.d, N - 1) * p], rank_tol)
    # pi_k acts on GNS classes by letter prepending: pi_k [f] = [L_k f].
    # The window only determines this on classes of words below the top
    # grade; least squares extends by 0 on any orthogonal complement.
    T_words = T.reshape(T.shape[0], -1, p)
    pi = []
    for k in range(1, mu.d + 1):
        rows, _ = shift_indices(mu.d, N, (k,), left=True)
        S = T_words[:, rows, :].reshape(T.shape[0], -1)
        pi.append(S @ T_int_pinv)
    return GnsModel(mu.d, N, p, int(T.shape[0]), T, Tplus, pi,
                    U[:, s > 1e-12 * max(s.max(initial=0.0), 1e-300)], evals, M)


def _pinv(A: np.ndarray, rcond: float):
    """np.linalg.pinv(A, rcond), with the U and s of its one SVD."""
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    s_inv = np.divide(1.0, s, out=np.zeros_like(s),
                      where=s > rcond * s.max(initial=0.0))
    return Vh.conj().T @ (s_inv[:, None] * U.conj().T), U, s


def interior_isometry_defect(model: GnsModel) -> float:
    """Worst deviation of Pi_k* Pi_j from delta_kj I on the span of the
    classes of words of length <= N - 1; zero means the GNS row is a row
    isometry there."""
    Q = model.interior
    worst = 0.0
    eye = np.eye(Q.shape[1])
    for k, Pk in enumerate(model.pi):
        for j, Pj in enumerate(model.pi):
            G = Q.conj().T @ Pk.conj().T @ Pj @ Q
            # the 2-norm of a Hermitian matrix is its largest |eigenvalue|
            worst = max(worst, float(np.abs(np.linalg.eigvalsh(G - eye)).max(
                initial=0.0)) if k == j else float(np.linalg.norm(G, 2)))
    return worst


def cuntz_check(model: GnsModel) -> dict:
    """Row coisometry defect of the GNS row on the interior subspace.

    Measures || Q* (I - sum_k pi_k pi_k*) Q || where Q spans the image
    of words of length <= N - 1.  A Cuntz (quotient) row gives 0.
    """
    Q = model.interior
    D = np.eye(model.rank, dtype=complex)
    for P in model.pi:
        D = D - P @ P.conj().T
    defect = float(np.abs(np.linalg.eigvalsh(Q.conj().T @ D @ Q)).max(
        initial=0.0))
    return {"defect": defect, "rank": model.rank}


def cauchy_transform_matrix(mu: MomentFunctional, side: str,
                            N: int) -> np.ndarray:
    """Cauchy transform from word coordinates of the GNS space to
    coefficient coordinates of the Herglotz space.

    Column a is the coefficient stack of the image of L^a (x) h: the
    coefficient function K^L_{a+} (left) or K^R_a (right), read off the
    moments through K^L_{c, a+} = mu((L^{c+})* L^a) and
    K^R_{c, a} = mu((L^c)* L^a).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    M = moment_matrix(mu, N)
    if side == "right":
        return M
    rows = M.reshape(word_count(mu.d, N), mu.p, -1)[reversal(mu.d, N)]
    return rows.reshape(M.shape)


def vb_build(mu: MomentFunctional, N: int, rank_tol: float = 1e-10) -> dict:
    """Cauchy-transported GNS row on Herglotz coefficient coordinates.

    V_k = C pi_k C* carried on the image of the left transform; the
    carrier columns (transform composed with the GNS lift) span the image
    and are orthonormal in the Herglotz-space inner product, so operator
    identities transport verbatim from the GNS rank coordinates.  The
    range of the row is spanned by the coefficient functions at nonunit
    words; its orthogonal complement consists of constant functions.
    """
    gns = gns_build(mu, N, rank_tol=rank_tol)
    C = cauchy_transform_matrix(mu, "left", N)
    S = C @ gns.Tplus
    Spinv = _pinv(S, rank_tol)[0]
    V = [S @ pk @ Spinv for pk in gns.pi]
    return {"V": V, "carrier": S, "transform": C,
            "range_basis": range_basis(C[:, mu.p:], 1e-10), "gns": gns}


def gns_kernel_coords(Z: MatrixPoint, y: np.ndarray, v: np.ndarray,
                      N: int) -> np.ndarray:
    """Coordinates x_b = <Z^{b+} v, y> of a transported kernel vector.

    These are the coordinates (scalar p = 1 case) on which the adjoints
    of the GNS row act by letter appending; see vB_adjoint_defect.
    """
    # Z^{b+} is the transpose of (Z^T)^b, so <Z^{b+} v, y> = <(Z^T)^b y-bar, v-bar>
    Zt = MatrixPoint(Z.d, Z.n, [m.T for m in Z.mats])
    return szego_coords(Zt, np.conj(v), np.conj(y), N)


def vb_adjoint_defect(model: GnsModel, Z: MatrixPoint, y: np.ndarray,
                      v: np.ndarray) -> float:
    """Check the adjoint action of the GNS row on transported kernel
    vectors at a jointly nilpotent point Z of order <= N:

        pi_j* T x' = T x''_j

    where x' is the kernel coordinate vector with its unit-word entry
    removed and x''_j has entries <Z^{w+} Z_j v, y>.  Returns the worst
    residual over j, relative to the transported norm.
    """
    if model.p != 1:
        raise ValueError("kernel transport check is scalar (p = 1) only")
    x = gns_kernel_coords(Z, y, v, model.N)
    xp = x.copy()
    xp[0] = 0.0
    lhs_base = model.T @ xp
    scale = max(1.0, float(np.linalg.norm(model.T @ x)))
    worst = 0.0
    for j in range(model.d):
        xj = gns_kernel_coords(Z, y, Z.mats[j] @ np.reshape(v, -1), model.N)
        res = np.linalg.norm(model.pi[j].conj().T @ lhs_base - model.T @ xj)
        worst = max(worst, float(res) / scale)
    return worst
