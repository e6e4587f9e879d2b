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

from .series import (FreeSeries, MatrixPoint, cayley, range_basis,
                     szego_coords, word_powers)
from .words import enumerate_tuples, reversal, shift_indices, word_count


class InvalidMomentsError(ValueError):
    """Raised when data fails the positivity needed for a GNS build."""


@dataclass
class MomentFunctional:
    """Moments mu(L^a) of a completely positive functional, |a| <= deg."""

    d: int
    p: int
    deg: int
    moments: dict[tuple[int, ...], np.ndarray]
    im_h0: np.ndarray | None = None

    def __post_init__(self):
        clean = {}
        for w, m in self.moments.items():
            w = tuple(int(k) for k in w)
            if len(w) > self.deg:
                raise ValueError(f"moment word {w} exceeds degree {self.deg}")
            m = np.asarray(m, dtype=complex)
            if m.shape != (self.p, self.p):
                raise ValueError(f"moment at {w} has shape {m.shape}")
            clean[w] = m
        self.moments = clean
        if self.im_h0 is not None:
            self.im_h0 = np.asarray(self.im_h0, dtype=complex)

    def moment(self, word) -> np.ndarray:
        return self.moments.get(tuple(word),
                                np.zeros((self.p, self.p), dtype=complex))

    def to_json(self) -> dict:
        data = {",".join(map(str, w)): {"re": m.real.tolist(),
                                        "im": m.imag.tolist()}
                for w, m in sorted(self.moments.items(),
                                   key=lambda t: (len(t[0]), t[0]))}
        out = {"d": self.d, "p": self.p, "deg": self.deg, "moments": data}
        if self.im_h0 is not None:
            out["im_h0"] = {"re": self.im_h0.real.tolist(),
                            "im": self.im_h0.imag.tolist()}
        return out


def clark_moments(B: FreeSeries, deg: int) -> MomentFunctional:
    """Moment functional of the Clark state attached to a Schur series B."""
    if B.p != B.q:
        raise ValueError("Clark moments need square coefficients")
    H = cayley(B.truncate(min(B.deg, deg)) if B.deg > deg else
               FreeSeries(B.d, deg, B.p, B.q, B.coeffs), "schur_to_herglotz")
    H0 = H.coeff(())
    moments = {(): 0.5 * (H0 + H0.conj().T)}
    for w in enumerate_tuples(B.d, deg):
        if not w:
            continue
        moments[w] = 0.5 * H.coeff(w[::-1]).conj().T
    im_h0 = (H0 - H0.conj().T) / 2j
    return MomentFunctional(B.d, B.p, deg, moments, im_h0)


def herglotz_from_moments(mu: MomentFunctional, Z: MatrixPoint,
                          deg: int | None = None) -> np.ndarray:
    """Reconstruct the Herglotz series value at a strict ball point:

        H(Z) = i I (x) Im H_0 - I (x) mu(1) + 2 sum_a Z^a (x) mu(L^{a+})*

    Exact (as a truncated sum) at jointly nilpotent points.
    """
    deg = mu.deg if deg is None else min(deg, mu.deg)
    n, p = Z.n, mu.p
    pows_check = word_powers(Z, deg)
    top = word_count(Z.d, deg) - word_count(Z.d, deg - 1) if deg else 0
    nilpotent = deg > 0 and not np.any(pows_check[-top:])
    if Z.row_norm() >= 1.0 and not nilpotent:
        raise ValueError("point must be in the open ball or jointly nilpotent")
    out = np.zeros((n * p, n * p), dtype=complex)
    if mu.im_h0 is not None:
        out += 1j * np.kron(np.eye(n), mu.im_h0)
    out -= np.kron(np.eye(n), mu.moment(()))
    pows = pows_check
    moms = np.stack([mu.moment(w[::-1]).conj().T
                     for w in enumerate_tuples(Z.d, deg)])
    out += 2.0 * np.einsum("wij,wkl->ikjl", pows, moms).reshape(n * p, n * p)
    return out


def moment_matrix(mu: MomentFunctional, N: int) -> np.ndarray:
    """Matrix M with blocks M[a, b] = mu((L^a)* L^b) over words |.| <= N.

    Entries mu((L^a)* L^b) involve degree up to 2N, so a window
    mu.deg >= 2N is required even though for a semi-Dirichlet functional
    only prefix quotients of length <= N survive:

        M[a, b] = mu(L^{a\\b})        if a is a prefix of b
                  mu(L^{b\\a})*       if b is a prefix of a
                  0                   otherwise
    """
    if mu.deg < 2 * N:
        raise ValueError(f"moment window {mu.deg} too short for N = {N}; "
                         f"need degree >= {2 * N}")
    words = enumerate_tuples(mu.d, N)
    n, p = len(words), mu.p
    M = np.zeros((n, p, n, p), dtype=complex)
    for quot in words:
        # b = a.quot: rows index b, cols index a
        b, a = shift_indices(mu.d, N, quot, left=False)
        blk = mu.moment(quot)
        M[a, :, b, :] = blk
        if quot:
            M[b, :, a, :] = blk.conj().T
    return M.reshape(n * p, n * p)


@dataclass
class GnsModel:
    """Finite GNS data of a moment functional: the compression of the
    left regular representation to the closed range of the moment form.

    T maps word coordinates to rank coordinates; columns of Tplus lift
    back.  pi holds the images of the left creation operators.
    """

    d: int
    N: int
    p: int
    rank: int
    T: np.ndarray
    Tplus: np.ndarray
    pi: list[np.ndarray]
    embedding: np.ndarray
    eigenvalues: np.ndarray = field(repr=False, default=None)


def gns_build(mu: MomentFunctional, N: int, rank_tol: float = 1e-10) -> GnsModel:
    """GNS construction from the degree-N moment window.

    Raises InvalidMomentsError when the moment matrix has an eigenvalue
    below -rank_tol * ||M||; eigenvalues within that band are treated as
    zero and quotiented out.
    """
    if N < 1:
        raise ValueError("GNS build needs N >= 1: pi_k is read off grades below N")
    M = moment_matrix(mu, N)
    evals, vecs = np.linalg.eigh(M)
    scale = max(float(evals[-1]), 0.0)
    cut = rank_tol * max(scale, 1e-300)
    if evals[0] < -cut:
        raise InvalidMomentsError(
            f"moment matrix eigenvalue {evals[0]:.3e} below tolerance")
    keep = evals > cut
    lam = evals[keep]
    V = vecs[:, keep]
    T = (np.sqrt(lam)[:, None] * V.conj().T)
    Tplus = V / np.sqrt(lam)[None, :]
    p = mu.p
    # words below the top grade come first in the graded order
    T_int = T[:, :word_count(mu.d, N - 1) * p]
    T_int_pinv = np.linalg.pinv(T_int, rcond=rank_tol)
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
                    embedding=T[:, 0:p], eigenvalues=evals)


def _interior_basis(model: GnsModel) -> np.ndarray:
    cols = word_count(model.d, model.N - 1) * model.p
    return range_basis(model.T[:, :cols], 1e-12)


def interior_isometry_defect(model: GnsModel) -> float:
    """Worst deviation of Pi_k* Pi_j from delta_kj I on the span of the
    classes of words of length <= N - 1; zero means the GNS row is a row
    isometry there."""
    Q = _interior_basis(model)
    worst = 0.0
    eye = np.eye(Q.shape[1])
    for k, Pk in enumerate(model.pi):
        for j, Pj in enumerate(model.pi):
            G = Q.conj().T @ Pk.conj().T @ Pj @ Q
            if k == j:
                G = G - eye
            worst = max(worst, float(np.linalg.norm(G, 2)))
    return worst


def cuntz_check(model: GnsModel) -> dict:
    """Row coisometry defect of the GNS row on the interior subspace.

    Measures || Q* (I - sum_k pi_k pi_k*) Q || where Q spans the image
    of words of length <= N - 1.  A Cuntz (quotient) row gives 0.
    """
    Q = _interior_basis(model)
    D = np.eye(model.rank, dtype=complex)
    for P in model.pi:
        D = D - P @ P.conj().T
    defect = float(np.linalg.norm(Q.conj().T @ D @ Q, 2))
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
    Spinv = np.linalg.pinv(S, rcond=rank_tol)
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
