"""de Branges-Rovnyak model spaces, Gleason solutions, and extremeness tests.

The model space of a Schur-class series B is carried numerically by the
Hermitian matrix D = I - T T* on truncated Fock coordinates, T the
multiplier matrix of B.  Its eigen-factorization provides rank
coordinates in which the model inner product is Euclidean; all Gleason
and extremality quantities below are computed there.

A column contraction B is column-extreme (CE) when it admits no nonzero
Schur completion [B; b].  The battery in ce_test probes four equivalent
finite criteria: the Gleason extremality gap, the Szego distance in the
Clark GNS space, failure of membership of B h in the model space, and
(for square B) the Cuntz property of the GNS row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clark import clark_moments, cuntz_check, gns_build, moment_matrix
from .fock import Side
from .kernels import KernelKind, KernelSpec, membership_norm, nilpotent_pins
from .series import (FreeSeries, MatrixPoint, constant_series,
                     letter_series, multiplier_matrix, multiply,
                     schur_norm_estimate, szego_coords, to_dense)
from .words import word_count


class NotSchurError(ValueError):
    """The input series fails the contractivity estimate."""


class CeObstructionError(RuntimeError):
    """No column completion exists: the series is column-extreme."""


@dataclass
class DbrModel:
    B: FreeSeries
    N: int
    M: int               # interior truncation: words of length <= M carried
    side: Side
    rank: int
    W: np.ndarray        # (n_words * p) x rank, columns H(B)-orthonormal
    Wplus: np.ndarray    # rank x (n_words * p), left inverse of W
    eigenvalues: np.ndarray
    compression_residual: float

    @property
    def p(self) -> int:
        return self.B.p

    def membership(self, coeffs: np.ndarray) -> dict:
        """Residual of a coefficient vector against the retained range of
        D; small residual certifies membership in the model space."""
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        nrm = max(1.0, float(np.linalg.norm(coeffs)))
        proj = self.W @ (self.Wplus @ coeffs)
        return {"residual": float(np.linalg.norm(coeffs - proj)) / nrm,
                "coords": self.Wplus @ coeffs}

    def kernel_coords(self, Z: MatrixPoint, y: np.ndarray, v: np.ndarray,
                      g: np.ndarray) -> np.ndarray:
        """Rank coordinates of the model kernel vector pinned at (Z,y,v,g)."""
        x = szego_coords(Z, y, v, self.M)
        return self.W.conj().T @ np.kron(x, np.asarray(g, dtype=complex))


def series_degree(B: FreeSeries) -> int:
    return max((len(w) for w, m in B.coeffs.items() if np.any(m)), default=0)


def dbr_model(B: FreeSeries, N: int, rank_tol: float = 1e-10,
              side: Side = Side.RIGHT, tol: float = 1e-8) -> DbrModel:
    """Model space of a Schur series on words of length <= N - deg(B).

    D = I - T T* is formed on the full truncation and then compressed to
    the interior grades; the top deg(B) grades only carry truncation
    artifacts of the multiplier action and are discarded.
    """
    degB = series_degree(B)
    B = B.truncate(degB)
    est = schur_norm_estimate(B, N)
    if est > 1.0 + tol:
        raise NotSchurError(f"multiplier norm estimate {est:.6f} exceeds 1")
    M = N - degB
    if M < 1:
        raise ValueError(f"truncation {N} too small for degree {degB}")
    T = multiplier_matrix(B, side, N)
    D = np.eye(T.shape[0], dtype=complex) - T @ T.conj().T
    # words of length <= M come first in the graded order
    m = word_count(B.d, M) * B.p
    D = D[:m, :m]
    evals, vecs = np.linalg.eigh(D)
    scale = max(float(np.abs(evals).max()), 1e-300)
    keep = evals > rank_tol * scale
    lam, V = evals[keep], vecs[:, keep]
    W = V * np.sqrt(lam)[None, :]
    Wplus = (V / np.sqrt(lam)[None, :]).conj().T
    # report how far the retained range is from being backward-shift
    # invariant (exact invariance only holds without truncation)
    res = 0.0
    for k in range(1, B.d + 1):
        Lk = multiplier_matrix(letter_series(B.d, 1, k, B.p), Side.LEFT, M)
        G = (np.eye(W.shape[0]) - V @ V.conj().T) @ (Lk.conj().T @ V)
        res = max(res, float(np.linalg.norm(G, 2)))
    return DbrModel(B, N, M, side, int(W.shape[1]), W, Wplus, evals, res)


def gleason_vector(B: FreeSeries) -> list[FreeSeries]:
    """The canonical Gleason tuple: component j strips a leading letter j,
    so that Z.(vec)(Z) = B(Z) - B(0) identically."""
    comps = []
    for j in range(1, B.d + 1):
        coeffs = {w[1:]: m for w, m in B.coeffs.items()
                  if w and w[0] == j}
        comps.append(FreeSeries(B.d, max(B.deg - 1, 0), B.p, B.q, coeffs))
    return comps


def gleason_maps(model: DbrModel) -> list[np.ndarray]:
    """Rank-coordinate matrices of the Gleason tuple components."""
    B = model.B
    return [model.Wplus @ to_dense(comp, model.M).reshape(-1, B.q)
            for comp in gleason_vector(B)]


def shift_compressions(model: DbrModel) -> list[np.ndarray]:
    """X_j: compression of the backward shift L_j* to the model space."""
    out = []
    for k in range(1, model.B.d + 1):
        Lk = multiplier_matrix(letter_series(model.B.d, 1, k, model.p),
                               Side.LEFT, model.M)
        out.append(model.Wplus @ Lk.conj().T @ model.W)
    return out


def vacuum_kernel(model: DbrModel) -> np.ndarray:
    """K_0: rank coordinates of the model kernel at the origin, as a map
    from the coefficient space."""
    return model.W[0:model.p, :].conj().T


def extremality_gap(B: FreeSeries, N: int, tol: float = 1e-8,
                    rank_tol: float = 1e-10) -> dict:
    """Gap matrix (I - B(0)*B(0)) - <Gleason tuple Gram> at a ladder of
    truncations; B is extremal when the gap vanishes.  The model at the
    top rung, dbr_model(B, N, rank_tol=rank_tol), is returned with it."""
    ladder = []
    gap_mat = top = None
    for Ncur in (N, N - 1, N - 2):
        if Ncur - series_degree(B) < 1:
            break
        model = dbr_model(B, Ncur, rank_tol=rank_tol)
        B0 = B.coeff(())
        G = np.eye(B.q, dtype=complex) - B0.conj().T @ B0
        for C in gleason_maps(model):
            G = G - C.conj().T @ C
        G = 0.5 * (G + G.conj().T)
        if gap_mat is None:
            gap_mat, top = G, model
        ladder.append({"N": Ncur, "gap_norm": float(np.linalg.norm(G, 2))})
    extremal = bool(ladder and ladder[0]["gap_norm"] <= tol)
    trend = len(ladder) >= 2 and ladder[0]["gap_norm"] < ladder[-1]["gap_norm"] - tol
    return {"gap": gap_mat, "ladder": ladder, "extremal": extremal,
            "trend_decreasing": bool(trend), "model": top}


def support(A: FreeSeries, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of span{ran A_a* : all coefficients}."""
    blocks = [m.conj().T for m in A.coeffs.values() if np.any(m)]
    if not blocks:
        return np.zeros((A.q, 0), dtype=complex)
    stacked = np.hstack(blocks)
    U, s, _ = np.linalg.svd(stacked, full_matrices=False)
    return U[:, s > tol * max(float(s[0]), 1e-300)]


def a_empty_sq(A: FreeSeries, N: int, tol: float = 1e-6,
               rank_tol: float = 1e-10) -> dict:
    """The Hermitian matrix a0^2 = I - A(0)*A(0) - <Gleason Gram>, clipped
    to PSD, cross-validated against (I + Ahat*Ahat)^{-1} when membership
    of A.h in the model certifies the graph realization of Ahat.  The
    model dbr_model(A, N, rank_tol=rank_tol) is returned with it."""
    res = extremality_gap(A, N, rank_tol=rank_tol)
    if res["model"] is None:
        raise ValueError(
            f"truncation {N} too small for degree {series_degree(A)}")
    G = res["gap"]
    evals, vecs = np.linalg.eigh(G)
    if evals[0] < -tol:
        raise ValueError(
            f"extremality gap indefinite ({evals[0]:.3e}); truncation too coarse")
    clipped = (vecs * np.clip(evals, 0.0, None)[None, :]) @ vecs.conj().T
    model = res["model"]
    E = to_dense(A, model.M).reshape(-1, A.q)
    memb = max(model.membership(E[:, j])["residual"] for j in range(A.q))
    dual = None
    if memb <= tol:
        C = model.Wplus @ E
        dual = np.linalg.inv(np.eye(A.q) + C.conj().T @ C)
    return {"a0_sq": clipped, "dual": dual, "membership_residual": memb,
            "model": model}


def l_invariance_test(A: FreeSeries, N: int, tol: float = 1e-8) -> dict:
    """Smallest rho with <Gleason Gram> <= rho (I - A(0)*A(0)); the model
    space is invariant under the letter shifts iff rho < 1."""
    model = dbr_model(A, N)
    A0 = A.coeff(())
    bound = np.eye(A.q, dtype=complex) - A0.conj().T @ A0
    G = sum(C.conj().T @ C for C in gleason_maps(model))
    G = 0.5 * (G + G.conj().T)
    evals, vecs = np.linalg.eigh(bound)
    if evals.min() <= tol:
        null = vecs[:, evals <= tol]
        if np.linalg.norm(G @ null) > tol:
            return {"invariant": False, "rho": math.inf}
        pos = evals > tol
        R = vecs[:, pos] / np.sqrt(evals[pos])[None, :]
    else:
        R = vecs / np.sqrt(evals)[None, :]
    pencil = R.conj().T @ G @ R
    rho = float(np.linalg.eigvalsh(0.5 * (pencil + pencil.conj().T))[-1])
    return {"invariant": bool(rho < 1.0 - tol), "rho": rho}


def exactgs_residual(A: FreeSeries, N: int, rank_tol: float = 1e-10) -> float:
    """Residual of I - X*X = K0 K0* + (A a0)(A a0)* on the model space."""
    gap = a_empty_sq(A, N, rank_tol=rank_tol)
    model = gap["model"]
    X = shift_compressions(model)
    K0 = vacuum_kernel(model)
    evals, vecs = np.linalg.eigh(gap["a0_sq"])
    a0 = (vecs * np.sqrt(np.clip(evals, 0.0, None))[None, :]) @ vecs.conj().T
    E = to_dense(A, model.M).reshape(-1, A.q)
    Aa0 = model.Wplus @ E @ a0
    lhs = np.eye(model.rank, dtype=complex) - sum(x.conj().T @ x for x in X)
    rhs = K0 @ K0.conj().T + Aa0 @ Aa0.conj().T
    Q = _class_span(model, model.M - 1)
    return float(np.linalg.norm(Q.conj().T @ (lhs - rhs) @ Q, 2))


def _class_span(model: DbrModel, max_len: int) -> np.ndarray:
    """Orthonormal basis, in rank coordinates, of the span of model
    kernel vectors pinned at basis words of length <= max_len."""
    rows = word_count(model.B.d, max_len) * model.p
    U, s, _ = np.linalg.svd(model.W[:rows, :].conj().T, full_matrices=False)
    return U[:, s > 1e-10 * max(float(s[0]), 1e-300)]


def kernel_identity_residual(A: FreeSeries, N: int, Z: MatrixPoint,
                             y, v, g) -> float:
    """Residual of (I - X* L*) K_Z = K_0 on a (preferably jointly
    nilpotent) pin, in model rank coordinates."""
    model = dbr_model(A, N)
    X = shift_compressions(model)
    y = np.asarray(y, dtype=complex).reshape(-1)
    k = model.kernel_coords(Z, y, v, g)
    origin = MatrixPoint(Z.d, Z.n, [np.zeros((Z.n, Z.n))] * Z.d)
    k0 = model.kernel_coords(origin, y, v, g)
    acc = k.copy()
    for j, Xj in enumerate(X):
        kj = model.kernel_coords(Z, Z.mats[j].conj().T @ y, v, g)
        acc = acc - Xj.conj().T @ kj
    scale = max(1.0, float(np.linalg.norm(k)))
    return float(np.linalg.norm(acc - k0)) / scale


def square_completion(B: FreeSeries) -> FreeSeries:
    """Pad a rectangular contraction with zero rows or columns to a
    square symbol; CE criteria are invariant under this padding."""
    if B.p == B.q:
        return B
    n = max(B.p, B.q)
    coeffs = {}
    for w, m in B.coeffs.items():
        mat = np.zeros((n, n), dtype=complex)
        mat[:B.p, :B.q] = m
        coeffs[w] = mat
    return FreeSeries(B.d, B.deg, n, n, coeffs)


def szego_distance(B: FreeSeries, N: int, rank_tol: float = 1e-10) -> float:
    """Distance of the embedded (I - B(0)) h to the span of nonunit-word
    classes in the Clark GNS space of the square completion, maximized
    over basis vectors h.  Zero characterizes the Szego extremal
    property."""
    Bsq = square_completion(B)
    mu = clark_moments(Bsq, 2 * N)
    model = gns_build(mu, N, rank_tol=rank_tol)
    p = model.p
    shifted = model.T[:, p:]
    U, s, _ = np.linalg.svd(shifted, full_matrices=False)
    Q = U[:, s > 1e-10 * max(float(s[0]) if len(s) else 0.0, 1e-300)]
    B0 = Bsq.coeff(())
    target = model.T[:, 0:p] @ (np.eye(p) - B0)
    resid = target - Q @ (Q.conj().T @ target)
    worst = 0.0
    for j in range(p):
        scale = max(float(np.linalg.norm(target[:, j])), 1e-12)
        worst = max(worst, float(np.linalg.norm(resid[:, j])) / scale)
    return worst


def ce_test(B: FreeSeries, N: int, tol: float = 1e-8,
            rank_tol: float = 1e-10, seed: int = 0) -> dict:
    """Column-extremeness battery.

    The verdict follows the Gleason gap; the other criteria are
    independent cross-checks and raise flags when they disagree.
    """
    B = B.truncate(min(series_degree(B), N))
    est = schur_norm_estimate(B, N)
    if est > 1.0 + tol:
        raise NotSchurError(f"multiplier norm estimate {est:.6f} exceeds 1")
    gap = extremality_gap(B, N, tol=tol, rank_tol=rank_tol)
    by_gleason = gap["extremal"]

    Bsq = square_completion(B)
    n_gns = min(N, 5)
    dist = szego_distance(B, n_gns, rank_tol=rank_tol)
    by_szego = dist <= 1e-6

    # more pins than the span of their kernel functions can carry, so that
    # the kernel Gram is singular and membership failures register as
    # uncertifiable rather than as a large finite bound
    n_pin = 4
    pins = nilpotent_pins(B.d, word_count(B.d, n_pin - 1) + 2,
                          np.random.default_rng(seed), n=n_pin, scale=0.85)
    spec = KernelSpec(KernelKind.DBR_LEFT, Bsq, deg=2 * N)
    lam = 0.0
    for j in range(Bsq.q):
        h = np.zeros((Bsq.q, 1), dtype=complex)
        h[j, 0] = 1.0
        f = multiply(Bsq, constant_series(Bsq.d, Bsq.deg, h))
        r = membership_norm(spec, f, pins)["lambda"]
        lam = max(lam, r)
    by_membership = not math.isfinite(lam)

    by_cuntz = None
    cuntz_defect = None
    if B.p == B.q:
        mu = clark_moments(Bsq, 2 * n_gns)
        cuntz = cuntz_check(gns_build(mu, n_gns, rank_tol=rank_tol))
        cuntz_defect = cuntz["defect"]
        by_cuntz = cuntz_defect <= 1e-6

    verdict = by_gleason
    flags = []
    for name, val in (("szego", by_szego), ("membership", by_membership),
                      ("cuntz", by_cuntz)):
        if val is not None and val != verdict:
            flags.append(f"{name} criterion disagrees with gleason verdict")
    return {"verdict": "CE" if verdict else "not-CE",
            "by_gleason": {"extremal": by_gleason,
                           "ladder": gap["ladder"],
                           "trend_decreasing": gap["trend_decreasing"]},
            "by_szego": {"distance": dist, "extremal": by_szego},
            "by_membership": {"lambda": lam, "extremal": by_membership},
            "by_cuntz": ({"defect": cuntz_defect, "extremal": by_cuntz}
                         if by_cuntz is not None else None),
            "flags": flags}


def _weighted_transform(B: FreeSeries, N: int, rank_tol: float):
    """Shared setup: the model, the Clark GNS model, and the weighted
    Cauchy transform matrix from GNS rank coordinates to model rank
    coordinates."""
    model = dbr_model(B, N, rank_tol=rank_tol)
    mu = clark_moments(B, 2 * N)
    gns = gns_build(mu, N, rank_tol=rank_tol)
    one = constant_series(B.d, B.deg, np.eye(B.p))
    T_im = multiplier_matrix(one - B, Side.RIGHT, N)
    M = moment_matrix(mu, N)
    rows = word_count(B.d, model.M) * B.p
    Fhat = model.Wplus @ (T_im @ M)[:rows, :] @ gns.Tplus
    return model, gns, Fhat


def clark_gleason_residual(B: FreeSeries, N: int,
                           rank_tol: float = 1e-10) -> float:
    """Residual of the transport formula expressing the canonical Gleason
    tuple through the Clark GNS row: component j agrees with the weighted
    Cauchy transform of Pi_j* applied to the embedded (I - B(0))."""
    if B.p != B.q:
        raise ValueError("transport check needs a square symbol")
    B = B.truncate(series_degree(B))
    model, gns, Fhat = _weighted_transform(B, N, rank_tol)
    Cg = gleason_maps(model)
    embed = gns.T[:, 0:B.p]
    shift = np.eye(B.p) - B.coeff(())
    worst = 0.0
    for j in range(B.d):
        rhs = Fhat @ gns.pi[j].conj().T @ embed @ shift
        worst = max(worst, float(np.linalg.norm(Cg[j] - rhs, 2)))
    return worst


def clark_intertwining_residual(B: FreeSeries, N: int,
                                rank_tol: float = 1e-10) -> float:
    """Residual of the weighted-Cauchy-transform intertwining: the
    transported adjoint of the Clark GNS row agrees with
    X_j + (Gleason)_j (I - B(0))^{-1} K_0* on the model space."""
    if B.p != B.q:
        raise ValueError("intertwining check needs a square symbol")
    B = B.truncate(series_degree(B))
    model, gns, Fhat = _weighted_transform(B, N, rank_tol)
    X = shift_compressions(model)
    Cg = gleason_maps(model)
    K0 = vacuum_kernel(model)
    inv = np.linalg.inv(np.eye(B.p) - B.coeff(()))
    # compare on kernel-vector spans of short words, clear of the boundary
    margin = series_degree(B) + 1
    Q = _class_span(model, max(model.M - margin, 0))
    worst = 0.0
    for j in range(B.d):
        lhs = Fhat @ gns.pi[j].conj().T @ Fhat.conj().T
        rhs = X[j] + Cg[j] @ inv @ K0.conj().T
        worst = max(worst, float(np.linalg.norm(
            Q.conj().T @ (lhs - rhs) @ Q, 2)))
    return worst
