"""de Branges-Rovnyak model spaces, Gleason solutions, and extremeness tests.

The model space of a Schur-class series B is carried numerically by the
Hermitian matrix D = I - T T* on truncated Fock coordinates, T the
right multiplier matrix of B.  Its rank factorization D ~ W W*
(series.factor_psd, as for the Clark moment matrix) provides rank
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

from .clark import (GnsModel, InvalidMomentsError, clark_moments, cuntz_check,
                    gns_build)
from .fock import Side
from .kernels import KernelKind, KernelSpec, membership_norm, nilpotent_stack
from .series import (FreeSeries, MatrixPoint, constant_series,
                     dagger_series, factor_psd, fock_degree,
                     multiplier_matrix, range_basis, schur_norm_bound,
                     schur_norm_estimate, series_degree, strip_letter,
                     szego_coords)
from .words import shift_indices, word_count


class NotSchurError(ValueError):
    """The input series fails the contractivity estimate."""


class CeObstructionError(RuntimeError):
    """No column completion exists: the series is column-extreme."""


@dataclass
class DbrModel:
    """The model space of B on words of length <= M: W W* factors
    D = I - T T* there (series.factor_psd, by the components of D)."""
    B: FreeSeries
    N: int
    M: int               # interior truncation: words of length <= M carried
    rank: int
    W: np.ndarray        # (n_words * p) x rank, columns H(B)-orthonormal
    Wplus: np.ndarray    # rank x (n_words * p), left inverse of W
    gleason: list[FreeSeries]  # gleason_vector(B), shared by the rungs

    @property
    def p(self) -> int:
        return self.B.p

    def kernel_coords(self, Z: MatrixPoint, y: np.ndarray, v: np.ndarray,
                      g: np.ndarray) -> np.ndarray:
        """Rank coordinates of the model kernel vector pinned at (Z,y,v,g)."""
        x = szego_coords(Z, y, v, self.M)
        return self.W.conj().T @ np.kron(x, np.asarray(g, dtype=complex))


def dbr_model(B: FreeSeries, N: int, rank_tol: float = 1e-10,
              side: Side = Side.RIGHT, tol: float = 1e-8) -> DbrModel:
    """Model space of a Schur series on words of length <= M = N - deg(B).
    Side.LEFT gives the right-side model of dagger_series(B): word
    reversal is a unitary that fixes the vacuum and swaps left and right
    letter shifts.  D = I - T T* is built on words of length <= M from the
    terms of B (_defect); a right multiplier only lengthens words, so this
    is the interior block of I - T T* at the full truncation N."""
    if side is Side.LEFT:
        B = dagger_series(B)
    return _models(B, N, 1, rank_tol, tol)[0]


def _models(B: FreeSeries, N: int, rungs: int, rank_tol: float,
            tol: float) -> list[DbrModel]:
    """dbr_model at N, N - 1, ..., for up to `rungs` truncations that keep
    an interior, all from one Schur check and one D.  In graded order the
    interior entries of D do not depend on N, so D at a lower truncation
    is a leading principal block of D at N, and each rung's W and W+ are
    factor_psd of its block, which splits by the block's components; the
    norm estimate is nondecreasing in N, so the check at N covers the
    lower rungs.  The check reads the estimate only when schur_norm_bound
    is not at most 1 + tol (nan included): the estimate is at most the
    bound, so below it the estimate cannot refuse B."""
    degB = series_degree(B)
    B = B.truncate(degB)
    # the right multiplier that D factors, as the left one of the transpose;
    # a degree above N and a basis over the cap at (d, N) are refused first
    Bt = dagger_series(B)
    fock_degree(Bt, N)
    if not schur_norm_bound(Bt) <= 1.0 + tol:
        est = schur_norm_estimate(Bt, N)
        if est > 1.0 + tol:
            raise NotSchurError(f"multiplier norm estimate {est:.6f} exceeds 1")
    M = N - degB
    if M < 1:
        raise ValueError(f"truncation {N} too small for degree {degB}")
    # a right multiplier only lengthens words, so terms longer than M and
    # grades above M never reach the interior block of I - T T*
    D = _defect(B.truncate(min(degB, M)), M)
    vector, models = gleason_vector(B), []
    for k in range(min(rungs, M)):
        m = word_count(B.d, M - k) * B.p
        W, Wplus, _, _ = factor_psd(D[:m, :m], rank_tol)
        models.append(DbrModel(B, N - k, M - k, int(W.shape[1]), W, Wplus,
                               vector))
    return models


def _defect(B: FreeSeries, M: int) -> np.ndarray:
    """I - T T* on words of length <= M, T the right multiplier of B, from
    B's terms: T T* holds B_w B_v* at (b.w, b.v) for all terms w, v and
    words b with |b.w|, |b.v| <= M.  shift_indices lists the rows b.w in
    the graded order of b, so the words b that both w and v can follow
    are the first min(len) entries of both lists."""
    n, p = word_count(B.d, M), B.p
    rows = [(shift_indices(B.d, M, w, left=False)[0], m) for w, m in B.terms()]
    D = np.eye(n * p, dtype=complex)
    D4 = D.reshape(n, p, n, p)
    for x, Bw in rows:
        for y, Bv in rows:
            k = min(len(x), len(y))
            D4[x[:k], :, y[:k], :] -= np.einsum("pq,rq->pr", Bw, Bv.conj())
    return D


def gleason_vector(B: FreeSeries) -> list[FreeSeries]:
    """The canonical Gleason tuple: component j strips a leading letter j,
    so that Z.(vec)(Z) = B(Z) - B(0) identically."""
    return [strip_letter(B, j) for j in range(1, B.d + 1)]


def gleason_maps(model: DbrModel) -> list[np.ndarray]:
    """Rank-coordinate matrices of the Gleason tuple components, each
    component cut to the model's interior degree."""
    return [model.Wplus @ comp.truncate(model.M).array.reshape(-1, model.B.q)
            for comp in model.gleason]


def shift_compressions(model: DbrModel) -> list[np.ndarray]:
    """X_j: compression of the backward shift L_j* to the model space,
    W+ L_j* W.  L_j sends e_b to e_{j.b}, so W+ L_j* is W+ with column b
    moved to column j.b and zeros elsewhere: a scatter, not a product."""
    B, out = model.B, []
    Wplus = model.Wplus.reshape(model.rank, -1, model.p)
    for k in range(1, B.d + 1):
        rows, cols = shift_indices(B.d, model.M, (k,), left=True)
        WL = np.zeros_like(Wplus)
        WL[:, rows] = Wplus[:, cols]
        out.append(WL.reshape(model.rank, -1) @ model.W)
    return out


def vacuum_kernel(model: DbrModel) -> np.ndarray:
    """K_0: rank coordinates of the model kernel at the origin, as a map
    from the coefficient space."""
    return model.W[0:model.p, :].conj().T


def _gap(model: DbrModel, maps: list[np.ndarray]) -> np.ndarray:
    """(I - B(0)*B(0)) - <Gleason tuple Gram> on one model, Hermitian, from
    the model's Gleason maps."""
    B0 = model.B.coeff(())
    G = np.eye(model.B.q, dtype=complex) - B0.conj().T @ B0
    for C in maps:
        G = G - C.conj().T @ C
    return 0.5 * (G + G.conj().T)


def extremality_gap(B: FreeSeries, N: int, tol: float = 1e-8,
                    rank_tol: float = 1e-10) -> dict:
    """Gap matrix (I - B(0)*B(0)) - <Gleason tuple Gram> at the
    truncations N, N - 1, N - 2 that keep an interior; B is extremal when
    the gap vanishes.  All rungs come from one D, whose Schur check uses
    tol; the model at the top rung, dbr_model(B, N, rank_tol=rank_tol,
    tol=tol), is returned with it."""
    models = _models(B, N, 3, rank_tol, tol)
    gaps = [_gap(model, gleason_maps(model)) for model in models]
    ladder = [{"N": model.N, "gap_norm": float(np.abs(np.linalg.eigvalsh(G)).max())}
              for model, G in zip(models, gaps)]
    extremal = ladder[0]["gap_norm"] <= tol
    trend = len(ladder) >= 2 and ladder[0]["gap_norm"] < ladder[-1]["gap_norm"] - tol
    return {"gap": gaps[0], "ladder": ladder, "extremal": extremal,
            "trend_decreasing": bool(trend), "model": models[0]}


def a_empty_sq(A: FreeSeries, N: int, tol: float = 1e-6,
               rank_tol: float = 1e-10) -> dict:
    """The Hermitian matrix a0^2 = I - A(0)*A(0) - <Gleason Gram>, clipped
    to PSD, its PSD square root a0 and its ascending "eigenvalues", from
    one eigh of the gap; a0 is cross-validated against
    (I + Ahat*Ahat)^{-1} when membership of A.h in the model certifies the
    graph realization of Ahat.  Membership reads the rank coordinates
    W+ E of A's columns E: the residual is the largest
    ||E_j - W (W+ E)_j|| / max(1, ||E_j||) over the columns.  The model
    dbr_model(A, N, rank_tol=rank_tol, tol=tol), its Gleason maps and
    W+ E are returned with them."""
    model = _models(A, N, 1, rank_tol, tol)[0]
    maps = gleason_maps(model)
    evals, vecs = np.linalg.eigh(_gap(model, maps))
    if evals[0] < -tol:
        raise ValueError(
            f"extremality gap indefinite ({evals[0]:.3e}); truncation too coarse")
    clipped = (vecs * np.clip(evals, 0.0, None)[None, :]) @ vecs.conj().T
    a0 = (vecs * np.sqrt(np.clip(evals, 0.0, None))[None, :]) @ vecs.conj().T
    E = A.truncate(model.M).array.reshape(-1, A.q)
    coords = model.Wplus @ E
    memb = float((np.linalg.norm(E - model.W @ coords, axis=0)
                  / np.maximum(1.0, np.linalg.norm(E, axis=0))).max())
    dual = (np.linalg.inv(np.eye(A.q) + coords.conj().T @ coords)
            if memb <= tol else None)
    return {"a0_sq": clipped, "a0": a0, "eigenvalues": evals, "dual": dual,
            "membership_residual": memb, "model": model,
            "gleason_maps": maps, "coords": coords}


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
    Aa0 = gap["coords"] @ gap["a0"]
    lhs = np.eye(model.rank, dtype=complex) - sum(x.conj().T @ x for x in X)
    rhs = K0 @ K0.conj().T + Aa0 @ Aa0.conj().T
    Q = _class_span(model, model.M - 1)
    return float(np.linalg.norm(Q.conj().T @ (lhs - rhs) @ Q, 2))


def _class_span(model: DbrModel, max_len: int) -> np.ndarray:
    """Orthonormal basis, in rank coordinates, of the span of model
    kernel vectors pinned at basis words of length <= max_len."""
    rows = word_count(model.B.d, max_len) * model.p
    return range_basis(model.W[:rows, :].conj().T, 1e-10)


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
    return FreeSeries(B.d, B.deg, np.pad(B.array, ((0, 0), (0, n - B.p),
                                                   (0, n - B.q))))


def szego_distance(B: FreeSeries, N: int, rank_tol: float = 1e-10) -> float:
    """Distance of the embedded (I - B(0)) h to the span of nonunit-word
    classes in the Clark GNS space of the square completion, maximized
    over basis vectors h.  Zero characterizes the Szego extremal
    property."""
    Bsq = square_completion(B)
    gns = gns_build(clark_moments(Bsq, N), N, rank_tol=rank_tol)
    return _szego(gns, Bsq.coeff(()), rank_tol)


def _szego(model: GnsModel, B0: np.ndarray, rank_tol: float) -> float:
    """The largest, over the columns t_j of T[:, :p] c, c = I - B0, of the
    distance of t_j from the range of T[:, p:] over ||t_j|| (floored at
    1e-12): a vacuum Schur complement of the moment matrix M ~ W W* that
    gns_build factored, read off its factors T = W* and Tplus = (W+)*.

    A u orthogonal to range(T[:, p:]) has u* T = [u* T[:, :p], 0], and
    T Tplus = I, so u = Y x with Y = W+[:, :p].  Y x is orthogonal to that
    range when x is an eigenvector of S0 = W[:p] Y = (W W+)[:p, :p], a
    compression of a projector, at eigenvalue 1 (Y x = 0 at eigenvalue 0);
    eigenvalues above 1 - rank_tol count as 1.  With E those eigenvectors
    and Y* t_j = S0 c_j, the projection of t_j onto the complement Y E has
    squared norm (E* c_j)* (E* Y* Y E)^-1 (E* c_j), and ||t_j||^2 =
    ||W[:p]* c_j||^2.  With M invertible S0 = I, and at p = 1 the distance
    is (M00 (M^-1)00)^(-1/2).  No E (the column-extreme case) gives 0."""
    p = model.p
    Yh = model.Tplus[:p, :]          # Y*
    evals, vecs = np.linalg.eigh(Yh @ model.T[:, :p])
    E = vecs[:, evals > 1.0 - rank_tol]
    if not E.shape[1]:
        return 0.0
    c = np.eye(p) - B0
    YE = Yh.conj().T @ E
    b = E.conj().T @ c
    proj = np.einsum("ij,ij->j", b.conj(), np.linalg.solve(YE.conj().T @ YE, b)).real
    norm = np.linalg.norm(model.T[:, :p] @ c, axis=0)
    return float((np.sqrt(np.clip(proj, 0.0, None))
                  / np.maximum(norm, 1e-12)).max())


def ce_test(B: FreeSeries, N: int, tol: float = 1e-8,
            rank_tol: float = 1e-10, seed: int = 0) -> dict:
    """Column-extremeness battery.

    The verdict follows the Gleason gap; the other criteria are independent
    cross-checks that raise a flag when they disagree or cannot decide.
    """
    degB = series_degree(B)
    B = B.truncate(degB)
    gap = extremality_gap(B, N, tol=tol, rank_tol=rank_tol)
    by_gleason = gap["extremal"]
    flags, gns = [], None
    # the Gleason components have degree deg(B) - 1 and the gap reads them
    # cut at M = N - deg(B); below that degree it can read too large
    if N - degB < degB - 1:
        flags.append(f"gleason components cut below their degree {degB - 1} "
                     f"at N - deg(B) = {N - degB}: the gap can read too large")

    # one Clark GNS row serves the Szego and Cuntz criteria, or leaves both
    # undecided when the moments fail its positivity cut (Schur boundary)
    Bsq = square_completion(B)
    n_gns = min(N, 5)
    dist = by_szego = cuntz_defect = by_cuntz = None
    try:
        gns = gns_build(clark_moments(Bsq, n_gns), n_gns, rank_tol=rank_tol)
    except InvalidMomentsError as exc:
        flags.append(f"szego and cuntz criteria undecided: {exc}")
    else:
        dist = _szego(gns, Bsq.coeff(()), rank_tol)
        by_szego = dist <= 1e-6

    # more pins than the span of their kernel functions can carry, so that
    # the kernel Gram is singular and membership failures register as
    # uncertifiable rather than as a large finite bound
    n_pin = 4
    pins = nilpotent_stack(B.d, word_count(B.d, n_pin - 1) + 2,
                           np.random.default_rng(seed), n=n_pin, scale=0.85)
    if Bsq.p > 1:
        # a unit coefficient direction per pin, from a stream of its own
        # (re then im of each pin's h), each normed as the vector it is;
        # p = 1 reads the default h
        g = np.random.default_rng([seed, 1]).standard_normal((len(pins.v), 2, Bsq.p))
        h = g[:, 0] + 1j * g[:, 1]
        pins.h = h / np.array([np.linalg.norm(x) for x in h])[:, None]
    spec = KernelSpec(KernelKind.DBR_LEFT, Bsq, deg=2 * N)
    lam = membership_norm(spec, Bsq, pins)["lambda"]
    by_membership = not math.isfinite(lam)

    if B.p == B.q and gns is not None:
        cuntz_defect = cuntz_check(gns)["defect"]
        by_cuntz = cuntz_defect <= 1e-6

    verdict = by_gleason
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
                         if B.p == B.q else None),
            "flags": flags}


def _weighted_transform(B: FreeSeries, N: int, rank_tol: float):
    """Shared setup: the model, the Clark GNS model, and the weighted
    Cauchy transform matrix from GNS rank coordinates to model rank
    coordinates, through the moment matrix that the GNS build factored."""
    model = dbr_model(B, N, rank_tol=rank_tol)
    gns = gns_build(clark_moments(B, N), N, rank_tol=rank_tol)
    one = constant_series(B.d, B.deg, np.eye(B.p))
    T_im = multiplier_matrix(one - B, Side.RIGHT, N)
    rows = word_count(B.d, model.M) * B.p
    Fhat = model.Wplus @ (T_im @ gns.M)[:rows, :] @ gns.Tplus
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
