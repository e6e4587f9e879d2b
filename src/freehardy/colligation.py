"""Colligations and transfer-function realizations.

A colligation packages a tuple of state maps A_1..A_d, input maps
B_1..B_d, an output map C and a feedthrough D into the block matrix

    U = [ A_1  B_1 ]
        [ ...  ... ]
        [ A_d  B_d ]
        [  C    D  ]

whose transfer function B_U(Z) = D + C (I - Z.A)^{-1} Z.B is a free
series.  canonical_colligation builds the de Branges-Rovnyak functional
model of a Schur series, giving a coisometric realization that
reproduces the series exactly up to the retained truncation.
complete_column solves the inverse problem of appending a bottom row to
a strictly non-extreme column contraction so the stacked column stays
Schur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import Side
from .gleason import (CeObstructionError, a_empty_sq, dbr_model,
                      gleason_maps, shift_compressions, vacuum_kernel)
from .series import (FreeSeries, MatrixPoint, dagger_series, gram_spectrum,
                     json_field, mat_from_json, mat_to_json,
                     schur_norm_estimate, series_degree)


@dataclass
class Colligation:
    d: int
    state_dim: int
    in_dim: int
    out_dim: int
    A: list[np.ndarray] = field(repr=False)   # d blocks, state x state
    B: list[np.ndarray] = field(repr=False)   # d blocks, state x in
    C: np.ndarray = field(repr=False)         # out x state
    D: np.ndarray = field(repr=False)         # out x in
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        n, m, p = self.state_dim, self.in_dim, self.out_dim
        if len(self.A) != self.d or len(self.B) != self.d:
            raise ValueError("need d state blocks and d input blocks")
        self.A = [np.asarray(a, dtype=complex).reshape(n, n) for a in self.A]
        self.B = [np.asarray(b, dtype=complex).reshape(n, m) for b in self.B]
        self.C = np.asarray(self.C, dtype=complex).reshape(p, n)
        self.D = np.asarray(self.D, dtype=complex).reshape(p, m)

    def block_matrix(self) -> np.ndarray:
        """(d*state + out) x (state + in) block matrix."""
        rows = [np.hstack([a, b]) for a, b in zip(self.A, self.B)]
        rows.append(np.hstack([self.C, self.D]))
        return np.vstack(rows)

    def defects(self) -> dict:
        """max(0, ||U|| - 1) and ||U U* - I|| from the squared singular
        values s^2 of U, read as the eigenvalues of its smaller Gram (U*U
        when U has at least as many rows as columns, else U U*) by
        gram_spectrum, per component of the block matrix: U U* has
        eigenvalues s^2, and zeros when U has more rows than columns."""
        U = self.block_matrix()
        s2 = np.maximum(gram_spectrum(
            U if U.shape[0] >= U.shape[1] else U.conj().T), 0.0)
        return {"contraction_defect": max(0.0, math.sqrt(s2[-1]) - 1.0),
                "coisometry_defect": float(np.abs(s2 - 1).max(
                    initial=float(U.shape[0] > len(s2))))}

    def fields(self) -> dict:
        """The fields of the file format, matrices as complex arrays."""
        return {"d": self.d, "state_dim": self.state_dim,
                "in_dim": self.in_dim, "out_dim": self.out_dim,
                "A": list(self.A), "B": list(self.B), "C": self.C, "D": self.D}

    def to_json(self) -> dict:
        """fields() with each matrix as nested [re, im] lists."""
        return {k: [mat_to_json(m) for m in v] if isinstance(v, list)
                else mat_to_json(v) if isinstance(v, np.ndarray) else v
                for k, v in self.fields().items()}

    @classmethod
    def from_json(cls, data: dict) -> "Colligation":
        A, B = ([mat_from_json(m, k) for m in json_field(data, k, list)]
                for k in "AB")
        C, D = (mat_from_json(json_field(data, k, list), k) for k in "CD")
        return cls(*(json_field(data, k, int) for k in
                     ("d", "state_dim", "in_dim", "out_dim")), A, B, C, D)


def transfer_eval(U: Colligation, Z: MatrixPoint) -> np.ndarray:
    """B_U(Z) = I (x) D + (I (x) C)(I - sum Z_k (x) A_k)^{-1} sum Z_k (x) B_k."""
    if Z.d != U.d:
        raise ValueError("alphabet mismatch")
    n = Z.n
    ZA = sum(np.kron(Z.mats[k], U.A[k]) for k in range(U.d))
    ZB = sum(np.kron(Z.mats[k], U.B[k]) for k in range(U.d))
    pencil = np.eye(n * U.state_dim, dtype=complex) - ZA
    cond = np.linalg.cond(pencil)
    if not np.isfinite(cond) or cond > 1e14:
        raise np.linalg.LinAlgError(
            f"state pencil numerically singular (cond {cond:.2e})")
    return np.kron(np.eye(n), U.D) \
        + np.kron(np.eye(n), U.C) @ np.linalg.solve(pencil, ZB)


def transfer_series(U: Colligation, deg: int) -> FreeSeries:
    """Taylor coefficients of the transfer function: the coefficient at
    the word i1..ik is C A_{i1} ... A_{i_{k-1}} B_{ik}."""
    grades = [U.D[None]]
    # the rows C A_w of the words w of one grade, stacked: each letter takes
    # one product for the whole grade, and w.k is block (w, k) of the next
    CA, p = U.C, U.out_dim
    for ell in range(1, deg + 1):
        grades.append(np.stack([(CA @ b).reshape(-1, p, U.in_dim)
                                for b in U.B], axis=1).reshape(-1, p, U.in_dim))
        if ell < deg:
            CA = np.stack([(CA @ a).reshape(-1, p, U.state_dim)
                           for a in U.A], axis=1).reshape(-1, U.state_dim)
    return FreeSeries(U.d, deg, np.concatenate(grades))


def canonical_colligation(B: FreeSeries, N: int, rank_tol: float = 1e-10,
                          tol: float = 1e-8) -> Colligation:
    """Functional-model realization of a Schur series on its left model
    space (the right model space of the transpose): A_k compresses the
    backward shift, B_k is the k-th Gleason map, C = K_0* and D = B(0).
    tol is the Schur gate's slack, as in dbr_model."""
    model = dbr_model(B, N, rank_tol=rank_tol, side=Side.LEFT, tol=tol)
    U = Colligation(B.d, model.rank, B.q, B.p, shift_compressions(model),
                    gleason_maps(model), vacuum_kernel(model).conj().T,
                    B.coeff(()))
    U.meta = {**U.defects(), "model_rank": model.rank,
              "interior_degree": model.M}
    return U


def complete_column(A: FreeSeries, N: int, tol: float = 1e-6,
                    rank_tol: float = 1e-10) -> dict:
    """Append the canonical bottom row to a non-extreme column contraction.

    Raises CeObstructionError when the extremality gap a0^2 has norm at
    most tol, the test by which extremality_gap calls a symbol extremal:
    a column-extreme symbol admits only the zero completion.
    """
    A = A.truncate(series_degree(A))
    gap = a_empty_sq(A, N, tol=tol, rank_tol=rank_tol)
    if max(float(gap["eigenvalues"][-1]), 0.0) <= tol:
        raise CeObstructionError(
            "extremality gap vanishes; no nonzero completion exists")
    a0, model = gap["a0"], gap["model"]
    Aa0 = gap["coords"] @ a0
    U = Colligation(A.d, model.rank, A.q, A.q, shift_compressions(model),
                    gap["gleason_maps"], -Aa0.conj().T, a0)
    # the augmented block stacks the bottom-channel colligation with the
    # output row of the original column; its columns are isometric by the
    # Gleason structure identity
    aug = np.vstack([U.block_matrix(),
                     np.hstack([model.W[0:A.p, :], A.coeff(())])])
    defect = float(np.abs(gram_spectrum(aug, shift=1.0)).max())
    # transfer function of the bottom channel is the reversed-word
    # series of the completion
    a = dagger_series(transfer_series(U, model.M))
    return {"a": a, "a0": a0, "U": U, "model": model,
            "isometry_defect": defect,
            "membership_residual": gap["membership_residual"]}


def column_schur_defect(A: FreeSeries, a: FreeSeries, N: int) -> float:
    """max(0, -lambda_min(I - T*T)) = max(0, ||T||^2 - 1), T the right
    multiplier of the stacked column [A; a] on words of length <= N; zero
    certifies the completion is Schur.  ||T|| is the Schur norm estimate
    of the transpose, so no T*T is formed."""
    if (A.d, A.q) != (a.d, a.q):
        raise ValueError("column blocks must share alphabet and input space")
    deg = min(max(A.deg, a.deg), N)
    col = FreeSeries(A.d, deg, np.concatenate(
        [A.truncate(deg).array, a.truncate(deg).array], axis=1))
    est = schur_norm_estimate(dagger_series(col), N)
    return max(0.0, est * est - 1.0)
