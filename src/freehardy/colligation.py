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

from dataclasses import dataclass, field

import numpy as np

from .fock import Side
from .gleason import (CeObstructionError, a_empty_sq, dbr_model,
                      gleason_maps, series_degree, shift_compressions)
from .series import (FreeSeries, MatrixPoint, dagger_series, letter_series,
                     multiplier_matrix, to_dense)


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

    def contraction_defect(self) -> float:
        """max(0, ||U|| - 1): zero iff the block matrix is a contraction."""
        return max(0.0, float(np.linalg.norm(self.block_matrix(), 2)) - 1.0)

    def coisometry_defect(self) -> float:
        U = self.block_matrix()
        return float(np.linalg.norm(U @ U.conj().T - np.eye(U.shape[0]), 2))

    def isometry_defect(self) -> float:
        U = self.block_matrix()
        return float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[1]), 2))

    def to_json(self) -> dict:
        def enc(m):
            return [[[z.real, z.imag] for z in row] for row in np.asarray(m)]
        return {"d": self.d, "state_dim": self.state_dim,
                "in_dim": self.in_dim, "out_dim": self.out_dim,
                "A": [enc(a) for a in self.A], "B": [enc(b) for b in self.B],
                "C": enc(self.C), "D": enc(self.D)}

    @classmethod
    def from_json(cls, data: dict) -> "Colligation":
        def dec(m):
            return np.array([[complex(re, im) for re, im in row] for row in m])
        return cls(data["d"], data["state_dim"], data["in_dim"],
                   data["out_dim"], [dec(a) for a in data["A"]],
                   [dec(b) for b in data["B"]], dec(data["C"]), dec(data["D"]))


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
    coeffs = {(): U.D.copy()}
    # CA[w] = C A_{w_1} ... A_{w_len}, grown one grade at a time
    CA = {(): U.C.copy()}
    for ell in range(1, deg + 1):
        nxt = {}
        for w, mat in CA.items():
            for k in range(1, U.d + 1):
                coeffs[w + (k,)] = mat @ U.B[k - 1]
                if ell < deg:
                    nxt[w + (k,)] = mat @ U.A[k - 1]
        CA = nxt
    return FreeSeries(U.d, deg, U.out_dim, U.in_dim, coeffs)


def canonical_colligation(B: FreeSeries, N: int,
                          rank_tol: float = 1e-10) -> Colligation:
    """Functional-model realization of a Schur series on the left model
    space: states are rank coordinates, A_k compresses the right backward
    shift, B_k feeds the letter-k right strip of the symbol, C evaluates
    at the vacuum and D = B(0)."""
    model = dbr_model(B, N, rank_tol=rank_tol, side=Side.LEFT)
    B = model.B
    p, q = B.p, B.q
    A_blocks, B_blocks = [], []
    for k in range(1, B.d + 1):
        Rk = multiplier_matrix(letter_series(B.d, 1, k, p), Side.RIGHT,
                               model.M)
        A_blocks.append(model.Wplus @ Rk.conj().T @ model.W)
        strip = FreeSeries(B.d, max(B.deg - 1, 0), p, q,
                           {w[:-1]: m for w, m in B.coeffs.items()
                            if w and w[-1] == k})
        B_blocks.append(model.Wplus @ to_dense(strip, model.M).reshape(-1, q))
    U = Colligation(B.d, model.rank, q, p, A_blocks, B_blocks,
                    model.W[0:p, :], B.coeff(()))
    U.meta = {"contraction_defect": U.contraction_defect(),
              "coisometry_defect": U.coisometry_defect(),
              "model_rank": model.rank, "interior_degree": model.M}
    return U


def complete_column(A: FreeSeries, N: int, tol: float = 1e-6,
                    rank_tol: float = 1e-10) -> dict:
    """Append the canonical bottom row to a non-extreme column contraction.

    Raises CeObstructionError when the extremality gap a0^2 has norm at
    most tol, the test by which extremality_gap calls a symbol extremal:
    a column-extreme symbol admits only the zero completion.
    """
    A = A.truncate(min(series_degree(A), N))
    gap = a_empty_sq(A, N, rank_tol=rank_tol)
    if float(np.linalg.norm(gap["a0_sq"], 2)) <= tol:
        raise CeObstructionError(
            "extremality gap vanishes; no nonzero completion exists")
    evals, vecs = np.linalg.eigh(gap["a0_sq"])
    a0 = (vecs * np.sqrt(np.clip(evals, 0.0, None))[None, :]) @ vecs.conj().T
    model = gap["model"]
    X = shift_compressions(model)
    Cg = gleason_maps(model)
    E = to_dense(A, model.M).reshape(-1, A.q)
    Aa0 = model.Wplus @ E @ a0
    U = Colligation(A.d, model.rank, A.q, A.q, X, Cg, -Aa0.conj().T, a0)
    # the augmented block stacks the bottom-channel colligation with the
    # output row of the original column; its columns are isometric by the
    # Gleason structure identity
    aug = np.vstack([U.block_matrix(),
                     np.hstack([model.W[0:A.p, :], A.coeff(())])])
    defect = float(np.linalg.norm(
        aug.conj().T @ aug - np.eye(aug.shape[1]), 2))
    # transfer function of the bottom channel is the reversed-word
    # series of the completion
    a = dagger_series(transfer_series(U, model.M))
    return {"a": a, "a0": a0, "U": U, "model": model,
            "isometry_defect": defect,
            "membership_residual": gap["membership_residual"]}


def column_schur_defect(A: FreeSeries, a: FreeSeries, N: int) -> float:
    """Most negative eigenvalue (as a magnitude) of I - M*M for the
    stacked column [A; a] on words of length <= N; zero certifies the
    completion is Schur."""
    if (A.d, A.q) != (a.d, a.q):
        raise ValueError("column blocks must share alphabet and input space")
    coeffs = {}
    for w in set(A.coeffs) | set(a.coeffs):
        if len(w) > N:
            continue
        mat = np.zeros((A.p + a.p, A.q), dtype=complex)
        mat[:A.p, :] = A.coeff(w)
        mat[A.p:, :] = a.coeff(w) if len(w) <= a.deg else 0.0
        coeffs[w] = mat
    col = FreeSeries(A.d, min(max(A.deg, a.deg), N), A.p + a.p, A.q, coeffs)
    T = multiplier_matrix(col, Side.RIGHT, N)
    G = np.eye(T.shape[1], dtype=complex) - T.conj().T @ T
    return max(0.0, -float(np.linalg.eigvalsh(G)[0]))
