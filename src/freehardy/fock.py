"""Truncated full Fock space and its creation operators.

F2(d, N) is the span of basis vectors e_alpha over words of length <= N,
with the nilpotent truncation: creation out of the top grade maps to 0.
This keeps every multiplication operator block lower triangular in the
graded basis order of :mod:`freehardy.words` and makes the row-isometry
defect exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .words import (enumerate_tuples, index_map, reversal, shift_indices,
                    word_count)

DENSE_THRESHOLD = 512


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class FockOperator:
    """A linear operator on F2(d, N) in the graded word basis."""

    d: int
    N: int
    matrix: sp.spmatrix
    label: str = ""

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def adjoint(self) -> "FockOperator":
        return FockOperator(self.d, self.N, self.matrix.conj().T.tocsr(),
                            label=self.label + "*")


def basis_dim(d: int, N: int) -> int:
    return len(enumerate_tuples(d, N))


def creation(side: Side, k: int, d: int, N: int) -> FockOperator:
    """Creation operator: e_alpha -> e_{k.alpha} (Left) or e_{alpha.k} (Right).

    Words of length N map to 0 (nilpotent truncation), so the operator is a
    partial isometry with initial space spanned by words of length <= N-1.
    """
    if not 1 <= k <= d:
        raise ValueError(f"letter {k} outside 1..{d}")
    rows, cols = shift_indices(d, N, (k,), side is Side.LEFT)
    n = basis_dim(d, N)
    data = np.ones(len(rows), dtype=complex)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    tag = "L" if side is Side.LEFT else "R"
    return FockOperator(d, N, mat, label=f"{tag}{k}")


def transpose_unitary(d: int, N: int) -> FockOperator:
    """Permutation e_alpha -> e_{alpha-reversed}; self-inverse.

    Conjugation carries left creation to right creation exactly on the
    truncation: U Lk U* = Rk.
    """
    rows = reversal(d, N)
    n = len(rows)
    mat = sp.csr_matrix((np.ones(n, dtype=complex), (rows, range(n))),
                        shape=(n, n))
    return FockOperator(d, N, mat, label="Udag")


def grade_projection(d: int, N: int, max_len: int) -> sp.spmatrix:
    """Orthogonal projection onto span{e_alpha : |alpha| <= max_len}."""
    diag = np.arange(basis_dim(d, N)) < word_count(d, max_len)
    return sp.diags(diag.astype(complex)).tocsr()


def row_isometry_defect(ops: list[FockOperator]) -> float:
    """Deviation of (T_1 ... T_d) from a row partial isometry.

    Returns the norm of the block Gram defect (Tk* Tj)_{kj} - I_d (x)
    P_{<=N-1}; zero exactly for the nilpotent-truncated creation tuple,
    whose columns are isometric on grades below N with orthogonal ranges.
    """
    if not ops:
        raise ValueError("empty operator tuple")
    d0, N0 = ops[0].d, ops[0].N
    for op in ops:
        if (op.d, op.N) != (d0, N0) or op.matrix.shape != ops[0].matrix.shape:
            raise ValueError("operators do not share (d, N)")
    P = grade_projection(d0, N0, N0 - 1).toarray()
    r = len(ops)
    n = ops[0].matrix.shape[0]
    gram = np.zeros((r * n, r * n), dtype=complex)
    for k, a in enumerate(ops):
        for j, b in enumerate(ops):
            blk = (a.matrix.conj().T @ b.matrix).toarray()
            if k == j:
                blk = blk - P
            gram[k * n:(k + 1) * n, j * n:(j + 1) * n] = blk
    return float(np.linalg.norm(gram, 2))


class FockVector:
    """Sparse vector in F2(d, N): a map word tuple -> complex coordinate."""

    def __init__(self, d: int, N: int, coords: dict | None = None):
        self.d = d
        self.N = N
        self.coords: dict[tuple[int, ...], complex] = {}
        if coords:
            for w, c in coords.items():
                w = tuple(w)
                if len(w) > N:
                    raise ValueError(f"word {w} longer than truncation {N}")
                if c != 0:
                    self.coords[w] = complex(c)

    def dense(self) -> np.ndarray:
        idx = index_map(self.d, self.N)
        out = np.zeros(len(idx), dtype=complex)
        for w, c in self.coords.items():
            out[idx[w]] = c
        return out

    @classmethod
    def from_dense(cls, d: int, N: int, vec: np.ndarray) -> "FockVector":
        basis = enumerate_tuples(d, N)
        return cls(d, N, {w: v for w, v in zip(basis, vec) if v != 0})

    def inner(self, other: "FockVector") -> complex:
        # conjugate-linear in the first slot
        return sum(self.coords[w].conjugate() * c
                   for w, c in other.coords.items() if w in self.coords)

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.coords.values())))

    def to_json(self) -> dict:
        return {",".join(map(str, w)): [c.real, c.imag]
                for w, c in sorted(self.coords.items(),
                                   key=lambda t: (len(t[0]), t[0]))}

    @classmethod
    def from_json(cls, data: dict, d: int, N: int) -> "FockVector":
        coords = {}
        for key, (re, im) in data.items():
            w = tuple(int(s) for s in key.split(",")) if key else ()
            coords[w] = complex(re, im)
        return cls(d, N, coords)
