"""A 40-digit referee for the Clark moment matrix and the Szego distance.

Everything here is recomputed in mpmath from the coefficients of the
symbol, which are binary floats and so enter exactly: the Cayley
transform H = (I + B)(I - B)^-1 by grade recursion, the Clark moments
mu(1) = Re H_0 and mu(L^a) = H_{a+}* / 2, the moment matrix with
mu(quot) at the block (a, a.quot), and the Szego distance as the vacuum
Schur complement of that matrix,

    dist^2 = max_j  c_j* (M00 - M01 M11^-1 M10) c_j / c_j* M00 c_j,

c = I - B(0), which needs M11 invertible (a symbol that is not column
extreme).  Sizes stay at m = word_count(d, N) p <= 64.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp

from freehardy.words import enumerate_tuples

DPS = 40


def _mp(A) -> mp.matrix:
    """A complex array as an mp matrix, real entries as mpf, which keeps
    the arithmetic of real symbols real."""
    A = np.asarray(A, dtype=complex)
    return mp.matrix([[mp.mpf(x.real) if x.imag == 0 else mp.mpc(complex(x))
                       for x in row] for row in A])


def _adjoint(A: mp.matrix) -> mp.matrix:
    return A.transpose_conj()


def clark_moment_matrix(B, N: int) -> mp.matrix:
    """The moment matrix of the Clark functional of the square series B on
    words of length <= N, in enumerate_tuples order with p x p blocks."""
    if B.p != B.q:
        raise ValueError("the Clark functional needs a square symbol")
    p, words = B.p, enumerate_tuples(B.d, N)
    with mp.workdps(DPS):
        eye, zero = mp.eye(p), mp.zeros(p, p)
        X = {w: (eye if not w else zero) - (_mp(B.coeff(w)) if len(w) <= B.deg else zero)
             for w in words}
        inv0 = mp.inverse(X[()])
        # (I - B)^-1 by grade: Y_w = -X_0^-1 sum_{w = u.v, u nonempty} X_u Y_v
        Y = {(): inv0}
        for w in words[1:]:
            acc = mp.zeros(p, p)
            for k in range(1, len(w) + 1):
                acc += X[w[:k]] * Y[w[k:]]
            Y[w] = -(inv0 * acc)
        H = {w: 2 * Y[w] - (eye if not w else zero) for w in words}
        mu = {w: _adjoint(H[w[::-1]]) / 2 for w in words[1:]}
        mu[()] = (H[()] + _adjoint(H[()])) / 2
        at = {w: i * p for i, w in enumerate(words)}
        M = mp.zeros(len(words) * p, len(words) * p)
        for a in words:
            for quot in words:
                b = a + quot
                if len(b) > N:
                    continue
                for i in range(p):
                    for j in range(p):
                        M[at[a] + i, at[b] + j] = mu[quot][i, j]
                        M[at[b] + j, at[a] + i] = mp.conj(mu[quot][i, j])
        return M


def szego_distance(B, M: mp.matrix) -> mp.mpf:
    """The Szego distance of the square series B as the vacuum Schur
    complement of its moment matrix M from clark_moment_matrix."""
    p, m = B.p, M.rows
    with mp.workdps(DPS):
        c = mp.eye(p) - _mp(B.coeff(()))
        M11 = M[p:m, p:m]
        X = mp.matrix(m - p, p)
        for j in range(p):
            X[:, j] = mp.lu_solve(M11, M[p:m, j])
        S = M[0:p, 0:p] - M[0:p, p:m] * X
        worst = mp.mpf(0)
        for j in range(p):
            cj = c[:, j]
            num = (_adjoint(cj) * S * cj)[0, 0]
            den = (_adjoint(cj) * M[0:p, 0:p] * cj)[0, 0]
            worst = max(worst, mp.sqrt(mp.re(num) / mp.re(den)))
        return worst


def to_numpy(A: mp.matrix) -> np.ndarray:
    """An mp matrix rounded to complex doubles."""
    return np.array([[complex(A[i, j]) for j in range(A.cols)]
                     for i in range(A.rows)])
