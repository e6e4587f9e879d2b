import numpy as np
import pytest
from hypothesis import settings

from freehardy.fock import Side
from freehardy.series import (FreeSeries, MatrixPoint, letter_series,
                              multiplier_matrix, normalize_schur)
from freehardy.words import enumerate_tuples, index_map, reversal, word_count

# Property tests draw the same examples on every run and have no deadline,
# so a loaded machine neither fails them on time nor changes what they try.
settings.register_profile("freehardy", deadline=None, derandomize=True)
settings.load_profile("freehardy")


def random_series(rng, d, deg, p=1, q=1, scale=1.0):
    coeffs = {}
    for w in enumerate_tuples(d, deg):
        m = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        coeffs[w] = scale * m
    return FreeSeries(d, deg, p, q, coeffs)


def random_schur(rng, d, deg, p=1, q=1, target=0.9, N=None):
    F = random_series(rng, d, deg, p, q)
    return normalize_schur(F, N if N is not None else deg + 2, target=target)


def nilpotent_point(rng, d, n, scale=0.8):
    mats = [np.triu(rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)), 1) for _ in range(d)]
    Z = MatrixPoint(d, n, mats)
    rn = Z.row_norm()
    if rn > 0:
        Z = MatrixPoint(d, n, [m * (scale / rn) for m in Z.mats])
    return Z


def ball_point(rng, d, n, radius=0.4):
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(d)]
    Z = MatrixPoint(d, n, mats)
    return MatrixPoint(d, n, [m * (radius / Z.row_norm()) for m in Z.mats])


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
