import numpy as np
import pytest
from hypothesis import settings

from freehardy.series import FreeSeries, MatrixPoint, normalize_schur
from freehardy.words import enumerate_tuples

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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
