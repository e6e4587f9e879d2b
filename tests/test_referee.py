"""The Clark moment matrix, both float routes to the Szego distance and
the Gleason gap against the 40-digit referee (tests/referee.py), within
c u cond(M) and c u cond(D), u the unit roundoff of doubles."""

import numpy as np
import pytest

pytest.importorskip("mpmath")

import referee
from freehardy import gleason
from freehardy.clark import clark_moments, gns_build, moment_matrix
from freehardy.gleason import extremality_gap, square_completion
from freehardy.parser import parse
from freehardy.series import FreeSeries

from conftest import random_schur, szego_svd_oracle

U = 2.0 ** -53
C = 16.0

SYMBOLS = {
    # (1 + z)/2, the slow d = 1 case of the Szego criterion
    "(1+z1)/2 d=1 N=30": (lambda: parse("0.5+0.5*z1", 1, 1), 30),
    "0.5*z1+0.4*z2*z1 N=4": (lambda: parse("0.5*z1+0.4*z2*z1", 2, 2), 4),
    "0.2-0.5*z2*z1+0.3*z1*z1*z2 N=4":
        (lambda: parse("0.2-0.5*z2*z1+0.3*z1*z1*z2", 2, 3), 4),
    "0.6*z1+0.3*z3*z2 N=3": (lambda: parse("0.6*z1+0.3*z3*z2", 3, 2), 3),
    "2x2 N=3": (lambda: parse("[[0.5,0.1],[0.2,0.3]]*z1"
                              "+[[0.1,0.2],[0.3,0.1]]*z2*z1", 2, 2, (2, 2)), 3),
    "2x1 through square_completion N=3":
        (lambda: parse("[[0.3],[0.2]]+[[0.5],[0.4]]*z2*z1", 2, 2, (2, 1)), 3),
    # a 2x2 symbol near the Schur boundary, cond(M) about 3e6, where the
    # factor route reads M^-1 through W+ and loses more digits than the SVD
    "2x2 d=1 near the boundary N=5": (lambda: random_schur(
        np.random.default_rng(187), 1, 3, 2, 2, target=0.999999), 5),
    "complex scalar N=4": (lambda: FreeSeries.from_terms(
        2, 2, 1, 1, {(1,): np.array([[0.3 + 0.2j]]),
                     (2, 1): np.array([[0.1 - 0.4j]])}), 4),
}


@pytest.mark.parametrize("name", list(SYMBOLS))
def test_szego_distance_against_the_referee(name):
    make, N = SYMBOLS[name]
    B = square_completion(make())
    M_ref = referee.clark_moment_matrix(B, N)
    assert M_ref.rows <= 64
    M = moment_matrix(clark_moments(B, N), N)
    cond = float(np.linalg.cond(M))
    err = np.linalg.norm(M - referee.to_numpy(M_ref), 2)
    assert err <= C * U * np.linalg.norm(M, 2)
    want = float(referee.szego_distance(B, M_ref))
    gns = gns_build(clark_moments(B, N), N)
    B0 = B.coeff(())
    for route in (gleason._szego(gns, B0, 1e-10), szego_svd_oracle(gns, B0)):
        assert abs(route - want) <= C * U * cond


# strict contractions, so that D = I - T T* is invertible; sizes
# m = word_count(d, N - deg) p stay at most 31
GAP_SYMBOLS = {
    "0.5*z1+0.4*z2*z1 N=5": (lambda: parse("0.5*z1+0.4*z2*z1", 2, 2), 5),
    "0.3*z1+0.4*z2 N=5": (lambda: parse("0.3*z1+0.4*z2", 2, 1), 5),
    "0.6*z1-0.5*z2*z2 N=5": (lambda: parse("0.6*z1-0.5*z2*z2", 2, 2), 5),
    "0.7*z1+0.2*z1*z1 d=1 N=20": (lambda: parse("0.7*z1+0.2*z1*z1", 1, 2), 20),
    "0.2+0.6*z1+0.3*z3*z2 N=4": (lambda: parse("0.2+0.6*z1+0.3*z3*z2", 3, 2), 4),
    "2x2 N=4": (lambda: parse("[[0.5,0.1],[0.2,0.3]]*z1"
                              "+[[0.1,0.2],[0.3,0.1]]*z2*z1", 2, 2, (2, 2)), 4),
    "2x1 N=5": (lambda: parse("[[0.2],[0.1]]+[[0.3],[0.1]]*z1"
                              "+[[0.2],[0.3]]*z2*z1", 2, 2, (2, 1)), 5),
    "complex scalar N=4": SYMBOLS["complex scalar N=4"],
}


@pytest.mark.parametrize("name", list(GAP_SYMBOLS))
def test_gleason_gap_against_the_referee(name):
    make, N = GAP_SYMBOLS[name]
    B = make()
    gap_ref, D_ref = referee.extremality_gap(B, N)
    assert D_ref.rows <= 31
    cond = float(np.linalg.cond(referee.to_numpy(D_ref)))
    err = np.linalg.norm(extremality_gap(B, N)["gap"] - referee.to_numpy(gap_ref), 2)
    assert err <= C * U * cond
