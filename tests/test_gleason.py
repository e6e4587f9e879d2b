import math

import numpy as np
import pytest

from freehardy.gleason import (CeObstructionError, NotSchurError, a_empty_sq,
                               ce_test, clark_gleason_residual,
                               clark_intertwining_residual, dbr_model,
                               exactgs_residual, extremality_gap,
                               gleason_maps, gleason_vector,
                               kernel_identity_residual, l_invariance_test,
                               shift_compressions, square_completion, support,
                               szego_distance, vacuum_kernel)
from freehardy.parser import parse
from freehardy.series import MatrixPoint, evaluate, letter_series, multiply
from freehardy.words import enumerate_tuples

from conftest import nilpotent_point

SQRT_HALF = 0.7071067811865476


def test_dbr_model_rejects_non_schur():
    with pytest.raises(NotSchurError):
        dbr_model(parse("1.5*z1", 1, 4), 6)


def test_dbr_model_zero_symbol_full_space():
    model = dbr_model(parse("0", 2, 2), 4)
    # D = I on the interior: the model space is the whole truncated space
    assert model.rank == len(enumerate_tuples(2, model.M))
    assert np.allclose(model.W @ model.Wplus, np.eye(model.rank))


def test_dbr_model_inner_symbol_small_rank():
    # b = z: the model space is one dimensional (constants)
    model = dbr_model(parse("z1", 1, 8), 8)
    assert model.rank == 1
    memb = model.membership(np.eye(model.W.shape[0])[:, 0])
    assert memb["residual"] < 1e-12


def test_gleason_vector_reconstructs_symbol(rng):
    B = parse("0.2 + 0.4*z1 + 0.3*z2*z1 - 0.1*z1*z2*z2", 2, 3)
    comps = gleason_vector(B)
    Z = nilpotent_point(rng, 2, 3)
    acc = np.zeros((3, 3), dtype=complex)
    for j, comp in enumerate(comps):
        acc += Z.mats[j] @ evaluate(comp, Z)
    direct = evaluate(B, Z) - B.coeff(()) * np.eye(3)
    assert np.allclose(acc, direct, atol=1e-13)


def test_gap_zero_symbol_is_one():
    res = extremality_gap(parse("0", 1, 2), 6)
    assert abs(res["ladder"][0]["gap_norm"] - 1.0) < 1e-14
    assert not res["extremal"]


def test_gap_inner_scalar_vanishes():
    res = extremality_gap(parse("z1", 1, 4), 8)
    assert res["ladder"][0]["gap_norm"] <= 1e-8
    assert res["extremal"]


def test_gap_strict_scalar():
    # b = 0.9 z: I - |b'(0)|^2 contribution leaves a 0.19 gap
    res = extremality_gap(parse("0.9*z1", 1, 4), 8)
    assert abs(res["ladder"][0]["gap_norm"] - 0.19) < 1e-6
    assert not res["extremal"]


def test_gap_free_letter_vanishes():
    res = extremality_gap(parse("z1", 2, 4), 6)
    assert res["ladder"][0]["gap_norm"] <= 1e-8


def test_a_empty_sq_both_routes():
    out = a_empty_sq(parse("0.9*z1", 1, 4), 8)
    assert abs(out["a0_sq"][0, 0] - 0.19) < 1e-6
    assert out["dual"] is not None
    assert abs(out["dual"][0, 0] - 0.19) < 1e-6


def test_a_empty_sq_zero_symbol():
    out = a_empty_sq(parse("0", 1, 2), 6)
    assert abs(out["a0_sq"][0, 0] - 1.0) < 1e-12


def test_a_empty_sq_passes_on_its_model():
    A = parse("0.9*z1", 1, 4)
    model = a_empty_sq(A, 8)["model"]
    ref = dbr_model(A, 8)
    assert (model.N, model.M, model.rank) == (ref.N, ref.M, ref.rank)
    assert np.array_equal(model.W, ref.W)
    # no model fits when N does not exceed the degree
    A = parse("0.5*z1*z2", 2, 2)
    for f in (a_empty_sq, exactgs_residual):
        with pytest.raises(ValueError, match="too small"):
            f(A, 2)


def test_l_invariance_strict():
    out = l_invariance_test(parse("0.5*z1", 1, 4), 8)
    assert out["invariant"]
    assert out["rho"] < 1.0


def test_l_invariance_inner():
    out = l_invariance_test(parse("z1", 1, 4), 8)
    assert not out["invariant"]
    assert out["rho"] == math.inf or out["rho"] >= 1.0 - 1e-8


def test_support_column():
    A = parse("[[0.5],[0.0]] + [[0.0],[0.5]]*z1", 1, 2, (2, 1))
    S = support(A)
    assert S.shape == (1, 1)
    A0 = parse("0", 1, 2)
    assert support(A0).shape[1] == 0


def test_exactgs_zero_symbol():
    assert exactgs_residual(parse("0", 1, 2), 6) < 1e-10


def test_exactgs_strict_scalar():
    assert exactgs_residual(parse("0.9*z1", 1, 4), 8) < 1e-6


def test_kernel_identity_exact(rng):
    B = parse("0.3 + 0.5*z1 + 0.2*z2", 2, 2)
    Z = nilpotent_point(rng, 2, 3)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3)
    g = np.ones(1)
    assert kernel_identity_residual(B, 6, Z, y, v, g) < 1e-10


def test_square_completion_pads():
    A = parse("[[0.5],[0.5]]*z1", 1, 2, (2, 1))
    sq = square_completion(A)
    assert (sq.p, sq.q) == (2, 2)
    assert np.array_equal(sq.coeff((1,))[:, 0], A.coeff((1,))[:, 0])
    assert not np.any(sq.coeff((1,))[:, 1])


def test_szego_distance_dichotomy():
    assert szego_distance(parse("z1", 1, 4), 4) < 1e-10
    assert abs(szego_distance(parse("0.5*z1", 1, 4), 4)
               - math.sqrt(0.75)) < 1e-10


@pytest.mark.parametrize("expr,d,expect", [
    ("0", 1, "not-CE"),
    ("z1", 1, "CE"),
    ("0.9*z1", 1, "not-CE"),
    ("z1", 2, "CE"),
])
def test_ce_battery(expr, d, expect):
    out = ce_test(parse(expr, d, 4), 8 if d == 1 else 6)
    assert out["verdict"] == expect
    assert out["flags"] == []


def test_ce_rejects_non_schur():
    with pytest.raises(NotSchurError):
        ce_test(parse("2*z1", 1, 4), 6)


def test_ce_column_fixture():
    A = parse("[[" + str(SQRT_HALF) + "],[" + str(SQRT_HALF) + "]]*z1",
              1, 4, (2, 1))
    out = ce_test(A, 8)
    assert out["verdict"] == "CE"


@pytest.mark.parametrize("expr,d,N", [
    ("0.9*z1", 1, 8),
    (f"{SQRT_HALF / 2}*z1 + {SQRT_HALF / 2}*z2", 2, 6),
])
def test_clark_intertwining(expr, d, N):
    assert clark_intertwining_residual(parse(expr, d, 4), N) < 1e-6


@pytest.mark.parametrize("expr,d,N", [
    ("0.9*z1", 1, 8),
    (f"{SQRT_HALF / 2}*z1 + {SQRT_HALF / 2}*z2", 2, 6),
])
def test_clark_gleason_transport(expr, d, N):
    assert clark_gleason_residual(parse(expr, d, 4), N) < 1e-6


def test_clark_checks_need_square_symbol():
    A = parse("[[0.5],[0.5]]*z1", 1, 2, (2, 1))
    with pytest.raises(ValueError):
        clark_intertwining_residual(A, 6)
    with pytest.raises(ValueError):
        clark_gleason_residual(A, 6)


def test_shift_compressions_annihilate_constants():
    model = dbr_model(parse("0.5*z1", 1, 4), 8)
    K0 = vacuum_kernel(model)
    for Xj in shift_compressions(model):
        # backward shift kills constants: X_j* K_0 = 0 up to truncation
        assert np.linalg.norm(Xj @ K0) < 1e-10


def test_gleason_maps_norm_bound():
    model = dbr_model(parse("0.9*z1", 1, 4), 8)
    (C,) = gleason_maps(model)
    # the Gleason Gram is dominated by I - B(0)*B(0) = I
    assert np.linalg.norm(C, 2) <= 1.0 + 1e-10
