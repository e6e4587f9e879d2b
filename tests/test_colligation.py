import math

import numpy as np
import pytest

from freehardy.colligation import (Colligation, canonical_colligation,
                                   column_schur_defect, complete_column,
                                   transfer_eval, transfer_series)
from freehardy.gleason import CeObstructionError
from freehardy.parser import parse
from freehardy.series import MatrixPoint, dagger_series, evaluate

from conftest import nilpotent_point


def shift_colligation():
    # realizes B(z) = z with a one dimensional state
    return Colligation(1, 1, 1, 1, [np.zeros((1, 1))], [np.eye(1)],
                       np.eye(1), np.zeros((1, 1)))


def test_shift_realization_exact():
    U = shift_colligation()
    assert U.isometry_defect() < 1e-15
    assert U.coisometry_defect() < 1e-15
    F = transfer_series(U, 4)
    assert F.coeff((1,))[0, 0] == 1.0
    for w in [(), (1, 1), (1, 1, 1)]:
        assert not np.any(F.coeff(w))


def test_transfer_at_origin_is_feedthrough(rng):
    D = rng.standard_normal((2, 3))
    U = Colligation(2, 4, 3, 2,
                    [rng.standard_normal((4, 4)) * 0.2 for _ in range(2)],
                    [rng.standard_normal((4, 3)) for _ in range(2)],
                    rng.standard_normal((2, 4)), D)
    Z = MatrixPoint(2, 3, [np.zeros((3, 3))] * 2)
    assert np.allclose(transfer_eval(U, Z), np.kron(np.eye(3), D))


def test_transfer_affine_case(rng):
    # A = 0 makes the transfer function affine: D + sum Z_k (x) (C B_k)
    C = rng.standard_normal((2, 3))
    Bk = [rng.standard_normal((3, 2)) for _ in range(2)]
    D = rng.standard_normal((2, 2))
    U = Colligation(2, 3, 2, 2, [np.zeros((3, 3))] * 2, Bk, C, D)
    Z = nilpotent_point(rng, 2, 3)
    want = np.kron(np.eye(3), D) + sum(np.kron(Z.mats[k], C @ Bk[k])
                                       for k in range(2))
    assert np.allclose(transfer_eval(U, Z), want)


def test_transfer_series_matches_eval(rng):
    # cross-check the coefficient recursion against direct evaluation at
    # jointly nilpotent points, where the truncated series is exact
    U = Colligation(2, 3, 1, 1,
                    [rng.standard_normal((3, 3)) * 0.3 for _ in range(2)],
                    [rng.standard_normal((3, 1)) for _ in range(2)],
                    rng.standard_normal((1, 3)), rng.standard_normal((1, 1)))
    F = transfer_series(U, 3)
    for _ in range(10):
        Z = nilpotent_point(rng, 2, 3)
        assert np.allclose(evaluate(F, Z), transfer_eval(U, Z), atol=1e-10)


def test_transfer_eval_singular_pencil():
    U = Colligation(1, 1, 1, 1, [np.eye(1)], [np.eye(1)],
                    np.eye(1), np.zeros((1, 1)))
    Z = MatrixPoint(1, 1, [np.eye(1)])
    with pytest.raises(np.linalg.LinAlgError):
        transfer_eval(U, Z)


def test_json_roundtrip(rng):
    U = Colligation(2, 2, 1, 3,
                    [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                     for _ in range(2)],
                    [rng.standard_normal((2, 1)) for _ in range(2)],
                    rng.standard_normal((3, 2)), rng.standard_normal((3, 1)))
    V = Colligation.from_json(U.to_json())
    assert np.array_equal(U.block_matrix(), V.block_matrix())


def test_block_shape_validation():
    with pytest.raises(ValueError):
        Colligation(2, 1, 1, 1, [np.eye(1)], [np.eye(1), np.eye(1)],
                    np.eye(1), np.eye(1))


def test_canonical_zero_symbol():
    U = canonical_colligation(parse("0", 1, 2), 6)
    F = transfer_series(U, 4)
    assert not np.any(F.array)


def test_canonical_inner_scalar():
    # b = z: one dimensional model, blocks [[0,1],[1,0]]
    U = canonical_colligation(parse("z1", 1, 6), 8)
    blk = U.block_matrix()
    assert np.allclose(np.abs(blk), np.array([[0.0, 1.0], [1.0, 0.0]]),
                       atol=1e-10)
    assert U.meta["coisometry_defect"] < 1e-8


def test_canonical_roundtrip_quadratic():
    B = parse("0.8*z1*z2", 2, 2)
    U = canonical_colligation(B, 8)
    F = transfer_series(U, 5)
    assert F.max_coeff_diff(
        parse("0.8*z1*z2", 2, 5)) < 1e-6


def test_canonical_contractive():
    for expr, d in [("0.9*z1", 1), ("0.8*z1*z2", 2), ("0", 1)]:
        U = canonical_colligation(parse(expr, d, 4), 8 if d == 1 else 6)
        assert U.contraction_defect() <= 1e-8
        assert U.meta["model_rank"] >= 1


def test_canonical_surfaces_truncation_defects():
    # mixed-grade symbols leave a compression artifact in the block norm;
    # it is reported in meta rather than hidden, and the realized series
    # still matches the symbol exactly
    B = parse("0.4*z1+0.4*z2*z1", 2, 4)
    U = canonical_colligation(B, 6)
    assert 0.0 < U.meta["contraction_defect"] < 0.1
    F = transfer_series(U, 4)
    assert F.max_coeff_diff(parse("0.4*z1+0.4*z2*z1", 2, 4)) < 1e-12


def test_complete_column_constant():
    # a = r: the completion is the constant sqrt(1 - r^2)
    out = complete_column(parse("0.5", 1, 2), 6)
    assert abs(out["a"].coeff(())[0, 0] - math.sqrt(0.75)) < 1e-8
    assert out["isometry_defect"] < 1e-6


def test_complete_column_scalar_multiple():
    # a = 0.6 z: completion is the constant 0.8 and the stacked column
    # is exactly inner
    out = complete_column(parse("0.6*z1", 1, 4), 8)
    a = out["a"]
    assert abs(a.coeff(())[0, 0] - 0.8) < 1e-8
    for w, m in a.terms():
        if w:
            assert np.linalg.norm(m) < 1e-8
    assert out["isometry_defect"] < 1e-6
    assert column_schur_defect(parse("0.6*z1", 1, 4), a, 6) < 1e-8


def test_complete_column_strict_scalar():
    out = complete_column(parse("0.9*z1", 1, 4), 10)
    assert abs(out["a0"][0, 0] - math.sqrt(0.19)) < 1e-6
    assert out["isometry_defect"] < 1e-6
    assert column_schur_defect(parse("0.9*z1", 1, 4), out["a"], 8) < 1e-6


def test_complete_column_obstruction():
    with pytest.raises(CeObstructionError):
        complete_column(parse("z1", 1, 4), 8)
    with pytest.raises(CeObstructionError):
        complete_column(parse("z1", 2, 4), 6)


def test_column_schur_defect_detects_violation():
    # stacking two copies of an inner symbol overshoots norm one
    b = parse("z1", 1, 4)
    assert column_schur_defect(b, b, 6) > 0.5
    assert column_schur_defect(b, parse("0", 1, 4), 6) == 0.0
