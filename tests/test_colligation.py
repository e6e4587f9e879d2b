import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from freehardy import cli, colligation, gleason, series
from freehardy.colligation import (Colligation, canonical_colligation,
                                   column_schur_defect, complete_column,
                                   transfer_eval, transfer_series)
from freehardy.fock import Side
from freehardy.gleason import CeObstructionError, dbr_model
from freehardy.parser import parse
from freehardy.series import (FreeSeries, MatrixPoint, dagger_series, evaluate,
                              letter_series, multiplier_matrix, series_degree)
from freehardy.words import enumerate_tuples, index_map, reversal, word_count

from conftest import (column_schur_oracle, nilpotent_point, random_schur,
                      random_series, spy_linalg)


def shift_colligation():
    # realizes B(z) = z with a one dimensional state
    return Colligation(1, 1, 1, 1, [np.zeros((1, 1))], [np.eye(1)],
                       np.eye(1), np.zeros((1, 1)))


def test_shift_realization_exact():
    U = shift_colligation()
    M = U.block_matrix()
    assert np.linalg.norm(M.conj().T @ M - np.eye(M.shape[1]), 2) < 1e-15
    assert U.defects()["coisometry_defect"] < 1e-15
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


def _transfer_word_loop(U, deg):
    """The coefficient at i1..ik is C A_{i1} ... A_{i_{k-1}} B_{ik},
    multiplied left to right one word at a time."""
    want = np.zeros((word_count(U.d, deg), U.out_dim, U.in_dim), dtype=complex)
    for w, i in index_map(U.d, deg).items():
        if not w:
            want[i] = U.D
            continue
        mat = U.C
        for k in w[:-1]:
            mat = mat @ U.A[k - 1]
        want[i] = mat @ U.B[w[-1] - 1]
    return want


def test_transfer_series_matches_word_loop(rng):
    # rectangular complex colligation
    def cmat(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
    d, n, m, p = 3, 4, 2, 3
    U = Colligation(d, n, m, p, [0.3 * cmat(n, n) for _ in range(d)],
                    [cmat(n, m) for _ in range(d)], cmat(p, n), cmat(p, m))
    for deg in (0, 1, 4):
        assert np.array_equal(transfer_series(U, deg).array,
                              _transfer_word_loop(U, deg))


def _two_by_two_contraction(seed):
    """B = A1 z1 + A2 z2 with [A1; A2] of norm 0.8, a 2x2 symbol like those
    of the model_space benchmark."""
    g = np.random.default_rng(seed).standard_normal((2, 4, 2))
    M = (g[0] + 1j * g[1]) * (0.8 / np.linalg.norm(g[0] + 1j * g[1], 2))
    return FreeSeries.from_terms(2, 2, 2, 2, {(1,): M[:2], (2,): M[2:]})


def test_transfer_series_is_the_word_loop_bit_for_bit_at_state_size():
    # a 254-dimensional state: BLAS splits the inner dimension of each
    # product, and the grade-wide product keeps every bit of the word loop
    U = canonical_colligation(_two_by_two_contraction(3), 7)
    assert U.state_dim == 254
    assert transfer_series(U, 6).array.tobytes() == \
        _transfer_word_loop(U, 6).tobytes()


@pytest.mark.parametrize("cmd", ["realize", "complete-column"])
def test_model_commands_take_no_state_size_eigvalsh(monkeypatch, tmp_path, cmd):
    # the colligation Gram splits into components of at most 6 columns, so
    # no spectrum is read from a dense Gram of the state's size
    path = tmp_path / "B.json"
    path.write_text(json.dumps(_two_by_two_contraction(3).to_json()))
    calls = spy_linalg(monkeypatch, ("eigvalsh",))
    assert cli.main([cmd, "--input", str(path), "--N", "7",
                     "--out", str(tmp_path / "report.json")]) == 0
    assert calls and max(shape[-1] for _, shape, _ in calls) <= 6


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
        assert U.defects()["contraction_defect"] <= 1e-8
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


def _left_realization_oracle(B, N, rank_tol=1e-10):
    """The functional model on the left model space, built directly: D from
    the left multiplier, A_k compressing the right backward shift, B_k
    feeding the right strip b -> B_{b.k}, C evaluating at the vacuum."""
    B = B.truncate(series_degree(B))
    M = N - B.deg
    T = multiplier_matrix(B, Side.LEFT, N)
    m = word_count(B.d, M) * B.p
    D = (np.eye(len(T)) - T @ T.conj().T)[:m, :m]
    evals, vecs = np.linalg.eigh(D)
    keep = evals > rank_tol * np.abs(evals).max()
    W = vecs[:, keep] * np.sqrt(evals[keep])
    Wplus = (vecs[:, keep] / np.sqrt(evals[keep])).conj().T
    A, Bk = [], []
    for k in range(1, B.d + 1):
        Rk = multiplier_matrix(letter_series(B.d, 1, k, B.p), Side.RIGHT, M)
        A.append(Wplus @ Rk.conj().T @ W)
        strip = FreeSeries.from_terms(B.d, M, B.p, B.q, {
            b: B.coeff(b + (k,)) for b in enumerate_tuples(B.d, M)})
        Bk.append(Wplus @ strip.array.reshape(-1, B.q))
    return W, A, Bk, W[:B.p]


@pytest.mark.parametrize("d,N", [(2, 5), (3, 4)])
@pytest.mark.parametrize("p", [1, 2])
def test_canonical_colligation_matches_left_construction(d, N, p):
    # word reversal carries the left model of B onto the right model of its
    # transpose; the two realizations agree up to the induced unitary Q
    B = random_schur(np.random.default_rng(7 * d + p), d, 2, p, p, target=0.8)
    assert B.max_coeff_diff(dagger_series(B)) > 0.01
    W_old, A_old, B_old, C_old = _left_realization_oracle(B, N)
    U = canonical_colligation(B, N)
    new = dbr_model(B, N, side=Side.LEFT)
    M = new.M
    rows = np.arange(word_count(d, M) * p).reshape(-1, p)[reversal(d, M)]
    Q = new.Wplus @ W_old[rows.reshape(-1)]
    eye = np.eye(U.state_dim)
    assert Q.shape == eye.shape
    assert np.linalg.norm(Q @ Q.conj().T - eye) <= 1e-10
    assert np.linalg.norm(Q.conj().T @ Q - eye) <= 1e-10
    for k in range(d):
        assert np.linalg.norm(U.A[k] - Q @ A_old[k] @ Q.conj().T) <= 1e-10
        assert np.linalg.norm(U.B[k] - Q @ B_old[k]) <= 1e-10
    assert np.linalg.norm(U.C - C_old @ Q.conj().T) <= 1e-10
    assert np.array_equal(U.D, B.coeff(()))


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


@given(d=st.integers(1, 3), p=st.integers(1, 2), q=st.integers(1, 2),
       N=st.integers(1, 7), scale=st.floats(0.1, 1.5),
       seed=st.integers(0, 2**32 - 1))
@example(d=2, p=2, q=1, N=6, scale=1.5, seed=0)  # matrix-free, not Schur
@example(d=3, p=1, q=2, N=4, scale=1.5, seed=0)  # matrix-free, not Schur
@example(d=2, p=1, q=1, N=6, scale=0.5, seed=0)  # matrix-free, Schur
def test_column_schur_defect_matches_dense_eigenvalue(d, p, q, N, scale, seed):
    # max(0, ||T||^2 - 1) from the norm estimate against the dense
    # -lambda_min(I - T*T), on Schur and non-Schur columns, on both sides of
    # the size at which the estimate runs matrix-free
    N = min(N, {1: 7, 2: 6, 3: 4}[d])
    rng = np.random.default_rng(seed)
    A = random_series(rng, d, 2, p, q, scale=scale / (2 * d + 1))
    a = random_series(rng, d, 1, 1, q, scale=scale / (d + 1))
    want, norm = column_schur_oracle(A, a, N)
    assert abs(column_schur_defect(A, a, N) - want) <= 1e-14 * max(1.0, norm ** 2)


def test_column_schur_defect_forms_no_multiplier(monkeypatch):
    # at word_count(2, 7) = 255 words and a 2 x 1 column the norm estimate
    # runs matrix-free: no multiplier matrix, no eigvalsh of I - T*T
    A, a = parse("0.6*z1+0.3*z2*z1", 2, 2), parse("0.7-0.2*z2", 2, 2)
    want, norm = column_schur_oracle(A, a, 7)
    built = []

    def counted(*args, _fn=series.multiplier_matrix):
        built.append(args)
        return _fn(*args)
    monkeypatch.setattr(series, "multiplier_matrix", counted)
    monkeypatch.setattr(colligation, "multiplier_matrix", counted, raising=False)
    calls = spy_linalg(monkeypatch, ("eigvalsh", "eigh"))
    got = column_schur_defect(A, a, 7)
    assert not built and not calls
    assert want > 0.0 and abs(got - want) <= 1e-14 * max(1.0, norm ** 2)


def test_complete_column_reads_the_gap_spectrum(monkeypatch, rng):
    # the obstruction test reads the top eigenvalue of the gap that
    # a_empty_sq factors: no 2-norm of the 2 x 2 a0^2
    A = random_schur(rng, 2, 1, 2, 2, target=0.8, N=6)
    calls = spy_linalg(monkeypatch, ("norm",))
    out = complete_column(A, 6)
    assert out["a0"].shape == (2, 2)
    assert calls and (2, 2) not in [shape for _, shape, _ in calls]


def test_model_path_takes_no_svd_of_a_hermitian_matrix(monkeypatch, rng):
    # the gap ladder, the completion's isometry defect and the defects of
    # the realization read the spectra of Hermitian matrices; at d = 1 the
    # Schur check's norm is an SVD of the multiplier, which is not Hermitian
    A = random_schur(rng, 1, 2, 2, 2, target=0.8, N=6)
    hermitian, svds = [], []

    def svd(a, *args, _fn=np.linalg._linalg.svd, **kwargs):
        svds.append(a.shape)
        hermitian.append(a.shape[0] == a.shape[1] and np.allclose(a, a.conj().T))
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", svd)
    assert len(gleason.extremality_gap(A, 6)["ladder"]) == 3
    complete_column(A, 6)
    canonical_colligation(A, 6)
    assert svds and not any(hermitian)


def test_complete_column_factors_one_rung(monkeypatch):
    # the completion reads the top rung only, and one set of Gleason maps
    # serves both the gap a0 and the input maps
    calls = []

    def counted(model, _fn=gleason.gleason_maps):
        calls.append(model.N)
        return _fn(model)
    monkeypatch.setattr(gleason, "gleason_maps", counted)
    monkeypatch.setattr(colligation, "gleason_maps", counted)
    complete_column(parse("0.9*z1", 1, 4), 10)
    assert calls == [10]


def _from_block(M, d, state):
    """The colligation whose block matrix is M."""
    rows = [M[k * state:(k + 1) * state] for k in range(d)]
    bottom = M[d * state:]
    return Colligation(d, state, M.shape[1] - state, len(bottom),
                       [r[:, :state] for r in rows], [r[:, state:] for r in rows],
                       bottom[:, :state], bottom[:, state:])


@pytest.mark.parametrize("d, state, n_in, n_out", [
    (1, 2, 3, 1),   # 3 x 5: U U* has every eigenvalue among the s^2
    (1, 2, 1, 1),   # 3 x 3
    (2, 2, 1, 1),   # 5 x 3: U U* has two zero eigenvalues besides the s^2
    (3, 1, 2, 2),   # 5 x 3
])
def test_defects_match_their_definitions(monkeypatch, rng, d, state, n_in, n_out):
    # both defects come from one spectrum, that of the smaller Gram of U; a
    # random block and a partial isometry (the singular values of a tall
    # one all equal 1, so only the missing ones make U U* - I nonzero)
    # against the norms that define them
    shape = (d * state + n_out, state + n_in)
    M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Q = np.linalg.qr(M if shape[0] >= shape[1] else M.conj().T)[0]
    for block in (M, Q if shape[0] >= shape[1] else Q.conj().T):
        U = _from_block(block, d, state)
        want = (max(0.0, np.linalg.norm(block, 2) - 1.0),
                np.linalg.norm(block @ block.conj().T - np.eye(shape[0]), 2))
        with monkeypatch.context() as mp:
            calls = spy_linalg(mp, ("svd", "eigvalsh", "eigh"))
            got = U.defects()
        assert [(name, dims) for name, dims, _ in calls] == [
            ("eigvalsh", (min(shape),) * 2)]
        assert U.block_matrix().tobytes() == block.tobytes()
        scale = max(1.0, np.linalg.norm(block, 2) ** 2)
        assert abs(got["contraction_defect"] - want[0]) <= 1e-14 * scale
        assert abs(got["coisometry_defect"] - want[1]) <= 1e-14 * scale
