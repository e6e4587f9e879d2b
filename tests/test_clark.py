import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from freehardy.clark import (InvalidMomentsError, MomentFunctional,
                             cauchy_transform_matrix, clark_moments,
                             cuntz_check, gns_build, gns_kernel_coords,
                             herglotz_from_moments, interior_isometry_defect,
                             moment_matrix, vb_adjoint_defect, vb_build)
from freehardy.fock import Side
from freehardy.parser import parse
from freehardy.series import FreeSeries, MatrixPoint, evaluate, cayley
from freehardy.words import enumerate_tuples, index_map, word_count

from conftest import (ball_point, creation, gns_oracle, herglotz_coefficient,
                      moment_matrix_oracle, nilpotent_point, random_schur,
                      spy_linalg)


def test_clark_moments_vacuum_state():
    # B = 0 gives H = 1, the vacuum state: mu(1) = 1 and all else 0
    mu = clark_moments(parse("0", 2, 4), 4)
    assert np.array_equal(mu.array[0], np.eye(1))
    assert not np.any(mu.array[1:])


def test_clark_moments_inner_scalar():
    # b = z: H = (1+z)/(1-z), every moment is 1
    mu = clark_moments(parse("z1", 1, 6), 6)
    for n in range(7):  # in one letter, the word 1^n is row n
        assert abs(mu.array[n, 0, 0] - 1.0) < 1e-14


def test_clark_moments_geometric():
    # b = z/2: H = (1+z/2)/(1-z/2), mu(L^n) = 2^{-n} for n >= 1
    mu = clark_moments(parse("0.5*z1", 1, 8), 8)
    assert mu.array[0, 0, 0] == 1.0
    for n in range(1, 9):
        assert abs(mu.array[n, 0, 0] - 0.5 ** n) < 1e-14


def test_clark_moments_requires_square():
    with pytest.raises(ValueError):
        clark_moments(parse("[[0.5,0.5]]*z1", 2, 2, (1, 2)), 2)


def test_im_h0_metadata():
    B = parse("[[i]]*0.5", 1, 4)
    mu = clark_moments(B, 4)
    H0 = cayley(B, "schur_to_herglotz").coeff(())
    assert np.allclose(mu.im_h0, (H0 - H0.conj().T) / 2j)


def test_herglotz_from_moments_vacuum(rng):
    mu = clark_moments(parse("0", 2, 6), 6)
    Z = ball_point(rng, 2, 2, radius=0.5)
    assert np.allclose(herglotz_from_moments(mu, Z), np.eye(2))


def test_herglotz_from_moments_scalar_value():
    # H(0.3) for b = z/2 equals (1.15)/(0.85) = 1.3529411...
    mu = clark_moments(parse("0.5*z1", 1, 40), 40)
    Z = MatrixPoint(1, 1, [np.array([[0.3]], dtype=complex)])
    val = herglotz_from_moments(mu, Z)[0, 0]
    assert abs(val - 1.15 / 0.85) < 1e-10


def test_herglotz_from_moments_matches_direct(rng):
    # at a nilpotent point the truncated sum reproduces cayley(B) exactly
    B = parse("0.4*z1 + 0.3*z2*z1", 2, 8)
    mu = clark_moments(B, 8)
    H = cayley(B.truncate(8) if B.deg != 8 else B, "schur_to_herglotz")
    Z = nilpotent_point(rng, 2, 3)
    assert np.allclose(herglotz_from_moments(mu, Z), evaluate(H, Z),
                       atol=1e-12)


def test_herglotz_from_moments_domain_check(rng):
    # outside the ball a point is accepted only when its word powers vanish
    # on the top grade of the window; one entry below the diagonal breaks
    # the nilpotency of a strictly upper triangular point
    B = parse("0.4*z1 + 0.3*z2*z1", 2, 8)
    mu = clark_moments(B, 8)
    Z = nilpotent_point(rng, 2, 3, scale=1.5)
    assert Z.row_norm() >= 1.0
    err = herglotz_from_moments(mu, Z) - evaluate(cayley(B, "schur_to_herglotz"), Z)
    assert np.abs(err).max() <= 1e-12
    mats = [m.copy() for m in Z.mats]
    mats[0][2, 0] = 0.5
    with pytest.raises(ValueError, match="jointly nilpotent"):
        herglotz_from_moments(mu, MatrixPoint(2, 3, mats))


def test_herglotz_from_moments_rejects_boundary(rng):
    mu = clark_moments(parse("0", 1, 4), 4)
    Z = MatrixPoint(1, 1, [np.array([[1.0]], dtype=complex)])
    with pytest.raises(ValueError):
        herglotz_from_moments(mu, Z)


def test_moment_matrix_vacuum_identity():
    mu = clark_moments(parse("0", 2, 6), 6)
    assert np.array_equal(moment_matrix(mu, 3),
                          np.eye(len(enumerate_tuples(2, 3))))


def test_moment_matrix_inner_all_ones():
    mu = clark_moments(parse("z1", 1, 6), 6)
    assert np.array_equal(moment_matrix(mu, 3), np.ones((4, 4)))


def test_moment_matrix_window_too_short():
    # the matrix on words of length <= 3 reads moments to degree 3
    mu = clark_moments(parse("0.5*z1", 1, 5), 2)
    with pytest.raises(ValueError):
        moment_matrix(mu, 3)


@given(d=st.integers(1, 3), p=st.integers(1, 2), N=st.integers(0, 5),
       extra=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
@example(d=3, p=2, N=5, extra=1, seed=0)
def test_moment_matrix_matches_per_word_oracle(d, p, N, extra, seed):
    # one scatter per grade writes the bits of one scatter per word, from a
    # window of degree N or above
    g = np.random.default_rng(seed).standard_normal(
        (2, word_count(d, N + extra), p, p))
    mu = MomentFunctional(d, N + extra, g[0] + 1j * g[1])
    assert moment_matrix(mu, N).tobytes() == moment_matrix_oracle(mu, N).tobytes()


@pytest.mark.parametrize("d, p, N", [(1, 1, 6), (1, 2, 5), (2, 1, 4),
                                     (2, 2, 3), (3, 1, 3), (3, 2, 2)])
def test_gns_build_matches_pinv_and_range_basis(d, p, N):
    # pi and interior from one SVD equal pinv and range_basis of T_int bit
    # for bit, on random symbols and on CE symbols with a singular M
    rng = np.random.default_rng(100 * d + 10 * p + N)
    symbols = [random_schur(rng, d, 2, p, p, N=N + 2) for _ in range(3)]
    symbols += [FreeSeries.from_terms(d, 2, p, p, {w: np.eye(p)})
                for w in ((1,), (d, 1))]
    for B in symbols:
        mu = clark_moments(B, N)
        for rank_tol in (1e-10, 1e-6):
            model = gns_build(mu, N, rank_tol=rank_tol)
            pi, interior = gns_oracle(model, rank_tol)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(model.pi, pi))
            assert model.interior.tobytes() == interior.tobytes()


def test_gns_and_cuntz_factor_t_int_once(monkeypatch):
    # one SVD of the interior columns of T, no pseudo-inverse; the 2-norm
    # in cuntz_check is read from the spectrum of the Hermitian Q* D Q
    calls = spy_linalg(monkeypatch, ("svd", "pinv", "eigvalsh"))
    B = parse("0.5*z1+0.3*z2*z1", 2, 2)
    model = gns_build(clark_moments(B, 8), 4)
    factored = [(name, shape) for name, shape, kw in calls
                if kw.get("compute_uv", True)]
    assert factored == [("svd", (model.rank, word_count(2, 3)))]
    calls.clear()
    cuntz_check(model)
    n_int = model.interior.shape[1]
    assert [(name, shape) for name, shape, _ in calls] == [
        ("eigvalsh", (n_int, n_int))]


@pytest.mark.parametrize("expr,d", [("0.5*z1+0.3*z2*z1", 2), ("0.7*z1", 1),
                                    ("0.4*z1+0.3*z2*z2", 2)])
def test_gns_defects_read_hermitian_spectra(monkeypatch, expr, d):
    # the Hermitian defects agree with their SVD 2-norms, and the isometry
    # defect reads one spectrum per letter, an SVD per pair of letters
    model = gns_build(clark_moments(parse(expr, d, 2), 4), 4)
    Q = model.interior
    D = np.eye(model.rank) - sum(P @ P.conj().T for P in model.pi)
    assert abs(cuntz_check(model)["defect"]
               - np.linalg.norm(Q.conj().T @ D @ Q, 2)) <= 1e-14
    want = max(np.linalg.norm(Q.conj().T @ Pk.conj().T @ Pj @ Q
                              - (k == j) * np.eye(Q.shape[1]), 2)
               for k, Pk in enumerate(model.pi)
               for j, Pj in enumerate(model.pi))
    calls = spy_linalg(monkeypatch, ("eigvalsh", "svd"))
    assert abs(interior_isometry_defect(model) - want) <= 1e-14
    assert sorted(name for name, _, _ in calls) == (
        ["eigvalsh"] * d + ["svd"] * (d * d - d))


def test_moment_matrix_incomparable_words_vanish():
    mu = clark_moments(parse("0.3*z1+0.2*z2", 2, 4), 4)
    M = moment_matrix(mu, 2)
    idx = index_map(2, 2)
    assert M[idx[(1,)], idx[(2,)]] == 0.0
    assert M[idx[(1, 2)], idx[(2, 1)]] == 0.0


def test_gns_vacuum_is_fock():
    # B = 0: the GNS space is the truncated Fock space and pi_k acts as
    # the nilpotent left creation operator
    mu = clark_moments(parse("0", 2, 6), 6)
    model = gns_build(mu, 3)
    assert model.rank == len(enumerate_tuples(2, 3))
    for k, Pk in enumerate(model.pi, 1):
        Lk = creation(Side.LEFT, k, 2, 3)
        # T is a unitary change of basis here (M = I), so conjugate back
        assert np.allclose(model.T.conj().T @ Pk @ model.T, Lk, atol=1e-12)


def test_gns_inner_rank_one():
    mu = clark_moments(parse("z1", 1, 8), 8)
    model = gns_build(mu, 4)
    assert model.rank == 1
    assert abs(model.pi[0][0, 0] - 1.0) < 1e-12
    assert cuntz_check(model)["defect"] < 1e-12


def test_gns_geometric_dimension():
    # b = z/2 at window N: moment matrix is (N+1) x (N+1) of full rank
    mu = clark_moments(parse("0.5*z1", 1, 8), 8)
    model = gns_build(mu, 4)
    assert model.rank == 5


def test_gns_rejects_indefinite_moments():
    mu = MomentFunctional(1, 2, np.array([[[1.0]], [[2.0]], [[0.0]]]))
    with pytest.raises(InvalidMomentsError):
        gns_build(mu, 1)


def test_gns_rejects_empty_interior():
    mu = clark_moments(parse("0.5*z1", 1, 2), 2)
    with pytest.raises(ValueError, match="N >= 1"):
        gns_build(mu, 0)


@pytest.mark.parametrize("expr,d", [("0", 2), ("z1", 1), ("0.5*z1", 1),
                                    ("0.3*z1+0.2*z2*z1", 2)])
def test_interior_isometry(expr, d):
    N = 4 if d == 1 else 3
    mu = clark_moments(parse(expr, d, 2 * N), 2 * N)
    model = gns_build(mu, N)
    assert interior_isometry_defect(model) < 1e-8


def test_cuntz_vacuum_has_defect():
    # the vacuum GNS row is a pure shift, far from Cuntz
    mu = clark_moments(parse("0", 2, 6), 6)
    assert cuntz_check(gns_build(mu, 3))["defect"] > 0.5


def cauchy_via_symbol(B, side, N):
    """The Cauchy transform read off the Herglotz coefficient kernel of
    cayley(B), one block per pair of words."""
    words = enumerate_tuples(B.d, N)
    p = B.p
    H = cayley(B.truncate(max(B.deg, N)), "schur_to_herglotz")
    out = np.zeros((len(words) * p, len(words) * p), dtype=complex)
    for i, c in enumerate(words):
        row = c if side == "left" else c[::-1]
        for j, a in enumerate(words):
            out[i * p:(i + 1) * p, j * p:(j + 1) * p] = \
                herglotz_coefficient(H, row, a[::-1])
    return out


@pytest.mark.parametrize("expr,d", [("0.5*z1", 1), ("0.3*z1+0.2*z2*z1", 2)])
@pytest.mark.parametrize("side", ["left", "right"])
def test_cauchy_transform_routes_agree(expr, d, side):
    N = 3
    B = parse(expr, d, 2 * N)
    mu = clark_moments(B, 2 * N)
    via_symbol = cauchy_via_symbol(B, side, N)
    via_moments = cauchy_transform_matrix(mu, side, N)
    assert np.array_equal(via_symbol, via_moments)


def test_cauchy_transform_vacuum_unit_column():
    # B = 0: the transform of the unit class is the constant function 1
    mu = clark_moments(parse("0", 2, 4), 4)
    C = cauchy_transform_matrix(mu, "left", 2)
    e = np.zeros(C.shape[1])
    e[0] = 1.0
    col = C @ e
    assert col[0] == 1.0 and not np.any(col[1:])


def test_cauchy_transform_kernel_transport(rng):
    # transported kernel vectors: C (x-coords) gives the Herglotz-space
    # coefficient expansion of the kernel at a nilpotent pin, checked by
    # pairing against the transform columns through the moment form
    B = parse("0.5*z1", 1, 8)
    mu = clark_moments(B, 8)
    N = 4
    model = gns_build(mu, N)
    C = cauchy_transform_matrix(mu, "left", N)
    Z = nilpotent_point(rng, 1, 3)
    y = rng.standard_normal(3)
    v = rng.standard_normal(3)
    x = gns_kernel_coords(Z, y, v, N)
    # Gram identity: <C x, C e_b>_H = <T x, T e_b> = (M x)_b
    M = moment_matrix(mu, N)
    lhs = C.conj().T @ np.linalg.pinv(C @ np.linalg.pinv(M) @ C.conj().T) @ (C @ x)
    assert np.allclose(lhs, M @ x, atol=1e-8)


def test_vb_vacuum_is_right_creation():
    # B = 0: the transform is a word permutation, so the transported row
    # acts by letter appending on coefficient coordinates
    mu = clark_moments(parse("0", 2, 6), 6)
    out = vb_build(mu, 3)
    for k in range(1, 3):
        Rk = creation(Side.RIGHT, k, 2, 3)
        assert np.allclose(out["V"][k - 1], Rk, atol=1e-12)


def test_vb_range_complemented_by_constants():
    # the range of the transported row has codimension one, and adding
    # the constant function restores the full coefficient space
    mu = clark_moments(parse("0.5*z1", 1, 8), 8)
    out = vb_build(mu, 4)
    R = out["range_basis"]
    n = R.shape[0]
    assert R.shape[1] == n - 1
    e0 = np.zeros(n)
    e0[0] = 1.0
    assert np.linalg.matrix_rank(np.column_stack([R, e0])) == n


def test_vb_inner_compresses_to_unitary():
    mu = clark_moments(parse("z1", 1, 8), 8)
    out = vb_build(mu, 4)
    S = out["carrier"]
    # rank-one carrier: the compressed operator is the 1 x 1 identity
    V = np.linalg.pinv(S) @ (out["V"][0] @ S)
    assert np.allclose(V, np.eye(1), atol=1e-10)


def test_vb_adjoint_action_on_kernels(rng):
    mu = clark_moments(parse("0.4*z1+0.3*z2*z1", 2, 8), 8)
    model = gns_build(mu, 4)
    Z = nilpotent_point(rng, 2, 3)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3)
    assert vb_adjoint_defect(model, Z, y, v) < 1e-8


def test_vb_adjoint_defect_scalar_only():
    B = parse("[[0,0.5],[0,0]] + [[0,0],[0.5,0]]*z1", 1, 4, (2, 2))
    mu = clark_moments(B, 4)
    model = gns_build(mu, 2)
    Z = MatrixPoint(1, 1, [np.zeros((1, 1))])
    with pytest.raises(ValueError):
        vb_adjoint_defect(model, Z, np.ones(1), np.ones(1))


def test_moment_functional_json_roundtrip():
    # the moments report holds every moment and Im H_0 exactly
    mu = clark_moments(parse("0.3*z1+0.2*i*z2", 2, 4), 4)
    data = json.loads(json.dumps(mu.to_json()))

    def mat(m):
        return np.array(m["re"]) + 1j * np.array(m["im"])

    assert (data["d"], data["p"], data["deg"]) == (mu.d, mu.p, mu.deg)
    back = {tuple(int(s) for s in key.split(",")) if key else (): mat(m)
            for key, m in data["moments"].items()}
    idx = index_map(mu.d, mu.deg)
    assert back.keys() == idx.keys()
    for w, m in back.items():
        assert np.array_equal(m, mu.array[idx[w]])
    assert np.array_equal(mat(data["im_h0"]), mu.im_h0)


def test_moment_shape_validation():
    with pytest.raises(ValueError):
        MomentFunctional(1, 2, np.zeros((3, 1, 2)))
    with pytest.raises(ValueError):
        MomentFunctional(1, 1, np.zeros((3, 1, 1)))
