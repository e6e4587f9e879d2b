import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freehardy.fock import Side
from freehardy.series import (FreeSeries, MatrixPoint, cayley,
                              constant_series, dagger_series, direct_sum,
                              evaluate, identity_series, invert_series,
                              letter_series, multiplier_matrix, multiply,
                              normalize_schur, schur_norm_estimate,
                              word_powers)

from conftest import (ball_point, creation_oracle, random_series,
                      random_schur, transpose_unitary)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
E21 = E12.T


def test_evaluate_matrix_units():
    F = FreeSeries(2, 2, 1, 1, {(1, 2): np.array([[1.0]])})
    Z = MatrixPoint(2, 2, [0.9 * E12, 0.9 * E21])
    out = evaluate(F, Z)
    assert np.allclose(out, 0.81 * np.array([[1.0, 0], [0, 0]]))


def test_evaluate_constant():
    F = identity_series(2, 3, 2)
    Z = MatrixPoint(2, 3, [np.zeros((3, 3))] * 2)
    assert np.allclose(evaluate(F, Z), np.eye(6))


def test_evaluate_geometric():
    F = FreeSeries(1, 20, 1, 1, {(1,) * k: np.array([[1.0]])
                                 for k in range(21)})
    Z = MatrixPoint(1, 1, [np.array([[0.5]])])
    assert abs(evaluate(F, Z)[0, 0] - 2.0) < 1e-5


def test_evaluate_respects_direct_sums(rng):
    F = random_series(rng, 2, 3)
    Z = ball_point(rng, 2, 2)
    W = ball_point(rng, 2, 3)
    both = direct_sum([Z, W])
    lhs = evaluate(F, both)
    rhs = np.zeros_like(lhs)
    rhs[:2, :2] = evaluate(F, Z)
    rhs[2:, 2:] = evaluate(F, W)
    assert np.allclose(lhs, rhs)


def test_multiply_single_word():
    F = letter_series(2, 2, 1)
    G = letter_series(2, 2, 2)
    H = multiply(F, G)
    assert np.allclose(H.coeff((1, 2)), 1.0)
    assert len([w for w, m in H.coeffs.items() if np.any(m)]) == 1


def test_multiply_unit_law(rng):
    F = random_series(rng, 2, 3)
    assert multiply(F, identity_series(2, 3)).max_coeff_diff(F) == 0.0


def test_multiply_cross_cancel():
    one = constant_series(1, 2, 1.0)
    z = letter_series(1, 2, 1)
    H = multiply(one + z, one - z)
    assert np.allclose(H.coeff(()), 1.0)
    assert np.allclose(H.coeff((1,)), 0.0)
    assert np.allclose(H.coeff((1, 1)), -1.0)


def test_multiply_matches_evaluate(rng):
    F = random_series(rng, 2, 2, scale=0.5)
    G = random_series(rng, 2, 2, scale=0.5)
    Z = ball_point(rng, 2, 2, radius=0.3)
    lhs = evaluate(multiply(F, G), Z)
    rhs = evaluate(F, Z) @ evaluate(G, Z)
    # tail bound: products of degree > 2 are dropped
    assert np.linalg.norm(lhs - rhs) < 10 * 0.3 ** 3 / 0.7


def right(F, N=2):
    return multiplier_matrix(F, Side.RIGHT, N)


def test_right_product_single_word():
    # R_1 R_2 appends 2, then 1: right multiplication by the word (2, 1)
    H = multiply(letter_series(2, 2, 2), letter_series(2, 2, 1))
    assert np.array_equal(right(letter_series(2, 1, 1)) @
                          right(letter_series(2, 1, 2)), right(H))


def test_right_product_unit(rng):
    F = random_series(rng, 2, 2)
    assert np.array_equal(right(F) @ right(identity_series(2, 2)), right(F))


def test_right_product_is_reversed_multiply(rng):
    # scalar right multipliers compose in the reversed order
    F = random_series(rng, 2, 2)
    G = random_series(rng, 2, 2)
    assert np.allclose(right(F) @ right(G), right(multiply(G, F)),
                       rtol=0, atol=1e-12)


def _naive_product(F, G):
    """(FG)_a = sum over splits a = b.c of F_b G_c, word by word."""
    deg = min(F.deg, G.deg)
    out = {}
    for b, x in F.coeffs.items():
        for c, y in G.coeffs.items():
            if len(b) + len(c) <= deg:
                out[b + c] = out.get(b + c, 0) + x @ y
    return FreeSeries(F.d, deg, F.p, G.q, out)


@pytest.mark.parametrize("d, degs, shape", [
    (1, (7, 5), (2, 2, 2)),
    (2, (4, 3), (2, 2, 2)),
    (3, (2, 3), (2, 2, 2)),
    (2, (3, 4), (2, 3, 1)),
])
def test_multiply_and_invert_match_convolution(rng, d, degs, shape):
    p, k, q = shape
    F = random_series(rng, d, degs[0], p, k, scale=0.3)
    G = random_series(rng, d, degs[1], k, q)
    assert multiply(F, G).max_coeff_diff(_naive_product(F, G)) < 1e-12
    if p == k:
        F.coeffs[()] = np.eye(p, dtype=complex)
        Finv = invert_series(F)
        one = identity_series(d, F.deg, p)
        assert _naive_product(F, Finv).max_coeff_diff(one) < 1e-12
        assert _naive_product(Finv, F).max_coeff_diff(one) < 1e-12


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 1)])
def test_right_product_composes_right_multipliers(rng, shape):
    p, k, q = shape
    F = random_series(rng, 2, 3, p, k)
    G = random_series(rng, 2, 2, k, q)
    # H_{c.b} = F_b G_c: the transpose of the product of the transposes
    H = dagger_series(multiply(dagger_series(F), dagger_series(G)))
    assert H.deg == 2
    assert np.allclose(right(H), right(F.truncate(2)) @ right(G),
                       rtol=0, atol=1e-12)


def test_dagger_series():
    F = FreeSeries(2, 2, 1, 1, {(1, 2): np.array([[3.0]])})
    assert np.allclose(dagger_series(F).coeff((2, 1)), 3.0)
    C = constant_series(2, 2, 5.0)
    assert dagger_series(C).max_coeff_diff(C) == 0.0


def test_dagger_involution(rng):
    F = random_series(rng, 2, 3)
    assert dagger_series(dagger_series(F)).max_coeff_diff(F) == 0.0


def test_invert_geometric():
    one = constant_series(1, 5, 1.0)
    z = letter_series(1, 5, 1)
    G = invert_series(one - z)
    for k in range(6):
        assert np.allclose(G.coeff((1,) * k), 1.0)


def test_invert_identity():
    I = identity_series(2, 3, 2)
    assert invert_series(I).max_coeff_diff(I) == 0.0


def test_invert_self_check(rng):
    F = random_series(rng, 2, 4, scale=0.5)
    F.coeffs[()] = np.array([[1.0 + 0j]])
    prod = multiply(F, invert_series(F))
    assert prod.max_coeff_diff(identity_series(2, 4)) < 1e-12


def test_invert_singular_constant():
    z = letter_series(1, 3, 1)
    with pytest.raises(np.linalg.LinAlgError):
        invert_series(z)


def test_cayley_of_zero():
    H = cayley(constant_series(1, 4, 0.0), "schur_to_herglotz")
    assert H.max_coeff_diff(constant_series(1, 4, 1.0)) == 0.0


def test_cayley_of_shift():
    H = cayley(letter_series(1, 5, 1), "schur_to_herglotz")
    assert np.allclose(H.coeff(()), 1.0)
    for k in range(1, 6):
        assert np.allclose(H.coeff((1,) * k), 2.0)


def test_cayley_roundtrip(rng):
    B = random_schur(rng, 2, 4, target=0.8)
    back = cayley(cayley(B, "schur_to_herglotz"), "herglotz_to_schur")
    assert back.max_coeff_diff(B) < 1e-10


def test_multiplier_matrix_letters():
    for d, N in ((1, 5), (2, 3), (3, 2)):
        for side in (Side.LEFT, Side.RIGHT):
            for k in range(1, d + 1):
                T = multiplier_matrix(letter_series(d, 1, k), side, N)
                assert np.array_equal(T, creation_oracle(side, k, d, N))


def test_multiplier_matrix_vacuum_action():
    F = multiply(letter_series(2, 2, 1), letter_series(2, 2, 2))
    for side in (Side.LEFT, Side.RIGHT):
        T = multiplier_matrix(F, side, 3)
        e0 = np.zeros(T.shape[0])
        e0[0] = 1.0
        out = T @ e0
        from freehardy.words import index_map
        assert np.allclose(out[index_map(2, 3)[(1, 2)]], 1.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-14


def test_dagger_transpose_conjugation(rng):
    F = random_series(rng, 2, 2)
    N = 3
    U = transpose_unitary(2, N)
    lhs = multiplier_matrix(F, Side.RIGHT, N)
    rhs = U @ multiplier_matrix(dagger_series(F), Side.LEFT, N) @ U.conj().T
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_schur_norm_estimates():
    assert abs(schur_norm_estimate(letter_series(1, 1, 1), 4) - 1.0) < 1e-12
    row = 0.5 * (letter_series(2, 1, 1) + letter_series(2, 1, 2))
    assert schur_norm_estimate(row, 4) <= 0.5 * np.sqrt(2) + 1e-12
    assert abs(schur_norm_estimate(constant_series(1, 0, -2.0), 3) - 2.0) < 1e-12


def test_schur_norm_monotone(rng):
    F = random_series(rng, 2, 2)
    vals = [schur_norm_estimate(F, N) for N in (2, 3, 4, 5)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def test_normalize_schur(rng):
    F = random_series(rng, 2, 3, scale=5.0)
    G = normalize_schur(F, 5, target=0.9)
    assert schur_norm_estimate(G, 5) <= 0.9 + 1e-10


def test_word_powers_order_convention():
    # Z^(1,2) must be Z_1 Z_2, not Z_2 Z_1
    Z = MatrixPoint(2, 2, [E12, E21])
    pows = word_powers(Z, 2)
    from freehardy.words import index_map
    idx = index_map(2, 2)
    assert np.allclose(pows[idx[(1, 2)]], E12 @ E21)
    assert np.allclose(pows[idx[(2, 1)]], E21 @ E12)


def test_series_json_roundtrip(rng):
    F = random_series(rng, 2, 3, p=2, q=3)
    G = FreeSeries.from_json(F.to_json())
    assert F.max_coeff_diff(G) == 0.0
    assert (G.d, G.deg, G.p, G.q) == (2, 3, 2, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_evaluate_multiplicative_property(seed):
    rng = np.random.default_rng(seed)
    F = random_series(rng, 2, 2, scale=0.4)
    G = random_series(rng, 2, 2, scale=0.4)
    Z = ball_point(rng, 2, 2, radius=0.25)
    lhs = evaluate(multiply(F, G), Z)
    rhs = evaluate(F, Z) @ evaluate(G, Z)
    assert np.linalg.norm(lhs - rhs) < 5 * 0.25 ** 3 / 0.75
