import json
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freehardy.fock import Side
from freehardy.series import (FreeSeries, MatrixPoint, cayley,
                              constant_series, dagger_series, evaluate,
                              factor_psd, identity_series, invert_series,
                              letter_series, multiplier_matrix, multiply,
                              normalize_schur, schur_norm_bound,
                              schur_norm_estimate, word_powers)
from freehardy import series
from freehardy.clark import MomentFunctional, herglotz_from_moments
from freehardy.words import enumerate_tuples, grade_offsets, word_count

from conftest import (ball_point, cayley_oracle, creation_oracle, direct_sum,
                      factor_psd_oracle, random_series, random_schur,
                      series_degree_oracle, spy_linalg, transpose_unitary,
                      word_powers_oracle)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
E21 = E12.T


def test_evaluate_matrix_units():
    F = FreeSeries.from_terms(2, 2, 1, 1, {(1, 2): np.array([[1.0]])})
    Z = MatrixPoint(2, 2, [0.9 * E12, 0.9 * E21])
    out = evaluate(F, Z)
    assert np.allclose(out, 0.81 * np.array([[1.0, 0], [0, 0]]))


def test_evaluate_constant():
    F = identity_series(2, 3, 2)
    Z = MatrixPoint(2, 3, [np.zeros((3, 3))] * 2)
    assert np.allclose(evaluate(F, Z), np.eye(6))


def test_evaluate_geometric():
    F = FreeSeries.from_terms(1, 20, 1, 1, {(1,) * k: np.array([[1.0]])
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
    assert len(list(H.terms())) == 1


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
    for b, x in F.terms():
        for c, y in G.terms():
            if len(b) + len(c) <= deg:
                out[b + c] = out.get(b + c, 0) + x @ y
    return FreeSeries.from_terms(F.d, deg, F.p, G.q, out)


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
        F.array[0] = np.eye(p, dtype=complex)
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
    F = FreeSeries.from_terms(2, 2, 1, 1, {(1, 2): np.array([[3.0]])})
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
    F.array[0] = np.array([[1.0 + 0j]])
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
    # N = 8 runs Lanczos, the others the dense SVD
    vals = [schur_norm_estimate(F, N) for N in (2, 3, 4, 5, 8)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def _dense_norm(F, N):
    return float(np.linalg.norm(multiplier_matrix(F, Side.LEFT, N), 2))


def _above_crossover(F, N):
    return (F.d > 1 and word_count(F.d, N) * max(F.p, F.q)
            >= series.LANCZOS_MIN_SIZE)


@pytest.mark.parametrize("d, N, p, q", [
    (2, 7, 1, 1), (2, 7, 2, 2), (2, 8, 1, 1), (2, 8, 2, 2), (3, 5, 1, 1),
    (2, 7, 1, 3), (2, 7, 3, 1),
])
def test_lanczos_norm_matches_dense_norm(rng, d, N, p, q):
    F = random_schur(rng, d, 2, p, q)
    assert _above_crossover(F, N)
    est = schur_norm_estimate(F, N)
    assert abs(est - _dense_norm(F, N)) <= 1e-12 * est
    # deterministic: the same bits on a repeated call
    assert schur_norm_estimate(F, N) == est


def test_schur_norm_switches_paths_on_size_and_alphabet(rng):
    F = random_series(rng, 2, 2)
    assert schur_norm_estimate(F, 8) == series._lanczos_norm(F, 8)
    # below the crossover, and at d = 1 at any size, the dense norm bit for bit
    assert not _above_crossover(F, 6)
    assert schur_norm_estimate(F, 6) == _dense_norm(F, 6)
    G = random_series(rng, 1, 3)
    assert schur_norm_estimate(G, 300) == _dense_norm(G, 300)


def _column_isometry(rng):
    G = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    M = np.linalg.qr(G)[0]
    return FreeSeries.from_terms(2, 1, 2, 2, {(1,): M[:2], (2,): M[2:]})


@pytest.mark.parametrize("make", [
    lambda rng: letter_series(2, 1, 1),
    lambda rng: (letter_series(2, 1, 1) + letter_series(2, 1, 2))
    * (1 / np.sqrt(2)),
    _column_isometry,
], ids=["z1", "unit row", "2x2 isometry"])
@pytest.mark.parametrize("N", [7, 8])
def test_lanczos_norm_of_column_extreme_symbols_is_one(rng, make, N):
    F = make(rng)
    assert _above_crossover(F, N)
    est = schur_norm_estimate(F, N)
    assert abs(est - 1.0) <= 1e-12
    assert est <= 1.0 + 1e-8  # the default Schur gate of the CLI


def test_lanczos_norm_of_zero_series():
    F = FreeSeries(2, 2, np.zeros((word_count(2, 2), 2, 1)))
    assert _above_crossover(F, 8)
    assert schur_norm_estimate(F, 8) == 0.0


def test_schur_norm_reads_series_degree_not_carried_degree():
    F = letter_series(1, 6, 1) * 0.5  # carried to degree 6, degree 1
    assert schur_norm_estimate(F, 4) == 0.5
    G = FreeSeries.from_terms(1, 6, 1, 1, {(1,) * 5: [[0.5]]})
    with pytest.raises(ValueError, match="degree 5 exceeds Fock truncation 4"):
        schur_norm_estimate(G, 4)


@settings(max_examples=60)
@given(st.data())
def test_schur_norm_bound_bounds_the_multiplier(data):
    # an upper bound for every truncation, and the norm itself at N >= deg
    # when no term word is a proper prefix of another
    d, p, q = (data.draw(st.integers(1, k)) for k in (3, 2, 2))
    deg = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    keep = rng.random(word_count(d, deg)) < data.draw(
        st.sampled_from([0.15, 0.5, 1.0]))
    F = random_series(rng, d, deg, p, q) * keep[:, None, None]
    bound = schur_norm_bound(F)
    for N in range(deg, deg + 3):
        assert bound >= _dense_norm(F, N) - 1e-12
    words = {w for w, _ in F.terms()}
    free = FreeSeries.from_terms(d, deg, p, q, {
        w: m for w, m in F.terms()
        if not any(w[:k] in words for k in range(len(w)))})
    bound = schur_norm_bound(free)
    for N in range(deg, deg + 3):
        assert abs(bound - _dense_norm(free, N)) <= 1e-12


def test_schur_norm_bound_by_levels():
    # 0.6 z1 + 0.5 z2 z2: one level, the norm sqrt(0.61); 0.6 + 0.8 z1 z2:
    # two levels, 0.6 + 0.8 against the norm 1.2583
    assert schur_norm_bound(letter_series(2, 2, 1) * 0.6 + FreeSeries.from_terms(
        2, 2, 1, 1, {(2, 2): [[0.5]]})) == np.sqrt(0.61)
    F = FreeSeries.from_terms(2, 2, 1, 1, {(): [[0.6]], (1, 2): [[0.8]]})
    assert schur_norm_bound(F) == 1.4
    # at p = 2: z1 and z2 on level 0, where the Grams E22 and E11 sum to I,
    # then z1 z2 and z1 z2 z1 on levels 1 and 2
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    G = FreeSeries.from_terms(2, 3, 2, 2, {(1,): A, (1, 2): A, (2,): A.T,
                                          (1, 2, 1): 2 * A})
    assert schur_norm_bound(G) == 1.0 + 1.0 + 2.0
    assert schur_norm_bound(FreeSeries(2, 2, np.zeros((7, 2, 1)))) == 0.0
    assert schur_norm_bound(letter_series(1, 3, 1) * 0.5) == 0.5


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


def _term_dicts(d, deg, p, q):
    """Sparse {word: p x q matrix} dicts over the words of length <= deg;
    entries may be 0.0 or -0.0, so some terms are zero."""
    n = p * q
    entries = st.lists(st.floats(-1e3, 1e3), min_size=2 * n, max_size=2 * n)
    matrix = entries.map(
        lambda x: np.reshape(x[:n], (p, q)) + 1j * np.reshape(x[n:], (p, q)))
    return st.dictionaries(st.sampled_from(enumerate_tuples(d, deg)), matrix,
                           max_size=8)


def _agrees(F, oracle):
    """F holds the oracle's coefficients bit for bit at the oracle's words
    and zero at every other word, also past its degree."""
    for w in enumerate_tuples(F.d, F.deg + 1):
        if w in oracle:
            want = np.asarray(oracle[w], dtype=complex)
            assert F.coeff(w).tobytes() == want.tobytes(), w
        else:
            assert not np.any(F.coeff(w)), w


@settings(max_examples=60)
@given(st.data())
def test_storage_matches_word_dict_oracle(data):
    d, p, q = (data.draw(st.integers(1, k)) for k in (3, 2, 2))
    deg, deg2, k = (data.draw(st.integers(0, 3)) for _ in range(3))
    terms = data.draw(_term_dicts(d, deg, p, q))
    others = data.draw(_term_dicts(d, deg2, p, q))
    F = FreeSeries.from_terms(d, deg, p, q, terms)
    G = FreeSeries.from_terms(d, deg2, p, q, others)
    _agrees(F, terms)
    # the file format lists the nonzero terms in graded order and reads
    # back to the same array
    nonzero = {w: m for w, m in terms.items() if np.any(m)}
    data_out = json.loads(json.dumps(F.to_json()))
    assert [tuple(t["word"]) for t in data_out["terms"]] == sorted(
        nonzero, key=lambda w: (len(w), w))
    _agrees(FreeSeries.from_json(data_out), nonzero)
    # arithmetic, with missing words read as zero matrices
    zero = np.zeros((p, q), dtype=complex)
    low = min(deg, deg2)
    _agrees(F + G, {w: terms.get(w, zero) + others.get(w, zero)
                    for w in set(terms) | set(others) if len(w) <= low})
    scalar = data.draw(st.floats(-10, 10))
    _agrees(F * scalar, {w: m * scalar for w, m in terms.items()})
    _agrees(F.truncate(k), {w: m for w, m in terms.items() if len(w) <= k})
    _agrees(F.truncate(deg + k), terms)
    _agrees(dagger_series(F), {w[::-1]: m for w, m in terms.items()})


@pytest.mark.parametrize("count", [20, 63])
def test_evaluate_paths_match_kron_sum(rng, count):
    # a sparse series (20 of the 63 words of length <= 5) and a full one,
    # at a direct sum of points of levels 2 and 1
    words = enumerate_tuples(2, 5)
    terms = {words[i]: rng.standard_normal((2, 3))
             + 1j * rng.standard_normal((2, 3))
             for i in rng.choice(len(words), count, replace=False)}
    F = FreeSeries.from_terms(2, 5, 2, 3, terms)
    Z = direct_sum([ball_point(rng, 2, 2), ball_point(rng, 2, 1)])
    want = sum(np.kron(reduce(np.matmul, [Z.mats[k - 1] for k in w],
                              np.eye(Z.n)), m) for w, m in terms.items())
    assert np.abs(evaluate(F, Z) - want).max() < 1e-12


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


# ---------------------------------------------------------------------------
# grade arithmetic and evaluation against word-by-word references
#
# A floating-point sum of products is off by at most a small multiple of
# eps times the sum of the magnitudes of its terms, whatever cancels.  So
# each reference below also returns that magnitude, entry by entry, and
# the computed value must agree within REL of it: a relative tolerance
# that stays meaningful where the value itself cancels to near zero.
REL = 1e-13


def _word_dict(rng, d, top, p, q, dense):
    """{word: p x q matrix} over words of length <= top: every word when
    dense, else a handful of them, with complex standard normal entries."""
    words = enumerate_tuples(d, top)
    if not dense:
        words = [words[i] for i in rng.choice(len(words), min(6, len(words)),
                                              replace=False)]
    return {w: rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
            for w in words}


def _dict_product(F, G, deg):
    """(FG)_a = sum over splits a = b.c of F_b G_c for |a| <= deg, and the
    same sum of |F_b| |G_c|."""
    out, mag = {}, {}
    for b, x in F.items():
        for c, y in G.items():
            if len(b) + len(c) <= deg:
                out[b + c] = out.get(b + c, 0) + x @ y
                mag[b + c] = mag.get(b + c, 0) + abs(x) @ abs(y)
    return out, mag


def _close_to_dict(F, want, mag):
    """Every coefficient of F within REL of the magnitude of its reference
    sum; words the reference has no term at must hold exact zeros."""
    zero = np.zeros((F.p, F.q))
    for w in enumerate_tuples(F.d, F.deg):
        err = np.abs(F.coeff(w) - want.get(w, zero))
        assert np.all(err <= REL * mag.get(w, zero)), w


def _terms(F):
    return {w: m.copy() for w, m in F.terms()}


def _abs_point(Z):
    return MatrixPoint(Z.d, Z.n, [np.abs(m) for m in Z.mats])


def _word_product(Z, w):
    """Z^w = Z_{w_1} ... Z_{w_k}, one matrix product per letter."""
    return reduce(np.matmul, [Z.mats[k - 1] for k in w], np.eye(Z.n))


@settings(max_examples=80)
@given(st.data())
def test_multiply_matches_word_dict_reference(data):
    # rectangular p x k by k x q, carried degrees 0..6 that may differ, and
    # nonzero parts that may stop below the carried degree
    d, p, k, q = (data.draw(st.integers(1, 3)) for _ in range(4))
    deg_f, deg_g = (data.draw(st.integers(0, 6)) for _ in range(2))
    top_f, top_g = (data.draw(st.integers(0, x)) for x in (deg_f, deg_g))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    dense = d < 3 and data.draw(st.booleans())
    Fd = _word_dict(rng, d, top_f, p, k, dense)
    Gd = _word_dict(rng, d, top_g, k, q, dense)
    F = FreeSeries.from_terms(d, deg_f, p, k, Fd)
    G = FreeSeries.from_terms(d, deg_g, k, q, Gd)
    H = multiply(F, G)
    assert (H.deg, H.p, H.q) == (min(deg_f, deg_g), p, q)
    _close_to_dict(H, *_dict_product(Fd, Gd, H.deg))


def _unit_constant(rng, d, deg, p, top, radius):
    """A square series whose constant term lies within radius of I (so it
    is invertible with condition number at most (1 + r) / (1 - r)) and
    whose other terms end at grade top."""
    terms = _word_dict(rng, d, top, p, p, d < 3)
    A = terms.get((), rng.standard_normal((p, p)))
    terms[()] = np.eye(p) + radius * A / np.linalg.norm(A, 2)
    return FreeSeries.from_terms(d, deg, p, p, terms)


@settings(max_examples=60)
@given(st.data())
def test_invert_series_is_two_sided_inverse(data):
    d, p = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    deg = data.draw(st.integers(0, 6))
    top = data.draw(st.integers(0, deg))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    F = _unit_constant(rng, d, deg, p, top, 0.5)
    Fd, Gd = _terms(F), _terms(invert_series(F))
    one = identity_series(d, deg, p)
    for left, right in ((Fd, Gd), (Gd, Fd)):
        _close_to_dict(one, *_dict_product(left, right, deg))


@settings(max_examples=60)
@given(st.data())
def test_cayley_equals_product_form(data):
    # the one-inverse forms 2 (I - B)^{-1} - I and I - 2 (H + I)^{-1}
    # against (I + B)(I - B)^{-1} and (H - I)(H + I)^{-1}, truncation and all
    d, p = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    deg = data.draw(st.integers(0, 6))
    top = data.draw(st.integers(0, deg))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    I = identity_series(d, deg, p)
    B = _unit_constant(rng, d, deg, p, top, 0.6) - I      # ||B_0|| = 0.6
    H = _unit_constant(rng, d, deg, p, top, 0.5)          # I + H_0 near 2I
    for F, direction, X, Y in ((B, "schur_to_herglotz", I + B, I - B),
                               (H, "herglotz_to_schur", H - I, H + I)):
        Xd, Yinv = _terms(X), _terms(invert_series(Y))
        old, mag = _dict_product(Xd, Yinv, deg)
        _close_to_dict(cayley(F, direction), old, mag)


@settings(max_examples=40)
@given(st.data())
def test_word_powers_match_word_products(data):
    d, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    deg = data.draw(st.integers(0, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    Z = ball_point(rng, d, n, radius=0.9)
    pows = word_powers(Z, deg)
    assert pows.shape == (word_count(d, deg), n, n)
    for w, got in zip(enumerate_tuples(d, deg), pows):
        err = np.abs(got - _word_product(Z, w))
        assert np.all(err <= REL * _word_product(_abs_point(Z), w)), w


def _kron_reference(terms, Z):
    """sum over the terms of Z^w (x) F_w, and the same sum of magnitudes."""
    absZ = _abs_point(Z)
    want = sum(np.kron(_word_product(Z, w), m) for w, m in terms.items())
    mag = sum(np.kron(_word_product(absZ, w), abs(m)) for w, m in terms.items())
    return want, mag


@settings(max_examples=30)
@given(st.data())
def test_evaluate_dense_branch_matches_kron_sum(data):
    # more than 32 nonzero coefficients: d = 2 from degree 5, d = 3 from 4
    d = data.draw(st.integers(2, 3))
    deg = data.draw(st.integers(7 - d, 6))
    p, q, n = (data.draw(st.integers(1, 3)) for _ in range(3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    terms = _word_dict(rng, d, deg, p, q, True)
    assert len(terms) > 32
    F = FreeSeries.from_terms(d, deg, p, q, terms)
    Z = ball_point(rng, d, n, radius=0.9)
    want, mag = _kron_reference(terms, Z)
    assert np.all(np.abs(evaluate(F, Z) - want) <= REL * mag)


@settings(max_examples=40)
@given(st.data())
def test_evaluate_matches_word_reference(data):
    # sparse and dense series (up to 364 nonzero words), at points and at a
    # stack of blocks of mixed levels zero-padded to one level, where the
    # leading n_i p x n_i q corner of block i is the value at its point
    d, deg = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 5))
    p, q = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    terms = _word_dict(rng, d, deg, p, q, data.draw(st.booleans()))
    F = FreeSeries.from_terms(d, deg, p, q, terms)
    points = [ball_point(rng, d, data.draw(st.integers(1, 3)), radius=0.9)
              for _ in range(data.draw(st.integers(1, 3)))]
    m = max(Z.n for Z in points)
    stack = np.zeros((d, len(points), m, m), dtype=complex)
    for i, Z in enumerate(points):
        stack[:, i, :Z.n, :Z.n] = Z.mats
    values = evaluate(F, stack)
    assert values.shape == (len(points), m * p, m * q)
    for Z, V in zip(points, values):
        want, mag = _kron_reference(terms, Z)
        assert np.all(np.abs(evaluate(F, Z) - want) <= REL * mag)
        assert np.all(np.abs(V[:Z.n * p, :Z.n * q] - want) <= REL * mag)


@settings(max_examples=30)
@given(st.data())
def test_herglotz_from_moments_matches_defining_sum(data):
    d, p, n = (data.draw(st.integers(1, 3)) for _ in range(3))
    deg = data.draw(st.integers(0, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    moms = _word_dict(rng, d, deg, p, p, True)
    im_h0 = rng.standard_normal((p, p)) if data.draw(st.booleans()) else None
    mu = MomentFunctional(
        d, deg, np.stack([moms[w] for w in enumerate_tuples(d, deg)]), im_h0)
    Z = ball_point(rng, d, n, radius=0.9)
    # H(Z) = i I (x) Im H_0 - I (x) mu(1) + 2 sum_a Z^a (x) mu(L^{a+})*
    want, mag = _kron_reference({a: moms[a[::-1]].conj().T for a in moms}, Z)
    im = np.zeros((p, p)) if im_h0 is None else im_h0
    want = 2 * want + np.kron(np.eye(n), 1j * im - moms[()])
    mag = 2 * mag + np.kron(np.eye(n), abs(im) + abs(moms[()]))
    got = herglotz_from_moments(mu, Z)
    assert np.all(np.abs(got - want) <= REL * mag)


@pytest.mark.parametrize("n, rank", [(1, 1), (6, 3), (12, 12), (20, 7)])
def test_factor_psd_reproduces_a_rank_deficient_psd_matrix(rng, n, rank):
    # G = A A* of rank r, scaled up so that the cut is relative
    A = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    G = 1e3 * (A @ A.conj().T)
    W, Wplus, evals, cut = factor_psd(G, 1e-10)
    assert W.shape == (n, rank) and Wplus.shape == (rank, n)
    assert np.all(np.diff(evals) >= 0)
    assert cut == 1e-10 * np.abs(evals).max()
    assert np.abs(W @ W.conj().T - G).max() <= 1e-12 * np.abs(G).max()
    assert np.abs(Wplus @ W - np.eye(rank)).max() <= 1e-12


def _permuted_blocks(rng, blocks):
    """P (G_1 (+) ... (+) G_k) P* for a random permutation P, and the
    rank of each block.  A block (s, r, False) is A A*, A of size s x r;
    (s, r, True) is the weighted Laplacian of a path on s vertices, rank
    s - 1, whose component has diameter s - 1."""
    n = sum(s for s, _, _ in blocks)
    G = np.zeros((n, n), dtype=complex)
    lo, ranks = 0, []
    for s, r, path in blocks:
        if path:
            A = np.zeros((s, s - 1), dtype=complex)
            A[np.arange(s - 1), np.arange(s - 1)] = rng.uniform(0.5, 2, s - 1)
            A[np.arange(1, s), np.arange(s - 1)] = -np.exp(
                2j * np.pi * rng.uniform(size=s - 1))
        else:
            A = rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r))
        G[lo:lo + s, lo:lo + s] = A @ A.conj().T
        ranks.append(min(A.shape))
        lo += s
    perm = rng.permutation(n)
    return G[np.ix_(perm, perm)], ranks


@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(2, 6), st.integers(1, 6), st.booleans()),
                min_size=2, max_size=12), st.integers(0, 2 ** 32 - 1))
def test_factor_psd_splits_a_permuted_block_diagonal_matrix(blocks, seed):
    # rank-deficient blocks, and paths whose labels take several steps to
    # spread; one eigh per block size
    blocks = [(s, min(r, s), path) for s, r, path in blocks]
    G, ranks = _permuted_blocks(np.random.default_rng(seed), blocks)
    sizes = [s for s, _, _ in blocks]
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_linalg(mp, ("eigh",))
        W, Wplus, evals, cut = factor_psd(G, 1e-10)
    assert sorted(shape for _, shape, _ in calls) == sorted(
        (sizes.count(s), s, s) for s in set(sizes))
    scale = np.abs(G).max()
    assert np.abs(W @ W.conj().T - G).max() <= 1e-12 * scale
    assert np.abs(Wplus @ W - np.eye(W.shape[1])).max() <= 1e-12
    assert np.abs(evals - np.linalg.eigvalsh(G)).max() <= 1e-12 * scale
    assert W.shape[1] == sum(ranks) == factor_psd_oracle(G, 1e-10)[0].shape[1]
    assert cut == 1e-10 * np.abs(evals).max()


# blocks of eigenvalues, each (kept, u, negative): a kept one is 10^(lo u)
# in [1e3 rank_tol, 1], a dropped one is at most cut / 1e3, exact zero at
# u = 0, of either sign
GAPPED_SPECTRA = st.lists(st.lists(st.tuples(st.booleans(), st.floats(0, 1),
                                             st.booleans()),
                                   min_size=1, max_size=6),
                          min_size=1, max_size=5)


@settings(max_examples=60)
@given(GAPPED_SPECTRA, st.booleans(), st.sampled_from([1e-10, 1e-8, 1e-6]),
       st.integers(0, 2 ** 32 - 1))
def test_factor_psd_rank_is_exact_across_a_spectral_gap(blocks, connected,
                                                        rank_tol, seed):
    # G = Q diag(lambda) Q*, one dense Q (one eigh) or a permuted direct
    # sum of blocks (one eigh per component size), with no eigenvalue
    # within a factor 1e3 of the cut rank_tol * max |lambda|
    lo = 3 + np.log10(rank_tol)
    kept = [[10 ** (lo * u) for k, u, _ in b if k] for b in blocks]
    top = max(map(max, filter(None, kept)), default=0.0)
    assume(top > 0)
    lams = [np.array([10 ** (lo * u) if k else
                      (-1) ** neg * top * rank_tol * 10 ** (-3 - 12 * u) * (u > 0)
                      for k, u, neg in b]) for b in blocks]
    keep = [np.array([k for k, _, _ in b]) for b in blocks]
    if connected:
        lams, keep = [np.concatenate(lams)], [np.concatenate(keep)]
    rng = np.random.default_rng(seed)
    n = sum(map(len, lams))
    G, G_kept = np.zeros((2, n, n), dtype=complex)
    at = 0
    for lam, k in zip(lams, keep):
        g = rng.standard_normal((2, len(lam), len(lam)))
        Q, sl = np.linalg.qr(g[0] + 1j * g[1])[0], slice(at, at + len(lam))
        G[sl, sl] = (Q * lam) @ Q.conj().T
        G_kept[sl, sl] = (Q * (lam * k)) @ Q.conj().T
        at += len(lam)
    perm = rng.permutation(n)
    G, G_kept = G[np.ix_(perm, perm)], G_kept[np.ix_(perm, perm)]
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_linalg(mp, ("eigh",))
        W, Wplus, evals, cut = factor_psd(G, rank_tol)
    assert (calls[0][1] == (n, n)) == (len(lams) == 1)
    assert W.shape[1] == sum(map(len, kept))
    assert np.abs(W @ W.conj().T - G_kept).max() <= 1e-12 * top
    assert np.abs(Wplus @ W - np.eye(W.shape[1])).max() <= 1e-10


@pytest.mark.parametrize("n", [1, 7, 40])
def test_factor_psd_of_a_connected_matrix_is_one_eigh(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G = A[:, :max(1, n // 2)] @ A[:, :max(1, n // 2)].conj().T
    got, want = factor_psd(G, 1e-10), factor_psd_oracle(G, 1e-10)
    for x, y in zip(got[:3], want[:3]):
        assert x.tobytes() == y.tobytes() and x.strides == y.strides
    assert got[3] == want[3]


def _gram_test_matrix(rng, kind, blocks, zero_rows, zero_cols):
    """A permuted U with zero rows and columns besides its nonzero part:
    block diagonal with blocks of (rows, columns) sizes, a chain whose
    rows each join two columns, so connected, or all zero."""
    def cmat(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
    if kind == "blocks":
        core = np.zeros((sum(r for r, _ in blocks), sum(c for _, c in blocks)),
                        dtype=complex)
        i = j = 0
        for r, c in blocks:
            core[i:i + r, j:j + c] = cmat(r, c)
            i, j = i + r, j + c
    else:
        n = sum(c for _, c in blocks)
        core = np.zeros((n + 1, n), dtype=complex)
        if kind == "connected":
            k = np.arange(n)
            core[k, k], core[k + 1, k] = cmat(1, n)[0], cmat(1, n)[0]
    U = np.zeros((len(core) + zero_rows, core.shape[1] + zero_cols), dtype=complex)
    U[:len(core), :core.shape[1]] = core
    return U[rng.permutation(len(U))][:, rng.permutation(U.shape[1])]


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)), min_size=1,
                max_size=24),
       st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(["blocks", "connected", "zero"]), st.booleans(),
       st.sampled_from([0.0, 1.0]), st.sampled_from([0, series.GRAM_SPLIT_MIN]),
       st.integers(0, 2 ** 32 - 1))
def test_gram_spectrum_matches_the_dense_spectrum(blocks, zero_rows, zero_cols,
                                                  kind, wide, shift, split_min,
                                                  seed):
    # block-sparse U with zero rows and columns, a connected U and an
    # all-zero U; a wide U gives U U* through U*; with and without the size
    # floor on the split
    U = _gram_test_matrix(np.random.default_rng(seed), kind, blocks,
                          zero_rows, zero_cols)
    V = U.conj().T if wide else U
    G = V.conj().T @ V
    want = np.linalg.eigvalsh(G - shift * np.eye(len(G)))
    with mock.patch.object(series, "GRAM_SPLIT_MIN", split_min):
        got = series.gram_spectrum(V, shift)
    bound = 1e-14 * max(1.0, np.linalg.norm(U, 2) ** 2)
    assert got.shape == want.shape and np.abs(got - want).max() <= bound
    assert np.all(np.diff(got) >= 0)
    if kind == "connected" and not (zero_rows if wide else zero_cols):
        assert got.tobytes() == want.tobytes()  # one component: the dense call


def test_gram_spectrum_runs_one_eigvalsh_per_component_size(monkeypatch, rng):
    # blocks of 1, 2, 2 and 3 columns among 64 columns in all
    U = _gram_test_matrix(rng, "blocks", [(3, 1), (2, 2), (4, 2), (2, 3)],
                          2, 56)
    calls = spy_linalg(monkeypatch, ("eigvalsh", "eigh"))
    got = series.gram_spectrum(U)
    assert sorted(shape for _, shape, _ in calls) == [
        (1, 3, 3), (2, 2, 2), (57, 1, 1)]
    assert np.abs(got - np.linalg.eigvalsh(U.conj().T @ U)).max() <= 1e-14 * max(
        1.0, np.linalg.norm(U, 2) ** 2)


# ---------------------------------------------------------------------------
# word powers stop at the first vanishing grade; the degree scan and Cayley
# keep every bit of the loops and compositions they replace

def _max_deg(d, n, k):
    """The largest degree <= 10 whose word powers hold at most 2^18
    entries: every degree at d <= 2, and 7..10 at d = 3."""
    return max(g for g in range(11) if word_count(d, g) * k * n * n <= 2 ** 18)


def _draw_letters(data, rng, d, n):
    """The d letters (d, n, n) of one point: in or outside the ball, or
    strictly upper triangular in a leading m x m block (jointly nilpotent
    of order max(m, 1), m = 0..n), with some letters possibly zero."""
    if data.draw(st.booleans()):
        mats = np.array(ball_point(rng, d, n, radius=data.draw(
            st.sampled_from([0.3, 0.9, 1.5]))).mats)
    else:
        m = data.draw(st.integers(0, n))
        mats = np.zeros((d, n, n), dtype=complex)
        mats[:, :m, :m] = np.triu(rng.standard_normal((d, m, m))
                                  + 1j * rng.standard_normal((d, m, m)), 1)
    zero = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
    mats[np.array(zero)] = 0.0
    return mats


def _written_grades(pows, d, deg):
    """Rows of the grades up to the last one the full loop leaves nonzero:
    those the stopping loop writes."""
    off = grade_offsets(d, deg)
    top = max(g for g in range(deg + 1) if pows[..., off[g]:off[g + 1], :, :].any())
    return off[top + 1]


@settings(max_examples=80)
@given(st.data())
def test_word_powers_match_full_loop_bit_for_bit(data):
    d, n, k = (data.draw(st.integers(1, x)) for x in (3, 4, 3))
    deg = data.draw(st.integers(0, _max_deg(d, n, k)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    Z = np.stack([_draw_letters(data, rng, d, n) for _ in range(k)], axis=1)
    points = [Z] + [MatrixPoint(d, n, list(Z[:, i])) for i in range(k)]
    for V in points:
        got, want = word_powers(V, deg), word_powers_oracle(V, deg)
        cut = _written_grades(want, d, deg)
        assert got[..., :cut, :, :].tobytes() == want[..., :cut, :, :].tobytes()
        assert np.array_equal(got, want)
    # evaluate and szego_coords read the word powers only
    F = random_series(rng, d, min(deg, 4), 2, 1)
    y, v = rng.standard_normal(n), rng.standard_normal(n)
    with mock.patch.object(series, "word_powers", word_powers_oracle):
        want = [evaluate(F, Z)] + [evaluate(F, Y) for Y in points[1:]] \
            + [series.szego_coords(Y, y, v, deg) for Y in points[1:]]
    got = [evaluate(F, Z)] + [evaluate(F, Y) for Y in points[1:]] \
        + [series.szego_coords(Y, y, v, deg) for Y in points[1:]]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class _MatmulSpy(np.ndarray):
    """Letters that count the matrix products they enter."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _MatmulSpy.calls += 1
        return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_word_powers_at_nilpotent_stack_multiply_order_grades(rng, order):
    # strictly upper triangular order x order blocks: Z^a = 0 for
    # |a| >= order, so grades past order are never multiplied out
    d, k = 2, 3
    Z = np.triu(rng.standard_normal((d, k, order, order))
                + 1j * rng.standard_normal((d, k, order, order)), 1)
    _MatmulSpy.calls = 0
    pows = word_powers(Z.view(_MatmulSpy), 10)
    assert 1 <= _MatmulSpy.calls <= order
    assert type(pows) is np.ndarray
    assert np.array_equal(pows, word_powers_oracle(Z, 10))


@settings(max_examples=80)
@given(st.data())
def test_series_degree_matches_whole_array_scan(data):
    d, p, q = (data.draw(st.integers(1, x)) for x in (3, 2, 2))
    deg = data.draw(st.integers(0, 10 if d < 3 else 7))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    arr = rng.standard_normal((word_count(d, deg), p, q)) + 0j
    off = grade_offsets(d, deg)
    for g in range(deg + 1):          # each grade: zero, sparse, -0.0 or NaN
        rows = arr[off[g]:off[g + 1]]
        kind = data.draw(st.sampled_from(["zero", "sparse", "signed", "nan",
                                          "dense"]))
        if kind != "dense":
            rows[...] = -0.0 if kind == "signed" else 0.0
        if kind in ("sparse", "nan"):
            rows[rng.integers(len(rows))] = 1.0 if kind == "sparse" else np.nan
    F = FreeSeries(d, deg, arr)
    assert series.series_degree(F) == series_degree_oracle(F)


def _signed_zero_series(data, rng, d, deg, p, radius):
    """A square series with ||F_0|| = radius, whole grades and single
    entries zeroed, and zeros of either sign in either part; real (its
    imaginary parts all zeros) or complex."""
    arr = np.zeros((word_count(d, deg), p, p), dtype=complex)
    arr.real = rng.standard_normal(arr.shape)
    if data.draw(st.booleans()):
        arr.imag = rng.standard_normal(arr.shape)
    off = grade_offsets(d, deg)
    for g in range(1, deg + 1):
        if data.draw(st.booleans()):
            arr[off[g]:off[g + 1]] = 0.0
    for part in (arr.real, arr.imag):
        part[rng.random(arr.shape) < 0.3] = 0.0
        part[rng.random(arr.shape) < 0.3] = -0.0
    if np.any(arr[0]):
        arr[0] *= radius / np.linalg.norm(arr[0], 2)
    return FreeSeries(d, deg, arr)


@settings(max_examples=80)
@given(st.data())
def test_cayley_matches_composition_bit_for_bit(data):
    d, p = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    deg = data.draw(st.integers(0, 8 if d < 3 else 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    B = _signed_zero_series(data, rng, d, deg, p,
                            data.draw(st.sampled_from([0.0, 0.5, 0.95])))
    H = cayley_oracle(B, "schur_to_herglotz")
    for F, direction in ((B, "schur_to_herglotz"), (B, "herglotz_to_schur"),
                         (H, "herglotz_to_schur")):
        before = F.array.tobytes()
        got = cayley(F, direction)
        assert got.array.tobytes() == cayley_oracle(F, direction).array.tobytes()
        assert (got.d, got.deg) == (F.d, F.deg)
        assert F.array.tobytes() == before


@pytest.mark.parametrize("direction", ["schur_to_herglotz", "herglotz_to_schur"])
def test_cayley_matches_composition_at_nonfinite_coefficients(rng, direction):
    # NaN and inf past the constant term: a difference in the composition
    # is a complex product with -1.0, which makes NaN of inf * 0.0
    vals = np.array([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan])
    for d, deg, p in ((1, 4, 1), (2, 3, 2), (3, 2, 1)):
        arr = np.zeros((word_count(d, deg), p, p), dtype=complex)
        arr.real, arr.imag = rng.choice(vals, (2, *arr.shape))
        arr[0] = 0.3 * np.eye(p)
        F = FreeSeries(d, deg, arr)
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = cayley(F, direction), cayley_oracle(F, direction)
        assert got.array.tobytes() == want.array.tobytes()
