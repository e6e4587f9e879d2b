import numpy as np
import pytest
from hypothesis import given, strategies as st

from freehardy import words
from freehardy.fock import Side
from freehardy.series import (FreeSeries, dagger_series, letter_series,
                              multiplier_matrix, multiply, series_degree)
from freehardy.words import (CapacityError, enumerate_tuples, grade_offsets,
                             index_map, reversal, shift_indices, word_count)

from conftest import random_series, unit_vector


def monomial(d, deg, word):
    return FreeSeries.from_terms(d, deg, 1, 1, {tuple(word): np.eye(1)})


def test_concat_basic():
    # the product of monomials is the monomial of the concatenated word
    for a, b in (((1, 2), (3,)), ((1, 2), ()), ((), ())):
        H = multiply(monomial(3, 4, a), monomial(3, 4, b))
        assert dict(H.terms()).keys() == {a + b}
        assert H.coeff(a + b)[0, 0] == 1.0


def test_concat_alphabet_mismatch():
    with pytest.raises(ValueError):
        multiply(letter_series(2, 1, 1), letter_series(3, 1, 1))


def test_letter_validation():
    for word in ((0,), (3,)):
        with pytest.raises(ValueError):
            monomial(2, 1, word)


def test_dagger_basic():
    idx = index_map(3, 3)
    rev = reversal(3, 3)
    for a, b in (((1, 2), (2, 1)), ((), ()), ((1, 2, 3), (3, 2, 1))):
        assert rev[idx[a]] == idx[b]
        assert dict(dagger_series(monomial(3, 3, a)).terms()).keys() == {b}


def test_dagger_antihomomorphism_exhaustive(rng):
    # (FG)+ = G+ F+ for scalar series; every coefficient of F and G is
    # nonzero, so every pair of words up to length 4 contributes
    for d in (1, 2, 3):
        F = random_series(rng, d, 4)
        G = random_series(rng, d, 4)
        lhs = dagger_series(multiply(F, G))
        rhs = multiply(dagger_series(G), dagger_series(F))
        assert lhs.max_coeff_diff(rhs) < 1e-12


def test_left_quotient():
    # the adjoint of left multiplication by Z^a strips the prefix a:
    # e_{a.g} -> e_g, and e_b -> 0 when a is not a prefix of b
    d, N = 3, 3
    L12 = multiplier_matrix(monomial(d, 2, (1, 2)), Side.LEFT, N)
    assert np.array_equal(L12.T @ unit_vector(d, N, (1, 2, 1)),
                          unit_vector(d, N, (1,)))
    assert np.array_equal(L12.T @ unit_vector(d, N, (1, 2)),
                          unit_vector(d, N, ()))
    L2 = multiplier_matrix(monomial(d, 1, (2,)), Side.LEFT, N)
    assert not np.any(L2.T @ unit_vector(d, N, (1, 2)))


def test_left_quotient_of_concat():
    N = 4
    for d in (2, 3):
        words = enumerate_tuples(d, N)
        for a in words[:20]:
            La = multiplier_matrix(monomial(d, len(a), a), Side.LEFT, N)
            for g in words[:20]:
                if len(a) + len(g) <= N:
                    ag = unit_vector(d, N, a + g)
                    assert np.array_equal(La @ unit_vector(d, N, g), ag)
                    assert np.array_equal(La.T @ ag, unit_vector(d, N, g))


def test_enumerate_order():
    assert enumerate_tuples(2, 1) == ((), (1,), (2,))
    seq = enumerate_tuples(2, 2)
    assert len(seq) == 7
    assert seq[-2:] == ((2, 1), (2, 2))
    assert enumerate_tuples(1, 3) == ((), (1,), (1, 1), (1, 1, 1))


def test_word_count():
    assert word_count(2, 2) == 7
    assert word_count(1, 5) == 6
    assert word_count(3, 3) == 40
    for d in (2, 3):
        for N in range(5):
            assert word_count(d, N) == len(enumerate_tuples(d, N))


def test_enumerate_deterministic():
    assert enumerate_tuples(2, 3) == enumerate_tuples(2, 3)


def test_index_map_roundtrip():
    idx = index_map(2, 3)
    seq = enumerate_tuples(2, 3)
    for i, t in enumerate(seq):
        assert idx[t] == i


@pytest.mark.parametrize("d, N", [(1, 5), (2, 4), (3, 3)])
def test_index_arithmetic_matches_index_map(d, N):
    words = enumerate_tuples(d, N)
    idx = index_map(d, N)
    assert grade_offsets(d, N) == [sum(1 for x in words if len(x) < g)
                                   for g in range(N + 2)]
    assert reversal(d, N).tolist() == [idx[x[::-1]] for x in words]
    for a in enumerate_tuples(d, 2):
        short = [b for b in words if len(a) + len(b) <= N]
        for left in (True, False):
            rows, cols = shift_indices(d, N, a, left)
            assert cols.tolist() == [idx[b] for b in short]
            assert rows.tolist() == [idx[a + b if left else b + a]
                                     for b in short]


def test_capacity_error(monkeypatch):
    monkeypatch.setenv("FREEHARDY_MAX_BASIS", "1000")
    with pytest.raises(CapacityError):
        enumerate_tuples(10, 10)


def test_capacity_message_holds_no_basis_count():
    # word_count(2, 20000) has 6021 digits, past the limit of str() of an
    # int, so the message names d, the length and the cap instead
    with pytest.raises(CapacityError, match=r"length <= 20000 on 2 letters "
                       r"exceeds cap 1000000 \(set FREEHARDY_MAX_BASIS"):
        enumerate_tuples(2, 20000)


@given(st.integers(1, 3), st.integers(0, 5))
def test_dagger_involution_property(d, N):
    rev = reversal(d, N)
    assert np.array_equal(rev[rev], np.arange(word_count(d, N)))
    off = grade_offsets(d, N)
    for g in range(N + 1):
        grade = rev[off[g]:off[g + 1]]
        assert grade.min() >= off[g] and grade.max() < off[g + 1]


def test_capacity_cap_applies_after_caching(monkeypatch):
    # a cached basis must not bypass a cap lowered after its first use
    calls = [lambda: enumerate_tuples(2, 12),
             lambda: index_map(2, 6),
             lambda: multiplier_matrix(letter_series(2, 1, 1), Side.LEFT, 6),
             lambda: multiplier_matrix(letter_series(2, 1, 2), Side.RIGHT, 6),
             lambda: reversal(2, 6)]
    for call in calls:
        monkeypatch.delenv("FREEHARDY_MAX_BASIS", raising=False)
        call()
        monkeypatch.setenv("FREEHARDY_MAX_BASIS", "100")
        with pytest.raises(CapacityError):
            call()


def test_indexing_an_existing_array_reads_no_cap(monkeypatch):
    # truncating to a lower degree and series_degree only index an array
    # that passed the cap when it was made; padding allocates, so it checks
    F = letter_series(2, 4, 1)
    monkeypatch.setattr(words, "max_basis_size", lambda: 1 / 0)
    assert F.truncate(2).array.shape == (7, 1, 1)
    assert series_degree(F) == 1
    with pytest.raises(ZeroDivisionError):
        F.truncate(5)


def test_reversal_is_read_only():
    # the permutation is cached, so a caller must not be able to corrupt it
    rev = reversal(2, 3)
    with pytest.raises(ValueError):
        rev[0] = 1
    assert reversal(2, 3)[0] == 0
