import itertools

import pytest
from hypothesis import given, strategies as st

from freehardy.words import (CapacityError, Word, concat, dagger,
                             enumerate_tuples, enumerate_words, index_map,
                             left_quotient, word_count)


def w(*letters, d=3):
    return Word(tuple(letters), d)


def test_concat_basic():
    assert concat(w(1, 2), w(3)).letters == (1, 2, 3)
    assert concat(w(1, 2), w()).letters == (1, 2)
    assert concat(w(), w()).letters == ()


def test_concat_alphabet_mismatch():
    with pytest.raises(ValueError):
        concat(Word((1,), 2), Word((1,), 3))


def test_letter_validation():
    with pytest.raises(ValueError):
        Word((0,), 2)
    with pytest.raises(ValueError):
        Word((3,), 2)


def test_dagger_basic():
    assert dagger(w(1, 2)).letters == (2, 1)
    assert dagger(w()).letters == ()
    assert dagger(w(1, 2, 3)).letters == (3, 2, 1)


def test_dagger_antihomomorphism_exhaustive():
    # all word pairs up to length 4 over alphabets d <= 3
    for d in (1, 2, 3):
        words = [t for t in enumerate_tuples(d, 4)]
        for a, b in itertools.product(words, words):
            wa, wb = Word(a, d), Word(b, d)
            lhs = dagger(concat(wa, wb))
            rhs = concat(dagger(wb), dagger(wa))
            assert lhs == rhs


def test_left_quotient():
    assert left_quotient(w(1, 2), w(1, 2, 1)).letters == (1,)
    assert left_quotient(w(1, 2), w(1, 2)).letters == ()
    assert left_quotient(w(2), w(1, 2)) is None


def test_left_quotient_of_concat():
    for d in (2, 3):
        words = [t for t in enumerate_tuples(d, 4) if len(t) <= 4]
        for a in words[:20]:
            for g in words[:20]:
                wa, wg = Word(a, d), Word(g, d)
                assert left_quotient(wa, concat(wa, wg)) == wg


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
    assert [x.letters for x in enumerate_words(2, 2)] == list(enumerate_tuples(2, 2))


def test_index_map_roundtrip():
    idx = index_map(2, 3)
    seq = enumerate_tuples(2, 3)
    for i, t in enumerate(seq):
        assert idx[t] == i


def test_capacity_error():
    with pytest.raises(CapacityError):
        enumerate_tuples(10, 10, cap=1000)


def test_json_roundtrip():
    a = w(1, 2, 1)
    assert Word.from_json(a.to_json(), 3) == a
    assert w().to_json() == []


@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d),
                        st.lists(st.integers(1, d), max_size=6),
                        st.lists(st.integers(1, d), max_size=6))))
def test_dagger_involution_property(data):
    d, a, b = data
    wa = Word(tuple(a), d)
    assert dagger(dagger(wa)) == wa
    assert len(concat(Word(tuple(a), d), Word(tuple(b), d))) == len(a) + len(b)


def test_capacity_cap_applies_after_caching(monkeypatch):
    # a cached basis must not bypass a cap lowered after its first use
    enumerate_tuples(2, 12)
    monkeypatch.setenv("FREEHARDY_MAX_BASIS", "100")
    with pytest.raises(CapacityError):
        enumerate_tuples(2, 12)
