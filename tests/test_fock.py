"""The full Fock space as the free Hardy space: creation operators are the
letter multipliers, Fock vectors are coefficient arrays."""

import os
import subprocess
import sys

import numpy as np
import pytest

import freehardy
from freehardy.fock import Side
from freehardy.series import FreeSeries, from_dense, letter_series, to_dense
from freehardy.words import enumerate_tuples, index_map, word_count

from conftest import creation, transpose_unitary, unit_vector as unit


def row_defect(ops, P):
    """|| [T_1 ... T_r]* [T_1 ... T_r] - I_r (x) P ||: zero exactly when
    the columns are isometric on the range of P with orthogonal ranges."""
    row = np.hstack(ops)
    gram = row.conj().T @ row - np.kron(np.eye(len(ops)), P)
    return float(np.linalg.norm(gram, 2))


def interior_projection(d, N):
    """Orthogonal projection onto span{e_a : |a| <= N - 1}."""
    return np.diag(np.arange(word_count(d, N)) < word_count(d, N - 1)) * 1.0


def test_left_creation_on_vacuum():
    L1 = creation(Side.LEFT, 1, 2, 3)
    assert np.array_equal(L1 @ unit(2, 3, ()), unit(2, 3, (1,)))


def test_nilpotent_truncation_top_grade():
    L1 = creation(Side.LEFT, 1, 2, 2)
    assert not np.any(L1 @ unit(2, 2, (1, 2)))


def test_adjoint_strips_matching_letter():
    N = 3
    L1 = creation(Side.LEFT, 1, 2, N)
    L2 = creation(Side.LEFT, 2, 2, N)
    e12 = unit(2, N, (1, 2))
    assert np.array_equal(L1.conj().T @ e12, unit(2, N, (2,)))
    assert not np.any(L2.conj().T @ e12)


def test_right_creation():
    R2 = creation(Side.RIGHT, 2, 2, 3)
    assert np.array_equal(R2 @ unit(2, 3, (1,)), unit(2, 3, (1, 2)))


def test_letter_range_check():
    with pytest.raises(ValueError):
        letter_series(2, 1, 3)


def test_transpose_unitary_permutation():
    U = transpose_unitary(2, 3)
    assert np.array_equal(U @ unit(2, 3, (1, 2)), unit(2, 3, (2, 1)))
    assert np.array_equal(U @ unit(2, 3, ()), unit(2, 3, ()))
    idx = index_map(2, 3)
    for w in enumerate_tuples(2, 3):
        assert U[idx[w[::-1]], idx[w]] == 1.0
    assert np.array_equal(U @ U, np.eye(word_count(2, 3)))


def test_transpose_conjugates_left_to_right():
    for d, N in ((1, 4), (2, 3), (3, 2)):
        U = transpose_unitary(d, N)
        for k in range(1, d + 1):
            Lk = creation(Side.LEFT, k, d, N)
            assert np.array_equal(U @ Lk @ U.conj().T,
                                  creation(Side.RIGHT, k, d, N))


def test_orthogonal_ranges_exact():
    for d in (1, 2, 3):
        for N in (1, 3, 5):
            P = interior_projection(d, N)
            ops = [creation(Side.LEFT, k, d, N) for k in range(1, d + 1)]
            for k, a in enumerate(ops):
                for j, b in enumerate(ops):
                    expected = P if k == j else np.zeros_like(a)
                    assert np.array_equal(a.conj().T @ b, expected)


def test_row_isometry_defect_zero():
    # the creation tuple is a row isometry below the top grade
    P = interior_projection(2, 4)
    for side in (Side.LEFT, Side.RIGHT):
        ops = [creation(side, k, 2, 4) for k in (1, 2)]
        assert row_defect(ops, P) == 0.0


def test_row_isometry_defect_duplicate_column():
    L1 = creation(Side.LEFT, 1, 2, 4)
    assert row_defect([L1, L1], interior_projection(2, 4)) >= 1.0


def test_wold_complement():
    # the ranges of the L_k cover every nonempty word of length <= N
    # (words of length N are created from grade N - 1), so the Wold
    # complement I - sum L_k L_k* is exactly the vacuum projection
    d, N = 2, 3
    dim = word_count(d, N)
    acc = np.eye(dim, dtype=complex)
    for k in range(1, d + 1):
        Lk = creation(Side.LEFT, k, d, N)
        acc -= Lk @ Lk.conj().T
    expected = np.zeros((dim, dim), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(acc, expected)
    assert enumerate_tuples(d, N)[0] == ()


def test_fock_vector_word_length_check():
    with pytest.raises(ValueError):
        FreeSeries(2, 1, 1, 1, {(1, 2): [[1.0]]})


def test_dense_roundtrip():
    # a Fock vector is a coefficient array in the graded word basis
    idx = index_map(2, 2)
    x = FreeSeries(2, 2, 1, 1, {(1, 2): [[3.0]], (): [[1.0]]})
    dense = to_dense(x)
    assert dense[idx[(1, 2)], 0, 0] == 3.0
    assert np.count_nonzero(dense) == 2
    assert from_dense(2, 2, dense).max_coeff_diff(x) == 0.0


def test_import_loads_no_scipy():
    # the package needs numpy only; scipy.sparse alone was about half of
    # the import time and of the resident memory after import
    src = os.path.dirname(os.path.dirname(freehardy.__file__))
    code = ("import sys, freehardy; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
