import math

import numpy as np
import pytest

from freehardy.clark import clark_moments
from freehardy.kernels import (KernelKind, KernelSpec, Pinning,
                               _rank_one_gram, coefficient_kernel,
                               gram_psd_check, herglotz_coefficient,
                               kernel_eval, kernel_gram, membership_norm,
                               nilpotent_pins, szego_eval)
from freehardy.parser import parse
from freehardy.series import (FreeSeries, MatrixPoint, cayley,
                              constant_series, direct_sum, evaluate,
                              invert_series, letter_series, multiply,
                              szego_coords, to_dense)
from freehardy.words import enumerate_tuples

from conftest import (nilpotent_point, random_schur, random_series,
                      unit_vector)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
E21 = E12.T


def scalar_point(z):
    return MatrixPoint(1, 1, [np.array([[z]], dtype=complex)])


def test_szego_geometric():
    val = szego_eval(scalar_point(0.5), scalar_point(0.5),
                     np.array([[1.0]]), 40)
    assert abs(val[0, 0] - 4.0 / 3.0) < 1e-10


def test_szego_at_origin(rng):
    Z = MatrixPoint(2, 3, [np.zeros((3, 3))] * 2)
    P = rng.standard_normal((3, 2))
    W = nilpotent_point(rng, 2, 2)
    assert np.array_equal(szego_eval(Z, W, P, 6), P)


def test_szego_nilpotent_exact():
    Z = MatrixPoint(2, 2, [0.9 * E12, np.zeros((2, 2))])
    val = szego_eval(Z, Z, np.eye(2), 5)
    assert np.allclose(val, np.eye(2) + 0.81 * np.array([[1, 0], [0, 0]]))


# The Szego kernel vector pinned at (Z, y, v) is the coefficient array
# szego_coords(Z, y, v, N): x_a = <Z^a v, y>.

def test_kernel_vector_at_origin():
    Z = MatrixPoint(2, 2, [np.zeros((2, 2))] * 2)
    x = szego_coords(Z, [1.0, 0.0], [0.0, 1.0], 3)
    assert not np.any(x[1:])


def test_kernel_vector_matrix_unit():
    Z = MatrixPoint(2, 2, [E12, np.zeros((2, 2))])
    x = szego_coords(Z, [1.0, 0.0], [0.0, 1.0], 3)
    assert np.array_equal(x, unit_vector(2, 3, (1,)))


def test_kernel_vector_reproduces_evaluation(rng):
    Z = nilpotent_point(rng, 2, 3)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f = random_series(rng, 2, 3)
    pairing = np.vdot(szego_coords(Z, y, v, 3), to_dense(f)[:, 0, 0])
    direct = np.vdot(y, evaluate(f, Z) @ v)
    assert abs(pairing - direct) < 1e-12


def test_multiplier_adjoint_on_kernel_vectors(rng):
    # <x[Z, F(Z)* y, v], g> = <x[Z, y, v], F g> for polynomial g
    Z = nilpotent_point(rng, 2, 3)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    F = random_series(rng, 2, 1)
    g = random_series(rng, 2, 2)
    Fg = multiply(FreeSeries(2, 3, 1, 1, F.coeffs), g)
    lhs = np.vdot(szego_coords(Z, evaluate(F, Z).conj().T @ y, v, 3),
                  to_dense(g, 3)[:, 0, 0])
    rhs = np.vdot(szego_coords(Z, y, v, 3), to_dense(Fg, 3)[:, 0, 0])
    assert abs(lhs - rhs) < 1e-12


def test_dbr_left_reduces_to_szego(rng):
    spec = KernelSpec(KernelKind.DBR_LEFT, parse("0", 2, 4), deg=6)
    Z = nilpotent_point(rng, 2, 2)
    W = nilpotent_point(rng, 2, 2)
    P = rng.standard_normal((2, 2))
    assert np.allclose(kernel_eval(spec, Z, W, P), szego_eval(Z, W, P, 6))


def test_dbr_left_constant_term():
    spec = KernelSpec(KernelKind.DBR_LEFT, parse("z1", 1, 4), deg=6)
    Z = scalar_point(0.0)
    assert np.allclose(kernel_eval(spec, Z, Z, np.array([[1.0]])), 1.0)


def test_herglotz_of_zero_is_szego(rng):
    spec = KernelSpec(KernelKind.HERGLOTZ, parse("0", 2, 4), deg=6)
    Z = nilpotent_point(rng, 2, 2)
    W = nilpotent_point(rng, 2, 2)
    P = rng.standard_normal((2, 2))
    assert np.allclose(kernel_eval(spec, Z, W, P), szego_eval(Z, W, P, 6))


def test_herglotz_factorization_scalar():
    # K^H(z, w) = (1 - b(z))^{-1} k^b(z, w) (1 - b(w)*)^{-1} at d = 1 points
    b = parse("0.5*z1", 1, 30)
    hspec = KernelSpec(KernelKind.HERGLOTZ, b, deg=60)
    dspec = KernelSpec(KernelKind.DBR_LEFT, b, deg=60)
    one = constant_series(1, 30, 1.0)
    inv = invert_series(one - b)
    P = np.array([[1.0]])
    for z, w in [(0.3, 0.4), (0.6, -0.2), (0.5j, 0.1)]:
        Z, W = scalar_point(z), scalar_point(w)
        lhs = kernel_eval(hspec, Z, W, P)[0, 0]
        rhs = (evaluate(inv, Z) @ kernel_eval(dspec, Z, W, P)
               @ evaluate(inv, W).conj().T)[0, 0]
        assert abs(lhs - rhs) < 1e-8


def test_gram_szego_always_psd(rng):
    pins = nilpotent_pins(2, 8, rng)
    res = gram_psd_check(KernelSpec(KernelKind.SZEGO, deg=6), pins)
    assert res["certified"]
    assert res["min_eig"] >= -1e-10


def test_gram_schur_certified(rng):
    spec = KernelSpec(KernelKind.DBR_LEFT, parse("0.5*z1", 2, 4), deg=8)
    assert gram_psd_check(spec, nilpotent_pins(2, 10, rng))["certified"]


def test_gram_non_schur_fails():
    spec = KernelSpec(KernelKind.DBR_LEFT, parse("1.5*z1", 1, 4), deg=40)
    pin = Pinning(scalar_point(0.9), y=[1.0], v=[1.0])
    res = gram_psd_check(spec, [pin])
    assert not res["certified"]
    assert res["min_eig"] < 0


def test_gram_hermitian(rng):
    spec = KernelSpec(KernelKind.DBR_RIGHT, parse("0.4*z2", 2, 4), deg=8)
    G = kernel_gram(spec, nilpotent_pins(2, 6, rng))
    assert np.allclose(G, G.conj().T)


def _mixed_pins(rng, p):
    """Pins at levels 1, 2 and 3 over d = 2, the last with an explicit h."""
    pins = []
    for k, n in enumerate((1, 2, 3, 2, 3)):
        h = rng.standard_normal(p) + 1j * rng.standard_normal(p) if k == 4 else None
        pins.append(Pinning(nilpotent_point(rng, 2, n),
                            rng.standard_normal(n) + 1j * rng.standard_normal(n),
                            rng.standard_normal(n) + 1j * rng.standard_normal(n), h))
    return pins


def _amplified(pin, p):
    h = pin.h if pin.h is not None else np.ones(p) / math.sqrt(p)
    return pin.y if p == 1 else np.kron(pin.y, h)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", list(KernelKind))
def test_gram_matches_pairwise_definition(rng, kind, p):
    # one evaluation at the direct sum of the pins equals one kernel_eval
    # per pin pair
    B = random_schur(rng, 2, 2, p, p)
    spec = KernelSpec(kind, None if kind is KernelKind.SZEGO else B, deg=6)
    pins = _mixed_pins(rng, p)
    q = spec.coeff_dim()
    ref = np.array([[np.vdot(_amplified(a, q),
                             kernel_eval(spec, a.Z, b.Z, np.outer(a.v, b.v.conj()))
                             @ _amplified(b, q))
                     for b in pins] for a in pins])
    ref = 0.5 * (ref + ref.conj().T)
    G = kernel_gram(spec, pins)
    assert np.max(np.abs(G - ref)) <= 1e-12 * max(1.0, np.linalg.norm(ref, 2))


@pytest.mark.parametrize("p", [1, 2])
def test_rank_one_gram_matches_per_pin_definition(rng, p):
    spec = KernelSpec(KernelKind.DBR_LEFT, random_schur(rng, 2, 2, p, p), deg=6)
    f = random_series(rng, 2, 3, p=p, q=2)
    pins = _mixed_pins(rng, p)
    vecs = []
    for pin in pins:
        w = evaluate(f, pin.Z).conj().T @ _amplified(pin, p)
        vecs.append(w.reshape(pin.Z.n, f.q).T @ pin.v.conj())
    ref = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    ref = 0.5 * (ref + ref.conj().T)
    G = _rank_one_gram(f, spec, pins)
    assert np.max(np.abs(G - ref)) <= 1e-12 * max(1.0, np.linalg.norm(ref, 2))


def test_gram_rejects_pins_over_different_alphabets(rng):
    pins = nilpotent_pins(2, 2, rng) + nilpotent_pins(1, 1, rng)
    with pytest.raises(ValueError):
        kernel_gram(KernelSpec(KernelKind.SZEGO, deg=4), pins)
    with pytest.raises(ValueError):
        direct_sum([pin.Z for pin in pins])


def test_membership_zero_function(rng):
    spec = KernelSpec(KernelKind.SZEGO, deg=6)
    f = parse("0", 2, 4)
    pins = nilpotent_pins(2, 6, rng)
    assert membership_norm(spec, f, pins)["lambda"] == 0.0


def test_membership_constant_in_szego(rng):
    spec = KernelSpec(KernelKind.SZEGO, deg=6)
    f = parse("1", 2, 4)
    pins = nilpotent_pins(2, 8, rng)
    lam = membership_norm(spec, f, pins)["lambda"]
    assert lam <= 1.0 + 1e-6


def test_membership_inner_symbol_outside_model(rng):
    b = parse("z1", 1, 8)
    spec = KernelSpec(KernelKind.DBR_LEFT, b, deg=16)
    pins = nilpotent_pins(1, 8, rng, n=4)
    assert math.isinf(membership_norm(spec, b, pins)["lambda"])


def test_coefficient_kernel_szego():
    spec = KernelSpec(KernelKind.SZEGO, deg=4)
    assert coefficient_kernel(spec, (1, 2), (1, 2))[0, 0] == 1.0
    assert coefficient_kernel(spec, (1,), (2,))[0, 0] == 0.0


def test_herglotz_coefficient_cases():
    B = parse("0.5*z1", 1, 8)
    H = cayley(B, "schur_to_herglotz")
    spec = KernelSpec(KernelKind.HERGLOTZ, B, deg=8)
    same = coefficient_kernel(spec, (1,), (1,))
    assert np.allclose(same, 0.5 * (H.coeff(()) + H.coeff(()).conj().T))
    # incomparable words vanish
    B2 = parse("0.3*z1+0.3*z2", 2, 6)
    spec2 = KernelSpec(KernelKind.HERGLOTZ, B2, deg=6)
    assert not np.any(coefficient_kernel(spec2, (1, 2), (2, 1)))


@pytest.mark.parametrize("expr,d", [("0.5*z1", 1), ("0.3*z1+0.2*z2*z1", 2)])
def test_herglotz_coefficients_match_moments(expr, d):
    # K^L at daggered word pairs recovers the moment of the prefix quotient
    B = parse(expr, d, 8)
    H = cayley(B, "schur_to_herglotz")
    mu = clark_moments(B, 8)
    for a in enumerate_tuples(d, 4):
        for b in enumerate_tuples(d, 4):
            got = herglotz_coefficient(H, a[::-1], b[::-1])
            if b[:len(a)] == a:
                want = mu.moment(b[len(a):])
            elif a[:len(b)] == b:
                want = mu.moment(a[len(b):]).conj().T
            else:
                want = np.zeros((1, 1))
            assert np.allclose(got, want, atol=1e-13), (a, b)


def test_coefficient_kernel_matches_pairing(rng):
    # <K{Z,y,v}, K{W,x,u}> expands as sum over coefficient kernel entries
    B = parse("0.4*z1+0.3*z2*z2", 2, 6)
    for kind in (KernelKind.DBR_LEFT, KernelKind.DBR_RIGHT,
                 KernelKind.HERGLOTZ):
        spec = KernelSpec(kind, B, deg=6)
        Z = nilpotent_point(rng, 2, 3)
        W = nilpotent_point(rng, 2, 3)
        P = rng.standard_normal((3, 3))
        direct = kernel_eval(spec, Z, W, P)
        acc = np.zeros_like(direct)
        from freehardy.series import word_powers
        pz = word_powers(Z, 6)
        pw = word_powers(W, 6)
        from freehardy.words import index_map
        idx = index_map(2, 6)
        for a in enumerate_tuples(2, 3):
            for b in enumerate_tuples(2, 3):
                K = coefficient_kernel(spec, a, b)
                acc += np.kron(pz[idx[a]] @ P @ pw[idx[b]].conj().T, K)
        assert np.allclose(direct, acc, atol=1e-12), kind


def test_spec_requires_symbol():
    with pytest.raises(ValueError):
        KernelSpec(KernelKind.DBR_LEFT)
