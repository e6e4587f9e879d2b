import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freehardy import kernels, series
from freehardy.clark import clark_moments
from freehardy.kernels import (MEMBERSHIP_CAP, KernelKind, KernelSpec,
                               Pinning, PinStack, _rank_one_vectors,
                               _smallest_lambda, _stack_pins, gram_psd_check,
                               kernel_eval, kernel_gram, membership_norm,
                               nilpotent_stack, szego_eval)
from freehardy.parser import parse
from freehardy.series import (MatrixPoint, cayley,
                              constant_series, evaluate,
                              invert_series, letter_series, multiply,
                              szego_coords)
from freehardy.words import enumerate_tuples, index_map

from conftest import (ball_point, coefficient_kernel, direct_sum,
                      gram_oracle, herglotz_coefficient, kernel_oracle,
                      membership_bisection_oracle, membership_oracle,
                      nilpotent_pins, nilpotent_point, random_schur,
                      random_series, rank_one_oracle, szego_oracle, unit_vector)

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


@pytest.mark.parametrize("deg", [0, 1, 3, 8, 16])
@pytest.mark.parametrize("d", [1, 2])
def test_szego_stops_at_fixed_point_bitwise(d, deg):
    rng = np.random.default_rng(20 + d)
    pins = nilpotent_pins(d, 5, rng, n=3)
    Z = direct_sum([pin.Z for pin in pins])
    u = np.concatenate([pin.v for pin in pins])
    W = direct_sum([pin.Z for pin in pins[::-1]])
    origin = MatrixPoint(d, 3, [np.zeros((3, 3))] * d)
    R = rng.standard_normal((15, 3)) + 1j * rng.standard_normal((15, 3))
    for Z1, W1, P in ((Z, Z, np.outer(u, u.conj())), (Z, W, np.outer(u, u)),
                      (Z, origin, R), (origin, origin, R[:3])):
        want = szego_oracle(Z1, W1, P, deg)
        assert szego_eval(Z1, W1, P, deg).tobytes() == want.tobytes()


@pytest.mark.parametrize("deg", [5, 40])
def test_szego_ball_point_runs_full_length(rng, deg):
    # geometric convergence: the iterates settle bitwise after about 20
    # steps, so deg 5 ends before the fixed point and deg 40 after it
    Z = ball_point(rng, 2, 3)
    P = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    want = szego_oracle(Z, Z, P, deg)
    assert szego_eval(Z, Z, P, deg).tobytes() == want.tobytes()


@pytest.mark.parametrize("deg", [1, 8])
def test_szego_transposed_pairing_matrix(rng, deg):
    # P a transposed view, not C-contiguous: the stop rule reads the bits
    # of the caller's P as the first iterate
    Z, W = nilpotent_point(rng, 2, 4), ball_point(rng, 2, 3)
    R = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert not R.T.flags.c_contiguous
    want = szego_oracle(Z, W, R.T, deg)
    assert szego_eval(Z, W, R.T, deg).tobytes() == want.tobytes()


def test_szego_nilpotent_exact():
    Z = MatrixPoint(2, 2, [0.9 * E12, np.zeros((2, 2))])
    val = szego_eval(Z, Z, np.eye(2), 5)
    assert np.allclose(val, np.eye(2) + 0.81 * np.array([[1, 0], [0, 0]]))


# A factored Szego sum: alphabet size, the pin levels of each side, the
# index among the pins of both sides of the one pin at a ball point (none
# when out of range), whether the sides are one (a Gram: W is Z, R is L),
# the degree, the factor rank and the seed of everything else.
FACTORED = st.tuples(st.integers(1, 3),
                     st.lists(st.integers(1, 4), min_size=1, max_size=12),
                     st.lists(st.integers(1, 4), min_size=1, max_size=12),
                     st.integers(-1, 24), st.booleans(), st.integers(0, 12),
                     st.integers(1, 3), st.integers(0, 2 ** 32 - 1))


def _factored_side(rng, d, levels, ball, r):
    """Pins at the given levels, nilpotent but for the one at index ball,
    stacked by _stack_pins, and a factor of r columns whose rows past each
    pin's level are zero, as _stack_pins pads v."""
    pins = [Pinning(ball_point(rng, d, n) if i == ball else nilpotent_point(rng, d, n),
                    np.zeros(n), np.zeros(n)) for i, n in enumerate(levels)]
    Z = _stack_pins(pins, 1)[0]
    k, n = Z.shape[1:3]
    F = rng.standard_normal((k, n, r)) + 1j * rng.standard_normal((k, n, r))
    F[np.arange(n)[None, :] >= np.array(levels)[:, None]] = 0.0
    return Z, F.reshape(k * n, r)


def _direct_sum(Z):
    """The block stack Z (d, k, n, n) as the point Z_1 (+) ... (+) Z_k."""
    return direct_sum([MatrixPoint(len(Z), Z.shape[2], list(V)) for V in Z.swapaxes(0, 1)])


@settings(max_examples=200)
@given(case=FACTORED)
def test_factored_szego_matches_fixed_point(case):
    # the level-by-level sum of P = L R* equals the plain deg-step sum of
    # the dense P at the direct sums of the blocks, and no factor it forms
    # is wider than min(k n, l m)
    d, zl, wl, ball, same, deg, r, seed = case
    rng = np.random.default_rng(seed)
    Z, L = _factored_side(rng, d, zl, ball, r)
    W, R = (Z, L) if same else _factored_side(rng, d, wl, ball - len(zl), r)
    ref = szego_oracle(_direct_sum(Z), _direct_sum(W), L @ R.conj().T, deg)
    widths = []

    def letters(V, F, _fn=kernels._letters):
        out = _fn(V, F)
        widths.append(out.shape[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_letters", letters)
        S = kernels._szego(Z, W, (L, R), deg)
    assert np.max(np.abs(S - ref)) <= 1e-14 * max(1.0, np.linalg.norm(ref, 2))
    assert max(widths, default=0) <= min(len(L), len(R))


def test_nilpotent_grams_run_no_fixed_point_and_evaluate_once(monkeypatch, rng):
    # at nilpotent pins the factored Szego levels end at an empty level, so
    # no fixed-point step runs (each one applies the letters to the columns
    # of S through _cols), and a Gram evaluates each series once, at its
    # one pin stack
    B = random_schur(rng, 2, 2, 2, 2)
    f = random_series(rng, 2, 2, p=2, q=2)
    pins = _mixed_pins(rng, 2)
    steps, evals = [], []

    def step(*args, _fn=kernels._cols):
        steps.append(args)
        return _fn(*args)

    def evaluated(F, Z, _fn=kernels.evaluate):
        evals.append((F, Z))
        return _fn(F, Z)

    monkeypatch.setattr(kernels, "_cols", step)
    monkeypatch.setattr(kernels, "evaluate", evaluated)
    for kind in KernelKind:
        evals.clear()
        spec = KernelSpec(kind, None if kind is KernelKind.SZEGO else B, deg=8)
        G = kernel_gram(spec, pins)
        assert len(evals) == (kind is not KernelKind.SZEGO)
        assert _close(G, gram_oracle(spec, pins))
    evals.clear()
    lam = membership_norm(KernelSpec(KernelKind.DBR_LEFT, B, deg=8), f, pins)["lambda"]
    assert len(evals) == 2 and evals[0][0] is B and evals[1][0] is f
    assert evals[0][1] is evals[1][1]
    assert not steps
    assert 0 < lam < math.inf


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
    pairing = np.vdot(szego_coords(Z, y, v, 3), f.array[:, 0, 0])
    direct = np.vdot(y, evaluate(f, Z) @ v)
    assert abs(pairing - direct) < 1e-12


def test_multiplier_adjoint_on_kernel_vectors(rng):
    # <x[Z, F(Z)* y, v], g> = <x[Z, y, v], F g> for polynomial g
    Z = nilpotent_point(rng, 2, 3)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    F = random_series(rng, 2, 1)
    g = random_series(rng, 2, 2)
    Fg = multiply(F.truncate(3), g)
    lhs = np.vdot(szego_coords(Z, evaluate(F, Z).conj().T @ y, v, 3),
                  g.truncate(3).array[:, 0, 0])
    rhs = np.vdot(szego_coords(Z, y, v, 3), Fg.truncate(3).array[:, 0, 0])
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


# A pin family: alphabet size d, pin levels 1..4 with h drawn or left to
# its default, the index of the one pin at a ball point (where the Szego
# sums do not terminate), and the seed of everything else.
FAMILIES = st.tuples(st.integers(1, 3),
                     st.lists(st.tuples(st.integers(1, 4), st.booleans()),
                              min_size=2, max_size=5),
                     st.integers(0, 4), st.integers(0, 2 ** 32 - 1))


def _family(family, p):
    """The generator and pins of a FAMILIES draw."""
    d, levels, ball, seed = family
    rng = np.random.default_rng(seed)
    pins = []
    for k, (n, drawn) in enumerate(levels):
        Z = ball_point(rng, d, n) if k == ball % len(levels) else nilpotent_point(rng, d, n)
        h = rng.standard_normal(p) + 1j * rng.standard_normal(p) if drawn else None
        pins.append(Pinning(Z, *(rng.standard_normal((2, n))
                                 + 1j * rng.standard_normal((2, n))), h))
    return rng, pins


def _close(G, ref):
    return np.max(np.abs(G - ref)) <= 1e-12 * max(1.0, np.linalg.norm(ref, 2))


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", list(KernelKind))
@settings(max_examples=15)
@given(family=FAMILIES)
def test_gram_matches_pairwise_definition(kind, p, family):
    # the Gram from the pins' blocks equals the defining formula per pin
    # pair, and so does kernel_eval at one pair
    rng, pins = _family(family, p)
    B = random_schur(rng, family[0], 2, p, p)
    spec = KernelSpec(kind, None if kind is KernelKind.SZEGO else B, deg=6)
    assert _close(kernel_gram(spec, pins), gram_oracle(spec, pins))
    a, b = pins[0], pins[-1]
    P = np.outer(a.v, b.v.conj())
    assert _close(kernel_eval(spec, a.Z, b.Z, P), kernel_oracle(spec, a.Z, b.Z, P))


@pytest.mark.parametrize("p", [1, 2])
@settings(max_examples=30)
@given(family=FAMILIES, r=st.integers(1, 2))
def test_rank_one_gram_matches_per_pin_definition(p, family, r):
    rng, pins = _family(family, p)
    d = family[0]
    spec = KernelSpec(KernelKind.DBR_LEFT, random_schur(rng, d, 2, p, p), deg=6)
    f = random_series(rng, d, 3, p=p, q=r)
    U = rank_one_oracle(f, pins)
    got = _rank_one_vectors(f, *_stack_pins(pins, spec.coeff_dim()))
    assert _close(got.conj() @ got.T, U.conj() @ U.T)


def test_grams_form_no_direct_sum_and_no_kron(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel Gram formed a dense direct sum or a Kronecker product")

    B = random_schur(rng, 2, 2, 2, 2)
    pins = _mixed_pins(rng, 2)
    f = random_series(rng, 2, 2, p=2, q=2)
    monkeypatch.setattr(np, "kron", refuse)
    for kind in KernelKind:
        kernel_gram(KernelSpec(kind, None if kind is KernelKind.SZEGO else B, deg=6), pins)
    membership_norm(KernelSpec(KernelKind.DBR_LEFT, B, deg=6), f, pins)


def test_membership_takes_the_largest_column_bound(rng):
    B = random_schur(rng, 2, 2, 2, 2)
    spec = KernelSpec(KernelKind.DBR_LEFT, B, deg=6)
    pins = nilpotent_pins(2, 12, rng)
    f = random_series(rng, 2, 2, p=2, q=3, scale=0.3)
    lams = [membership_norm(spec, series.FreeSeries(2, 2, f.array[:, :, c:c + 1]),
                            pins)["lambda"] for c in range(3)]
    assert 0 < max(lams) < math.inf
    assert math.isclose(membership_norm(spec, f, pins)["lambda"], max(lams),
                        rel_tol=1e-7)


def test_gram_rejects_pins_over_different_alphabets(rng):
    pins = nilpotent_pins(2, 2, rng) + nilpotent_pins(1, 1, rng)
    with pytest.raises(ValueError):
        kernel_gram(KernelSpec(KernelKind.SZEGO, deg=4), pins)


def test_membership_zero_function(rng):
    spec = KernelSpec(KernelKind.SZEGO, deg=6)
    f = parse("0", 2, 4)
    pins = nilpotent_pins(2, 6, rng)
    lam = membership_norm(spec, f, pins)["lambda"]
    assert lam == 0.0 == membership_oracle(spec, f, pins)


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
    lam = membership_norm(spec, b, pins)["lambda"]
    assert math.isinf(lam) and lam == membership_oracle(spec, b, pins)


def _unit_pins(rng, d, count, n, p):
    """nilpotent_pins with a random unit direction h on every other pin."""
    pins = nilpotent_pins(d, count, rng, n=n)
    for pin in pins[::2]:
        h = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        pin.h = h / np.linalg.norm(h)
    return pins


@settings(max_examples=60)
@given(d=st.integers(1, 3), p=st.integers(1, 2), r=st.integers(1, 2),
       count=st.integers(2, 12), n=st.integers(2, 4),
       kind=st.sampled_from(list(KernelKind)),
       f_kind=st.sampled_from(["zero", "range", "random"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_membership_matches_eigvalsh_bisection(d, p, r, count, n, kind, f_kind, seed):
    # the one-eigendecomposition test decides each bisection step as a
    # fresh eigvalsh of lambda^2 Gram_K - Gram_c does
    p = 1 if kind is KernelKind.SZEGO else p
    rng = np.random.default_rng(seed)
    B = random_schur(rng, d, 2, p, p)
    spec = KernelSpec(kind, None if kind is KernelKind.SZEGO else B, deg=6)
    pins = _unit_pins(rng, d, count, n, p)
    if f_kind == "range":
        H = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
        f = multiply(B, constant_series(d, 2, H))
    else:
        f = random_series(rng, d, 2, p=p, q=r, scale=float(f_kind == "random"))
    lam = membership_norm(spec, f, pins)["lambda"]
    assert math.isclose(lam, membership_oracle(spec, f, pins), rel_tol=1e-7)
    assert (lam == 0.0) == (f_kind == "zero")


def test_membership_isometry_outside_model(rng):
    # the columns of an inner 2 x 2 symbol lie outside H(B): no finite bound
    M, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    B = series.FreeSeries.from_terms(2, 1, 2, 2, {(1,): M[:2], (2,): M[2:]})
    spec = KernelSpec(KernelKind.DBR_LEFT, B, deg=8)
    pins = _unit_pins(rng, 2, 17, 4, 2)
    lam = membership_norm(spec, B, pins)["lambda"]
    assert math.isinf(lam) and lam == membership_oracle(spec, B, pins)


def test_membership_factors_the_gram_once(monkeypatch, rng):
    # one eigh of the kernel Gram; no eigvalsh per bisection step and no
    # SVD for a 2-norm (np.linalg.norm reaches svd inside numpy.linalg)
    B = random_schur(rng, 2, 2, 2, 2)
    f = multiply(B, constant_series(2, 2, np.eye(2)))
    spec, pins = KernelSpec(KernelKind.DBR_LEFT, B, deg=6), _unit_pins(rng, 2, 12, 3, 2)
    calls = []
    for mod in (np.linalg, np.linalg._linalg):
        for name in ("eigh", "eigvalsh", "svd"):
            def spy(*args, _name=name, _fn=getattr(mod, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, spy)
    assert 0 < membership_norm(spec, f, pins)["lambda"] < math.inf
    assert calls == ["eigh"]


@pytest.mark.parametrize("d, count, n", [(1, 6, 4), (2, 17, 4), (3, 42, 4),
                                         (2, 10, 3), (2, 3, 1), (2, 0, 3)])
def test_nilpotent_pins_match_per_pin_draws(d, count, n):
    # one draw for all pins reads the stream as a loop over the pins does,
    # and leaves the generator where the loop leaves it
    gen, rng = np.random.default_rng(7), np.random.default_rng(7)
    pins = nilpotent_pins(d, count, gen, n=n)
    assert len(pins) == count
    for pin in pins:
        Z = nilpotent_point(rng, d, n)
        y, v = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in "yv")
        for got, want in zip(pin.Z.mats + [pin.y, pin.v], Z.mats + [y, v]):
            assert got.tobytes() == want.tobytes()
    assert gen.bit_generator.state == rng.bit_generator.state


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
    idx = index_map(d, 8)
    for a in enumerate_tuples(d, 4):
        for b in enumerate_tuples(d, 4):
            got = herglotz_coefficient(H, a[::-1], b[::-1])
            if b[:len(a)] == a:
                want = mu.array[idx[b[len(a):]]]
            elif a[:len(b)] == b:
                want = mu.array[idx[a[len(b):]]].conj().T
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


@pytest.mark.parametrize("call", ["kernel_gram", "gram_psd_check", "membership_norm"])
@pytest.mark.parametrize("empty", ["list", "stack"])
def test_every_entry_point_refuses_no_pins(call, empty):
    # the one stacking routine refuses an empty family, for every caller
    B = parse("0.5*z1", 2, 2)
    spec = KernelSpec(KernelKind.DBR_LEFT, B, deg=4)
    pins = [] if empty == "list" else nilpotent_stack(2, 0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="need at least one pin"):
        if call == "membership_norm":
            membership_norm(spec, B, pins)
        else:
            getattr(kernels, call)(spec, pins)


@pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (3, 4)])
def test_nilpotent_pins_are_the_stack_one_pin_each(d, n):
    stack = nilpotent_stack(d, 7, np.random.default_rng(d), n=n, scale=0.85)
    pins = nilpotent_pins(d, 7, np.random.default_rng(d), n=n, scale=0.85)
    assert stack.Z.shape == (d, 7, n, n) and stack.y.shape == stack.v.shape == (7, n)
    for i, pin in enumerate(pins):
        assert np.array(pin.Z.mats).tobytes() == stack.Z[:, i].tobytes()
        assert pin.y.tobytes() == stack.y[i].tobytes()
        assert pin.v.tobytes() == stack.v[i].tobytes()
    h = np.random.default_rng(5).standard_normal((7, 2)) + 0j
    for p, hs in ((1, None), (1, h[:, :1]), (2, None), (2, h)):
        for pin, x in zip(pins, [None] * 7 if hs is None else hs):
            pin.h = x
        got = _stack_pins(PinStack(stack.Z, stack.y, stack.v, hs), p)
        for x, y in zip(got, _stack_pins(pins, p)):
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("field, cut", [("h", np.s_[:1]), ("y", np.s_[:, :2]),
                                        ("v", np.s_[:, :2]), ("h", np.s_[:, :1]),
                                        ("Z", np.s_[:, :4])],
                         ids=["one h row", "short y", "short v", "h of p = 1",
                              "Z of 4 pins"])
def test_pin_stack_of_wrong_shapes_is_refused(field, cut):
    # one h row for five pins broadcast to five copies of it, and a short
    # y failed in a reshape; both are refused with the shapes, as a
    # Pinning refuses vectors that do not match its level
    B = parse("[[0.5,0.1],[0.2,0.3]]*z1", 2, 1, (2, 2))
    spec = KernelSpec(KernelKind.DBR_LEFT, B, deg=4)
    stack = nilpotent_stack(2, 5, np.random.default_rng(3))
    stack.h = np.ones((5, 2)) / math.sqrt(2)
    assert kernel_gram(spec, stack).shape == (5, 5)
    setattr(stack, field, getattr(stack, field)[cut])
    with pytest.raises(ValueError, match=r"PinStack needs .*; got \[\("):
        kernel_gram(spec, stack)


def test_membership_tol_is_also_the_psd_slack():
    # tol scales the slack tau as well as the bisection width, so lambda
    # sits below its tau = 0 value by far more than tol and rises toward
    # it as tol shrinks
    spec, f = KernelSpec(KernelKind.SZEGO, deg=6), parse("0.3+0.2*z1", 2, 4)
    pins = nilpotent_stack(2, 8, np.random.default_rng(0))
    lams = {tol: membership_norm(spec, f, pins, tol=tol)["lambda"]
            for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 0.0)}
    ladder = [lams[tol] for tol in (1e-6, 1e-8, 1e-10, 1e-12, 0.0)]
    assert ladder == sorted(ladder)
    assert lams[0.0] - lams[1e-8] > 100 * 1e-8
    assert abs(lams[1e-14] - lams[0.0]) <= 1e-11


# Gram spectra for the bisection: mu sorted, with `neg` of its entries
# negative (an indefinite Gram), weights a of r columns over 10^scale,
# tau as membership_norm forms it.
SPECTRA = st.tuples(st.integers(1, 14), st.integers(1, 3), st.integers(0, 2),
                    st.floats(-9.0, 9.0), st.sampled_from([1e-15, 1e-12, 1e-8, 1e-4]),
                    st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200)
@given(spectrum=SPECTRA)
@example(spectrum=(5, 2, 0, -12.0, 1e-8, 0))   # lambda = 0 passes
@example(spectrum=(5, 2, 1, 0.0, 1e-8, 1))     # the cap fails: inf
@example(spectrum=(5, 2, 0, 2.0, 1e-8, 1))     # a bound near the cap: 939.4
def test_bisection_is_the_one_step_bisection_bit_for_bit(spectrum):
    k, r, neg, scale, tol, seed = spectrum
    rng = np.random.default_rng(seed)
    mu = np.sort(rng.uniform(0.01, 2.0, k) * 10 ** rng.uniform(-4, 1, k))
    mu[:neg] *= -1
    mu.sort()
    a = rng.random((k, r)) * 10 ** scale
    a[:, rng.random(r) < 0.2] = 0.0
    tau = tol * np.maximum(max(1.0, -mu[0], mu[-1]), a.sum(0))
    got = _smallest_lambda(mu, a, tau, tol)
    assert got.hex() == membership_bisection_oracle(mu, a, tau, tol).hex()


@pytest.mark.parametrize("mu,a,tau,want", [
    ([0.5, 1.0], [[0.0], [0.0]], [1e-8], 0.0),
    ([-1.0, 1.0], [[1.0], [1.0]], [1e-8], math.inf),
    # passes at the cap with equality and fails below it: the walk never
    # moves hi off the cap
    ([1.0], [[MEMBERSHIP_CAP ** 2]], [0.0], MEMBERSHIP_CAP),
])
def test_bisection_branches(mu, a, tau, want):
    mu, a, tau = (np.array(x, dtype=float) for x in (mu, a, tau))
    got = _smallest_lambda(mu, a, tau, 1e-8)
    assert got == want == membership_bisection_oracle(mu, a, tau)


def test_bisection_below_the_spacing_of_doubles_ends():
    # at tol = 1e-17 the interval shrinks to two adjacent doubles, whose
    # midpoint is one of them; the call runs in a process of its own, so
    # a bisection that never ends fails at the timeout instead of hanging.
    # lambda moves with tol through tau (by 1.3e-10 from 1e-12 to 1e-17),
    # so it is compared with tol = 1e-16, whose bisection ends at the bound
    call = ("membership_norm(KernelSpec(KernelKind.SZEGO, deg=6), "
            "parse('0.3+0.2*z1', 2, 4), nilpotent_stack(2, 8, default_rng(0)), "
            "tol=1e-17)['lambda']")
    code = ("from numpy.random import default_rng\n"
            "from freehardy.kernels import (KernelKind, KernelSpec, "
            "membership_norm, nilpotent_stack)\n"
            "from freehardy.parser import parse\n"
            f"print({call}.hex())")
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    want = membership_norm(KernelSpec(KernelKind.SZEGO, deg=6),
                           parse("0.3+0.2*z1", 2, 4),
                           nilpotent_stack(2, 8, np.random.default_rng(0)),
                           tol=1e-16)["lambda"]
    assert abs(float.fromhex(out.stdout) - want) <= 1e-13


def test_bisection_sums_over_pins_in_the_order_of_one_lambda():
    # at the first midpoint, 500, the column's terms a_i / D_i are 1 and 15
    # times 2^-53: summed in pin order they round to 1 and pass, and summed
    # by blocks of 8 (numpy's order along a contiguous axis) they exceed 1
    a = np.zeros((16, 2))
    a[:, 0] = 500.0 ** 2 * np.r_[1.0, np.full(15, 2.0 ** -53)]
    mu, tau = np.ones(16), np.zeros(2)
    got = _smallest_lambda(mu, a, tau, 1e-8)
    assert got == 500.0 == membership_bisection_oracle(mu, a, tau)


def test_membership_norm_is_the_bisection_of_its_spectrum(monkeypatch, rng):
    # membership_norm hands its spectrum, weights and tolerances to the
    # bisection and returns what it ends on
    seen = []

    def spy(mu, a, tau, tol, _fn=kernels._smallest_lambda):
        seen.append(membership_bisection_oracle(mu, a, tau, tol))
        return _fn(mu, a, tau, tol)

    monkeypatch.setattr(kernels, "_smallest_lambda", spy)
    for p, r in ((1, 1), (2, 2), (2, 3)):
        B = random_schur(rng, 2, 2, p, p)
        f = random_series(rng, 2, 2, p=p, q=r, scale=0.3)
        lam = membership_norm(KernelSpec(KernelKind.DBR_LEFT, B, deg=8), f,
                              nilpotent_stack(2, 12, rng))["lambda"]
        assert lam.hex() == seen[-1].hex()
