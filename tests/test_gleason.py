import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from freehardy import gleason, kernels
from freehardy.clark import InvalidMomentsError, clark_moments, gns_build
from freehardy.gleason import (CeObstructionError, NotSchurError, a_empty_sq,
                               ce_test, clark_gleason_residual,
                               clark_intertwining_residual, dbr_model,
                               exactgs_residual, extremality_gap,
                               gleason_maps, gleason_vector,
                               kernel_identity_residual, l_invariance_test,
                               shift_compressions, square_completion,
                               szego_distance, vacuum_kernel)
from freehardy.fock import Side
from freehardy.kernels import PinStack, _stack_pins, nilpotent_pins
from freehardy.parser import parse
from freehardy.series import (FreeSeries, MatrixPoint, dagger_series,
                              evaluate, factor_psd, letter_series,
                              multiplier_matrix, multiply, normalize_schur,
                              range_basis, schur_norm_bound)
from freehardy.words import enumerate_tuples, word_count

from conftest import (creation_oracle, defect_oracle, defect_scatter_oracle,
                      membership_residual_oracle, nilpotent_point,
                      outer_mate_a0sq, random_schur, random_series,
                      spy_linalg, szego_svd_oracle)

SQRT_HALF = 0.7071067811865476


def test_dbr_model_rejects_non_schur():
    with pytest.raises(NotSchurError):
        dbr_model(parse("1.5*z1", 1, 4), 6)


# Symbols whose norm estimate passes 1 on the side the model checks, and
# whose term words are prefixes of one another there, so that
# schur_norm_bound does not decide them: the estimate refuses them, and the
# message gives its value to six places.
@pytest.mark.parametrize("expr, d, deg, N, side, message", [
    ("0.6+0.8*z1*z2", 2, 2, 5, Side.RIGHT, "1.258301"),
    ("0.6+0.8*z1*z2", 2, 2, 5, Side.LEFT, "1.258301"),
    ("0.6*z1+0.8*z2*z1", 2, 2, 5, Side.RIGHT, "1.342969"),
    ("0.8*z2+0.6*z1*z2", 2, 2, 5, Side.RIGHT, "1.345913"),
    ("0.6*z1+0.8*z1*z1", 1, 2, 8, Side.RIGHT, "1.376252"),
    ("0.8*z1 + 0.5*z2*z1", 2, 2, 6, Side.RIGHT, "1.265515"),
    ("1.0000001*z1^6", 1, 6, 8, Side.RIGHT, "1.000000"),
    ("1.0000001*z1^6", 1, 6, 8, Side.LEFT, "1.000000"),
])
def test_models_refuse_non_schur_symbols_by_the_estimate(expr, d, deg, N,
                                                         side, message):
    B = parse(expr, d, deg)
    with pytest.raises(NotSchurError) as exc:
        dbr_model(B, N, side=side)
    assert str(exc.value) == f"multiplier norm estimate {message} exceeds 1"
    if side is Side.RIGHT:
        with pytest.raises(NotSchurError) as exc:
            extremality_gap(B, N)
        assert str(exc.value) == f"multiplier norm estimate {message} exceeds 1"


def test_models_read_the_estimate_only_where_the_bound_cannot_decide(
        monkeypatch):
    from freehardy import gleason
    calls = []

    def counted(F, N, _fn=gleason.schur_norm_estimate):
        calls.append((F.d, N))
        return _fn(F, N)

    monkeypatch.setattr(gleason, "schur_norm_estimate", counted)
    G = np.random.default_rng(0).standard_normal((4, 4))
    M = np.linalg.qr(G[:, :2] + 1j * G[:, 2:])[0]
    isometry = FreeSeries.from_terms(2, 1, 2, 2, {(1,): M[:2], (2,): M[2:]})
    # the symbol families of the perfbench model_space workload: words that
    # are pairwise not suffixes of one another, norm below or at 1
    for B, N in [(parse("-0.7*z1", 1, 2), 8), (parse("z1", 1, 2), 8),
                 (parse("0.5*z1*z2-0.6*z2*z1", 2, 2), 5),
                 (parse("0.6*z1+0.5*z2*z2", 2, 2), 6),
                 (parse("0.6*z1-0.8*z2", 2, 2), 5),
                 (isometry * 0.7, 5), (isometry, 5),
                 (parse("-0.6*z1+0.5*z3*z2", 3, 2), 3),
                 (parse("0.6*z1+0.64*z2-0.48*z3", 3, 2), 4)]:
        extremality_gap(B, N)
        ce_test(B, N)
        dbr_model(B, N, side=Side.LEFT)
        a_empty_sq(B, N)
    assert calls == []
    B = random_schur(np.random.default_rng(0), 2, 2, target=0.9, N=5)
    assert schur_norm_bound(dagger_series(B)) > 1.0
    extremality_gap(B, 5)
    assert calls == [(2, 5)]
    # a coefficient that is not a number bounds nothing, and fock_degree
    # refuses it ahead of the bound, so the estimate does not run
    B = FreeSeries.from_terms(2, 1, 1, 1, {(1,): [[math.nan]]})
    assert math.isnan(schur_norm_bound(B))
    with pytest.raises(ValueError, match="coefficient that is not finite"):
        extremality_gap(B, 4)
    assert calls == [(2, 5)]


def test_ladder_strips_the_letters_once(monkeypatch, rng):
    # the three rungs share one Gleason vector; each rung's maps are those
    # of the vector built for its own model, bit for bit
    from freehardy import gleason
    B = random_schur(rng, 2, 2, 2, 2, target=0.8, N=6)
    want = [[m.Wplus @ c.truncate(m.M).array.reshape(-1, B.q)
             for c in gleason_vector(m.B)]
            for m in gleason._models(B.truncate(2), 7, 3, 1e-10, 1e-8)]
    stripped = []

    def counted(F, k, _fn=gleason.strip_letter):
        stripped.append(k)
        return _fn(F, k)

    monkeypatch.setattr(gleason, "strip_letter", counted)
    models = gleason._models(B, 7, 3, 1e-10, 1e-8)
    assert stripped == [1, 2]
    for model, maps in zip(models, want, strict=True):
        got = gleason_maps(model)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, maps))
    assert stripped == [1, 2]


def test_dbr_model_zero_symbol_full_space():
    model = dbr_model(parse("0", 2, 2), 4)
    # D = I on the interior: the model space is the whole truncated space
    assert model.rank == len(enumerate_tuples(2, model.M))
    assert np.allclose(model.W @ model.Wplus, np.eye(model.rank))


def test_dbr_model_inner_symbol_small_rank():
    # b = z: the model space is one dimensional (constants)
    model = dbr_model(parse("z1", 1, 8), 8)
    assert model.rank == 1
    vacuum = np.eye(model.W.shape[0])[:, 0]
    assert np.linalg.norm(vacuum - model.W @ (model.Wplus @ vacuum)) < 1e-12


def test_gleason_vector_reconstructs_symbol(rng):
    B = parse("0.2 + 0.4*z1 + 0.3*z2*z1 - 0.1*z1*z2*z2", 2, 3)
    comps = gleason_vector(B)
    Z = nilpotent_point(rng, 2, 3)
    acc = np.zeros((3, 3), dtype=complex)
    for j, comp in enumerate(comps):
        acc += Z.mats[j] @ evaluate(comp, Z)
    direct = evaluate(B, Z) - B.coeff(()) * np.eye(3)
    assert np.allclose(acc, direct, atol=1e-13)


def test_gap_zero_symbol_is_one():
    res = extremality_gap(parse("0", 1, 2), 6)
    assert abs(res["ladder"][0]["gap_norm"] - 1.0) < 1e-14
    assert not res["extremal"]


def test_gap_inner_scalar_vanishes():
    res = extremality_gap(parse("z1", 1, 4), 8)
    assert res["ladder"][0]["gap_norm"] <= 1e-8
    assert res["extremal"]


def test_gap_strict_scalar():
    # b = 0.9 z: I - |b'(0)|^2 contribution leaves a 0.19 gap
    res = extremality_gap(parse("0.9*z1", 1, 4), 8)
    assert abs(res["ladder"][0]["gap_norm"] - 0.19) < 1e-6
    assert not res["extremal"]


def test_gap_free_letter_vanishes():
    res = extremality_gap(parse("z1", 2, 4), 6)
    assert res["ladder"][0]["gap_norm"] <= 1e-8


def _gap_norm(model):
    B0 = model.B.coeff(())
    G = np.eye(model.B.q) - B0.conj().T @ B0
    for C in gleason_maps(model):
        G = G - C.conj().T @ C
    return float(np.linalg.norm(0.5 * (G + G.conj().T), 2))


@pytest.mark.parametrize("d,N", [(1, 8), (2, 5), (3, 5)])
@pytest.mark.parametrize("p", [1, 2])
def test_ladder_rungs_match_independent_models(d, N, p):
    rng = np.random.default_rng(10 * d + p)
    B = random_schur(rng, d, 2, p, p, target=0.8)
    res = extremality_gap(B, N)
    assert [r["N"] for r in res["ladder"]] == [N, N - 1, N - 2]
    for rung in res["ladder"]:
        want = _gap_norm(dbr_model(B, rung["N"]))
        assert abs(rung["gap_norm"] - want) <= 1e-12 * max(1.0, want)
    # the ladder stops at the last truncation that keeps an interior
    assert [r["N"] for r in extremality_gap(B, 3)["ladder"]] == [3]


@pytest.mark.parametrize("deg,N", [(2, None), (3, 4)])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2])
def test_model_d_is_interior_block_of_full_truncation(monkeypatch, d, p,
                                                      deg, N):
    from freehardy import gleason
    N = N or {1: 8, 2: 6, 3: 4}[d]
    rng = np.random.default_rng(100 * d + 10 * deg + p)
    B = random_schur(rng, d, deg, p, p, target=0.5, N=N)
    seen = []
    eigh = np.linalg.eigh

    def spy(A, *args, **kwargs):
        seen.append(np.array(A))
        return eigh(A, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    model = gleason._models(B, N, 1, 1e-10, 1e-8)[0]
    monkeypatch.undo()
    T = multiplier_matrix(B, Side.RIGHT, N)
    m = word_count(d, N - deg) * p
    want = (np.eye(T.shape[0]) - T @ T.conj().T)[:m, :m]
    assert model.M == N - deg and len(seen) == 1
    assert np.abs(seen[0] - want).max() <= 1e-14


def test_models_build_no_multiplier_above_interior(monkeypatch):
    # D is built from the terms of B: the model path forms no multiplier
    # matrix at all, not even on the interior
    from freehardy import gleason
    asked = []
    multiplier = gleason.multiplier_matrix

    def spy(F, side, N):
        asked.append(N)
        return multiplier(F, side, N)
    monkeypatch.setattr(gleason, "multiplier_matrix", spy)
    for expr, d, deg, N in (("0.5*z1 + 0.3*z2*z1", 2, 2, 6),
                            ("0.4*z1*z1*z1 + 0.3*z2", 2, 3, 4),
                            ("0.6*z1", 1, 1, 8)):
        B = parse(expr, d, deg)
        extremality_gap(B, N)
        dbr_model(B, N, side=Side.LEFT)
        assert asked == []


def _suffix_free(words):
    """The words, shortest first, that no shorter kept word ends."""
    kept = []
    for w in sorted(set(words), key=len):
        if not any(w[len(w) - len(v):] == v for v in kept):
            kept.append(w)
    return kept


def _suffix_free_symbol(data, max_len, norm):
    """sum_w C_w z^w over suffix-free words of length <= max_len, d in 1..3
    and p in 1..2, scaled so that ||sum_w C_w* C_w|| = norm, with
    sum_w C_w* C_w."""
    d, p = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    word = st.lists(st.integers(1, d), min_size=1, max_size=max_len).map(tuple)
    words = _suffix_free(data.draw(st.lists(word, min_size=1, max_size=4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    C = {w: rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
         for w in words}
    S = sum(c.conj().T @ c for c in C.values())
    scale = math.sqrt(norm / np.linalg.eigvalsh(S)[-1])
    C = {w: scale * c for w, c in C.items()}
    B = FreeSeries.from_terms(d, max(map(len, words)), p, p, C)
    return B, sum(c.conj().T @ c for c in C.values())


@settings(max_examples=30)
@given(st.data())
def test_suffix_free_gap_is_the_coefficient_gram_defect(data):
    # for words that are pairwise not suffixes of one another the right
    # shifts are isometries with orthogonal ranges, and the gap is exactly
    # I - sum_w C_w* C_w; norm 1 gives column-extreme symbols.  The Gleason
    # components have degree deg - 1 and gleason_maps cuts them at
    # M = N - deg, so at d >= 2 the gap is exact only for M >= deg - 1:
    # 0.6 z1 + 0.8 z2^3 reads 0.64 at N = 4 and 0 at N = 5
    norm = data.draw(st.sampled_from([1.0]) | st.floats(0.05, 1.0))
    B, S = _suffix_free_symbol(data, 4, norm)
    deg, want = B.deg, np.eye(B.p) - S
    lo = deg + max(1, deg - 1)
    for N in (lo, lo + 1):
        assert np.abs(extremality_gap(B, N)["gap"] - want).max() <= 1e-12


@settings(max_examples=15)
@given(st.data())
def test_suffix_free_completion_is_extremal(data):
    # the canonical completion a of a suffix-free column A below norm 1
    # makes [A; a] column-extreme at the N where the gap of A is exact;
    # words of length <= 3 keep the gap of [A; a] at N + deg small
    from freehardy.colligation import complete_column
    A, _ = _suffix_free_symbol(data, 3, data.draw(st.floats(0.05, 0.9)))
    N = A.deg + max(1, A.deg - 1)
    a = complete_column(A, N)["a"]
    deg = max(A.deg, a.deg)
    col = FreeSeries(A.d, deg, np.concatenate(
        [A.truncate(deg).array, a.truncate(deg).array], axis=1))
    assert extremality_gap(col, N + A.deg)["ladder"][0]["gap_norm"] <= 1e-12


@settings(max_examples=40)
@given(st.data())
def test_models_d_matches_the_dense_defect(data):
    # dense random symbols, and sparse ones on suffix-free words, whose D
    # splits into blocks; the norm of the right multiplier is set to 0.9
    from freehardy import gleason
    d, p = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    M = data.draw(st.integers(1, 6 if d < 3 else 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if data.draw(st.booleans()):
        F = random_series(rng, d, data.draw(st.integers(1, 2)), p, p)
    else:
        word = st.lists(st.integers(1, d), min_size=1, max_size=3).map(tuple)
        words = _suffix_free(data.draw(st.lists(word, min_size=1, max_size=4)))
        F = FreeSeries.from_terms(d, max(map(len, words)), p, p, {
            w: rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
            for w in words})
    N = M + F.deg
    B = dagger_series(normalize_schur(dagger_series(F), N))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gleason, "factor_psd",
                   lambda G, tol: seen.append(G) or factor_psd(G, tol))
        gleason._models(B, N, 1, 1e-10, 1e-8)
    want = defect_oracle(B, M)
    scale = max(1.0, float(np.linalg.norm(np.eye(len(want)) - want, 2)))
    assert seen[0].shape == want.shape
    assert np.abs(seen[0] - want).max() <= 1e-14 * scale


@given(st.data())
def test_defect_equals_the_scatter_oracle_bit_for_bit(data):
    # D is taken off I pair of terms by pair of terms, in the order of the
    # one scatter it replaced, so every entry keeps its last bit
    from freehardy import gleason
    d, p = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    deg = data.draw(st.integers(1, 3))
    M = data.draw(st.integers(1, {1: 11, 2: 5, 3: 3}[d]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    F = random_series(rng, d, deg, p, p)
    if data.draw(st.booleans()):  # sparse: about 60% of the terms zeroed
        F.array[rng.random(len(F.array)) < 0.6] = 0
    B = F.truncate(min(deg, M))
    assert gleason._defect(B, M).tobytes() == \
        defect_scatter_oracle(B, M).tobytes()


def _one_letter(c, d, k):
    """sum_j c[j] z_k^j as a series on d letters."""
    return FreeSeries.from_terms(d, len(c) - 1, 1, 1, {
        (k,) * j: np.array([[cj]]) for j, cj in enumerate(c)})


@st.composite
def _one_letter_coeffs(draw, top=0.9):
    """The coefficients of a polynomial of degree 1-3 whose sup norm on
    the circle is between 0.3 and top."""
    deg = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    return c * draw(st.floats(0.3, top)) / np.abs(np.polyval(c[::-1], z)).max()


@settings(max_examples=10)
@given(_one_letter_coeffs())
def test_one_letter_gap_decreases_to_the_outer_mate(c):
    # the disk case (Sarason): the gap at N decreases in N to |a(0)|^2,
    # a the outer mate of b, with |a|^2 + |b|^2 = 1 on the circle
    want = outer_mate_a0sq(c)
    ladder = [r["gap_norm"]
              for r in extremality_gap(_one_letter(c, 1, 1), 40)["ladder"]]
    assert all(top <= below + 1e-14 for top, below in zip(ladder, ladder[1:]))
    assert min(ladder) >= want - 1e-12
    assert abs(ladder[0] - want) <= 1e-10


@settings(max_examples=10)
@given(_one_letter_coeffs(), st.data())
def test_one_letter_symbol_on_more_letters_keeps_its_ladder(c, data):
    # b(z_k) read over d letters has the model space of b(z) at every N
    for d, N in ((2, 7), (3, 5)):
        k = data.draw(st.integers(1, d))
        want = extremality_gap(_one_letter(c, 1, 1), N)["ladder"]
        got = extremality_gap(_one_letter(c, d, k), N)["ladder"]
        assert [r["N"] for r in got] == [r["N"] for r in want]
        assert max(abs(g["gap_norm"] - w["gap_norm"])
                   for g, w in zip(got, want)) <= 1e-14


@settings(max_examples=10)
@given(_one_letter_coeffs(0.6))
def test_one_letter_completion_is_extremal(c):
    # [A; a] with the canonical completion a, the outer mate, is inner and
    # so column-extreme: its gap vanishes at the top rung.  The completion
    # is truncated at N = 20; near sup norm 0.9 the mate decays slowly
    # enough that [A; a] can miss the Schur check there, so the sup norm
    # stays at most 0.6
    from freehardy.colligation import complete_column
    A = _one_letter(c, 1, 1)
    a = complete_column(A, 20)["a"]
    deg = max(A.deg, a.deg)
    col = FreeSeries(1, deg, np.concatenate(
        [A.truncate(deg).array, a.truncate(deg).array], axis=1))
    assert extremality_gap(col, 20 + A.deg)["ladder"][0]["gap_norm"] <= 1e-10


def test_sparse_symbol_factors_small_blocks(monkeypatch):
    # D of 0.6 z1 - 0.5 z2 z2 links b.1 with b.22 only: every block of every
    # rung is at most 2 x 2, and no multiplier matrix is formed
    from freehardy import gleason, series
    built = []
    for mod in (gleason, series):
        def spy(*args, _fn=mod.multiplier_matrix):
            built.append(args)
            return _fn(*args)
        monkeypatch.setattr(mod, "multiplier_matrix", spy)
    calls = spy_linalg(monkeypatch, ("eigh",))
    res = extremality_gap(parse("0.6*z1 - 0.5*z2*z2", 2, 2), 8)
    assert [r["N"] for r in res["ladder"]] == [8, 7, 6]
    assert calls and max(max(shape[-2:]) for _, shape, _ in calls) <= 4
    assert built == []


def test_ce_test_builds_shared_objects_once(monkeypatch):
    from freehardy import clark, gleason, kernels, series
    calls = {"schur_norm_estimate": 0, "clark_moments": 0}
    for mod in (series, clark, kernels, gleason):
        for name in calls:
            fn = getattr(mod, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
    out = ce_test(parse("0.6*z1 + 0.5*z2*z2", 2, 2), 5)
    assert out["by_cuntz"] is not None
    # schur_norm_bound certifies this symbol, so the gate reads no estimate
    assert calls == {"schur_norm_estimate": 0, "clark_moments": 1}
    # a dense symbol that the bound does not certify reads it once
    B = random_schur(np.random.default_rng(0), 2, 2, target=0.9, N=5)
    assert schur_norm_bound(dagger_series(B)) > 1.0
    calls.update(dict.fromkeys(calls, 0))
    ce_test(B, 5)
    assert calls == {"schur_norm_estimate": 1, "clark_moments": 1}


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_ce_test_membership_sees_every_coefficient_direction(seed):
    # B = A1 z1 + A2 z2 with [A1; A2] a 4 x 2 isometry is column-extreme; a
    # pin Gram that sees one coefficient direction only certifies a finite
    # lambda for it, so membership disagreed with the verdict
    G = np.random.default_rng(seed).standard_normal((4, 4))
    M = np.linalg.qr(G[:, :2] + 1j * G[:, 2:])[0]
    B = FreeSeries.from_terms(2, 1, 2, 2, {(1,): M[:2], (2,): M[2:]})
    out = ce_test(B, 5, seed=seed)
    assert out["verdict"] == "CE"
    assert out["by_membership"] == {"lambda": math.inf, "extremal": True}
    assert out["flags"] == []
    # and a strict contraction keeps a finite bound
    out = ce_test(B * 0.7, 5, seed=seed)
    assert out["verdict"] == "not-CE" and out["flags"] == []
    assert 0 < out["by_membership"]["lambda"] < math.inf


def test_schur_check_uses_caller_tolerance():
    # estimate 1 + 1e-7; z1^6 stays outside the degree-5 Clark window of
    # the cross-checks, so only the Schur check can reject it
    B = parse("1.0000001*z1^6", 1, 6)
    with pytest.raises(NotSchurError):
        ce_test(B, 8, tol=1e-8)
    assert ce_test(B, 8, tol=1e-6)["verdict"] in ("CE", "not-CE")
    with pytest.raises(NotSchurError):
        extremality_gap(B, 8)
    assert extremality_gap(B, 8, tol=1e-6)["ladder"][0]["N"] == 8


def test_a_empty_sq_both_routes():
    out = a_empty_sq(parse("0.9*z1", 1, 4), 8)
    assert abs(out["a0_sq"][0, 0] - 0.19) < 1e-6
    assert out["dual"] is not None
    assert abs(out["dual"][0, 0] - 0.19) < 1e-6


def test_a_empty_sq_zero_symbol():
    out = a_empty_sq(parse("0", 1, 2), 6)
    assert abs(out["a0_sq"][0, 0] - 1.0) < 1e-12


def test_a_empty_sq_factors_the_gap_once(monkeypatch, rng):
    # one eigh of the model's D and one of the 2 x 2 gap, whose spectrum
    # is returned and gives a0^2 and a0; before them the Schur gate's
    # schur_norm_bound takes one eigvalsh of its three 2 x 2 level Grams
    # (the transpose's words of length 0, 1 and 2)
    A = random_schur(rng, 2, 2, 2, 2, target=0.8, N=6)
    calls = spy_linalg(monkeypatch, ("eigh", "eigvalsh"))
    out = a_empty_sq(A, 6)
    m = word_count(2, 6 - 2) * 2
    assert [(name, shape) for name, shape, _ in calls] == [
        ("eigvalsh", (3, 2, 2)), ("eigh", (m, m)), ("eigh", (2, 2))]
    lam = out["eigenvalues"]
    assert lam[0] <= lam[1] and lam[0] > 0.0
    assert np.allclose(out["a0"] @ out["a0"], out["a0_sq"], atol=1e-14)
    assert abs(np.linalg.norm(out["a0_sq"], 2) - lam[-1]) <= 1e-15


@settings(max_examples=30)
@given(st.data())
def test_a_empty_sq_reads_membership_off_its_coords(data):
    # one product W+ E gives the completion's coordinates, and the
    # membership residual read off them is the per-column one to rounding
    d, deg = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    p, q = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    N = deg + data.draw(st.integers(1, 3 if d < 3 else 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    A = random_schur(rng, d, deg, p, q, target=0.8, N=N)
    out = a_empty_sq(A, N)
    model = out["model"]
    E = A.truncate(model.M).array.reshape(-1, q)
    assert out["coords"].tobytes() == (model.Wplus @ E).tobytes()
    want = membership_residual_oracle(model, E)
    assert abs(out["membership_residual"] - want) <= 1e-15


def test_gns_model_keeps_the_moment_matrix_it_factored(monkeypatch, capsys):
    # gns --full and the Clark transport read GnsModel.M: each forms one
    # moment matrix
    from freehardy import clark, cli, gleason
    calls = []

    def spy(mu, N, _fn=clark.moment_matrix):
        calls.append(N)
        return _fn(mu, N)
    for mod in (clark, cli, gleason):
        monkeypatch.setattr(mod, "moment_matrix", spy, raising=False)
    assert cli.main(["gns", "--expr", "0.5*z1+0.3*z2*z1", "--d", "2",
                     "--deg", "2", "--N", "4", "--full"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert calls == [4]
    assert len(rep["results"]["moment_matrix"]) == word_count(2, 4)
    calls.clear()
    assert clark_gleason_residual(parse("0.9*z1", 1, 4), 8) < 1e-6
    assert calls == [8]


def test_a_empty_sq_passes_on_its_model():
    A = parse("0.9*z1", 1, 4)
    model = a_empty_sq(A, 8)["model"]
    ref = dbr_model(A, 8)
    assert (model.N, model.M, model.rank) == (ref.N, ref.M, ref.rank)
    assert np.array_equal(model.W, ref.W)
    a0 = a_empty_sq(A, 8)["a0"]
    assert np.allclose(a0 @ a0, a_empty_sq(A, 8)["a0_sq"], atol=1e-14)
    # no model fits when N does not exceed the degree
    A = parse("0.5*z1*z2", 2, 2)
    for f in (a_empty_sq, exactgs_residual):
        with pytest.raises(ValueError, match="too small"):
            f(A, 2)


def test_l_invariance_strict():
    out = l_invariance_test(parse("0.5*z1", 1, 4), 8)
    assert out["invariant"]
    assert out["rho"] < 1.0


def test_l_invariance_inner():
    out = l_invariance_test(parse("z1", 1, 4), 8)
    assert not out["invariant"]
    assert out["rho"] == math.inf or out["rho"] >= 1.0 - 1e-8


def test_exactgs_zero_symbol():
    assert exactgs_residual(parse("0", 1, 2), 6) < 1e-10


def test_exactgs_strict_scalar():
    assert exactgs_residual(parse("0.9*z1", 1, 4), 8) < 1e-6


def test_kernel_identity_exact(rng):
    B = parse("0.3 + 0.5*z1 + 0.2*z2", 2, 2)
    Z = nilpotent_point(rng, 2, 3)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3)
    g = np.ones(1)
    assert kernel_identity_residual(B, 6, Z, y, v, g) < 1e-10


def test_square_completion_pads():
    A = parse("[[0.5],[0.5]]*z1", 1, 2, (2, 1))
    sq = square_completion(A)
    assert (sq.p, sq.q) == (2, 2)
    assert np.array_equal(sq.coeff((1,))[:, 0], A.coeff((1,))[:, 0])
    assert not np.any(sq.coeff((1,))[:, 1])


def test_szego_distance_dichotomy():
    assert szego_distance(parse("z1", 1, 4), 4) < 1e-10
    assert abs(szego_distance(parse("0.5*z1", 1, 4), 4)
               - math.sqrt(0.75)) < 1e-10


@pytest.mark.parametrize("expr,d,expect", [
    ("0", 1, "not-CE"),
    ("z1", 1, "CE"),
    ("0.9*z1", 1, "not-CE"),
    ("z1", 2, "CE"),
])
def test_ce_battery(expr, d, expect):
    out = ce_test(parse(expr, d, 4), 8 if d == 1 else 6)
    assert out["verdict"] == expect
    assert out["flags"] == []


@pytest.mark.parametrize("expr, d, N, verdict, cut", [
    # N - deg(B) below deg(B) - 1: the Gleason components are cut and the
    # gap reads too large, at d = 1 as at d = 2; one step up it is exact
    ("0.6*z1+0.8*z2*z2*z2", 2, 4, "not-CE", True),
    ("0.6*z1+0.8*z2*z2*z2", 2, 5, "CE", False),
    ("z1*z1*z1", 1, 4, "not-CE", True),
    ("z1*z1*z1", 1, 5, "CE", False),
])
def test_ce_test_flags_gleason_components_cut_below_their_degree(
        expr, d, N, verdict, cut):
    out = ce_test(parse(expr, d, 3), N)
    assert out["verdict"] == verdict
    flagged = [f for f in out["flags"] if f.startswith("gleason components cut")]
    assert flagged == ([f"gleason components cut below their degree 2 at "
                        f"N - deg(B) = {N - 3}: the gap can read too large"]
                       if cut else [])


def test_ce_rejects_non_schur():
    with pytest.raises(NotSchurError):
        ce_test(parse("2*z1", 1, 4), 6)


def test_ce_column_fixture():
    A = parse("[[" + str(SQRT_HALF) + "],[" + str(SQRT_HALF) + "]]*z1",
              1, 4, (2, 1))
    out = ce_test(A, 8)
    assert out["verdict"] == "CE"


@pytest.mark.parametrize("expr,d,N", [
    ("0.9*z1", 1, 8),
    (f"{SQRT_HALF / 2}*z1 + {SQRT_HALF / 2}*z2", 2, 6),
])
def test_clark_intertwining(expr, d, N):
    assert clark_intertwining_residual(parse(expr, d, 4), N) < 1e-6


@pytest.mark.parametrize("expr,d,N", [
    ("0.9*z1", 1, 8),
    (f"{SQRT_HALF / 2}*z1 + {SQRT_HALF / 2}*z2", 2, 6),
])
def test_clark_gleason_transport(expr, d, N):
    assert clark_gleason_residual(parse(expr, d, 4), N) < 1e-6


def test_clark_checks_need_square_symbol():
    A = parse("[[0.5],[0.5]]*z1", 1, 2, (2, 1))
    with pytest.raises(ValueError):
        clark_intertwining_residual(A, 6)
    with pytest.raises(ValueError):
        clark_gleason_residual(A, 6)


def test_shift_compressions_annihilate_constants():
    model = dbr_model(parse("0.5*z1", 1, 4), 8)
    K0 = vacuum_kernel(model)
    for Xj in shift_compressions(model):
        # backward shift kills constants: X_j* K_0 = 0 up to truncation
        assert np.linalg.norm(Xj @ K0) < 1e-10


@settings(max_examples=30)
@given(d=st.integers(1, 3), p=st.integers(1, 2), deg=st.integers(1, 2),
       m=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(d=1, p=2, deg=1, m=150, seed=0)
def test_shift_compressions_match_creation_matrices(d, p, deg, m, seed):
    # the scatter of W+ equals the product with the dense creation matrix
    # (L_k (x) I_p)*, read left to right, bit for bit up to signs of zeros.
    # Past a few hundred rank coordinates BLAS splits the inner dimension,
    # so the large example tells this apart from W+[:, b] @ W[k.b]
    N = deg + m
    B = random_schur(np.random.default_rng(seed), d, deg, p, p, target=0.6, N=N)
    model = dbr_model(B, N)
    for k, Xk in enumerate(shift_compressions(model), start=1):
        Lk = np.kron(creation_oracle(Side.LEFT, k, d, model.M), np.eye(p))
        assert np.array_equal(Xk, model.Wplus @ Lk.conj().T @ model.W)


def test_gleason_maps_norm_bound():
    model = dbr_model(parse("0.9*z1", 1, 4), 8)
    (C,) = gleason_maps(model)
    # the Gleason Gram is dominated by I - B(0)*B(0) = I
    assert np.linalg.norm(C, 2) <= 1.0 + 1e-10


def _clark_gns(B, N):
    """The Clark GNS model that szego_distance builds, or None when the
    moments fail its positivity cut."""
    Bsq = square_completion(B)
    try:
        return Bsq, gns_build(clark_moments(Bsq, N), N)
    except InvalidMomentsError:
        return Bsq, None


@settings(max_examples=80)
@given(d=st.integers(1, 3), p=st.integers(1, 2), q=st.integers(1, 2),
       deg=st.integers(1, 3), extra=st.integers(0, 2),
       target=st.floats(0.05, 0.999), seed=st.integers(0, 2 ** 32 - 1))
def test_szego_distance_from_the_factors_matches_the_svd(d, p, q, deg, extra,
                                                         target, seed):
    # rectangular symbols go through square_completion, as in ce_test
    B = random_schur(np.random.default_rng(seed), d, deg, p, q, target=target)
    N = deg + extra
    while N > 1 and word_count(d, N) * max(p, q) > 250:
        N -= 1
    Bsq, gns = _clark_gns(B, N)
    assume(gns is not None)
    B0 = Bsq.coeff(())
    got = gleason._szego(gns, B0, 1e-10)
    assert abs(got - szego_svd_oracle(gns, B0)) <= 1e-10
    # the eigenvalue-1 space of S0 = (W W+)[:p, :p] is as wide as the
    # complement of the nonempty-word columns that the SVD cuts
    s = gns.p
    S0 = gns.Tplus[:s, :] @ gns.T[:, :s]
    width = np.count_nonzero(np.linalg.eigvalsh(S0) > 1.0 - 1e-10)
    assert width == gns.rank - range_basis(gns.T[:, s:], 1e-10).shape[1]


def _isometry(seed, rows):
    G = np.random.default_rng(seed).standard_normal((rows, 4))
    return np.linalg.qr(G[:, :2] + 1j * G[:, 2:])[0]


# Column-extreme symbols: unit rows, 2 x 2 isometries over one letter
# each, and isometries over suffix-free words.
CE_FAMILIES = [
    (lambda: parse("z1", 1, 1), 6),
    (lambda: parse("0.6*z1+0.8*z2", 2, 1), 5),
    (lambda: parse("0.48*z1+0.6*z2+0.64*z3", 3, 1), 3),
    (lambda: parse("0.6*z1*z2-0.8*z2*z1", 2, 2), 5),
    (lambda: parse("0.6*z1+0.8*z2*z2*z2", 2, 3), 5),
    (lambda: FreeSeries.from_terms(2, 1, 2, 2, dict(zip([(1,), (2,)], np.split(_isometry(0, 4), 2)))), 5),
    (lambda: FreeSeries.from_terms(1, 1, 2, 2, {(1,): _isometry(1, 2)}), 6),
    (lambda: FreeSeries.from_terms(2, 2, 2, 2, dict(zip([(1, 2), (2, 1)], np.split(_isometry(2, 4), 2)))), 4),
    (lambda: FreeSeries.from_terms(3, 2, 2, 2, dict(zip([(1,), (3, 2)], np.split(_isometry(3, 4), 2)))), 3),
]


@pytest.mark.parametrize("family", range(len(CE_FAMILIES)))
def test_column_extreme_symbols_print_szego_distance_zero(family):
    make, N = CE_FAMILIES[family]
    B = make()
    assert szego_distance(B, N) == 0.0
    out = ce_test(B, N)
    assert out["verdict"] == "CE"
    assert out["by_szego"] == {"distance": 0.0, "extremal": True}


def test_ce_test_takes_no_svd_of_the_nonempty_word_columns(monkeypatch):
    G = np.random.default_rng(4).standard_normal((4, 2))
    G *= 0.7 / np.linalg.norm(G, 2)
    B = FreeSeries.from_terms(2, 1, 2, 2, {(1,): G[:2], (2,): G[2:]})
    calls, bases = spy_linalg(monkeypatch, ["svd"]), []

    def basis(*args, _fn=gleason.range_basis):
        bases.append(np.shape(args[0]))
        return _fn(*args)

    monkeypatch.setattr(gleason, "range_basis", basis)
    out = ce_test(B, 6)
    assert out["by_szego"]["distance"] > 0
    # the Clark window is min(N, 5): T has word_count(2, 5) * 2 columns
    width = word_count(2, 5) * 2 - 2
    assert not bases
    assert all(shape[-1] != width for _, shape, _ in calls)


def _pins_one_at_a_time(B, seed):
    """ce_test's pins as it drew them before they were stacked: Pinning
    objects from nilpotent_pins, then a unit h per pin, re then im, from
    the stream [seed, 1]."""
    p = square_completion(B).p
    pins = nilpotent_pins(B.d, word_count(B.d, 3) + 2,
                          np.random.default_rng(seed), n=4, scale=0.85)
    hrng = np.random.default_rng([seed, 1])
    for pin in pins:
        h = hrng.standard_normal(p) + 1j * hrng.standard_normal(p)
        pin.h = h / np.linalg.norm(h)
    return pins


@pytest.mark.parametrize("expr,d,shape", [
    ("0.5*z1+0.4*z2*z1", 2, (1, 1)),
    ("0.6*z1+0.3*z3*z2", 3, (1, 1)),
    ("[[0.5,0.1],[0.2,0.3]]*z1+[[0.1,0.2],[0.3,0.1]]*z2*z1", 2, (2, 2)),
    ("[[0.5],[0.5]]*z1", 1, (2, 1)),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_ce_test_membership_reads_one_pin_stack(monkeypatch, expr, d, shape, seed):
    seen = []

    def spy(spec, f, pins, *args, _fn=gleason.membership_norm):
        seen.append((spec, pins))
        return _fn(spec, f, pins, *args)

    monkeypatch.setattr(gleason, "membership_norm", spy)
    B = parse(expr, d, 2, shape)
    ce_test(B, 5, seed=seed)
    (spec, stack), = seen
    assert isinstance(stack, PinStack)
    p = spec.coeff_dim()
    want = _stack_pins(_pins_one_at_a_time(B, seed), p)
    for got, x in zip(_stack_pins(stack, p), want):
        assert got.tobytes() == x.tobytes()


def test_ce_test_builds_no_pinning(monkeypatch):
    def refuse(self):
        raise AssertionError("ce_test built a Pinning")

    monkeypatch.setattr(kernels.Pinning, "__post_init__", refuse)
    for B in (parse("0.5*z1+0.4*z2*z1", 2, 2),
              parse("[[0.5],[0.5]]*z1", 1, 1, (2, 1))):
        assert ce_test(B, 5)["verdict"] == "not-CE"
