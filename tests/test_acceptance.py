"""End to end acceptance battery.

Each test prints one summary line so a full run reads as a checklist.
The first three criteria share a pool of 100 random strictly contractive
series (half scalar, half with 2x2 coefficients) in two variables.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from freehardy.cli import main as cli_main
from freehardy.clark import (clark_moments, cuntz_check, gns_build,
                             herglotz_from_moments, interior_isometry_defect,
                             moment_matrix, vb_adjoint_defect)
from freehardy.colligation import (canonical_colligation, column_schur_defect,
                                   complete_column, transfer_series)
from freehardy.gleason import (a_empty_sq, exactgs_residual, extremality_gap,
                               clark_intertwining_residual)
from freehardy.kernels import KernelKind, KernelSpec, Pinning, gram_psd_check
from freehardy.parser import parse
from freehardy.series import FreeSeries, MatrixPoint, cayley, evaluate

from conftest import ball_point, nilpotent_pins, nilpotent_point, random_schur

SQRT_HALF = 0.7071067811865476


def report(n, ok, detail):
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def fixtures():
    rng = np.random.default_rng(20260823)
    pool = []
    for _ in range(50):
        pool.append(random_schur(rng, 2, 4, 1, 1, target=0.9))
    for _ in range(50):
        pool.append(random_schur(rng, 2, 4, 2, 2, target=0.9))
    return pool


@pytest.fixture(scope="module")
def moments12(fixtures):
    return [clark_moments(B, 12) for B in fixtures]


def test_criterion_01_cayley_roundtrip(fixtures):
    t0 = time.time()
    worst = 0.0
    for B in fixtures:
        H = cayley(B, "schur_to_herglotz")
        back = cayley(H, "herglotz_to_schur")
        worst = max(worst, B.max_coeff_diff(back))
    elapsed = time.time() - t0
    report(1, worst <= 1e-10 and elapsed < 5.0,
           f"100 roundtrips, max error {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_herglotz_formula(fixtures, moments12):
    rng = np.random.default_rng(7)
    worst = 0.0
    for B, mu in zip(fixtures, moments12):
        H = cayley(B.truncate(12), "schur_to_herglotz")
        for _ in range(5):
            Z = ball_point(rng, 2, 2, radius=0.4)
            r = float(np.linalg.norm(herglotz_from_moments(mu, Z)
                                     - evaluate(H, Z), 2))
            worst = max(worst, r)
    worst_nil = 0.0
    for B, mu in list(zip(fixtures, moments12))[:10]:
        H = cayley(B.truncate(12), "schur_to_herglotz")
        Z = nilpotent_point(rng, 2, 3)
        r = float(np.linalg.norm(herglotz_from_moments(mu, Z)
                                 - evaluate(H, Z), 2))
        worst_nil = max(worst_nil, r)
    report(2, worst <= 1e-6 and worst_nil <= 1e-12,
           f"500 ball points max {worst:.2e}, nilpotent max {worst_nil:.2e}")


def test_criterion_03_moment_positivity(moments12):
    worst = 0.0
    for mu in moments12:
        M = moment_matrix(mu, 3)
        eigs = np.linalg.eigvalsh(M)
        rel = -float(eigs[0]) / max(float(np.abs(eigs).max()), 1e-300)
        worst = max(worst, rel)
    report(3, worst <= 1e-10,
           f"100 moment matrices, worst relative negative eig {worst:.2e}")


def test_moment_window_to_degree_n_matches_2n(fixtures, moments12):
    # a moment matrix on words of length <= N reads moments to degree N;
    # clark_moments to N gives them bit for bit as clark_moments to 2N
    # does, so every builder asks for degree N
    for B, mu12 in zip(fixtures, moments12):
        for N in range(1, 7):
            mu = clark_moments(B, N)
            mu2 = mu12 if N == 6 else clark_moments(B, 2 * N)
            assert mu.array.tobytes() == mu2.array[:len(mu.array)].tobytes()
            assert mu.im_h0.tobytes() == mu2.im_h0.tobytes()


def test_criterion_04_gns_interior_isometry():
    cases = [("0", 1, 6), ("z1", 1, 6), ("0.5*z1", 1, 6), ("0.9*z1", 1, 6),
             ("z1", 2, 4), ("0.8*z1*z2", 2, 4)]
    worst = 0.0
    for expr, d, N in cases:
        B = parse(expr, d, 4)
        model = gns_build(clark_moments(B, 2 * N), N)
        worst = max(worst, interior_isometry_defect(model))
    report(4, worst <= 1e-8,
           f"{len(cases)} GNS models, worst interior defect {worst:.2e}")


def test_criterion_05_kernel_positivity(fixtures):
    rng = np.random.default_rng(11)
    pins = nilpotent_pins(2, 10, rng)
    bad = 0
    for B in fixtures:
        spec = KernelSpec(KernelKind.DBR_LEFT, B, deg=8)
        if not gram_psd_check(spec, pins, tol=1e-8)["certified"]:
            bad += 1
    control = KernelSpec(KernelKind.DBR_LEFT, parse("1.5*z1", 2, 4), deg=40)
    boundary = Pinning(MatrixPoint(2, 1, [np.array([[0.9]]),
                                          np.zeros((1, 1))]),
                       y=[1.0], v=[1.0])
    rejected = not gram_psd_check(control, [boundary], tol=1e-8)["certified"]
    report(5, bad == 0 and rejected,
           f"{100 - bad}/100 fixtures certified, non-Schur control "
           f"{'rejected' if rejected else 'accepted'}")


def test_criterion_06_ce_dichotomy_table():
    gap0 = extremality_gap(parse("0", 1, 2), 6)["ladder"][0]["gap_norm"]
    ok0 = gap0 == 1.0

    gap_inner = extremality_gap(parse("z1", 1, 4), 8)["ladder"][0]["gap_norm"]
    cuntz = cuntz_check(gns_build(clark_moments(parse("z1", 1, 8), 8), 4))
    ok1 = gap_inner <= 1e-8 and cuntz["defect"] <= 1e-10

    gap_strict = extremality_gap(parse("0.9*z1", 1, 4),
                                 8)["ladder"][0]["gap_norm"]
    out = a_empty_sq(parse("0.9*z1", 1, 4), 8)
    ok2 = (abs(gap_strict - 0.19) <= 1e-6
           and abs(out["a0_sq"][0, 0] - 0.19) <= 1e-6
           and out["dual"] is not None
           and abs(out["dual"][0, 0] - 0.19) <= 1e-6)

    gap_free = extremality_gap(parse("z1", 2, 4), 6)["ladder"][0]["gap_norm"]
    ok3 = gap_free <= 1e-8

    report(6, ok0 and ok1 and ok2 and ok3,
           f"gaps: b=0 {gap0}, b=z {gap_inner:.2e} "
           f"(cuntz {cuntz['defect']:.2e}), b=0.9z {gap_strict:.8f} "
           f"(a0^2 {out['a0_sq'][0, 0].real:.8f} / "
           f"{out['dual'][0, 0].real:.8f}), B=Z1 {gap_free:.2e}")


def test_criterion_07_realization_roundtrip():
    B = parse("0.8*z1*z2", 2, 2)
    U = canonical_colligation(B, 8)
    S = transfer_series(U, 5)
    err = S.max_coeff_diff(parse("0.8*z1*z2", 2, 5))

    V = canonical_colligation(parse("z1", 1, 6), 8)
    blk_err = float(np.linalg.norm(
        V.block_matrix() - np.array([[0.0, 1.0], [1.0, 0.0]]), 2))
    report(7, err <= 1e-6 and blk_err <= 1e-10,
           f"0.8 Z1Z2 coefficient error {err:.2e}, "
           f"b=z block error {blk_err:.2e}")


def test_criterion_08_column_completion(capsys):
    A = parse("0.6*z1", 2, 4)
    out = complete_column(A, 6)
    gram = column_schur_defect(A, out["a"], 6)
    ok_pos = out["isometry_defect"] <= 1e-6 and gram <= 1e-8

    code = cli_main(["complete-column", "--expr", "z1", "--d", "1",
                     "--deg", "1", "--N", "8"])
    captured = capsys.readouterr().out
    verdict = json.loads(captured).get("verdict")
    ok_neg = code == 2 and verdict == "CeObstructionError"
    report(8, ok_pos and ok_neg,
           f"0.6 Z1 isometry defect {out['isometry_defect']:.2e}, column "
           f"gram defect {gram:.2e}; a=z exit {code} ({verdict})")


def test_criterion_09_exactgs_identity():
    r0 = exactgs_residual(parse("0", 1, 2), 6)
    r1 = exactgs_residual(parse("0.9*z1", 1, 4), 8)
    report(9, r0 <= 1e-6 and r1 <= 1e-6,
           f"residuals b=0 {r0:.2e}, b=0.9z {r1:.2e}")


def test_criterion_10_clark_intertwining():
    r0 = clark_intertwining_residual(parse("0.9*z1", 1, 4), 8)
    B = parse(f"{SQRT_HALF / 2}*z1 + {SQRT_HALF / 2}*z2", 2, 4)
    r1 = clark_intertwining_residual(B, 6)
    report(10, r0 <= 1e-6 and r1 <= 1e-6,
           f"residuals b=0.9z {r0:.2e}, B=(Z1+Z2)/(2 sqrt 2) x2 {r1:.2e}")


def test_criterion_11_adjoint_action_on_kernels():
    rng = np.random.default_rng(5)
    worst = 0.0
    for expr, d in [("0.5*z1", 1), ("0.4*z1+0.3*z2*z1", 2)]:
        model = gns_build(clark_moments(parse(expr, d, 8), 8), 4)
        for _ in range(5):
            Z = nilpotent_point(rng, d, 3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            worst = max(worst, vb_adjoint_defect(model, Z, y, v))
    report(11, worst <= 1e-8, f"10 nilpotent pins, worst residual {worst:.2e}")


def test_criterion_12_parser_golden():
    cases = json.loads((Path(__file__).parent
                        / "golden_expressions.json").read_text())
    bad = 0
    for case in cases:
        F = parse(case["expr"], case["d"], case["deg"], tuple(case["shape"]))
        G = FreeSeries.from_json(json.loads(json.dumps(F.to_json())))
        same = ((F.d, F.deg, F.p, F.q) == (G.d, G.deg, G.p, G.q)
                and np.array_equal(F.array, G.array))
        if not same:
            bad += 1
    report(12, bad == 0 and len(cases) == 20,
           f"{len(cases) - bad}/{len(cases)} expressions roundtrip exactly")
