import contextlib
import io
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freehardy import kernels
from freehardy.cli import _random_points, build_parser, main
from freehardy.colligation import canonical_colligation
from freehardy.kernels import KernelKind, KernelSpec
from freehardy.parser import parse
from freehardy.series import FreeSeries, MatrixPoint, series_degree
from freehardy.words import enumerate_tuples

from conftest import ball_point, gram_oracle, nilpotent_pins


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_eval_basic(capsys):
    code, rep = run_json(capsys, ["eval", "--expr", "0.5*z1", "--d", "1",
                                  "--deg", "2", "--num-points", "2"])
    assert code == 0
    assert rep["schema"] == "freehardy-report/1"
    assert rep["results"]["num_points"] == 2


def test_reports_are_deterministic(capsys):
    argv = ["eval", "--expr", "0.3*z1+0.2*z2", "--d", "2", "--deg", "2",
            "--num-points", "3", "--seed", "7"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


@pytest.mark.parametrize("argv", [
    ["kernel-gram", "--kind", "herglotz", "--expr", "0.4*z1+0.3*z2*z1",
     "--d", "2", "--deg", "2", "--N", "6", "--num-points", "8", "--seed", "5"],
    ["ce-test", "--expr", "0.6*z1+0.5*z2*z2", "--d", "2", "--deg", "2",
     "--N", "5", "--seed", "5"],
    ["realize", "--expr", "0.5*z1+0.3*z2*z1", "--d", "2", "--deg", "2",
     "--N", "6"],
    ["complete-column", "--expr", "0.5*z1+0.3*z2*z1", "--d", "2", "--deg", "2",
     "--N", "6"],
    ["gleason-gap", "--expr", "0.5*z1+0.3*z2*z1", "--d", "2", "--deg", "2",
     "--N", "6"],
    ["cayley", "--expr", "0.5*z1+0.3*z2*z1", "--d", "2", "--deg", "4"],
    ["moments", "--expr", "0.5*z1+0.3*z2*z1", "--d", "2", "--deg", "2",
     "--N", "3"],
])
def test_report_files_are_deterministic(tmp_path, argv):
    out = tmp_path / "report.json"
    reports = []
    for _ in range(2):
        main(argv + ["--out", str(out)])
        reports.append(out.read_bytes())
        out.unlink()
    assert reports[0] == reports[1]


def test_schur_check_pass_and_fail(capsys):
    code, rep = run_json(capsys, ["schur-check", "--expr", "0.5*z1",
                                  "--d", "1", "--deg", "2", "--N", "6"])
    assert code == 0 and rep["results"]["is_schur"]
    code, rep = run_json(capsys, ["schur-check", "--expr", "1.5*z1",
                                  "--d", "1", "--deg", "2", "--N", "6"])
    assert code == 2 and not rep["results"]["is_schur"]


def test_cayley_of_zero_is_one(capsys):
    code, rep = run_json(capsys, ["cayley", "--expr", "0", "--d", "1",
                                  "--deg", "3"])
    assert code == 0
    terms = rep["results"]["series"]["terms"]
    nonzero = [t for t in terms
               if any(abs(complex(re, im)) > 0
                      for rrow, irow in zip(t["re"], t["im"])
                      for re, im in zip(rrow, irow))]
    assert len(nonzero) == 1
    assert nonzero[0]["word"] == []
    assert nonzero[0]["re"][0][0] == 1.0
    assert nonzero[0]["im"][0][0] == 0.0


def test_moments_report(capsys):
    code, rep = run_json(capsys, ["moments", "--expr", "0.5*z1", "--d", "1",
                                  "--deg", "2", "--N", "2"])
    assert code == 0
    assert rep["results"]["moment_matrix_min_eig"] > 0


def test_herglotz_verify(capsys):
    code, rep = run_json(capsys, ["herglotz-verify", "--expr", "0.5*z1",
                                  "--d", "1", "--deg", "1", "--N", "20",
                                  "--tol", "1e-6"])
    assert code == 0
    assert rep["results"]["max_residual"] <= 1e-6


def _points_file(path, points):
    path.write_text(json.dumps([{"n": Z.n, "mats": [
        np.stack([m.real, m.imag], -1).tolist() for m in Z.mats]}
        for Z in points]))
    return str(path)


def test_herglotz_verify_closed_form_residual_falls_with_N(capsys, tmp_path):
    # the moment residual of 0.5*z1 is 0 at every N; the closed form
    # (I + B(Z))(I - B(Z))^{-1} sees the truncation of H, about 0.3^(N+1)
    rng = np.random.default_rng(0)
    pts = _points_file(tmp_path / "pts.json",
                       [ball_point(rng, 1, 2, radius=0.6) for _ in range(3)])
    worst = []
    for N in (6, 12, 24):
        code, rep = run_json(capsys, ["herglotz-verify", "--expr", "0.5*z1",
                                      "--d", "1", "--deg", "1", "--N", str(N),
                                      "--points", pts])
        res = rep["results"]
        assert code == 0 and res["within_tol"]
        assert len(res["closed_form_residuals"]) == 3
        assert res["max_closed_form_residual"] == max(res["closed_form_residuals"])
        worst.append(res["max_closed_form_residual"])
    assert 1e-5 < worst[0] and worst[0] > 100 * worst[1] > 1e4 * worst[2]
    assert worst[2] < 1e-12


def test_herglotz_verify_closed_form_is_null_at_singular_points(capsys, tmp_path):
    # B = 2 z1 has B(1/2) = 1: I - B(Z) is singular there, and not at 1/4
    pts = _points_file(tmp_path / "pts.json",
                       [MatrixPoint(1, 1, [np.array([[0.5]])]),
                        MatrixPoint(1, 1, [np.array([[0.25]])])])
    code, rep = run_json(capsys, ["herglotz-verify", "--expr", "2*z1",
                                  "--d", "1", "--deg", "1", "--N", "60",
                                  "--points", pts])
    res = rep["results"]
    assert code == 0
    assert res["closed_form_residuals"][0] is None
    assert res["max_closed_form_residual"] == res["closed_form_residuals"][1]
    assert res["max_closed_form_residual"] < 1e-14


def test_ce_test_inner(capsys):
    code, rep = run_json(capsys, ["ce-test", "--expr", "z1", "--d", "2",
                                  "--deg", "1", "--N", "6"])
    assert code == 0
    assert rep["results"]["verdict"] == "CE"


@pytest.mark.parametrize("cmd", ["ce-test", "gleason-gap"])
def test_truncation_not_above_degree_exit_one(capsys, cmd):
    code = main([cmd, "--expr", "z1", "--d", "2", "--deg", "1", "--N", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "too small for degree 1" in captured.err


@pytest.mark.parametrize("cmd", ["ce-test", "complete-column"])
def test_terms_above_truncation_are_not_dropped(capsys, cmd):
    # 0.6*z1 + 0.8*z1^3 is not 0.6*z1: N = 2 cannot hold its degree
    code = main([cmd, "--expr", "0.6*z1 + 0.8*z1^3", "--d", "1", "--deg", "3",
                 "--N", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: series degree 3 exceeds Fock "
                            "truncation 2\n")


@pytest.mark.parametrize("cmd", ["ce-test", "gleason-gap", "realize",
                                 "complete-column"])
def test_degree_above_truncation_refused_before_the_certificate(capsys, cmd):
    # schur_norm_bound certifies 0.5*z1*z2*z2 (one term), and the refusal
    # still names its degree against N, not the model's empty interior
    code = main([cmd, "--expr", "0.5*z1*z2*z2", "--d", "2", "--deg", "3",
                 "--N", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: series degree 3 exceeds Fock "
                            "truncation 2\n")


@pytest.mark.parametrize("value", ["Infinity", "NaN"])
def test_non_finite_coefficient_refused_up_front(capfd, tmp_path, value):
    # FreeSeries.from_json accepts the JSON constants; fock_degree refuses
    # them before any LAPACK call sees them, so no DLASCL line is printed
    path = tmp_path / "series.json"
    path.write_text('{"d": 2, "deg": 2, "p": 1, "q": 1, "terms": ['
                    '{"word": [1], "re": [[0.5]], "im": [[0.0]]}, '
                    '{"word": [2, 1], "re": [[%s]], "im": [[0.0]]}]}' % value)
    for cmd in ("schur-check", "ce-test", "gleason-gap", "realize",
                "complete-column"):
        code = main([cmd, "--input", str(path), "--d", "2", "--N", "5"])
        out, err = capfd.readouterr()
        assert code == 1 and out == "" and "DLASCL" not in err
        assert err == "error: series has a coefficient that is not finite\n"


def test_schur_check_reports_the_certificate_beside_the_estimate(capsys):
    # one level: the bound is the norm; two levels: the bound 1.4 is above
    # the norm, and is_schur and the exit code read the estimate
    code, rep = run_json(capsys, ["schur-check", "--expr", "0.6*z1+0.5*z2*z2",
                                  "--d", "2", "--deg", "2", "--N", "4"])
    res = rep["results"]
    assert code == 0 and res["is_schur"]
    assert res["upper"] == np.sqrt(0.61)
    assert abs(res["norm_estimate"] - res["upper"]) <= 1e-12
    code, rep = run_json(capsys, ["schur-check", "--expr", "0.6+0.8*z1*z2",
                                  "--d", "2", "--deg", "2", "--N", "4"])
    res = rep["results"]
    assert code == 2 and not res["is_schur"]
    assert res["upper"] == 1.4
    assert round(res["norm_estimate"], 4) == 1.2583


def test_schur_check_reads_series_degree(capsys):
    # the default --deg 6 carries 0.5*z1 past N = 4; its degree is 1
    code, rep = run_json(capsys, ["schur-check", "--expr", "0.5*z1",
                                  "--d", "1", "--N", "4"])
    assert code == 0 and rep["results"]["norm_estimate"] == 0.5
    code = main(["schur-check", "--expr", "0.5*z1^5", "--d", "1", "--N", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "exceeds Fock truncation 4" in captured.err


def _schur_symbol_file(directory, d, deg, p, seed):
    """A random symbol of degree deg with sum_w ||B_w|| = 0.9, so Schur."""
    rng = np.random.default_rng(seed)
    words = [w for w in enumerate_tuples(d, deg) if rng.random() < 0.5]
    words.append(tuple(rng.integers(1, d + 1, deg)))
    coeffs = {w: rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
              for w in words}
    total = sum(np.linalg.norm(m, 2) for m in coeffs.values())
    F = FreeSeries.from_terms(d, deg, p, p,
                              {w: 0.9 * m / total for w, m in coeffs.items()})
    assert series_degree(F) == deg
    path = directory / "symbol.json"
    path.write_text(json.dumps(F.to_json()))
    return str(path)


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_truncation_at_or_below_degree_exits_one(tmp_path_factory, d, deg, p,
                                                 seed, data):
    """N <= deg(B) leaves no interior: every model-space command, and
    schur-check when N < deg(B), refuses with exit 1 and a message that
    names the truncation, never a traceback or a report."""
    path = _schur_symbol_file(tmp_path_factory.mktemp("symbol"), d, deg, p,
                              seed)
    N = data.draw(st.integers(0, deg))
    cmds = ["ce-test", "gleason-gap", "realize", "complete-column"]
    for cmd in cmds + (["schur-check"] if N < deg else []):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([cmd, "--input", path, "--N", str(N)])
        assert code == 1, (cmd, N)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert "truncation" in err.getvalue(), err.getvalue()


def test_gleason_gap_csv_ladder(capsys):
    code, out = run(capsys, ["gleason-gap", "--expr", "0.9*z1", "--d", "1",
                             "--deg", "1", "--N", "8", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].strip() == "N,gap_norm"
    assert len(lines) == 4
    assert abs(float(lines[1].split(",")[1]) - 0.19) < 1e-6


def test_realize_and_transfer_eval(capsys, tmp_path):
    target = tmp_path / "colligation.json"
    code, rep = run_json(capsys, ["realize", "--expr", "0.8*z1*z2",
                                  "--d", "2", "--deg", "2", "--N", "8"])
    assert code == 0
    assert rep["results"]["roundtrip_error"] <= 1e-6
    target.write_text(json.dumps(rep["results"]["colligation"]))
    code, rep = run_json(capsys, ["transfer-eval", "--input", str(target),
                                  "--num-points", "2"])
    assert code == 0
    assert len(rep["results"]["values"]) == 2


def test_transfer_eval_reads_a_realize_report(capsys, tmp_path):
    # the report file as realize writes it, and the bare colligation in it,
    # give the same values
    report, bare = tmp_path / "report.json", tmp_path / "colligation.json"
    assert main(["realize", "--expr", "0.8*z1*z2", "--d", "2", "--deg", "2",
                 "--N", "8", "--out", str(report)]) == 0
    bare.write_text(json.dumps(json.loads(report.read_text())
                               ["results"]["colligation"]))
    values = []
    for path in (report, bare):
        code, rep = run_json(capsys, ["transfer-eval", "--input", str(path),
                                      "--num-points", "3"])
        assert code == 0
        values.append(rep["results"]["values"])
    assert len(values[0]) == 3 and values[0] == values[1]
    # a report without a colligation is refused with a message
    report.write_text(json.dumps({"schema": "freehardy-report/1",
                                  "results": {"rank": 1}}))
    assert main(["transfer-eval", "--input", str(report)]) == 1
    assert "field 'colligation'" in capsys.readouterr().err


@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_points_match_per_point_draws(d):
    # one draw for all points reads the stream as a loop over the points
    # does, so eval, herglotz-verify and transfer-eval keep their points
    for seed in (0, 1, 7):
        for count in range(10):
            rng = np.random.default_rng(seed)
            want = [ball_point(rng, d, 2) for _ in range(count)]
            got = _random_points(d, count, seed)
            assert len(got) == count
            for Z, W in zip(got, want):
                assert (Z.d, Z.n) == (d, 2)
                assert all(a.tobytes() == b.tobytes()
                           for a, b in zip(Z.mats, W.mats))


def test_complete_column_success(capsys):
    code, rep = run_json(capsys, ["complete-column", "--expr", "0.6*z1",
                                  "--d", "1", "--deg", "1", "--N", "8"])
    assert code == 0
    assert rep["results"]["isometry_defect"] <= 1e-6
    assert rep["results"]["column_gram_defect"] <= 1e-8


def test_complete_column_obstruction(capsys):
    code, rep = run_json(capsys, ["complete-column", "--expr", "z1",
                                  "--d", "1", "--deg", "1", "--N", "8"])
    assert code == 2
    assert rep["verdict"] == "CeObstructionError"


def test_verdict_report_is_json_under_csv_format(capsys):
    code, rep = run_json(capsys, ["complete-column", "--expr", "z1",
                                  "--d", "1", "--deg", "1", "--N", "8",
                                  "--format", "csv"])
    assert code == 2
    assert rep["verdict"] == "CeObstructionError"
    assert rep["config"]["format"] == "csv"


def test_complete_column_obstruction_on_column_isometry(capsys, tmp_path):
    # B = M1 z1 + M2 z2 with [M1; M2] an isometry is column-extreme, but its
    # computed gap is roundoff, so ||a0|| = sqrt(||gap||) can exceed tol
    G = np.random.default_rng(0).standard_normal((4, 4))
    M = np.linalg.qr(G[:, :2] + 1j * G[:, 2:])[0]
    terms = [{"word": [k + 1], "re": M[2 * k:2 * k + 2].real.tolist(),
              "im": M[2 * k:2 * k + 2].imag.tolist()} for k in range(2)]
    path = tmp_path / "isometry.json"
    path.write_text(json.dumps({"d": 2, "deg": 1, "p": 2, "q": 2,
                                "terms": terms}))
    argv = ["--input", str(path), "--d", "2", "--N", "6"]
    code, rep = run_json(capsys, ["gleason-gap"] + argv)
    assert code == 0 and rep["results"]["extremal"]
    code, rep = run_json(capsys, ["complete-column"] + argv)
    assert code == 2
    assert rep["verdict"] == "CeObstructionError"


def test_kernel_gram_exit_codes(capsys):
    code, rep = run_json(capsys, ["kernel-gram", "--expr", "0.5*z1",
                                  "--d", "1", "--deg", "1", "--N", "8"])
    assert code == 0 and rep["results"]["certified"]
    code, rep = run_json(capsys, ["kernel-gram", "--expr", "1.5*z1",
                                  "--d", "1", "--deg", "1", "--N", "12",
                                  "--num-points", "4"])
    assert code == 2 and not rep["results"]["certified"]


@pytest.mark.parametrize("kind", ["szego", "dbr-left", "dbr-right", "herglotz"])
def test_kernel_gram_kinds_on_matrix_symbol(capsys, tmp_path, kind):
    # B = A1 z1 + A2 z2 with 2 x 2 coefficients and [A1; A2] of norm 0.8:
    # every kernel is positive, and the printed spectrum is that of the
    # Gram of the defining formula at the command's pins
    G = np.random.default_rng(5).standard_normal((4, 4))
    M = G[:, :2] + 1j * G[:, 2:]
    M *= 0.8 / np.linalg.norm(M, 2)
    terms = [{"word": [k + 1], "re": M[2 * k:2 * k + 2].real.tolist(),
              "im": M[2 * k:2 * k + 2].imag.tolist()} for k in range(2)]
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps({"d": 2, "deg": 1, "p": 2, "q": 2,
                                "terms": terms}))
    code, rep = run_json(capsys, ["kernel-gram", "--input", str(path), "--d",
                                  "2", "--N", "6", "--kind", kind,
                                  "--num-points", "6", "--seed", "4"])
    assert code == 0 and rep["results"]["certified"]
    B = FreeSeries.from_json(json.loads(path.read_text()))
    spec = KernelSpec(KernelKind(kind.replace("-", "_")),
                      None if kind == "szego" else B, deg=6)
    pins = nilpotent_pins(2, 6, np.random.default_rng(4))
    want = np.linalg.eigvalsh(gram_oracle(spec, pins))
    got = np.array(rep["results"]["eigenvalues"])
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.abs(want).max())


def test_kernel_gram_builds_no_pinning(monkeypatch, capsys):
    # kernel-gram passes the arrays nilpotent_stack draws as one PinStack
    def refuse(self):
        raise AssertionError("kernel-gram built a Pinning")

    monkeypatch.setattr(kernels.Pinning, "__post_init__", refuse)
    for kind in ("szego", "dbr-left", "dbr-right", "herglotz"):
        code, rep = run_json(capsys, ["kernel-gram", "--expr", "0.4*z1+0.3*z2*z1",
                                      "--d", "2", "--deg", "2", "--kind", kind,
                                      "--num-points", "7"])
        assert code == 0 and rep["results"]["num_pins"] == 7


def test_parse_error_exit_one(capsys):
    code = main(["eval", "--expr", "z1 + @", "--d", "1", "--deg", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_usage_error_exits_one_and_help_zero(capsys):
    # exit 2 is kept for certified negative verdicts, so argparse's usage
    # exit 2 becomes the error exit 1
    assert main(["eval", "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage: freehardy" in capsys.readouterr().out


def test_capacity_error_names_the_cap_at_any_size(capsys):
    # the basis count of d = 2, N = 20000 has over 6000 digits, more than
    # str() of an int allows; the message must not need them
    code = main(["ce-test", "--expr", "z1", "--d", "2", "--N", "20000"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "FREEHARDY_MAX_BASIS" in captured.err
    assert "length <= 20000 on 2 letters" in captured.err


def test_missing_series_exit_one(capsys):
    code = main(["schur-check", "--d", "1", "--deg", "2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["gns", "--expr", "0.5*z1", "--d", "1", "--deg", "1",
                 "--N", "3", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(target.read_text())
    assert rep["results"]["rank"] == 4


def test_cuntz_check_inner(capsys):
    code, rep = run_json(capsys, ["cuntz-check", "--expr", "z1", "--d", "1",
                                  "--deg", "1", "--N", "4"])
    assert code == 0
    assert rep["results"]["is_cuntz"]


def test_csv_fallback_key_value(capsys):
    code, out = run(capsys, ["schur-check", "--expr", "0.5*z1", "--d", "1",
                             "--deg", "1", "--N", "6", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].strip() == "key,value"
    assert any(line.startswith("is_schur") for line in lines)


def test_complete_column_schur_check_uses_caller_tolerance(capsys):
    # just outside the unit ball: a Schur symbol at tol 1e-6, as gleason-gap
    # finds, and column-extreme, so there is no completion
    argv = ["--expr", "1.0000001*z1^2", "--d", "1", "--deg", "2", "--N", "8",
            "--tol", "1e-6"]
    code, rep = run_json(capsys, ["gleason-gap"] + argv)
    assert code == 0 and rep["results"]["extremal"]
    code, rep = run_json(capsys, ["complete-column"] + argv)
    assert code == 2
    assert rep["verdict"] == "CeObstructionError"


def test_each_model_checks_the_multiplier_it_factors(capsys):
    # gleason-gap, ce-test and complete-column factor the right multiplier;
    # realize and schur-check read the left one.  Each symbol below is a
    # contraction on one side only: norms 0.9434 and 1.2655.
    args = ["--d", "2", "--deg", "2", "--N", "6"]
    left_small = ["--expr", "0.8*z1+0.5*z2*z1"] + args
    right_small = ["--expr", "0.8*z1+0.5*z1*z2"] + args
    for cmd in ("gleason-gap", "ce-test", "complete-column"):
        code, rep = run_json(capsys, [cmd] + left_small)
        assert code == 2 and rep["verdict"] == "NotSchurError"
        assert rep["detail"] == "multiplier norm estimate 1.265515 exceeds 1"
    for cmd in ("realize", "schur-check"):
        assert run_json(capsys, [cmd] + left_small)[0] == 0
        assert run_json(capsys, [cmd] + right_small)[0] == 2
    # gap 1 - 0.8^2 - 0.5^2 on every rung
    code, rep = run_json(capsys, ["gleason-gap"] + right_small)
    assert code == 0
    assert [r["N"] for r in rep["results"]["ladder"]] == [6, 5, 4]
    for rung in rep["results"]["ladder"]:
        assert abs(rung["gap_norm"] - 0.11) <= 1e-12
    code, rep = run_json(capsys, ["complete-column"] + right_small)
    assert code == 0 and rep["results"]["column_gram_defect"] <= 1e-12


def test_ce_test_cross_checks_undecided_at_schur_boundary(capsys):
    # the Schur check passes at tol 1e-6, but the Clark moments fail the GNS
    # positivity cut; the Gleason verdict stands, the cross-checks cannot tell
    code, rep = run_json(capsys, ["ce-test", "--expr", "1.0000001*z1",
                                  "--d", "1", "--deg", "1", "--N", "6",
                                  "--tol", "1e-6"])
    assert code == 0
    res = rep["results"]
    assert res["verdict"] == "CE" and res["gleason"]["extremal"]
    assert res["szego"] == {"distance": None, "extremal": None}
    assert res["cuntz"] == {"defect": None, "extremal": None}
    assert len(res["flags"]) == 1
    assert "undecided" in res["flags"][0]
    assert "moment matrix eigenvalue" in res["flags"][0]


def _series_file(tmp_path, **changes):
    data = {"d": 1, "deg": 1, "p": 1, "q": 1,
            "terms": [{"word": [1], "re": [[0.5]], "im": [[0.0]]}]}
    data.update(changes)
    path = tmp_path / "series.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("changes, message", [
    ({"deg": -1, "terms": []}, "field 'deg' is -1, below 0"),
    ({"p": 0}, "field 'p' is 0, below 1"),
    ({"q": 0}, "field 'q' is 0, below 1"),
    ({"d": 0}, "field 'd' is 0, below 1"),
    ({"terms": [{"word": [1], "re": [[0.5]], "im": [[True]]}]},
     "fields 're', 'im' of word [1] are not numeric matrices"),
    ({"terms": [{"word": [1], "re": [[0.5]], "im": [[0.0]]},
                {"word": [1], "re": [[0.9]], "im": [[0.0]]}]},
     "word (1,) is given twice"),
], ids=["deg", "p", "q", "d", "bool", "repeated word"])
@pytest.mark.parametrize("cmd", ["ce-test", "realize", "schur-check"])
def test_series_file_out_of_range_exit_one(capsys, tmp_path, cmd, changes,
                                           message):
    # an empty series, a zero-size coefficient or a bool read as 1 is
    # refused with the field named, not answered or left to numpy
    code = main([cmd, "--input", _series_file(tmp_path, **changes),
                 "--N", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("point, message", [
    ({"n": 0, "mats": [[], []]}, "field 'n' is 0, below 1"),
    ({"n": 3, "mats": [[[[0.1, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.2, 0.0]]]] * 2},
     "field 'mats' holds a matrix that is not 3 x 3"),
], ids=["n=0", "2x2 under n=3"])
def test_points_file_out_of_range_exit_one(capsys, tmp_path, point, message):
    # an empty point is not evaluated, and a matrix of the wrong size is
    # named rather than left to numpy's reshape
    path = tmp_path / "points.json"
    path.write_text(json.dumps([point]))
    code = main(["eval", "--expr", "0.3*z1", "--d", "2", "--deg", "1",
                 "--points", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("cmd, message", [
    ("cayley", "cayley needs square coefficients"),
    ("herglotz-verify", "cayley needs square coefficients"),
    ("moments", "Clark moments need square coefficients"),
    ("gns", "Clark moments need square coefficients"),
    ("cuntz-check", "Clark moments need square coefficients"),
])
def test_square_only_commands_refuse_rectangular_symbol(capsys, tmp_path, cmd,
                                                         message):
    path = _series_file(tmp_path, q=2, terms=[
        {"word": [1], "re": [[0.3, 0.2]], "im": [[0.0, 0.0]]}])
    code = main([cmd, "--input", path] + ["--N", "3"] * (cmd != "cayley"))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_parser_is_built_once_and_keeps_its_defaults(capsys, monkeypatch):
    import argparse
    from freehardy import cli
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        if kwargs.get("prog") == "freehardy":
            built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    base = ["ce-test", "--expr", "0.5*z1", "--d", "1", "--deg", "2"]
    code, first = run_json(capsys, base + ["--N", "4", "--tol", "1e-3",
                                           "--rank-tol", "1e-6", "--seed", "3"])
    assert code == 0 and first["config"]["N"] == 4
    code, second = run_json(capsys, base)
    assert code == 0 and len(built) == 1
    config = second["config"]
    assert (config["N"], config["tol"], config["rank_tol"], config["seed"],
            config["out"], config["format"]) == (6, 1e-8, 1e-10, 0, None, "json")


def test_transfer_eval_singular_pencil_exits_one(capsys, tmp_path):
    # the colligation of test_colligation's singular-pencil case: at Z = 1
    # the state pencil I - Z A vanishes, so there is no value to report
    from freehardy.colligation import Colligation
    U = Colligation(1, 1, 1, 1, [np.eye(1)], [np.eye(1)], np.eye(1),
                    np.zeros((1, 1)))
    colligation = tmp_path / "colligation.json"
    colligation.write_text(json.dumps(U.to_json()))
    points = tmp_path / "points.json"
    points.write_text(json.dumps([{"n": 1, "mats": [[[[1.0, 0.0]]]]}]))
    out = tmp_path / "report.json"
    code = main(["transfer-eval", "--input", str(colligation),
                 "--points", str(points), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err.startswith("error: state pencil numerically singular")


SERIES = ["--expr", "--input", "--d", "--deg"]
SHARED = SERIES + ["--N", "--tol", "--rank-tol", "--seed"]
POINTS = ["--points", "--num-points"]
# the options of each subcommand besides --out and --format
OPTIONS = {
    "eval": SERIES + ["--seed"] + POINTS,
    "schur-check": SERIES + ["--N", "--tol"],
    "cayley": SERIES + ["--direction"],
    "moments": SERIES + ["--N", "--moment-deg"],
    "herglotz-verify": SERIES + ["--N", "--tol", "--seed"] + POINTS,
    "gns": SERIES + ["--N", "--rank-tol", "--full"],
    "cuntz-check": SERIES + ["--N", "--tol", "--rank-tol"],
    "ce-test": SHARED,
    "gleason-gap": SERIES + ["--N", "--tol", "--rank-tol"],
    "realize": SERIES + ["--N", "--tol", "--rank-tol"],
    "transfer-eval": ["--input", "--seed"] + POINTS,
    "complete-column": SERIES + ["--N", "--tol", "--rank-tol"],
    "kernel-gram": SERIES + ["--N", "--tol", "--seed", "--kind", "--num-points"],
}


def _subparser_options():
    """{subcommand: its option strings other than -h and --help}."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {name: [o for a in p._actions for o in a.option_strings
                   if o not in ("-h", "--help")]
            for name, p in sub.choices.items()}


def test_each_subcommand_takes_the_options_it_reads():
    got = _subparser_options()
    assert {k: sorted(v) for k, v in got.items()} == {
        k: sorted(v + ["--out", "--format"]) for k, v in OPTIONS.items()}
    assert sum(map(len, got.values())) == 115


def _minimal_argv(cmd, tmp_path):
    """One accepted command line of each subcommand, on a small input."""
    if cmd == "transfer-eval":
        path = tmp_path / "colligation.json"
        path.write_text(json.dumps(canonical_colligation(
            parse("0.5*z1", 1, 1), 3).to_json()))
        return [cmd, "--input", str(path), "--num-points", "1"]
    argv = [cmd, "--expr", "0.5*z1", "--d", "1", "--deg", "1"]
    argv += ["--N", "3"] * ("--N" in OPTIONS[cmd])
    return argv + ["--num-points", "1"] * ("--num-points" in OPTIONS[cmd])


@pytest.mark.parametrize("cmd, flag", [
    (cmd, flag) for cmd in OPTIONS for flag in SHARED
    if flag not in OPTIONS[cmd]])
def test_an_option_the_subcommand_ignores_is_refused(capsys, tmp_path, cmd,
                                                     flag):
    out = tmp_path / "report.json"
    value = {"--expr": "0.5*z1", "--input": "f.json"}.get(flag, "3")
    code = main(_minimal_argv(cmd, tmp_path) + [flag, value, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert f"unrecognized arguments: {flag} {value}" in captured.err


@pytest.mark.parametrize("cmd", sorted(OPTIONS))
def test_config_lists_the_options_the_subcommand_takes(capsys, tmp_path, cmd):
    code, rep = run_json(capsys, _minimal_argv(cmd, tmp_path))
    assert code == 0
    dests = {f.lstrip("-").replace("-", "_") for f in OPTIONS[cmd]}
    assert set(rep["config"]) == {"command", "out", "format"} | dests
    if cmd in ("eval", "cayley", "transfer-eval"):
        assert set(rep["truncation"]) == {"deg"} & dests


def test_realize_schur_gate_reads_tol(capsys):
    # just outside the unit ball: refused at the default tol 1e-8 and
    # accepted at 1e-6, by realize as by gleason-gap
    argv = ["--expr", "1.0000001*z1^2", "--d", "1", "--deg", "2", "--N", "8"]
    for cmd in ("realize", "gleason-gap"):
        for tol, want in (("1e-8", 2), ("1e-6", 0)):
            code, rep = run_json(capsys, [cmd] + argv + ["--tol", tol])
            assert code == want, (cmd, tol)
            assert ("verdict" in rep) == (want == 2)


@pytest.mark.parametrize("cmd", ["eval", "herglotz-verify", "kernel-gram"])
def test_points_and_pins_are_drawn_on_the_series_alphabet(capsys, tmp_path, cmd):
    # a d = 2 file read with the default --d 1: the points (or pins) take
    # the alphabet of the series, as with --expr ... --d 2
    path = tmp_path / "B.json"
    path.write_text(json.dumps(parse("0.3*z1+0.2*z2*z1", 2, 2).to_json()))
    tail = ["--num-points", "2"] + ["--N", "4"] * (cmd != "eval")
    code, rep = run_json(capsys, [cmd, "--input", str(path)] + tail)
    code2, rep2 = run_json(capsys, [cmd, "--expr", "0.3*z1+0.2*z2*z1", "--d",
                                    "2", "--deg", "2"] + tail)
    assert code == code2 == 0
    assert rep["results"] == rep2["results"]


def test_expr_and_input_exclude_each_other(capsys):
    code = main(["eval", "--expr", "0.5*z1", "--input", "/nonexistent",
                 "--d", "1", "--deg", "1", "--num-points", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "not allowed with argument --expr" in captured.err
    code = main(["eval", "--d", "1", "--deg", "1", "--num-points", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: provide --expr or --input\n"


def test_readme_option_table_matches_the_parser():
    # the table in README's "Command line" section: one row per subcommand
    # (or several that share options), each option in backticks; every
    # subcommand also takes --out and --format
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n")[1].split("\n## ")[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            names, flags = line.strip(" |").split("|")
            for cmd in re.findall(r"`([a-z-]+)`", names):
                table[cmd] = sorted(re.findall(r"`(--[a-zA-Z-]+)`", flags)
                                    + ["--out", "--format"])
    assert table == {k: sorted(v) for k, v in _subparser_options().items()}
