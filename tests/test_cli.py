import json

import numpy as np
import pytest

from freehardy.cli import main


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


def test_parse_error_exit_one(capsys):
    code = main(["eval", "--expr", "z1 + @", "--d", "1", "--deg", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


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
], ids=["deg", "p", "q", "d", "bool"])
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
