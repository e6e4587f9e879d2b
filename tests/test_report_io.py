"""Report writing and input-file decoding at the CLI boundary.

Reports must keep the bytes of json.dumps(report, sort_keys=True,
indent=2), with each complex array in a report written as its mat_to_json
lists; malformed series, point and colligation files must end in exit
1 with a message, never a traceback.
"""

import argparse
import contextlib
import copy
import importlib.util
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freehardy import cli
from freehardy.colligation import canonical_colligation
from freehardy.parser import parse
from freehardy.series import mat_to_json

ROOT = Path(__file__).resolve().parent.parent


def as_lists(x):
    """x with every ndarray replaced by its mat_to_json lists."""
    if isinstance(x, np.ndarray):
        return mat_to_json(x)
    if isinstance(x, dict):
        return {k: as_lists(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(as_lists, x))
    return x


def reference(x) -> str:
    return json.dumps(as_lists(x), sort_keys=True, indent=2)


def streamed(x) -> str:
    """What the report writer writes for x, newline included."""
    buf = io.StringIO()
    cli._write_json(x, buf.write)
    return buf.getvalue()


# -- the writer ---------------------------------------------------------------

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
TEXT = st.one_of(st.text(max_size=8),
                 st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f",
                                  "é", " ", "\U0001f600", ""]))
# leaves json.dumps writes that are not floats
NOT_FLOAT = {"int": st.integers(-9, 9), "bool": st.booleans(),
             "float64": FLOATS.map(np.float64)}


@st.composite
def pair_matrices(draw):
    """Lists in the mat_to_json layout, most of them exact, the rest with
    one defect: a leaf that is not a float, a ragged row, a pair of the
    wrong length or a tuple."""
    rows, width = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    m = [[[draw(FLOATS), draw(FLOATS)] for _ in range(width)]
         for _ in range(rows)]
    defect = draw(st.sampled_from(["none"] * 3 + sorted(NOT_FLOAT)
                                  + ["ragged", "pair", "tuple"]))
    if width and defect in NOT_FLOAT:
        m[-1][-1][draw(st.integers(0, 1))] = draw(NOT_FLOAT[defect])
    elif defect == "ragged":
        m[-1].append([1.0, 2.0])
    elif width and defect == "pair":
        m[0][0] = draw(st.lists(FLOATS, max_size=3))
    elif width and defect == "tuple":
        m[0][-1] = tuple(m[0][-1])
    return m


VALUES = st.recursive(
    st.one_of(pair_matrices(), st.none(), FLOATS, TEXT,
              *NOT_FLOAT.values()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300)
@given(VALUES)
def test_writer_matches_json_dumps(x):
    assert streamed(x) == reference(x) + "\n"


MATRIX = np.array([[0.5 + 1j, 0j, complex(-0.0, 0.0)], [0j, 2.5j, float("nan")]])
EMPTY = np.zeros((2, 0), dtype=complex)


@pytest.mark.parametrize("x", [
    [[[0.5, -0.0], [float("nan"), float("inf")]], [[-float("inf"), 1e-05],
                                                   [1e300, 2.5e-320]]],
    {"a": [], "b": {}, "c": [[]], "d": [{}, []]},
    [[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]],
    [[[1.0, 2]]], [[[True, 2.0]]], [[[1.0, 2.0, 3.0]]], [[(1.0, 2.0)]],
    [[], []], [[[np.float64(1.5), 2.0]]],
    {"nested": {"m": [[[0.1, 0.2]]], "list": [[[[0.3, 0.4]]]]}},
    {1: "int key", 2.5: "float key"}, {True: 1, False: 0}, {None: "x"},
    # matrices among the encoder's chunks: "" values beside them, first in
    # a list, after a closed container, at the top and in tuples
    ["", MATRIX, ""], {"": "", "a": "", "m": MATRIX, "z": "", "e": EMPTY},
    [MATRIX, 1.5], [[1.0, {"k": [2]}], MATRIX, EMPTY],
    {"a": {"b": [[], {}]}, "b": MATRIX}, MATRIX, EMPTY,
    (MATRIX, "", (EMPTY, MATRIX)),
])
def test_writer_examples(x):
    assert streamed(x) == reference(x) + "\n"


ENTRIES = st.one_of(FLOATS, st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
     -2.5e-310, 2.2250738585072014e-308]))


@st.composite
def complex_arrays(draw):
    """2-D complex arrays of every shape 0..4 x 0..4, mostly exact zeros:
    built complex or cast from float, contiguous, transposed or sliced."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    view = draw(st.sampled_from(["plain", "float", "transposed", "sliced"]))
    shape = {"transposed": (cols, rows), "sliced": (2 * rows, cols + 1)}.get(
        view, (rows, cols))
    parts = [np.array(draw(st.lists(st.one_of(st.just(0.0), ENTRIES),
                                    min_size=shape[0] * shape[1],
                                    max_size=shape[0] * shape[1])),
                      dtype=float).reshape(shape) for _ in range(2)]
    m = parts[0].astype(complex)
    if view != "float":
        m.imag = parts[1]
    return m.T if view == "transposed" else m[::2, 1:] if view == "sliced" else m


@st.composite
def nested_arrays(draw):
    """A complex array nested 0..3 deep in lists and dicts, beside other
    values."""
    x = draw(complex_arrays())
    for _ in range(draw(st.integers(0, 3))):
        other = draw(st.one_of(complex_arrays(), FLOATS, TEXT))
        x = draw(st.sampled_from([[x], [other, x], {"m": x, "k": other}]))
    return x


@settings(max_examples=300)
@given(nested_arrays())
def test_array_writer_matches_json_dumps_of_its_lists(x):
    assert streamed(x) == reference(x) + "\n"


@pytest.mark.parametrize("x", [np.bool_(True), np.int64(3), [np.int64(1)],
                               [[[np.bool_(False), 1.0]]], {"a": {1}},
                               {(1, 2): 0.0}, np.zeros((2, 2)),
                               np.ones((2, 2), dtype=int)])
def test_writer_rejects_what_json_rejects(x):
    with pytest.raises(TypeError):
        json.dumps(x)
    with pytest.raises(TypeError):
        streamed(x)


@pytest.fixture
def colligation_file(tmp_path):
    U = canonical_colligation(parse("0.5*z1+0.3*z2*z1", 2, 2), 4)
    path = tmp_path / "colligation.json"
    path.write_text(json.dumps(U.to_json()))
    return str(path)


@pytest.fixture
def matrix_symbol_file(tmp_path):
    """B = A1 z1 + A2 z2 with 2 x 2 coefficients, a non-extreme column."""
    data = {"d": 2, "deg": 1, "p": 2, "q": 2,
            "terms": [{"word": [1], "re": [[0.3, 0.1], [0.0, -0.2]],
                       "im": [[0.0, 0.2], [0.1, 0.0]]},
                      {"word": [2], "re": [[0.1, 0.0], [-0.25, 0.3]],
                       "im": [[-0.1, 0.0], [0.0, 0.15]]}]}
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(data))
    return str(path)


SYMBOL = ["--expr", "0.5*z1+0.3*z2*z1", "--d", "2", "--deg", "2", "--N", "4"]

COMMANDS = [
    ["eval"] + SYMBOL[:-2] + ["--num-points", "2"],
    ["schur-check"] + SYMBOL,
    ["schur-check", "--expr", "1.5*z1", "--d", "1", "--deg", "1"],
    ["cayley", "--expr", "0.5*z1+0.3*z2*z1", "--d", "2", "--deg", "4"],
    ["moments", "--expr", "0.5*z1", "--d", "1", "--deg", "1", "--N", "3"],
    ["herglotz-verify", "--expr", "0.5*z1", "--d", "1", "--deg", "1",
     "--N", "8", "--num-points", "2"],
    ["gns", "--expr", "0.5*z1", "--d", "1", "--deg", "1", "--N", "3"],
    ["gns", "--expr", "0.5*z1", "--d", "1", "--deg", "1", "--N", "3",
     "--full"],
    ["cuntz-check", "--expr", "z1", "--d", "1", "--deg", "1", "--N", "3"],
    ["ce-test"] + SYMBOL,
    ["gleason-gap"] + SYMBOL,
    ["realize"] + SYMBOL,
    ["transfer-eval", "--input", "COLLIGATION", "--num-points", "2"],
    ["complete-column"] + SYMBOL,
    ["complete-column", "--expr", "z1", "--d", "1", "--deg", "1"],
    ["kernel-gram"] + SYMBOL + ["--num-points", "4"],
    ["realize", "--input", "MATRIX_SYMBOL", "--d", "2", "--N", "5"],
    ["complete-column", "--input", "MATRIX_SYMBOL", "--d", "2", "--N", "5"],
]


@pytest.mark.parametrize("argv, to_file", [
    pytest.param(argv, to_file, id="-".join(argv[:1] + argv[-1:] + ["out"] * to_file))
    for argv in COMMANDS for to_file in (False, True)])
def test_every_command_writes_json_dumps_bytes(capsys, monkeypatch, tmp_path,
                                               colligation_file,
                                               matrix_symbol_file, argv,
                                               to_file):
    """The report on stdout, or the bytes of the --out file, are those of
    json.dumps and a newline."""
    files = {"COLLIGATION": colligation_file,
             "MATRIX_SYMBOL": matrix_symbol_file}
    argv = [files.get(a, a) for a in argv]
    out = tmp_path / "report.json"
    argv += ["--out", str(out)] * to_file
    built = []
    emit = cli._emit

    def recording_emit(report, args, rows=None):
        built.append(copy.deepcopy(report))
        emit(report, args, rows)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    assert cli.main(argv) in (0, 2)
    assert len(built) == 1
    want = reference(built[0]) + "\n"
    if to_file:
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == want.encode()
    else:
        assert capsys.readouterr().out == want


@st.composite
def row_streamed_matrices(draw):
    """A complex array of shape 0..6 x 0..6, sparse or dense, with signed
    zeros, NaN and infinities among its entries, nested 0..4 deep in lists
    and dicts."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    dense = draw(st.booleans())
    entry = ENTRIES if dense else st.one_of(*[st.just(0.0)] * 6, ENTRIES)
    re, im = (np.array(draw(st.lists(entry, min_size=rows * cols,
                                     max_size=rows * cols)),
                       dtype=float).reshape(rows, cols) for _ in range(2))
    x = re + 0j
    x.imag = im
    for _ in range(draw(st.integers(0, 4))):
        x = draw(st.sampled_from([[x], {"m": x}, [1.5, x, "s"]]))
    return x


@settings(max_examples=300)
@given(row_streamed_matrices())
def test_rows_streamed_match_json_dumps_of_lists(x):
    assert streamed(x) == reference(x) + "\n"


def test_writer_peak_is_a_fraction_of_the_report(tmp_path):
    """A report holding a 510 x 256 matrix with 1% nonzero entries, about
    8 MB of text, is written with an allocation peak below a quarter of
    its size: no whole-report string is built."""
    rng = np.random.default_rng(5)
    m = np.zeros((510, 256), dtype=complex)
    nz = rng.random(m.shape) < 0.01
    m[nz] = rng.standard_normal(nz.sum()) + 1j * rng.standard_normal(nz.sum())
    report = {"schema": cli.SCHEMA,
              "results": {"colligation": {"A": m, "d": 2}, "rank": 3}}
    args = argparse.Namespace(format="json", out=str(tmp_path / "report.json"))
    tracemalloc.start()
    try:
        cli._emit(report, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "report.json").stat().st_size
    assert size > 7_000_000
    assert peak < size / 4, (peak, size)


def _report_diff():
    path = ROOT / "tools" / "report_diff.py"
    spec = importlib.util.spec_from_file_location("report_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_diff_separates_values_from_signs_of_zero():
    found = {}
    _report_diff().diff_tree(
        {"a": [[0.0, 1.0]], "b": [0.0], "c": "x", "e": 1},
        {"a": [[0.0, 1.25]], "b": [-0.0], "c": "y", "e": 1}, "", found)
    assert found == {"a[][]": (0.25, False), "b[]": (0.0, True),
                     "c": (math.inf, False)}


def test_report_diff_of_a_checkout_against_itself_is_empty():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_diff.py"), str(ROOT),
         "--seeds", "0", "--scale", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["0 of 36 reports differ"]


# -- input files --------------------------------------------------------------

def _valid_series():
    return {"d": 2, "deg": 2, "p": 1, "q": 1,
            "terms": [{"word": [1], "re": [[0.3]], "im": [[0.0]]},
                      {"word": [2, 1], "re": [[0.2]], "im": [[0.1]]}]}


def _valid_points():
    rng = np.random.default_rng(0)
    return [{"n": 2, "mats": [mat_to_json(0.2 * rng.standard_normal((2, 2)))
                              for _ in range(2)]} for _ in range(2)]


def _valid_colligation():
    return canonical_colligation(parse("0.5*z1", 1, 1), 3).to_json()


# each document and the command that reads it
INPUTS = {
    "series": (_valid_series(), ["schur-check", "--input", "FILE", "--N", "4"]),
    "points": (_valid_points(), ["eval", "--expr", "0.3*z1", "--d", "2",
                                 "--deg", "1", "--points", "FILE"]),
    "colligation": (_valid_colligation(),
                    ["transfer-eval", "--input", "FILE", "--num-points", "1"]),
}


def _paths(doc, path=(), in_matrix=False):
    """(path, whether it lies inside a matrix) for every dict value and
    list element of doc."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,), in_matrix
        inner = (in_matrix or key in ("re", "im", "C", "D")
                 or path[-1:] in (("mats",), ("A",), ("B",)))
        yield from _paths(value, path + (key,), inner)


WRONG = {type(None): None, bool: True, int: 7, float: 2.5, str: "x",
         list: [], dict: {}}


@given(st.sampled_from(sorted(INPUTS)), st.booleans(), st.data())
def test_malformed_input_files_exit_one(tmp_path_factory, name, in_matrix,
                                        data):
    """A dropped key, or a value of another JSON type in a field, a matrix
    row or a matrix entry (a bool included), gives exit 1 and a message,
    never a traceback."""
    doc, argv = INPUTS[name]
    doc = copy.deepcopy(doc)
    paths = [p for p, inside in _paths(doc) if inside == in_matrix]
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    drop = isinstance(parent, dict) and data.draw(st.booleans())
    if drop:
        del parent[path[-1]]
    else:
        numbers = (int, float) if type(old) is float else ()
        wrong = [t for t in WRONG if t is not type(old) and t not in numbers]
        parent[path[-1]] = WRONG[data.draw(st.sampled_from(wrong))]
    target = tmp_path_factory.mktemp("input") / "file.json"
    target.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(target) if a == "FILE" else a for a in argv])
    assert code == 1, (path, drop)
    assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_valid_input_files_are_read(tmp_path, capsys, name):
    doc, argv = INPUTS[name]
    target = tmp_path / "file.json"
    target.write_text(json.dumps(doc))
    assert cli.main([str(target) if a == "FILE" else a for a in argv]) == 0
    capsys.readouterr()
