"""Report writing and input-file decoding at the CLI boundary.

Reports must keep the bytes of json.dumps(report, sort_keys=True,
indent=2); malformed series, point and colligation files must end in exit
1 with a message, never a traceback.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freehardy import cli
from freehardy.colligation import canonical_colligation
from freehardy.parser import parse
from freehardy.series import mat_to_json


def reference(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2)


# -- the writer ---------------------------------------------------------------

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
TEXT = st.one_of(st.text(max_size=8),
                 st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f",
                                  "é", " ", "\U0001f600", ""]))
# leaves json.dumps writes but the fast path must refuse: not a float
NOT_FLOAT = {"int": st.integers(-9, 9), "bool": st.booleans(),
             "float64": FLOATS.map(np.float64)}


@st.composite
def pair_matrices(draw):
    """Lists in the mat_to_json layout, most of them exact, the rest with
    one defect the fast path must refuse: a leaf that is not a float, a
    ragged row, a pair of the wrong length or a tuple."""
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
    assert cli._dumps(x) == reference(x)


@pytest.mark.parametrize("x", [
    [[[0.5, -0.0], [float("nan"), float("inf")]], [[-float("inf"), 1e-05],
                                                   [1e300, 2.5e-320]]],
    {"a": [], "b": {}, "c": [[]], "d": [{}, []]},
    [[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]],
    [[[1.0, 2]]], [[[True, 2.0]]], [[[1.0, 2.0, 3.0]]], [[(1.0, 2.0)]],
    [[], []], [[[np.float64(1.5), 2.0]]],
    {"nested": {"m": [[[0.1, 0.2]]], "list": [[[[0.3, 0.4]]]]}},
    {1: "int key", 2.5: "float key"}, {True: 1, False: 0}, {None: "x"},
])
def test_writer_examples(x):
    assert cli._dumps(x) == reference(x)


def test_fast_path_takes_the_complex_matrix_layout():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0] = complex(np.nan, np.inf)
    rows = mat_to_json(m)
    assert cli._pair_matrix(rows, 2) is not None
    assert cli._dumps({"m": rows}) == reference({"m": rows})
    rows[1][2][0] = 1  # an int leaf sends the matrix down the generic path
    assert cli._pair_matrix(rows, 2) is None
    assert cli._dumps({"m": rows}) == reference({"m": rows})


@pytest.mark.parametrize("x", [np.bool_(True), np.int64(3), [np.int64(1)],
                               [[[np.bool_(False), 1.0]]], {"a": {1}},
                               {(1, 2): 0.0}])
def test_writer_rejects_what_json_rejects(x):
    with pytest.raises(TypeError):
        reference(x)
    with pytest.raises(TypeError):
        cli._dumps(x)


@pytest.fixture
def colligation_file(tmp_path):
    U = canonical_colligation(parse("0.5*z1+0.3*z2*z1", 2, 2), 4)
    path = tmp_path / "colligation.json"
    path.write_text(json.dumps(U.to_json()))
    return str(path)


SYMBOL = ["--expr", "0.5*z1+0.3*z2*z1", "--d", "2", "--deg", "2", "--N", "4"]


@pytest.mark.parametrize("argv", [
    ["eval"] + SYMBOL + ["--num-points", "2"],
    ["schur-check"] + SYMBOL,
    ["schur-check", "--expr", "1.5*z1", "--d", "1", "--deg", "1"],
    ["cayley"] + SYMBOL,
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
], ids=lambda argv: "-".join(a for a in argv[:1] + argv[-1:]))
def test_every_command_writes_json_dumps_bytes(capsys, monkeypatch,
                                               colligation_file, argv):
    argv = [colligation_file if a == "COLLIGATION" else a for a in argv]
    built = []
    emit = cli._emit

    def recording_emit(report, args, rows=None):
        built.append(copy.deepcopy(report))
        emit(report, args, rows)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    assert cli.main(argv) in (0, 2)
    assert len(built) == 1
    assert capsys.readouterr().out == reference(built[0]) + "\n"


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
