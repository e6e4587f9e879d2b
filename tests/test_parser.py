import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import parse_oracle
from freehardy.parser import ParseError, parse
from freehardy.series import FreeSeries, multiply

GOLDEN = json.loads((Path(__file__).parent / "golden_expressions.json").read_text())


def _key_to_word(key: str) -> tuple:
    return tuple(int(s) for s in key.split(",")) if key else ()


@pytest.mark.parametrize("case", GOLDEN, ids=[c["expr"] for c in GOLDEN])
def test_golden_coefficients_exact(case):
    F = parse(case["expr"], case["d"], case["deg"], tuple(case["shape"]))
    expected = {_key_to_word(k): np.array([[complex(re, im) for re, im in row]
                                           for row in m])
                for k, m in case["terms"].items()}
    for w, m in expected.items():
        assert np.array_equal(F.coeff(w), m), f"coefficient at {w}"
    for w, _ in F.terms():
        assert w in expected, f"unexpected coefficient at {w}"


@pytest.mark.parametrize("case", GOLDEN, ids=[c["expr"] for c in GOLDEN])
def test_golden_json_roundtrip_exact(case):
    F = parse(case["expr"], case["d"], case["deg"], tuple(case["shape"]))
    G = FreeSeries.from_json(F.to_json())
    assert (G.d, G.deg, G.p, G.q) == (F.d, F.deg, F.p, F.q)
    assert np.array_equal(F.array, G.array)


def test_noncommutativity():
    F = parse("z1*z2", 2, 2)
    G = parse("z2*z1", 2, 2)
    assert np.any(F.coeff((1, 2)))
    assert not np.any(F.coeff((2, 1)))
    assert F.max_coeff_diff(G) == 1.0


def test_expansion_matches_multiply():
    F = parse("(1+z1)*(1-z1)", 1, 2)
    G = multiply(parse("1+z1", 1, 2), parse("1-z1", 1, 2))
    assert F.max_coeff_diff(G) == 0.0


def test_exact_binary_floats():
    F = parse("0.1*z1 + 0.2*z1", 1, 1)
    assert F.coeff((1,))[0, 0] == 0.1 + 0.2


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("z1 + @", 1, 2)
    assert err.value.pos == 5


def test_letter_out_of_range():
    with pytest.raises(ParseError):
        parse("z3", 2, 2)


def test_degree_overflow():
    with pytest.raises(ValueError):
        parse("z1*z1*z1", 1, 2)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse("z1 z2", 2, 2)


def test_ragged_matrix():
    with pytest.raises(ParseError):
        parse("[[1,2],[3]]", 1, 1)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse("z1^-1", 1, 3)


def test_scalar_broadcast_to_shape():
    F = parse("0.5", 2, 2, (3, 3))
    assert np.array_equal(F.coeff(()), 0.5 * np.eye(3))


# -- the term parser against the dense one ------------------------------------

def _outcome(fn, *args):
    """The coefficient array's bytes, or the error's type, text and position."""
    try:
        F = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    return F.d, F.deg, F.array.shape, F.array.tobytes()


@pytest.mark.parametrize("case", GOLDEN, ids=[c["expr"] for c in GOLDEN])
def test_golden_arrays_match_dense_parser_bitwise(case):
    args = case["expr"], case["d"], case["deg"], tuple(case["shape"])
    assert _outcome(parse, *args) == _outcome(parse_oracle, *args)


@pytest.mark.parametrize("text, d, deg", [
    ("z1*z1*z1", 1, 2), ("z1^3", 1, 2), ("(z1+z2)^2*z1", 2, 2),
    ("0*z1*z1*z1", 1, 2), ("z1", 1, 0), ("2*z2", 2, 0), ("z3", 2, 2),
    ("[[1,2]] + z1", 1, 1), ("[[1,2]]*[[1,2]]", 1, 1), ("[[1,2]]^2", 1, 1),
    ("z1^-1", 1, 3), ("z1^1.5", 1, 3), ("(z1", 1, 1), ("z1 z2", 2, 2),
    ("z1 + @", 1, 2), ("[[1,2],[3]]", 1, 1), ("[[1,z1]]", 1, 1), ("", 1, 1),
    ("z1*", 1, 1), ("-[[1,0],[0,1]]*z1 - z1*[[0,1]]", 1, 1),
])
def test_errors_match_dense_parser(text, d, deg):
    """Every error keeps its type, message and position."""
    assert _outcome(parse, text, d, deg) == _outcome(parse_oracle, text, d, deg)


SIGNS = st.sampled_from(["", "-", "+", "- -"])
DYADIC = st.sampled_from(["0", "0.5", "1", "2", "0.25", "3", "1.5"])
DECIMAL = st.floats(0, 1e3).map(repr)


@st.composite
def expressions(draw, matrix_numbers=DYADIC):
    """(text, d, deg, shape): sums, differences, products, powers and
    signs of letters, i, numbers and square matrix literals.  With matrix
    literals, every number is drawn from matrix_numbers: by default small
    dyadics, so that no dot product of two matrix factors rounds."""
    d, deg = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    size = draw(st.integers(0, 3))  # 0: no matrix literals
    number = matrix_numbers if size else DECIMAL

    def matrix():
        return "[" + ",".join(
            "[" + ",".join(draw(SIGNS)[:1] + draw(number)
                           + draw(st.sampled_from(["", "i"]))
                           for _ in range(size)) + "]"
            for _ in range(size)) + "]"

    def atom():
        kind = draw(st.sampled_from(["num", "i", "var", "var"]
                                    + ["matrix"] * bool(size)))
        return {"num": lambda: draw(number), "i": lambda: "i",
                "var": lambda: f"z{draw(st.integers(1, d))}",
                "matrix": matrix}[kind]()

    def expr(depth):
        if not depth or draw(st.integers(0, 2)) == 0:
            return atom()
        op = draw(st.sampled_from(["+", "-", "*", "*", "^", "()", "neg"]))
        a = expr(depth - 1)
        if op == "^":
            return f"({a})^{draw(st.integers(0, 3))}"
        if op in ("()", "neg"):
            return f"({'-' * (op == 'neg')}{a})"
        return f"{a} {op} {expr(depth - 1)}"

    shape = draw(st.sampled_from([(1, 1), (1, 1), (2, 2), (2, 3)]))
    return draw(SIGNS) + expr(4), d, deg, shape


@settings(max_examples=400)
@given(expressions())
def test_parser_matches_dense_parser_bitwise(case):
    assert _outcome(parse, *case) == _outcome(parse_oracle, *case)


@settings(max_examples=200)
@given(expressions(matrix_numbers=DECIMAL))
def test_matrix_products_match_dense_parser_to_rounding(case):
    """A dot product of two matrix factors that sums two or more inexact
    complex terms may round differently: BLAS rounds it by the batch
    shape, which for the dense parser depends on d and the grade.  All
    else agrees."""
    new, old = _outcome(parse, *case), _outcome(parse_oracle, *case)
    if len(old) == 3:
        assert new == old
        return
    assert new[:3] == old[:3]
    a, b = (np.frombuffer(x[3], dtype=complex) for x in (new, old))
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    assert np.allclose(a, b, rtol=0.0, atol=1e-13 * scale)
