import json
from pathlib import Path

import numpy as np
import pytest

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
