"""Weights past the interpreter's 4300-digit str-to-int limit parse, so what
`format_fraction` prints can be read back; a decimal exponent past 4300 is
refused before any conversion."""

import time
from fractions import Fraction

import pytest

from prodcsp.cli import main
from prodcsp.errors import ParseError
from prodcsp.formats import parse_constraints
from prodcsp.ratmath import format_fraction, parse_weight


def test_long_integer_round_trips():
    value = Fraction(7 * 10**5000 + 3)  # 5001 digits
    text = format_fraction(value)
    assert len(text) == 5001
    assert parse_weight(text) == value


def test_long_fraction_round_trips():
    value = Fraction(10**4999 + 1, 3 * 10**4999 + 7)  # 5000-digit parts
    text = format_fraction(value)
    assert parse_weight(text) == value


@pytest.mark.parametrize("token", ["-1", "nan", "inf", "abc", "1/-2", "1" * 5000 + "x"])
def test_rejected_tokens_still_fail(token):
    with pytest.raises(ParseError):
        parse_constraints(f"constraint U 1\n1 {token}\n")


def test_solve_prints_a_long_weight_optimum(tmp_path, capsys):
    big = "1" + "0" * 5000
    path = tmp_path / "i.txt"
    path.write_text(f"vars 1\nconstraint U 1\n1 {big}\napply U 1\n")
    assert main(["--machine", "solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"optimum: {big}\n" in out
    assert "argmax: 1\n" in out


@pytest.mark.parametrize("token", ["1e100000000", "1e-10000000", "2E4301", "1e0_100_000"])
def test_huge_decimal_exponent_exits_2_fast(tmp_path, capsys, token):
    path = tmp_path / "c.txt"
    path.write_text(f"constraint U 1\n1 {token}\n")
    start = time.perf_counter()
    code = main(["classify", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "bad weight" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["1e300", "2.5e-3", "3/2", "1e4300", "7E-4300", "1e0004300"])
def test_weights_within_the_exponent_cap_parse_as_before(token):
    assert parse_weight(token) == Fraction(token)


def test_a_long_pq_token_parses_as_before():
    num, den = 10**4400 + 7, 3 * 10**4300 + 1
    token = f"{format_fraction(Fraction(num))}/{format_fraction(Fraction(den))}"
    assert len(token) > 4300
    assert parse_weight(token) == Fraction(num, den)
