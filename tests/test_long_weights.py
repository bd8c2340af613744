"""Weights past the interpreter's 4300-digit str-to-int limit parse, so what
`format_fraction` prints can be read back."""

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
