"""Rational bookkeeping helpers."""

import math
from fractions import Fraction

import pytest

from prodcsp.ratmath import (
    format_fraction,
    frac_log2,
    frac_to_decimal_str,
    parse_weight,
)

F = Fraction


class TestFracLog2:
    def test_powers_of_two_are_exact(self):
        assert frac_log2(F(8)) == 3.0
        assert frac_log2(F(1, 4)) == -2.0
        assert frac_log2(F(1)) == 0.0

    def test_matches_math_log2_in_range(self):
        for num in (1, 3, 7, 100):
            for den in (1, 2, 9, 13):
                assert abs(frac_log2(F(num, den)) - math.log2(num / den)) < 1e-12

    def test_beyond_float_range(self):
        value = F(2**1100 * 3, 5)
        assert abs(frac_log2(value) - (1100 + math.log2(3 / 5))) < 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            frac_log2(F(0))


class TestFormatting:
    def test_fraction_text(self):
        assert format_fraction(F(3, 2)) == "3/2"
        assert format_fraction(F(6)) == "6"
        assert format_fraction(F(0)) == "0"

    def test_decimal_significant_digits(self):
        assert frac_to_decimal_str(F(1, 8)) == "0.125"
        assert frac_to_decimal_str(F(6)) == "6"
        assert frac_to_decimal_str(F(1, 3)).startswith("0.333333333333")

    def test_parse_weight_forms(self):
        assert parse_weight("3/2") == F(3, 2)
        assert parse_weight("1.5") == F(3, 2)
        assert parse_weight("2") == F(2)
