"""Constraint-table operations: worked examples and algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prodcsp import (
    ArgumentError,
    ArityError,
    ConstraintTable,
    D0,
    D1,
    EQ,
    IMPLIES,
    IndexRangeError,
    NAND,
    OR,
    XOR,
    make_table,
    support_of,
)

weights_st = st.fractions(min_value=0, max_value=8, max_denominator=16)


def tables_st(min_arity=0, max_arity=4):
    return st.integers(min_arity, max_arity).flatmap(
        lambda k: st.lists(weights_st, min_size=1 << k, max_size=1 << k).map(
            lambda ws: ConstraintTable(k, tuple(ws))
        )
    )


class TestEvaluate:
    def test_implies_forbidden_point(self):
        assert IMPLIES.evaluate("10") == 0

    def test_eq_at_origin(self):
        assert EQ.evaluate("00") == 1

    def test_arity_zero_constant(self):
        assert make_table([Fraction(7, 2)]).evaluate("") == Fraction(7, 2)

    def test_length_mismatch(self):
        with pytest.raises(ArityError):
            EQ.evaluate("101")


class TestPermute:
    def test_implies_swapped(self):
        assert IMPLIES.permute(1, 2).weights == (1, 0, 1, 1)

    def test_symmetric_fixed_point(self):
        assert EQ.permute(1, 2) == EQ

    def test_involution(self):
        f = make_table([3, 1, 4, 1])
        assert f.permute(1, 2).permute(1, 2) == f

    def test_bad_order(self):
        with pytest.raises(ArgumentError):
            EQ.permute(2, 1)


class TestPin:
    def test_or_with_true_input(self):
        assert OR.pin(1, 1).weights == (1, 1)

    def test_implies_second_false(self):
        assert IMPLIES.pin(2, 0) == D0

    def test_eq_to_constant(self):
        assert EQ.pin(1, 0) == D0

    def test_out_of_range(self):
        with pytest.raises(IndexRangeError):
            OR.pin(3, 0)


class TestLink:
    def test_or_collapses_to_identity(self):
        assert OR.link(1, 2) == D1

    def test_xor_collapses_to_zero(self):
        assert XOR.link(1, 2).weights == (0, 0)

    def test_nand_collapses_to_negation(self):
        assert NAND.link(1, 2) == D0

    def test_equal_indices_rejected(self):
        with pytest.raises(ArgumentError):
            OR.link(1, 1)


class TestExpand:
    def test_insert_after_first(self):
        assert D1.expand(1).weights == (0, 0, 1, 1)

    def test_insert_in_front(self):
        assert D1.expand(0).weights == (0, 1, 0, 1)

    def test_pin_inverts_expand(self):
        f = make_table([2, 0, 1, 5])
        for p in range(3):
            assert f.expand(p).pin(p + 1, 0) == f
            assert f.expand(p).pin(p + 1, 1) == f

    def test_arity_zero(self):
        assert make_table([Fraction(3)]).expand(0).weights == (3, 3)


class TestMultiply:
    def test_or_times_nand_is_xor(self):
        assert OR.multiply(NAND) == XOR

    def test_all_ones_identity(self):
        f = make_table([2, 3, 5, 7])
        assert f.multiply(make_table([1, 1, 1, 1])) == f

    def test_disjoint_supports_vanish(self):
        assert EQ.multiply(XOR).weights == (0, 0, 0, 0)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            EQ.multiply(D0)


class TestMaximizeOut:
    def test_or_one_variable(self):
        assert OR.maximize_out(1).weights == (1, 1)

    def test_implies_one_variable(self):
        assert IMPLIES.maximize_out(1).weights == (1, 1)

    def test_zero_is_noop(self):
        f = make_table([1, 2, 3, 4])
        assert f.maximize_out(0) == f

    def test_too_many(self):
        with pytest.raises(ArityError):
            EQ.maximize_out(3)


class TestScale:
    def test_triple_eq(self):
        assert EQ.scale(3).weights == (3, 0, 0, 3)

    def test_support_preserved(self):
        f = make_table([0, 2, 0, 5])
        assert support_of(f.scale(Fraction(7, 3))) == support_of(f)

    def test_inverse(self):
        f = make_table([1, 2])
        assert f.scale(2).scale(Fraction(1, 2)) == f

    def test_nonpositive_rejected(self):
        with pytest.raises(ArgumentError):
            EQ.scale(0)
        with pytest.raises(ArgumentError):
            EQ.scale(-1)


class TestComplement:
    def test_nand_becomes_or(self):
        assert NAND.complement_variable(1).complement_variable(2) == OR

    def test_involution(self):
        f = make_table([1, 2, 3, 4])
        assert f.complement_variable(2).complement_variable(2) == f

    def test_pin_flip(self):
        assert D0.complement_variable(1) == D1


class TestSupport:
    def test_or_support(self):
        assert support_of(OR).indices() == (1, 2, 3)

    def test_full_support(self):
        assert support_of(make_table([1, 1, 1, 1])).is_full

    def test_empty_support(self):
        assert support_of(make_table([0, 0])).is_empty


class TestValidation:
    def test_negative_weight(self):
        with pytest.raises(ArgumentError):
            make_table([1, -1])

    def test_bad_weight_count(self):
        with pytest.raises(ArityError):
            make_table([1, 2, 3])

    def test_arity_cap(self):
        with pytest.raises(ArityError):
            ConstraintTable(17, tuple([Fraction(1)] * (1 << 17)))


@given(tables_st(max_arity=3), tables_st(max_arity=3))
def test_multiply_pointwise(f, g):
    if f.arity != g.arity:
        return
    prod = f.multiply(g)
    for idx in range(1 << f.arity):
        assert prod.weights[idx] == f.weights[idx] * g.weights[idx]


@given(tables_st(min_arity=1, max_arity=4), st.data())
def test_pin_is_substitution(f, data):
    i = data.draw(st.integers(1, f.arity))
    c = data.draw(st.integers(0, 1))
    pinned = f.pin(i, c)
    for idx in range(1 << (f.arity - 1)):
        bits = [(idx >> (f.arity - 2 - p)) & 1 for p in range(f.arity - 1)]
        assert pinned.weights[idx] == f.evaluate(bits[: i - 1] + [c] + bits[i - 1 :])


@given(tables_st(min_arity=1, max_arity=4), st.data())
def test_maximize_out_enumerates(f, data):
    d = data.draw(st.integers(0, f.arity))
    g = f.maximize_out(d)
    for idx in range(1 << (f.arity - d)):
        assert g.weights[idx] == max(
            f.weights[(idx << d) | rest] for rest in range(1 << d)
        )


def test_weights_are_stored_as_fractions_whatever_their_input_type():
    shared = Fraction(2, 3)
    table = make_table([1, "3/4", 0.5, shared])
    assert all(type(w) is Fraction for w in table.weights)
    assert table.weights == (1, Fraction(3, 4), Fraction(1, 2), Fraction(2, 3))
    assert table.weights[3] == shared
    direct = ConstraintTable(1, (2, "1/5"))
    assert all(type(w) is Fraction for w in direct.weights)
    for bad in ([1, -1], [Fraction(-1, 2), 1], ["-3", 1]):
        with pytest.raises(ArgumentError):
            make_table(bad)
    with pytest.raises(ArgumentError):
        ConstraintTable(1, (Fraction(1), Fraction(-1)))
