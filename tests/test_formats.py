"""Text formats: round trips and line-numbered errors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prodcsp import CspInstance, EQ, ParseError, XOR, make_table
from prodcsp.construct import replay
from prodcsp.formats import (
    parse_assignment,
    parse_constraints,
    parse_graph,
    parse_instance,
    parse_script,
    render_constraint,
    render_graph,
    render_instance,
)
from prodcsp.gen import random_graph

weights_st = st.fractions(min_value=0, max_value=20, max_denominator=64)


@given(st.integers(0, 4).flatmap(
    lambda k: st.lists(weights_st, min_size=1 << k, max_size=1 << k)
))
def test_constraint_round_trip_exact(ws):
    table = make_table(ws, "T")
    parsed = parse_constraints(render_constraint(table))["T"]
    assert parsed == table  # exact rational equality


def test_decimal_weights_parse_exactly():
    tables = parse_constraints("constraint A 1\n1.5 0.125\n")
    assert tables["A"].weights == (Fraction(3, 2), Fraction(1, 8))


def test_rational_weights():
    tables = parse_constraints("constraint A 1\n3/2 0\n")
    assert tables["A"].weights == (Fraction(3, 2), 0)


def test_reserved_names_rejected():
    with pytest.raises(ParseError) as info:
        parse_constraints("constraint OR 2\n0 1 1 1\n")
    assert info.value.line == 1


def test_weight_count_enforced():
    with pytest.raises(ParseError):
        parse_constraints("constraint A 2\n1 2 3\n")


def test_bad_weight_line_number():
    with pytest.raises(ParseError) as info:
        parse_constraints("constraint A 1\n\n1 oops\n")
    assert info.value.line == 3


def test_instance_round_trip():
    u = make_table([1, Fraction(1, 3)], "U")
    inst = CspInstance(3, ((EQ, (1, 2)), (XOR, (2, 3)), (u, (3,)), (u, (1,))))
    back = parse_instance(render_instance(inst))
    assert back.num_vars == 3
    assert [(t.weights, v) for t, v in back.applications] == [
        (t.weights, v) for t, v in inst.applications
    ]


def test_instance_errors():
    with pytest.raises(ParseError):
        parse_instance("apply EQ 1 2\n")  # before vars
    with pytest.raises(ParseError):
        parse_instance("vars 2\napply EQ 1 3\n")  # out of range
    with pytest.raises(ParseError):
        parse_instance("vars 2\napply EQ 1\n")  # arity mismatch
    with pytest.raises(ParseError):
        parse_instance("vars 2\napply NOPE 1 2\n")  # unknown name
    with pytest.raises(ParseError):
        parse_instance("vars 2\nvars 3\n")


def test_graph_round_trip_all_kinds():
    for kind, seed in (("IS", 3), ("BIS", 4), ("FLOW", 5)):
        g = random_graph(kind, 7, seed)
        assert parse_graph(render_graph(g)) == g


def test_graph_defaults_and_errors():
    g = parse_graph("graph IS 3 1\nedge 1 2\n")
    assert g.weights == (1, 1, 1)
    g = parse_graph("graph FLOW 2 1\nedge 1 2\n")
    assert g.rates == (1,)
    with pytest.raises(ParseError):
        parse_graph("graph IS 2 2\nedge 1 2\n")  # edge count mismatch
    with pytest.raises(ParseError):
        parse_graph("graph IS 2 1\nedge 1 2 5\n")  # rate on a non-FLOW edge
    with pytest.raises(ParseError):
        parse_graph("graph FLOW 2 1\nedge 1 2 1/2\n")  # rate below 1
    with pytest.raises(ParseError):
        parse_graph("graph BIS 2 1\nblock 1 0\nblock 2 0\nedge 1 2\n")


def test_script_round_trip():
    text = "from OR\nmul NAND\nperm 1 2\npin 1 0\nscale 3/2\n"
    script = parse_script(text)
    assert script.source == "OR"
    assert script.accumulated_scale == Fraction(3, 2)
    assert replay(script).arity == 1
    with pytest.raises(ParseError):
        parse_script("mul NAND\n")  # missing from line
    with pytest.raises(ParseError):
        parse_script("from OR\nscale 0\n")


def test_assignment_parsing():
    assert parse_assignment("0110", 4) == (0, 1, 1, 0)
    with pytest.raises(ParseError):
        parse_assignment("012", 3)
    with pytest.raises(ParseError):
        parse_assignment("01", 3)


# A ~15 000-line instance with one faulty line (and, in the second test, a
# different fault further down): the first faulty line must be reported.
LARGE_N = 5000
LARGE_LINES = 15_000
FAULTS = ("out_of_range", "non_integer", "arity", "unknown_name", "apply_in_open_block",
          "second_vars")


def _large_instance_lines() -> list[str]:
    rng = random.Random(17)
    lines = [f"vars {LARGE_N}", "constraint U 1", "1 3/2"]
    while len(lines) < LARGE_LINES:
        name, arity = rng.choice((("EQ", 2), ("XOR", 2), ("U", 1), ("NAND", 2)))
        idx = " ".join(str(rng.randint(1, LARGE_N)) for _ in range(arity))
        lines.append(f"apply {name} {idx}")
    return lines


def _put_fault(lines: list[str], kind: str, lineno: int) -> None:
    """Make line `lineno` (1-based) the faulty one."""
    faulty = {
        "out_of_range": f"apply EQ 1 {LARGE_N + 1}",
        "non_integer": "apply EQ 1 two",
        "arity": "apply EQ 1 2 3",
        "unknown_name": "apply NOPE 1 2",
        "apply_in_open_block": "apply XOR 3 4  # the block above has 2 of 4 weights",
        "second_vars": f"vars {LARGE_N}",
    }[kind]
    lines[lineno - 1] = faulty
    if kind == "apply_in_open_block":
        lines[lineno - 3] = f"constraint Q{lineno} 2"
        lines[lineno - 2] = "1 1"


def _error_line(lines: list[str]) -> int:
    with pytest.raises(ParseError) as info:
        parse_instance("\n".join(lines) + "\n")
    return info.value.line


def test_large_instance_parses():
    inst = parse_instance("\n".join(_large_instance_lines()) + "\n")
    assert inst.num_vars == LARGE_N and len(inst.applications) == LARGE_LINES - 3


@pytest.mark.parametrize("kind", FAULTS)
def test_error_deep_in_a_large_file_reports_its_line(kind):
    lines = _large_instance_lines()
    _put_fault(lines, kind, 12_345)
    assert _error_line(lines) == 12_345


@pytest.mark.parametrize("kind", FAULTS)
def test_first_faulty_line_wins_over_a_later_one(kind):
    later = FAULTS[(FAULTS.index(kind) + 1) % len(FAULTS)]
    lines = _large_instance_lines()
    _put_fault(lines, kind, 7_001)
    _put_fault(lines, later, 13_001)
    assert _error_line(lines) == 7_001


def test_comments_and_blank_lines_keep_line_numbers():
    text = "# header\nvars 3\n\napply EQ 1 2  # a link\n   \napply XOR 2 9\n"
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line == 6 and "variable index 9 out of range 1..3" in str(info.value)
