"""The integer form of a table: ints `nums` over one positive `den` in lowest
terms, the support mask read once, a size limit on the form, weight strings
parsed with the exponent cap, and bounded support caches."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prodcsp import membership
from prodcsp.cli import main
from prodcsp.errors import ArgumentError
from prodcsp.tables import MAX_TABLE_BITS, ConstraintTable, make_table

weights_st = st.fractions(min_value=0, max_value=8, max_denominator=16)


def tables_st(min_arity=0, max_arity=4):
    return st.integers(min_arity, max_arity).flatmap(
        lambda k: st.lists(weights_st, min_size=1 << k, max_size=1 << k).map(
            lambda ws: ConstraintTable(k, tuple(ws))
        )
    )


def assert_normal(t: ConstraintTable):
    assert t.den > 0 and all(x >= 0 for x in t.nums)
    assert math.gcd(t.den, *t.nums) == 1
    if not any(t.nums):
        assert t.den == 1
    ws = t.weights
    assert t.mask == sum(1 << i for i, w in enumerate(ws) if w != 0)
    rebuilt = ConstraintTable(t.arity, ws)
    assert rebuilt == t and hash(rebuilt) == hash(t)
    assert (rebuilt.den, rebuilt.nums) == (t.den, t.nums)


def operations(t: ConstraintTable, data) -> list[ConstraintTable]:
    """The results of every table operation on t, arguments drawn from data."""
    k = t.arity
    out = [
        t.expand(data.draw(st.integers(0, k))),
        t.maximize_out(data.draw(st.integers(0, k))),
        t.scale(data.draw(st.fractions(min_value=Fraction(1, 9), max_value=9))),
        t.multiply(ConstraintTable(k, data.draw(st.lists(weights_st, min_size=1 << k,
                                                         max_size=1 << k)))),
        t.complement_all(),
        t.with_name("g"),
    ]
    if k >= 1:
        i = data.draw(st.integers(1, k))
        out += [t.pin(i, data.draw(st.integers(0, 1))), t.complement_variable(i)]
    if k >= 2:
        i, j = sorted(data.draw(st.lists(st.integers(1, k), min_size=2, max_size=2,
                                         unique=True)))
        out += [t.permute(i, j), t.link(i, j), t.link(j, i)]
    return out


@settings(max_examples=60)
@given(tables_st(), st.data())
def test_random_tables_and_every_operation_are_in_normal_form(t, data):
    assert_normal(t)
    for result in operations(t, data):
        assert_normal(result)


def test_all_zero_tables_have_denominator_one():
    for t in (make_table([0, 0]), make_table([Fraction(1, 3), 0]).pin(1, 1),
              make_table([Fraction(2, 7), 0, 0, 0]).maximize_out(1).pin(1, 1)):
        assert not any(t.nums) and t.den == 1 and t.mask == 0


def test_one_weight_in_three_spellings_gives_one_table():
    tables = [make_table([1, w]) for w in ("1/2", 0.5, Fraction(2, 4))]
    assert tables[0] == tables[1] == tables[2]
    assert {hash(t) for t in tables} == {hash(tables[0])}
    assert (tables[0].den, tables[0].nums) == (2, (2, 1))


@pytest.mark.parametrize("build", [
    lambda: make_table(["1e1000000", 1]),
    lambda: ConstraintTable(1, ("1e10000000", 1)),
])
def test_a_huge_decimal_exponent_is_refused_at_once(build):
    start = time.perf_counter()
    with pytest.raises(ArgumentError):
        build()
    assert time.perf_counter() - start < 1.0


def test_weight_strings_in_range_still_build():
    t = make_table([1, "3/4", 0.5, "2.5e-3"])
    assert t.weights == (1, Fraction(3, 4), Fraction(1, 2), Fraction(1, 400))
    with pytest.raises(ArgumentError):
        make_table(["abc", 1])


def _primes(count: int) -> list[int]:
    sieve = bytearray([1]) * 200_000
    sieve[:2] = b"\0\0"
    for i in range(2, 448):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, v in enumerate(sieve) if v][:count]


def _coprime_block(arity: int) -> str:
    return f"constraint H {arity}\n" + " ".join(f"1/{p}" for p in _primes(1 << arity)) + "\n"


@pytest.mark.parametrize("command", ["classify", "eval"])
def test_a_table_past_the_size_limit_exits_2_quickly(tmp_path, capsys, command):
    """Arity 14 over 16 384 distinct prime denominators: its ints would take
    about 4.3e9 bits, past MAX_TABLE_BITS."""
    block = _coprime_block(14)
    path = tmp_path / "h.txt"
    if command == "classify":
        path.write_text(block)
        argv = ["classify", str(path)]
    else:
        path.write_text(f"vars 14\n{block}apply H {' '.join(map(str, range(1, 15)))}\n")
        argv = ["eval", str(path), "--assign", "0" * 14]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    assert "exceeds" in capsys.readouterr().err


def test_a_table_within_the_size_limit_builds():
    """Arity 12 over 4 096 distinct prime denominators fits."""
    ps = _primes(1 << 12)
    t = make_table([Fraction(1, p) for p in ps])
    assert t.den.bit_length() << 12 <= MAX_TABLE_BITS
    assert t.value_at(5) == Fraction(1, ps[5])
    with pytest.raises(ArgumentError):
        make_table([Fraction(1, p) for p in _primes(1 << 14)])


def test_support_caches_stay_within_their_bound():
    bound = membership.SUPPORT_CACHE_SIZE
    for mask in range(1, bound + 200):  # distinct arity-4 supports
        membership.memberships(ConstraintTable(4, [(mask >> i) & 1 for i in range(16)]))
    caches = [fn for fn in vars(membership).values() if hasattr(fn, "cache_info")]
    assert len(caches) == 9
    for fn in caches:
        assert fn.cache_info().maxsize == bound
        assert fn.cache_info().currsize <= bound
