"""brute_force against a naive enumeration of the measure, on instances whose
occurring variables reach past the 6-variable low block of its vector scan."""

import gc
import random
import time
from fractions import Fraction

import pytest

from prodcsp import CspInstance, D0, D1, NAND, brute_force, instances, make_table, measure
from prodcsp.checks import suite_instances
from prodcsp.instances import int_to_assignment

F = Fraction


def naive(inst: CspInstance) -> tuple[Fraction, tuple[int, ...]]:
    """Optimum and lexicographically smallest maximizer over all 2^n
    assignments."""
    n = inst.num_vars
    value, neg_a = max(
        (measure(inst, int_to_assignment(a, n)), -a) for a in range(1 << n)
    )
    return value, int_to_assignment(-neg_a, n)


def random_table(rng: random.Random, arity: int, zero_rate: float, ties: bool):
    def weight():
        if rng.random() < zero_rate:
            return F(0)
        if ties:
            return F(rng.randint(1, 2))
        return F(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7)))

    return make_table([weight() for _ in range(1 << arity)])


def random_block_instance(rng: random.Random, m: int, unused: int) -> CspInstance:
    """An instance on m + unused variables in which exactly m occur: every
    occurring variable gets an application, some applications repeat a
    variable, and arity-0 constants ride along."""
    n = m + unused
    occurring = sorted(rng.sample(range(1, n + 1), m))
    zero_rate = rng.choice((0.0, 0.1, 0.3))
    ties = rng.random() < 0.3
    apps = []
    for v in occurring:
        k = rng.randint(1, 3)
        variables = [v] + [rng.choice(occurring) for _ in range(k - 1)]
        rng.shuffle(variables)
        apps.append((random_table(rng, k, zero_rate, ties), tuple(variables)))
    for _ in range(rng.randint(0, m)):
        k = rng.randint(1, 3) if m else 0
        apps.append((random_table(rng, k, zero_rate, ties),
                     tuple(rng.choice(occurring) for _ in range(k))))
    for _ in range(rng.randint(0, 2)):
        apps.append((random_table(rng, 0, 0.0, ties), ()))
    rng.shuffle(apps)
    return CspInstance(n, tuple(apps))


def assert_matches_naive(inst: CspInstance):
    result = brute_force(inst)
    optimum, argmax = naive(inst)
    assert result.optimum == optimum
    assert result.argmax == argmax
    assert result.method == "brute_force"


@pytest.mark.parametrize(
    "m, trials", [(0, 4), (1, 6), (5, 6), (6, 6), (7, 6), (8, 6), (9, 6), (13, 2)]
)
def test_matches_naive_across_the_block_boundary(m, trials):
    rng = random.Random(f"block:{m}")
    for _ in range(trials):
        inst = random_block_instance(rng, m, rng.randint(0, 1 if m == 13 else 2))
        occurring = {v for _, vs in inst.applications for v in vs}
        assert len(occurring) == m
        assert_matches_naive(inst)


@pytest.mark.parametrize("merge_bits", [0, 1, 2, 3])
def test_matches_naive_whatever_the_groups_merge_into(monkeypatch, merge_bits):
    """Narrow merge caps split the groups filed at one depth into several
    buckets, and cap 0 leaves every group on its own."""
    monkeypatch.setattr(instances, "_MERGE_BITS", merge_bits)
    rng = random.Random(f"merge:{merge_bits}")
    for _ in range(3):
        assert_matches_naive(random_block_instance(rng, 13, 0))


def test_all_zero_instance():
    rng = random.Random(5)
    inst = random_block_instance(rng, 10, 1)
    zero = make_table([0, 0, 0, 0], "Z")
    inst = CspInstance(inst.num_vars, inst.applications + ((zero, (2, 9)),))
    result = brute_force(inst)
    assert result.optimum == 0 and result.is_zero
    assert result.argmax == (0,) * inst.num_vars
    assert_matches_naive(inst)


@pytest.mark.parametrize("pin_high, pin_low", [(D1, D0), (D0, D1), (D1, D1)],
                         ids=["high1-low0", "high0-low1", "high1-low1"])
def test_pins_on_a_high_and_a_low_block_variable(pin_high, pin_low):
    rng = random.Random(f"pins:{pin_high.name}{pin_low.name}")
    for _ in range(3):
        inst = random_block_instance(rng, 11, 0)
        # x1 has rank 0 (high block); x11 is among the last 6 (low block).
        inst = CspInstance(inst.num_vars, inst.applications
                           + ((pin_high, (1,)), (pin_low, (11,))))
        assert_matches_naive(inst)
        result = brute_force(inst)
        if not result.is_zero:
            assert result.argmax[0] == (pin_high is D1)
            assert result.argmax[10] == (pin_low is D1)


def test_contradictory_pins_on_each_block():
    rng = random.Random(8)
    for var in (1, 12):  # high block, then low block
        inst = random_block_instance(rng, 12, 0)
        inst = CspInstance(12, inst.applications + ((D0, (var,)), (D1, (var,))))
        result = brute_force(inst)
        assert result.optimum == 0
        assert result.argmax == (0,) * 12


def test_leaves_no_reference_cycle():
    inst = random_block_instance(random.Random(12), 12, 0)
    gc.collect()
    gc.disable()
    try:
        brute_force(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_all_zero_subtree_is_skipped():
    """A 60-variable NAND chain with x1 pinned both ways: every assignment
    scores 0, which the scan learns at the first high variable."""
    apps = tuple((NAND, (v, v + 1)) for v in range(1, 60)) + ((D0, (1,)), (D1, (1,)))
    inst = CspInstance(60, apps)
    start = time.perf_counter()
    result = brute_force(inst, max_n=60)
    assert time.perf_counter() - start < 1.0
    assert result.optimum == 0
    assert result.argmax == (0,) * 60


def test_instances_check_suite_passes():
    """`prodcsp check --suite instances`, whose last item compares brute_force
    with the measure enumeration at n 9-11."""
    assert [r.name for r in suite_instances() if not r.passed] == []
