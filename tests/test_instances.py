"""Instance model, exhaustive solver, ratio rule, and generators."""

import copy
import random
from fractions import Fraction

import pytest

from prodcsp import (
    ArgumentError,
    ArityError,
    CapExceededError,
    CspInstance,
    D0,
    D1,
    EQ,
    NAND,
    XOR,
    approx_scheme,
    brute_force,
    check_ratio,
    cut_to_prod,
    hill_climb,
    measure,
    make_table,
    random_instance,
)
from prodcsp.formats import render_instance
from prodcsp.gen import random_ed_constraint
from prodcsp.graphs import GraphInstance
from prodcsp.instances import int_to_assignment

F = Fraction


def ed_example() -> CspInstance:
    u1 = make_table([1, 3], "U1")
    u3 = make_table([2, 1], "U3")
    return CspInstance(3, ((EQ, (1, 2)), (XOR, (2, 3)), (u1, (1,)), (u3, (3,))))


class TestMeasure:
    def test_worked_example_optimum_point(self):
        assert measure(ed_example(), (1, 1, 0)) == 6

    def test_worked_example_other_point(self):
        assert measure(ed_example(), (0, 0, 1)) == 1

    def test_empty_instance_is_one(self):
        assert measure(CspInstance(4, ()), (0, 1, 1, 0)) == 1

    def test_zero_factor_zeroes_all(self):
        inst = CspInstance(1, ((D0, (1,)), (D1, (1,))))
        assert measure(inst, (0,)) == 0 and measure(inst, (1,)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ArityError):
            measure(ed_example(), (0, 1))

    def test_repeated_variable_is_a_link(self):
        inst = CspInstance(1, ((XOR, (1, 1)),))
        assert measure(inst, (0,)) == 0 and measure(inst, (1,)) == 0

    def test_order_independence(self):
        inst = ed_example()
        rng = random.Random(0)
        apps = list(inst.applications)
        rng.shuffle(apps)
        shuffled = CspInstance(3, tuple(apps))
        for a in range(8):
            bits = int_to_assignment(a, 3)
            assert measure(inst, bits) == measure(shuffled, bits)


class TestBruteForce:
    def test_worked_example(self):
        result = brute_force(ed_example())
        assert result.optimum == 6 and result.argmax == (1, 1, 0)
        assert result.method == "brute_force"

    def test_nand_tie_breaks_lexicographically(self):
        result = brute_force(CspInstance(2, ((NAND, (1, 2)),)))
        assert result.optimum == 1 and result.argmax == (0, 0)

    def test_contradictory_pins_zero(self):
        result = brute_force(CspInstance(1, ((D0, (1,)), (D1, (1,)))))
        assert result.optimum == 0 and result.argmax == (0,)
        assert result.is_zero and result.log2 is None

    def test_log2_for_positive_optimum(self):
        result = brute_force(ed_example())
        assert not result.is_zero
        assert abs(result.log2 - 2.584962500721156) < 1e-12

    def test_cap_refusal(self):
        with pytest.raises(CapExceededError):
            brute_force(CspInstance(30, ()), max_n=24)

    def test_parallel_partitions_are_deterministic(self):
        rng = random.Random(4)
        tie = make_table([1, 1, 1, 1], "TIE")
        for trial in range(10):
            pool = [tie, random_ed_constraint(rng, 2, f"E{trial}")]
            inst = random_instance(6, pool, 5, trial)
            solo = brute_force(inst, workers=1)
            eight = brute_force(inst, workers=8)
            assert (solo.optimum, solo.argmax) == (eight.optimum, eight.argmax)

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(9)
        for trial in range(25):
            n = rng.randint(1, 6)
            pool = [
                make_table(
                    [F(rng.randint(0, 8), rng.randint(1, 5)) for _ in range(4)],
                    f"R{trial}",
                ),
                make_table([F(rng.randint(0, 5)), F(rng.randint(0, 5))], f"u{trial}"),
            ]
            inst = random_instance(n, pool, rng.randint(0, 7), trial)
            naive = max(
                (measure(inst, int_to_assignment(a, n)), -a) for a in range(1 << n)
            )
            result = brute_force(inst)
            assert result.optimum == naive[0]
            assert result.argmax == int_to_assignment(-naive[1], n)

    def test_scaling_one_application(self):
        inst = ed_example()
        base = brute_force(inst)
        apps = list(inst.applications)
        table, variables = apps[0]
        apps[0] = (table.scale(F(5, 3)), variables)
        scaled = brute_force(CspInstance(3, tuple(apps)))
        assert scaled.optimum == base.optimum * F(5, 3)
        assert scaled.argmax == base.argmax


class TestCheckRatio:
    def test_within_factor_two(self):
        assert check_ratio(F(6), F(3), 2)

    def test_outside_factor_two(self):
        assert not check_ratio(F(6), F(1), 2)

    def test_zero_rule(self):
        assert check_ratio(F(0), F(0), 5)
        assert not check_ratio(F(0), F(1), 5)

    def test_exact_value_at_tiny_eps(self):
        assert check_ratio(F(6), F(6), 2 ** 0.1)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ArgumentError):
            check_ratio(F(1), F(1), 0.5)


class TestApproxScheme:
    def test_exact_strategy_matches_brute_force(self):
        inst = ed_example()
        bits = approx_scheme(inst, 0.25, "exact")
        assert bits == brute_force(inst).argmax

    def test_hill_climb_with_full_restart_coverage(self):
        inst = ed_example()
        bits = approx_scheme(inst, 0.25, "hill", seed=9, restarts=8)
        assert measure(inst, bits) == 6

    def test_eps_range_enforced(self):
        with pytest.raises(ArgumentError):
            approx_scheme(ed_example(), 0, "exact")
        with pytest.raises(ArgumentError):
            approx_scheme(ed_example(), 1, "exact")

    def test_ratio_harness(self):
        inst = ed_example()
        eps = 0.1
        value = measure(inst, approx_scheme(inst, eps, "exact"))
        assert check_ratio(brute_force(inst).optimum, value, 2**eps)


class TestGenerators:
    def test_seeded_generation_is_bit_identical(self):
        pool = [EQ, NAND]
        a = random_instance(6, pool, 12, 77)
        b = random_instance(6, pool, 12, 77)
        assert render_instance(a) == render_instance(b)

    def test_zero_applications(self):
        inst = random_instance(4, [EQ], 0, 1)
        assert brute_force(inst).optimum == 1

    def test_empty_pool_rejected(self):
        with pytest.raises(ArgumentError):
            random_instance(3, [], 2, 0)


class TestCutWeighting:
    def test_single_edge(self):
        g = GraphInstance("IS", 2, ((1, 2),), (F(1), F(1)))
        inst = cut_to_prod(g)
        values = {bits: measure(inst, bits) for bits in
                  [(0, 0), (0, 1), (1, 0), (1, 1)]}
        assert values[(0, 1)] == values[(1, 0)] == 2
        assert values[(0, 0)] == values[(1, 1)] == 1
        assert brute_force(inst).optimum == 2

    def test_cut_size_is_the_exponent(self):
        g = GraphInstance("IS", 4, ((1, 2), (2, 3), (3, 4), (4, 1)), (F(1),) * 4)
        inst = cut_to_prod(g)
        for a in range(16):
            bits = int_to_assignment(a, 4)
            cut = sum(1 for u, v in g.edges if bits[u - 1] != bits[v - 1])
            assert measure(inst, bits) == F(2) ** cut

    def test_optimum_matches_max_cut(self):
        g = GraphInstance("IS", 3, ((1, 2), (2, 3), (1, 3)), (F(1),) * 3)
        assert brute_force(cut_to_prod(g)).optimum == 4  # best cut has 2 edges


class TestApplicationRule:
    """CspInstance converts and checks every application itself."""

    def test_arity_mismatch_raises_arity_error(self):
        with pytest.raises(ArityError, match="EQ has arity 2, applied to 1"):
            CspInstance(3, ((EQ, (1,)),))
        with pytest.raises(ArityError):
            CspInstance(3, ((EQ, (1, 2)), (D0, (1, 2))))

    @pytest.mark.parametrize("bad", [0, 4])
    def test_index_out_of_range_names_the_index(self, bad):
        with pytest.raises(ArgumentError, match=f"variable index {bad} out of range 1..3"):
            CspInstance(3, ((EQ, (1, 2)), (XOR, (2, bad))))

    def test_non_integer_index_is_refused(self):
        with pytest.raises(ArgumentError, match="bad variable index 'x'"):
            CspInstance(3, ((EQ, ("1", "x")),))

    def test_int_like_indices_become_int_tuples(self):
        inst = CspInstance(3, [(EQ, [1, 2]), (XOR, ("3", "1")), (NAND, (True, F(3))),
                               (D1, range(2, 3))])
        assert [vs for _, vs in inst.applications] == [(1, 2), (3, 1), (1, 3), (2,)]
        assert all(type(vs) is tuple for _, vs in inst.applications)
        assert all(type(v) is int for _, vs in inst.applications for v in vs)
        assert inst == CspInstance(3, ((EQ, (1, 2)), (XOR, (3, 1)), (NAND, (1, 3)), (D1, (2,))))

    def test_negative_variable_count_is_refused(self):
        with pytest.raises(ArgumentError):
            CspInstance(-1, ())

    def test_table_names_survive_a_deep_copy(self):
        # named_tables is cached per instance and keyed by table ids; a copy
        # has new tables and must name them afresh.
        inst = ed_example()
        names, _ = inst.named_tables()
        clone = copy.deepcopy(inst)
        clone_names, _ = clone.named_tables()
        assert sorted(clone_names.values()) == sorted(names.values())
        assert set(clone_names) == {id(t) for t, _ in clone.applications}
