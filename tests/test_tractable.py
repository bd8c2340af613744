"""Parity-component solver: worked examples and oracle equivalence."""

import random
from fractions import Fraction

import pytest

from prodcsp import (
    CertificateError,
    CspInstance,
    EQ,
    XOR,
    brute_force,
    certify_instance,
    make_table,
    measure,
    random_af_constraint,
    random_ed_constraint,
    random_instance,
    solve_tractable,
)
from prodcsp.tractable import ParityUnionFind

F = Fraction


def ed_example() -> CspInstance:
    u1 = make_table([1, 3], "U1")
    u3 = make_table([2, 1], "U3")
    return CspInstance(3, ((EQ, (1, 2)), (XOR, (2, 3)), (u1, (1,)), (u3, (3,))))


class TestParityUnionFind:
    def test_parity_chain(self):
        uf = ParityUnionFind(4)
        assert uf.union(1, 2, 1)
        assert uf.union(2, 3, 1)
        r1, p1 = uf.find(1)
        r3, p3 = uf.find(3)
        assert r1 == r3 and p1 == p3  # x1 = x3 through two flips

    def test_contradiction(self):
        uf = ParityUnionFind(3)
        assert uf.union(1, 2, 0)
        assert not uf.union(1, 2, 1)


class TestSolveTractable:
    def test_worked_example(self):
        inst = ed_example()
        result = solve_tractable(inst, certify_instance(inst))
        assert result.optimum == 6
        assert result.method == "parity_components"
        assert measure(inst, result.argmax) == 6

    def test_parity_contradiction(self):
        inst = CspInstance(2, ((EQ, (1, 2)), (XOR, (1, 2))))
        result = solve_tractable(inst, certify_instance(inst))
        assert result.optimum == 0 and result.argmax == (0, 0)

    def test_two_point_support(self):
        table = make_table([1, 0, 0, 0, 0, 0, 0, 2], "T")
        inst = CspInstance(3, ((table, (1, 2, 3)),))
        result = solve_tractable(inst, certify_instance(inst))
        assert result.optimum == 2 and result.argmax == (1, 1, 1)

    def test_missing_certificate_refused(self):
        inst = ed_example()
        with pytest.raises(CertificateError):
            solve_tractable(inst, {})

    def test_repeated_variable_link(self):
        inst = CspInstance(1, ((XOR, (1, 1)),))
        result = solve_tractable(inst, certify_instance(inst))
        assert result.optimum == 0

    def test_empty_instance(self):
        inst = CspInstance(3, ())
        result = solve_tractable(inst, {})
        assert result.optimum == 1 and result.argmax == (0, 0, 0)

    def test_arity_zero_constant_needs_no_certificate(self):
        five = make_table([F(5)], "FIVE")
        inst = CspInstance(1, ((five, ()), (EQ, (1, 1))))
        result = solve_tractable(inst, certify_instance(inst))
        assert result.optimum == 5


class TestOracleEquivalence:
    def test_random_sweep(self):
        rng = random.Random(0)
        for trial in range(60):
            pool = []
            for i in range(3):
                arity = rng.randint(1, 3)
                if rng.random() < 0.5:
                    pool.append(random_ed_constraint(rng, arity, f"E{trial}_{i}"))
                else:
                    pool.append(random_af_constraint(rng, arity, f"A{trial}_{i}"))
            n = rng.randint(1, 10)
            inst = random_instance(n, pool, rng.randint(0, 12), 1000 + trial)
            certs = certify_instance(inst)
            assert certs is not None
            fast = solve_tractable(inst, certs)
            slow = brute_force(inst)
            assert fast.optimum == slow.optimum
            assert measure(inst, fast.argmax) == fast.optimum

    def test_zero_heavy_instances(self):
        rng = random.Random(1)
        d0 = make_table([1, 0], "P0")
        d1 = make_table([0, 1], "P1")
        for trial in range(30):
            pool = [EQ, XOR, d0, d1]
            inst = random_instance(rng.randint(1, 6), pool, rng.randint(1, 8), trial)
            certs = certify_instance(inst)
            fast = solve_tractable(inst, certs)
            slow = brute_force(inst)
            assert fast.optimum == slow.optimum
            if fast.optimum == 0:
                assert fast.argmax == (0,) * inst.num_vars
