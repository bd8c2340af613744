"""The enumeration oracles' internals: exact linear algebra and mask tables."""

import random
from fractions import Fraction

from prodcsp import EQ, IMPLIES, NAND, OR, XOR, make_table
from prodcsp.oracles import (
    _ed_masks,
    _imp_masks,
    affine_by_equation_enumeration,
    dyadic_log2,
    fm_feasible,
    integer_kernel,
    oracle_degenerate,
    oracle_ed,
    oracle_imopt,
    product_identities_hold,
    rectangle_condition_holds,
)

F = Fraction
ONE = F(1)


class TestExactLinearAlgebra:
    def test_kernel_of_dependent_rows(self):
        kernel = integer_kernel([[ONE, ONE], [F(2), F(2)]])
        assert len(kernel) == 1
        y = kernel[0]
        assert y[0] + y[1] == 0 and y[0] != 0

    def test_kernel_of_full_rank(self):
        assert integer_kernel([[ONE, F(0)], [F(0), ONE]]) == []

    def test_product_identities_detect_inconsistency(self):
        # u + v = log 2 and u + v = log 3 cannot both hold
        rows = [[ONE, ONE], [ONE, ONE]]
        assert not product_identities_hold([F(2), F(3)], rows)
        assert product_identities_hold([F(2), F(2)], rows)

    def test_fm_feasibility_signs(self):
        # a free, c <= 0: a + c = -1 is feasible (a=0, c=-1)
        eqs = [([ONE, ONE], F(-1))]
        assert fm_feasible(eqs, {1}, 2)
        # c <= 0 alone: c = 1 is infeasible
        eqs = [([F(0), ONE], F(1))]
        assert not fm_feasible(eqs, {1}, 2)

    def test_fm_two_sign_variables(self):
        # c1 + c2 = -2, both <= 0: feasible
        assert fm_feasible([([ONE, ONE], F(-2))], {0, 1}, 2)
        # c1 + c2 = 1, both <= 0: infeasible
        assert not fm_feasible([([ONE, ONE], F(1))], {0, 1}, 2)

    def test_dyadic_log2(self):
        assert dyadic_log2(F(8)) == 3
        assert dyadic_log2(F(1, 4)) == -2
        import pytest

        with pytest.raises(Exception):
            dyadic_log2(F(3))


class TestMaskTables:
    def test_parity_masks_contain_the_classics(self):
        masks = _ed_masks(2)
        assert EQ.support().mask in masks
        assert XOR.support().mask in masks
        assert OR.support().mask not in masks

    def test_implication_masks(self):
        masks = _imp_masks(2)
        assert IMPLIES.support().mask in masks
        assert XOR.support().mask not in masks
        assert NAND.support().mask not in masks


class TestDualRouteAtArityFour:
    """The float-LP decider route and the exact Fourier-Motzkin oracle route
    agree beyond the exhaustive arity-3 grid."""

    @staticmethod
    def _random_imp_shaped_table(rng):
        k = 4
        while True:
            pins = [rng.choice((None, None, 0, 1)) for _ in range(k)]
            imps = [
                (r, s)
                for r in range(1, k + 1)
                for s in range(1, k + 1)
                if r != s and rng.random() < 0.25
            ]
            points = []
            for idx in range(1 << k):
                bit = lambda v: (idx >> (k - v)) & 1
                if any(pins[v - 1] is not None and bit(v) != pins[v - 1]
                       for v in range(1, k + 1)):
                    continue
                if any(bit(r) == 1 and bit(s) == 0 for r, s in imps):
                    continue
                points.append(idx)
            if points and len(points) < (1 << k):
                weights = [F(0)] * (1 << k)
                for p in points:
                    weights[p] = F(2) ** rng.randint(-2, 2)
                return make_table(weights)

    def test_lp_and_fm_agree(self):
        from prodcsp import has_imp_support, is_imopt
        from prodcsp.membership import _bit, _support_points

        def fm_value_side(table):
            k = table.arity
            pts = _support_points(k, table.support().mask)
            pairs = [
                (r, s)
                for r in range(1, k + 1)
                for s in range(1, k + 1)
                if r != s
            ]
            nvar = 1 + k + len(pairs)
            eqs = []
            for p in pts:
                row = [F(0)] * nvar
                row[0] = ONE
                for v in range(1, k + 1):
                    row[v] = F(_bit(p, v, k))
                for t, (r, s) in enumerate(pairs):
                    row[1 + k + t] = F(_bit(p, r, k) * (1 - _bit(p, s, k)))
                eqs.append((row, F(dyadic_log2(table.weights[p]))))
            return fm_feasible(eqs, set(range(1 + k, nvar)), nvar)

        rng = random.Random(99)
        members = 0
        for _ in range(60):
            table = self._random_imp_shaped_table(rng)
            assert has_imp_support(table)
            lp = is_imopt(table) is not None
            fm = fm_value_side(table)
            assert lp == fm
            members += lp
        assert 0 < members < 60  # both outcomes exercised


class TestOracleSpotChecks:
    def test_named_relations(self):
        assert not oracle_degenerate(EQ)
        assert oracle_ed(EQ) and oracle_ed(XOR)
        assert not oracle_ed(IMPLIES)
        assert oracle_imopt(IMPLIES) and oracle_imopt(EQ)
        assert not oracle_imopt(XOR) and not oracle_imopt(OR)

    def test_rectangles_on_rank_one(self):
        assert rectangle_condition_holds(make_table([2, 4, 3, 6]))
        assert not rectangle_condition_holds(EQ)

    def test_affine_enumeration_matches_span_test(self):
        rng = random.Random(0)
        from prodcsp import has_affine_support

        for _ in range(200):
            k = rng.randint(0, 4)
            t = make_table([rng.choice([0, 1]) for _ in range(1 << k)])
            assert affine_by_equation_enumeration(t) == has_affine_support(t)
