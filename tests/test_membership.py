"""Class deciders: worked examples, certificate soundness, inclusions."""

import random
from fractions import Fraction

import pytest

from prodcsp import (
    D0,
    DomainError,
    EQ,
    IMPLIES,
    NAND,
    OR,
    XOR,
    binary_witness_search,
    certificate_matches,
    has_affine_support,
    has_imp_support,
    is_af,
    is_degenerate,
    is_ed,
    is_imopt,
    is_nonzero,
    log_expansion,
    make_table,
    memberships,
    random_positive_quadruple,
)
from prodcsp.construct import replay
from prodcsp.oracles import affine_by_equation_enumeration, rectangle_condition_holds

F = Fraction


class TestIsNonzero:
    def test_nand_has_a_zero(self):
        assert not is_nonzero(NAND)

    def test_positive_table(self):
        assert is_nonzero(make_table([2, 1, 1, 1]))

    def test_zero_table(self):
        assert not is_nonzero(make_table([0, 0]))


class TestIsDegenerate:
    def test_rank_one_factorization(self):
        cert = is_degenerate(make_table([2, 4, 3, 6]))
        assert cert is not None
        assert certificate_matches(cert, make_table([2, 4, 3, 6]))

    def test_eq_is_not(self):
        assert is_degenerate(EQ) is None

    def test_every_unary_is(self):
        for ws in ([0, 0], [1, 0], [2, 5], [0, F(1, 3)]):
            cert = is_degenerate(make_table(ws))
            assert cert is not None and certificate_matches(cert, make_table(ws))

    def test_all_zero_high_arity(self):
        cert = is_degenerate(make_table([0] * 8))
        assert cert is not None and cert.to_table().is_zero()

    def test_arity_zero_convention(self):
        assert is_degenerate(make_table([1])) is not None
        assert is_degenerate(make_table([2])) is None


class TestSupportPredicates:
    def test_xor_affine(self):
        assert has_affine_support(XOR)

    def test_or_not_affine(self):
        assert not has_affine_support(OR)

    def test_implies_not_affine(self):
        assert not has_affine_support(IMPLIES)

    def test_empty_support_affine(self):
        assert has_affine_support(make_table([0, 0, 0, 0]))

    def test_implies_has_imp_support(self):
        assert has_imp_support(IMPLIES)

    def test_xor_no_imp_support(self):
        assert not has_imp_support(XOR)

    def test_nand_no_imp_support(self):
        assert not has_imp_support(NAND)

    def test_affine_matches_gf2_enumeration(self):
        rng = random.Random(0)
        for _ in range(300):
            k = rng.randint(0, 4)
            t = make_table([rng.choice([0, 0, 1, 2]) for _ in range(1 << k)])
            assert has_affine_support(t) == affine_by_equation_enumeration(t)

    def test_affine_iff_triple_xor_closed(self):
        rng = random.Random(1)
        for _ in range(200):
            k = rng.randint(1, 4)
            t = make_table([rng.choice([0, 1]) for _ in range(1 << k)])
            pts = t.support().indices()
            closed = all(
                (a ^ b ^ c) in t.support() for a in pts for b in pts for c in pts
            )
            assert has_affine_support(t) == closed


class TestIsEd:
    def test_eq_certificate(self):
        cert = is_ed(EQ)
        assert cert is not None
        assert cert.parity_links == frozenset({(1, 2, "equal")})

    def test_linked_product_with_unary(self):
        table = make_table([0, 1, 0, 0, 0, 0, 2, 0])
        cert = is_ed(table)
        assert cert is not None
        assert len(cert.parity_links) == 2
        nontrivial = [u for u in cert.unary_factors if u != (1, 1)]
        assert len(nontrivial) == 1
        assert certificate_matches(cert, table)
        # A certificate rebuilds its own table exactly and no other.
        cert = is_ed(make_table([1, 2, 2, 4]))
        assert certificate_matches(cert, make_table([1, 2, 2, 4]))
        assert not certificate_matches(cert, make_table([1, 2, 2, 4 + F(1, 10**12)]))

    def test_implies_rejected(self):
        assert is_ed(IMPLIES) is None

    def test_all_zero_is_ed(self):
        cert = is_ed(make_table([0, 0, 0, 0]))
        assert cert is not None and cert.to_table().is_zero()


class TestIsAf:
    def test_pivot_star(self):
        table = make_table([1, 0, 0, 0, 0, 0, 0, 2])
        cert = is_af(table)
        assert cert is not None and cert.pivot == 1
        assert certificate_matches(cert, table)

    def test_implies_rejected(self):
        assert is_af(IMPLIES) is None

    def test_degenerate_has_full_relations(self):
        cert = is_af(make_table([2, 4, 3, 6]))
        assert cert is not None
        assert all(len(rel) == 4 for _, rel in cert.binary_relations)

    def test_two_component_links_not_af(self):
        # x1=x2 and x3=x4 cannot share one pivot
        table = EQ.expand(2).expand(2)
        eq34 = EQ.expand(0).expand(0)
        product = table.multiply(eq34)
        assert is_ed(product) is not None
        assert is_af(product) is None


class TestIsImopt:
    def test_cross_ratio_member_certificate(self):
        table = make_table([2, 1, 1, 1])
        cert = is_imopt(table)
        assert cert is not None
        assert cert.lambda_pairs == frozenset({(1, 2, F(1, 2))})
        assert dict(enumerate(cert.unary_factors, 1)) == {
            1: (F(2), F(2)),
            2: (F(1), F(1, 2)),
        }
        assert certificate_matches(cert, table)

    def test_implies_is_a_hard_pair(self):
        cert = is_imopt(IMPLIES)
        assert cert is not None
        assert cert.lambda_pairs == frozenset({(1, 2, F(0))})
        assert certificate_matches(cert, IMPLIES)

    def test_negative_pair_coefficient_rejected(self):
        assert is_imopt(make_table([1, 2, 2, 1])) is None

    def test_xor_rejected(self):
        assert is_imopt(XOR) is None

    def test_every_lambda_below_one(self):
        rng = random.Random(7)
        for _ in range(50):
            x, y, z, w = random_positive_quadruple(rng, want_greater=True)
            cert = is_imopt(make_table([x, y, z, w]))
            assert cert is not None
            assert all(0 <= lam < 1 for _, _, lam in cert.lambda_pairs)

    def test_quadruple_split(self):
        rng = random.Random(3)
        for trial in range(100):
            greater = trial % 2 == 0
            x, y, z, w = random_positive_quadruple(rng, want_greater=greater)
            table = make_table([x, y, z, w])
            cert = is_imopt(table)
            if greater:
                assert cert is not None and certificate_matches(cert, table)
            else:
                assert cert is None


class TestClassInclusions:
    def test_degenerate_inside_everything(self):
        rng = random.Random(11)
        for _ in range(150):
            k = rng.randint(1, 3)
            t = make_table([rng.choice([0, 1, 2, F(1, 2), 3]) for _ in range(1 << k)])
            if is_degenerate(t) is None:
                continue
            assert is_ed(t) is not None
            assert is_af(t) is not None
            assert is_imopt(t) is not None

    def test_ed_af_have_affine_support(self):
        rng = random.Random(12)
        for _ in range(200):
            k = rng.randint(1, 3)
            t = make_table([rng.choice([0, 1, 2]) for _ in range(1 << k)])
            if is_ed(t) is not None or is_af(t) is not None:
                assert has_affine_support(t)
            if is_imopt(t) is not None:
                assert has_imp_support(t)

    def test_unaries_are_everywhere(self):
        for ws in ([1, 1], [1, 0], [0, 1], [3, F(1, 7)], [0, 0]):
            t = make_table(ws)
            assert is_ed(t) is not None
            assert is_af(t) is not None
            assert is_imopt(t) is not None

    def test_rectangles_characterize_degeneracy(self):
        rng = random.Random(13)
        for _ in range(200):
            k = rng.randint(1, 3)
            t = make_table([F(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(1 << k)])
            assert rectangle_condition_holds(t) == (is_degenerate(t) is not None)


class TestLogExpansion:
    def test_worked_example(self):
        exp = log_expansion(make_table([2, 1, 1, 1]))
        assert exp.coefficients[frozenset()] == 1.0
        assert exp.coefficients[frozenset({1})] == -1.0
        assert exp.coefficients[frozenset({2})] == -1.0
        assert exp.coefficients[frozenset({1, 2})] == 1.0

    def test_all_ones_vanishes(self):
        exp = log_expansion(make_table([1] * 8))
        assert all(c == 0 for c in exp.coefficients.values())

    def test_degenerate_has_degree_one(self):
        exp = log_expansion(make_table([2, 4, 3, 6]))
        assert all(
            abs(c) < 1e-9 for S, c in exp.coefficients.items() if len(S) >= 2
        )

    def test_pair_coefficient_is_odds_ratio(self):
        import math

        x, y, z, w = F(3), F(5), F(2), F(7)
        exp = log_expansion(make_table([x, y, z, w]))
        assert abs(exp.pair_coefficient(1, 2) - math.log2(float(x * w / (y * z)))) < 1e-9

    def test_zero_weight_rejected(self):
        with pytest.raises(DomainError):
            log_expansion(OR)

    def test_reconstruction(self):
        import math

        rng = random.Random(5)
        for _ in range(50):
            k = rng.randint(0, 3)
            t = make_table([F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(1 << k)])
            exp = log_expansion(t)
            for idx in range(1 << k):
                bits = [(idx >> (k - 1 - p)) & 1 for p in range(k)]
                assert abs(
                    exp.reconstruct(bits) - math.log2(float(t.weights[idx]))
                ) < 1e-9


class TestBinaryWitnessSearch:
    def test_or_includes_itself(self):
        results = binary_witness_search(OR)
        tables = [t for _, t in results]
        assert OR in tables
        script = next(s for s, t in results if t == OR)
        assert replay(script, {"OR": OR}) == OR

    def test_ternary_reaches_nand(self):
        f = make_table([1, 1, 1, 1, 1, 1, 1, 0], "F")
        results = binary_witness_search(f)
        tables = [t for _, t in results]
        assert NAND in tables
        script = next(s for s, t in results if t == NAND)
        assert replay(script, {"F": f}) == NAND

    def test_degenerate_witnesses_stay_degenerate(self):
        f = make_table([1, 2, 3, 6, F(1, 2), 1, F(3, 2), 3], "G")
        assert is_degenerate(f) is not None
        for script, witness in binary_witness_search(f):
            assert is_degenerate(witness) is not None
            assert replay(script, {"G": f}) == witness

    def test_scripts_replay(self):
        f = make_table([0, 1, 1, 1, 1, 1, 1, 0], "H")
        for script, witness in binary_witness_search(f):
            assert replay(script, {"H": f}) == witness

    def test_unary_rejected(self):
        with pytest.raises(Exception):
            binary_witness_search(D0)


class TestMembershipsBundle:
    def test_atlas_rows(self):
        expected = {
            id(EQ): {"ED", "AF", "IM_opt", "affine_support", "imp_support"},
            id(XOR): {"ED", "AF", "affine_support"},
            id(D0): {"DG", "ED", "AF", "IM_opt", "affine_support", "imp_support"},
            id(OR): set(),
            id(NAND): set(),
            id(IMPLIES): {"IM_opt", "imp_support"},
        }
        for table in (EQ, XOR, D0, OR, NAND, IMPLIES):
            classes, certs = memberships(table)
            assert classes == frozenset(expected[id(table)])
            for label, cert in certs.items():
                assert certificate_matches(cert, table), label
