"""Set-level classification: categories, witnesses, and stability."""

import random
from fractions import Fraction

import pytest

from prodcsp import (
    ArgumentError,
    Category,
    D0,
    EQ,
    IMPLIES,
    OR,
    XOR,
    classify_set,
    explain,
    make_table,
    memberships,
    random_af_constraint,
    random_ed_constraint,
)

F = Fraction

CATEGORY_ORDER = {
    Category.PO_ED: 0,
    Category.INTERMEDIATE_IMOPT: 1,
    Category.IS_HARD: 2,
}


class TestCategories:
    def test_parity_family_is_po_ed(self):
        assert classify_set([EQ, XOR, D0]).category is Category.PO_ED
        assert classify_set([EQ, XOR]).category is Category.PO_ED

    def test_implication_family_is_intermediate(self):
        assert classify_set([IMPLIES]).category is Category.INTERMEDIATE_IMOPT
        half = make_table([1, 1, F(1, 2), 1])
        assert classify_set([IMPLIES, half]).category is Category.INTERMEDIATE_IMOPT

    def test_or_is_hard(self):
        assert classify_set([OR]).category is Category.IS_HARD

    def test_mixed_parity_implication_is_hard(self):
        assert classify_set([XOR, IMPLIES]).category is Category.IS_HARD

    def test_empty_set_rejected(self):
        with pytest.raises(ArgumentError):
            classify_set([])


class TestWitnesses:
    def test_witnesses_recheck(self):
        report = classify_set([XOR, IMPLIES])
        assert report.category is Category.IS_HARD
        for label, name in report.witnesses.items():
            classes, _ = memberships(report.constraint(name).table)
            assert label not in classes

    def test_intermediate_names_both_po_failures(self):
        report = classify_set([IMPLIES])
        assert report.witnesses["ED"] == "IMPLIES"
        assert report.witnesses["AF"] == "IMPLIES"
        assert "IM_opt" not in report.witnesses

    def test_po_reports_carry_no_witnesses(self):
        assert classify_set([EQ, XOR]).witnesses == {}


class TestExplain:
    def test_po_mentions_the_solver(self):
        text = explain(classify_set([EQ, XOR]))
        assert "polynomial-time" in text and "category: PO_ED" in text

    def test_intermediate_mentions_both_reductions(self):
        text = explain(classify_set([IMPLIES]))
        assert "bipartite independent-set" in text
        assert "flow-design" in text
        assert "category: INTERMEDIATE_IMOPT" in text

    def test_hard_names_the_violator(self):
        text = explain(classify_set([XOR, IMPLIES]))
        assert "XOR" in text and "category: IS_HARD" in text


class TestStability:
    def test_monotone_under_extension(self):
        pool = [EQ, XOR, D0, OR, IMPLIES, make_table([1, 1, F(1, 2), 1])]
        rng = random.Random(0)
        for _ in range(100):
            base = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            extra = rng.choice(pool)
            before = CATEGORY_ORDER[classify_set(base).category]
            after = CATEGORY_ORDER[classify_set(base + [extra]).category]
            assert after >= before

    def test_unary_constraints_never_matter(self):
        rng = random.Random(1)
        pool = [EQ, XOR, OR, IMPLIES]
        for _ in range(60):
            base = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            unary = make_table([F(rng.randint(0, 5)), F(rng.randint(0, 5))])
            assert classify_set(base).category is classify_set(base + [unary]).category

    def test_certified_pool_singletons_are_po(self):
        rng = random.Random(2)
        for i in range(30):
            gen = random_ed_constraint if i % 2 == 0 else random_af_constraint
            t = gen(rng, rng.randint(1, 3), f"G{i}")
            assert classify_set([t]).category is Category.PO_ED
            # closure under multiply and positive scaling at fixed arity
            other = random_ed_constraint(rng, t.arity, f"H{i}")
            lam = F(rng.randint(1, 9), rng.randint(1, 9))
            closed = t.multiply(other).scale(lam)
            assert classify_set([closed]).category is Category.PO_ED
