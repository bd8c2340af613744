"""DG is read off the ED certificate: the DG members are the ED members with
no parity link. The verdict must agree with the independent oracles, every
certificate must rebuild its table exactly, `memberships` must make one ED
pass per table, and the ED certificates themselves must not move."""

import itertools
import random
from fractions import Fraction

from prodcsp import EQ, XOR, is_degenerate, is_ed, make_table
from prodcsp import membership
from prodcsp.membership import EdCertificate
from prodcsp.oracles import oracle_degenerate, rectangle_condition_holds
from prodcsp.tables import ConstraintTable

F = Fraction
GRID = (F(0), F(1, 2), F(1), F(2))
WEIGHTS = (F(1, 3), F(1, 2), F(1), F(2), F(3))


def product_of_unaries(rng: random.Random, arity: int) -> ConstraintTable:
    """Random unary factors, some with a zero entry (pins) or two (all zero)."""
    unary = []
    for _ in range(arity):
        r = rng.random()
        if r < 0.05:
            unary.append((F(0), F(0)))
        elif r < 0.25:
            unary.append((F(0), rng.choice(WEIGHTS)))
        elif r < 0.45:
            unary.append((rng.choice(WEIGHTS), F(0)))
        else:
            unary.append((rng.choice(WEIGHTS), rng.choice(WEIGHTS)))
    weights = []
    for idx in range(1 << arity):
        w = F(1)
        for v, (u0, u1) in enumerate(unary):
            w *= u1 if (idx >> (arity - 1 - v)) & 1 else u0
        weights.append(w)
    return ConstraintTable(arity, tuple(weights))


def perturbed(rng: random.Random, table: ConstraintTable) -> ConstraintTable:
    weights = list(table.weights)
    i = rng.randrange(len(weights))
    weights[i] = weights[i] + rng.choice(WEIGHTS) if rng.random() < 0.5 else F(0)
    return ConstraintTable(table.arity, tuple(weights))


def grid_tables(max_arity: int) -> list[ConstraintTable]:
    return [
        ConstraintTable(k, ws)
        for k in range(max_arity + 1)
        for ws in itertools.product(GRID, repeat=1 << k)
    ]


def seeded_products() -> list[ConstraintTable]:
    rng = random.Random(2001)
    out = []
    for arity in range(3, 7):
        for _ in range(12):
            t = product_of_unaries(rng, arity)
            out += [t, perturbed(rng, t)]
    return out


def test_grid_agrees_with_both_oracles():
    for t in grid_tables(2):
        verdict = is_degenerate(t) is not None
        assert verdict == oracle_degenerate(t), t.weights
        if t.arity >= 1:
            assert verdict == rectangle_condition_holds(t), t.weights


def test_products_and_perturbations_agree_with_both_oracles():
    members = 0
    for t in seeded_products():
        verdict = is_degenerate(t) is not None
        members += verdict
        assert verdict == oracle_degenerate(t), t.weights
        assert verdict == rectangle_condition_holds(t), t.weights
    assert members >= 48  # every unperturbed product at least


def test_certificates_rebuild_exactly():
    for t in grid_tables(2) + seeded_products():
        cert = is_degenerate(t)
        if cert is not None:
            assert cert.to_table() == t, t.weights


def test_memberships_makes_one_ed_pass(monkeypatch):
    calls = {"is_ed": 0, "is_degenerate": 0, "is_af": 0, "is_imopt": 0}

    def counting(name):
        fn = getattr(membership, name)

        def wrapper(table):
            calls[name] += 1
            return fn(table)

        return wrapper

    for name in calls:
        monkeypatch.setattr(membership, name, counting(name))
    tables = [EQ, XOR, make_table([2, 4, 3, 6]), make_table([1, 0, 0, 0, 0, 0, 0, 2])]
    for t in tables:
        membership.memberships(t)
    assert calls == {"is_ed": 4, "is_degenerate": 0, "is_af": 0, "is_imopt": 4}


def test_ed_certificates_are_unchanged():
    one = (F(1), F(1))
    assert is_ed(EQ) == EdCertificate((), frozenset({(1, 2, "equal")}), (one, one))
    assert is_ed(XOR) == EdCertificate((), frozenset({(1, 2, "unequal")}), (one, one))
    assert is_ed(make_table([1, 0, 0, 0, 0, 0, 0, 2])) == EdCertificate(
        (), frozenset({(1, 2, "equal"), (1, 3, "equal")}), ((F(1), F(2)), one, one)
    )
    # x2 pinned to 1, x1 != x4, x3 and x5 free: components {x1, x4}, {x3}, {x5}.
    weights = []
    for idx in range(32):
        x = [(idx >> (5 - v)) & 1 for v in range(1, 6)]
        on = x[1] == 1 and x[0] != x[3]
        weights.append(F(2 + x[0], 1 + x[2]) * (3 if x[4] else 1) if on else F(0))
    assert is_ed(ConstraintTable(5, tuple(weights))) == EdCertificate(
        ((2, 1),),
        frozenset({(1, 4, "unequal")}),
        ((F(2), F(3)), one, (F(1), F(1, 2)), one, (F(1), F(3))),
    )
