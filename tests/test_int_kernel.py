"""The ED and IM_opt deciders compare cross-multiplied ints over one
common-denominator form of the table. Their verdicts must not depend on that
form: the classes survive a positive scale and a positive unary factor on any
variable, whatever the denominators, and every certificate rebuilds its table
exactly. The deciders also keep nothing on the table they decide."""

import random
from fractions import Fraction

import pytest

from prodcsp import gen
from prodcsp.membership import (
    certificate_matches,
    is_af,
    is_degenerate,
    is_ed,
    is_imopt,
    memberships,
)
from prodcsp.tables import ConstraintTable, make_table

F = Fraction
HUGE = F(10**4400 + 3, 13)  # a numerator past the 4300-digit str-to-int limit
# Pairwise-coprime denominators, and huge rationals.
WEIGHTS = (
    F(1, 3), F(2, 5), F(6, 7), F(4, 11), F(9, 13), F(5, 3), F(11, 7),
    F(10**50 + 1, 7**40), F(3**60, 10**45 + 9), HUGE,
)
SCALES = (F(7, 3), F(10**40, 9))
DECIDERS = {"DG": is_degenerate, "ED": is_ed, "AF": is_af, "IM_opt": is_imopt}


def _times_unary(table: ConstraintTable, var: int, u0: Fraction, u1: Fraction) -> ConstraintTable:
    k = table.arity
    return make_table(
        [w * (u1 if (i >> (k - var)) & 1 else u0) for i, w in enumerate(table.weights)]
    )


def _random_table(rng: random.Random, arity: int) -> ConstraintTable:
    return make_table([rng.choice((F(0), F(0)) + WEIGHTS) for _ in range(1 << arity)])


def _tables():
    """Seeded ED, AF and IM_opt members from `gen` and random tables with
    zeros, arity 0-6, each generated member moved onto coprime denominators
    by a unary factor on every variable."""
    rng = random.Random(2501)
    out = []
    for k in range(7):
        out += [_random_table(rng, k) for _ in range(3)]
        if k == 0:
            continue
        for make in (gen.random_ed_constraint, gen.random_af_constraint,
                     gen.random_imopt_constraint):
            t = make(rng, k, "g")
            for v in range(1, k + 1):
                t = _times_unary(t, v, rng.choice(WEIGHTS), rng.choice(WEIGHTS))
            out.append(t)
    return out


TABLES = _tables()


def _classes(table: ConstraintTable) -> frozenset[str]:
    classes, certs = memberships(table)
    for label, cert in certs.items():
        assert certificate_matches(cert, table), (label, table)
    return classes


def test_generated_members_stay_members():
    members = [t for t in TABLES if t.arity]
    assert sum(is_ed(t) is not None for t in members) >= 12
    assert sum(is_imopt(t) is not None for t in members) >= 12
    assert any(HUGE in t.weights for t in TABLES)


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_classes_survive_scaling(scale):
    for t in TABLES:
        if t.arity == 0:  # an arity-0 table is in a class only at value 1
            continue
        assert _classes(t.scale(scale)) == _classes(t), t


def test_verdicts_survive_a_positive_unary_factor():
    rng = random.Random(2502)
    for t in TABLES:
        before = {label: decide(t) is not None for label, decide in DECIDERS.items()}
        for v in range(1, t.arity + 1):
            moved = _times_unary(t, v, rng.choice(WEIGHTS), rng.choice(WEIGHTS))
            for label, decide in DECIDERS.items():
                cert = decide(moved)
                assert (cert is not None) == before[label], (label, t, v)
                assert cert is None or certificate_matches(cert, moved)


def test_every_certificate_rebuilds_its_table():
    for t in TABLES:
        for decide in DECIDERS.values():
            cert = decide(t)
            assert cert is None or certificate_matches(cert, t)


def test_deciders_cache_nothing_on_the_table():
    """Anything kept per table stays in memory as long as the table does."""
    for t in TABLES:
        before = dict(vars(t))
        memberships(t)
        is_ed(t)
        is_imopt(t)
        assert vars(t) == before
        assert all(vars(t)[key] is value for key, value in before.items())
