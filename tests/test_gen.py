"""The certified generators return members of their class at every arity."""

import random

import pytest

from prodcsp import (
    is_af,
    is_ed,
    is_imopt,
    random_af_constraint,
    random_ed_constraint,
    random_imopt_constraint,
)


@pytest.mark.parametrize(
    "generate, decide",
    [
        (random_ed_constraint, is_ed),
        (random_af_constraint, is_af),
        (random_imopt_constraint, is_imopt),
    ],
)
def test_arity_zero_members(generate, decide):
    for seed in range(20):
        table = generate(random.Random(seed), 0, "Z")
        assert table.arity == 0
        assert decide(table) is not None, (generate.__name__, seed, table.weights)
