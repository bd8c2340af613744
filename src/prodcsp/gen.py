"""Seeded generators: random instances and graphs, certified constraint pools
for the tractable and flow paths, and the cut-problem product weighting.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .errors import ArgumentError
from .graphs import GraphInstance
from .instances import CspInstance
from .membership import is_af, is_ed, is_imopt
from .tables import EQ, XOR, ConstraintTable, make_table

ONE = Fraction(1)

# (1,2,2,1) per edge: the product analogue of counting cut edges with weight 2.
CUT2 = make_table([1, 2, 2, 1], "CUT2")


def random_instance(
    num_vars: int,
    pool: Sequence[ConstraintTable],
    app_count: int,
    seed: int,
) -> CspInstance:
    """Reproducible random instance: `app_count` applications drawn from the
    pool on uniformly random variable tuples (repeats allowed)."""
    if not pool:
        raise ArgumentError("constraint pool must be nonempty")
    if num_vars <= 0 and any(t.arity > 0 for t in pool):
        raise ArgumentError("positive-arity constraints need at least one variable")
    rng = random.Random(seed)
    apps = []
    for _ in range(app_count):
        table = rng.choice(list(pool))
        variables = tuple(rng.randrange(1, num_vars + 1) for _ in range(table.arity))
        apps.append((table, variables))
    return CspInstance(num_vars, tuple(apps))


def _pow2(rng: random.Random, lo: int = -2, hi: int = 2) -> Fraction:
    return Fraction(2) ** rng.randint(lo, hi)


def random_ed_constraint(rng: random.Random, arity: int, name: str) -> ConstraintTable:
    """A certified ed member with power-of-two weights: product of random
    parity links, occasional pins, and positive unary factors."""
    table = make_table([1] * (1 << arity))
    for v in range(1, arity + 1):
        if rng.random() < 0.15:
            pin = rng.randint(0, 1)
            u = _unary_at(v, arity, ONE if pin == 0 else Fraction(0),
                          Fraction(0) if pin == 0 else ONE)
        else:
            u = _unary_at(v, arity, _pow2(rng), _pow2(rng))
        table = table.multiply(u)
    if arity >= 2:
        for _ in range(rng.randint(0, arity)):
            i = rng.randint(1, arity - 1)
            j = rng.randint(i + 1, arity)
            link = EQ if rng.random() < 0.5 else XOR
            table = table.multiply(_binary_at(link, i, j, arity))
    result = table.with_name(name)
    assert is_ed(result) is not None, "ed generator produced a non-member"
    return result


def random_af_constraint(rng: random.Random, arity: int, name: str) -> ConstraintTable:
    """A certified af member: a pivot star of parity links times positive
    unary factors (power-of-two weights)."""
    table = make_table([1] * (1 << arity))
    for v in range(1, arity + 1):
        table = table.multiply(_unary_at(v, arity, _pow2(rng), _pow2(rng)))
    if arity >= 2:
        pivot = rng.randint(1, arity)
        for j in range(1, arity + 1):
            if j == pivot or rng.random() < 0.4:
                continue
            link = EQ if rng.random() < 0.5 else XOR
            i, jj = min(pivot, j), max(pivot, j)
            table = table.multiply(_binary_at(link, i, jj, arity))
    result = table.with_name(name)
    assert is_af(result) is not None, "af generator produced a non-member"
    return result


def random_imopt_constraint(
    rng: random.Random,
    arity: int,
    name: str,
    allow_hard: bool = True,
) -> ConstraintTable:
    """A certified implication-weighted member: positive power-of-two unary
    factors times (1,1,lambda,1) pair factors, lambda in {0} or (0,1)."""
    table = make_table([1] * (1 << arity))
    for v in range(1, arity + 1):
        table = table.multiply(_unary_at(v, arity, _pow2(rng, -1, 2), _pow2(rng, -1, 2)))
    if arity >= 2:
        lambdas = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 8)]
        if allow_hard:
            lambdas = lambdas + [Fraction(0)]
        for _ in range(rng.randint(0, arity)):
            r = rng.randint(1, arity)
            s = rng.randint(1, arity)
            if r == s:
                continue
            lam = rng.choice(lambdas)
            pair = make_table([1, 1, lam, 1])
            i, j = min(r, s), max(r, s)
            oriented = pair if (r, s) == (i, j) else pair.permute(1, 2)
            table = table.multiply(_binary_at(oriented, i, j, arity))
    result = table.with_name(name)
    assert is_imopt(result) is not None, "imopt generator produced a non-member"
    return result


def _unary_at(v: int, arity: int, w0: Fraction, w1: Fraction) -> ConstraintTable:
    t = make_table([w0, w1])
    for _ in range(v - 1):
        t = t.expand(0)
    while t.arity < arity:
        t = t.expand(t.arity)
    return t


def _binary_at(base: ConstraintTable, i: int, j: int, arity: int) -> ConstraintTable:
    """Lift a binary table onto positions i < j of an arity-k cube."""
    t = base
    for _ in range(i - 1):
        t = t.expand(0)
    for _ in range(j - i - 1):
        t = t.expand(i)
    while t.arity < arity:
        t = t.expand(t.arity)
    return t


def random_graph(kind: str, n: int, seed: int, edge_prob: float = 0.4) -> GraphInstance:
    """Seeded random graph with power-of-two weights (rates in [1, 8])."""
    rng = random.Random(seed)
    weights = tuple(_pow2(rng) for _ in range(n))
    if kind == "IS":
        edges = tuple(
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < edge_prob
        )
        return GraphInstance("IS", n, edges, weights)
    if kind == "BIS":
        blocks = tuple(rng.randint(0, 1) for _ in range(n))
        edges = tuple(
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if blocks[u - 1] != blocks[v - 1] and rng.random() < edge_prob
        )
        return GraphInstance("BIS", n, edges, weights, blocks=blocks)
    if kind == "FLOW":
        edges = []
        rates = []
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u != v and rng.random() < edge_prob:
                    edges.append((u, v))
                    rates.append(Fraction(2) ** rng.randint(0, 3))
        return GraphInstance("FLOW", n, tuple(edges), weights, tuple(rates))
    raise ArgumentError(f"unknown graph kind {kind!r}")


def random_positive_quadruple(
    rng: random.Random, want_greater: bool, bound: int = 60
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Random (x,y,z,w), all positive, with x*w > y*z (or <, per the flag)."""
    while True:
        x, y, z, w = (
            Fraction(rng.randint(1, bound), rng.randint(1, bound)) for _ in range(4)
        )
        if x * w == y * z:
            continue
        if (x * w > y * z) != want_greater:
            x, y, z, w = y, x, w, z  # swapping the columns flips the comparison
        return x, y, z, w


def cut_to_prod(g: GraphInstance) -> CspInstance:
    """Product weighting of the cut problem: each edge contributes weight 2
    exactly when it crosses the cut, so the product is 2^(cut size)."""
    apps = tuple((CUT2, (u, v)) for u, v in g.edges)
    return CspInstance(g.num_vertices, apps)
