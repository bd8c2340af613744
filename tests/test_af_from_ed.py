"""AF is read off the ED certificate: it must stay exactly "ED with at most
one parity component of two or more variables", computed here straight from
the support points, and it must never open a solver route or a category of
its own."""

import itertools
import random
from fractions import Fraction

import pytest

from prodcsp import (
    AfCertificate,
    Category,
    CspInstance,
    certificate_matches,
    classify_set,
    is_af,
    random_af_constraint,
    random_ed_constraint,
    solve_tractable,
)
from prodcsp.errors import CertificateError
from prodcsp.oracles import oracle_ed
from prodcsp.tables import ConstraintTable

GRID = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def nontrivial_parity_classes(table: ConstraintTable) -> int:
    """Classes of >= 2 unpinned variables whose pairwise XOR is constant on
    the support. Two unpinned variables have a constant XOR exactly when
    their columns over the support points, each XORed with its value at the
    first point, are equal."""
    points = table.support().points()
    classes: dict[tuple[int, ...], int] = {}
    for v in range(table.arity):
        column = tuple(p[v] for p in points)
        if len(set(column)) < 2:
            continue  # pinned (or the support is empty)
        key = tuple(b ^ column[0] for b in column)
        classes[key] = classes.get(key, 0) + 1
    return sum(1 for size in classes.values() if size >= 2)


def sample_tables() -> list[ConstraintTable]:
    tables = [
        ConstraintTable(k, ws)
        for k in (0, 1, 2)
        for ws in itertools.product(GRID, repeat=1 << k)
    ]
    rng = random.Random(1501)
    for code in rng.sample(range(4**8), 2000):
        tables.append(ConstraintTable(3, tuple(GRID[(code >> (2 * p)) & 3] for p in range(8))))
    for arity in range(1, 6):
        for i in range(20):
            tables.append(random_af_constraint(rng, arity, f"A{arity}_{i}"))
            tables.append(random_ed_constraint(rng, arity, f"E{arity}_{i}"))
    for arity in (4, 5):
        for _ in range(20):
            tables.append(two_links(rng, arity))
    return tables


def two_links(rng: random.Random, arity: int) -> ConstraintTable:
    """Two parity links on disjoint pairs times positive unary weights: in
    ED, with two parity components of two variables each, so not in AF."""
    i, j, k, m = rng.sample(range(arity), 4)
    p, q = rng.randint(0, 1), rng.randint(0, 1)
    unary = [(Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3))) for _ in range(arity)]
    weights = []
    for idx in range(1 << arity):
        bits = [(idx >> (arity - 1 - v)) & 1 for v in range(arity)]
        w = Fraction(int(bits[i] ^ bits[j] == p and bits[k] ^ bits[m] == q))
        for v, b in enumerate(bits):
            w *= unary[v][b]
        weights.append(w)
    return ConstraintTable(arity, tuple(weights))


TABLES = sample_tables()


def in_ed(table: ConstraintTable) -> bool:
    """The enumeration oracle up to arity 4. Past it the oracle enumerates
    3^15 pin/link systems, and the only tables there are generated ones,
    which are ED by construction: products of unary factors, pins and
    EQ/XOR links."""
    return oracle_ed(table) if table.arity <= 4 else True


def test_af_is_ed_with_at_most_one_parity_component():
    mismatches = [
        t
        for t in TABLES
        if (is_af(t) is not None)
        != (in_ed(t) and nontrivial_parity_classes(t) <= 1)
    ]
    assert mismatches == []


def test_sample_reaches_both_sides():
    # The sample must contain ED tables that are not AF, or the test above
    # could not tell AF from ED.
    ed_only = sum(1 for t in TABLES if in_ed(t) and is_af(t) is None)
    af = sum(1 for t in TABLES if is_af(t) is not None)
    assert ed_only >= 10 and af >= 100


def test_af_certificates_rebuild_exactly():
    for t in TABLES:
        cert = is_af(t)
        if cert is not None:
            assert certificate_matches(cert, t), t


def test_af_members_classify_po_ed():
    for t in TABLES:
        if is_af(t) is not None:
            assert classify_set([t]).category is Category.PO_ED


def test_pivot_is_the_component_representative():
    table = random_af_constraint(random.Random(3), 4, "A")
    cert = is_af(table)
    assert all(rel in ({(0, 0), (1, 1)}, {(0, 1), (1, 0)}) for _, rel in cert.binary_relations)
    assert all(j > cert.pivot for j, _ in cert.binary_relations)


def test_solve_tractable_refuses_af_certificates():
    table = random_af_constraint(random.Random(7), 3, "A")
    inst = CspInstance(3, ((table, (1, 2, 3)),))
    cert = is_af(table)
    assert isinstance(cert, AfCertificate)
    with pytest.raises(CertificateError):
        solve_tractable(inst, {"A": cert})
