"""The parity-component solver against the exhaustive oracle: the same
optimum and the same argmax (the lexicographically smallest maximizer) on
seeded ED/AF instances with n <= 10."""

import random
from fractions import Fraction

from prodcsp import (
    D0,
    D1,
    EQ,
    XOR,
    CspInstance,
    brute_force,
    certify_instance,
    make_table,
    random_af_constraint,
    random_ed_constraint,
    solve_tractable,
)
from prodcsp.tractable import ParityUnionFind

F = Fraction

# Non-dyadic ED members: weights 1/3 and 3 on an equality, a disequality and
# a unary, so the optimum's denominator carries a factor 3.
THIRDS = [
    make_table([F(1, 3), 0, 0, 3], "EQ3"),
    make_table([0, 3, F(1, 3), 0], "XOR3"),
    make_table([F(1, 3), 3], "U3"),
    make_table([3, F(1, 3)], "V3"),
]
ZERO2 = make_table([0, 0, 0, 0], "Z2")
ZERO1 = make_table([0, 0], "Z1")
CONSTANTS = [make_table([F(5)], "K5"), make_table([F(1, 3)], "K3"), make_table([0], "K0")]


def _support_only(table):
    """The same support with every nonzero weight 1: maximizers then tie."""
    return make_table([1 if w else 0 for w in table.weights], f"{table.name}s")


def _pool(rng: random.Random, trial: int, kind: str) -> list:
    pool = []
    for i in range(rng.randint(1, 3)):
        maker = random_ed_constraint if rng.random() < 0.5 else random_af_constraint
        table = maker(rng, rng.randint(1, 3), f"T{trial}_{i}")
        pool.append(_support_only(table) if kind == "ties" else table)
    if kind == "ties":
        pool += [EQ, XOR]
    elif kind == "thirds":
        pool += rng.sample(THIRDS, 2)
    elif kind == "zeros":
        pool += [ZERO1, ZERO2, D0, D1]
    elif kind == "constants":
        pool += CONSTANTS
    return pool


def _instance(rng: random.Random, trial: int, kind: str) -> CspInstance:
    """Random applications with repeats allowed inside a tuple; the variable
    count may exceed what the applications touch."""
    pool = _pool(rng, trial, kind)
    n = rng.randint(1, 10)
    apps = []
    for _ in range(rng.randint(0, 2 * n)):
        table = rng.choice(pool)
        apps.append((table, tuple(rng.randint(1, n) for _ in range(table.arity))))
    if kind == "zeros" and rng.random() < 0.5:
        v = rng.randint(1, n)
        apps += [(D0, (v,)), (D1, (v,))]  # contradictory pins
    return CspInstance(n, tuple(apps))


def _sweep(kind: str, count: int, seed: int) -> list[CspInstance]:
    rng = random.Random(seed)
    return [_instance(rng, trial, kind) for trial in range(count)]


def _check(insts: list[CspInstance]) -> None:
    for inst in insts:
        certs = certify_instance(inst)
        assert certs is not None
        fast = solve_tractable(inst, certs)
        slow = brute_force(inst)
        assert (fast.optimum, fast.argmax) == (slow.optimum, slow.argmax), inst


def test_ties_from_zero_one_supports():
    insts = _sweep("ties", 120, 11)
    _check(insts)
    # A 0/1 support leaves every maximizer with value 1: ties are the rule.
    assert sum(brute_force(i).optimum == 1 for i in insts) >= 60


def test_non_dyadic_weights():
    insts = _sweep("thirds", 80, 12)
    _check(insts)
    assert any(brute_force(i).optimum.denominator % 3 == 0 for i in insts)
    assert any(brute_force(i).optimum.numerator % 3 == 0 for i in insts)


def test_all_zero_tables_and_contradictory_pins():
    insts = _sweep("zeros", 60, 13)
    _check(insts)
    assert sum(brute_force(i).optimum == 0 for i in insts) >= 20


def test_arity_zero_tables():
    insts = _sweep("constants", 40, 14)
    _check(insts)
    assert any(t.arity == 0 for i in insts for t, _ in i.applications)


def test_repeated_and_unused_variables():
    insts = _sweep("plain", 60, 15)
    _check(insts)
    assert any(len(set(vs)) < len(vs) for i in insts for _, vs in i.applications)
    assert any(
        len({v for _, vs in i.applications for v in vs}) < i.num_vars for i in insts
    )


def test_tie_picks_smallest_index_variable_zero():
    # x2 = x3 = not x1 with equal weights either way: the maximizers are 011
    # and 100, and the lexicographically smallest sets x1 = 0.
    inst = CspInstance(3, ((XOR, (3, 1)), (EQ, (3, 2))))
    result = solve_tractable(inst, certify_instance(inst))
    assert result.argmax == (0, 1, 1) == brute_force(inst).argmax


def test_brute_force_leaves_unused_variables_zero():
    u = make_table([1, 2], "U")
    inst = CspInstance(20, ((u, (7,)), (EQ, (7, 12))))
    result = brute_force(inst, max_n=20)
    bits = [0] * 20
    bits[6] = bits[11] = 1
    assert result.optimum == 2 and result.argmax == tuple(bits)


def test_find_compresses_long_chains():
    size = 50_000  # deeper than the recursion limit
    uf = ParityUnionFind(size)
    for x in range(1, size):
        uf.parent[x] = x - 1
        uf.parity[x] = 1
    assert uf.find(size - 1) == (0, (size - 1) % 2)
    assert uf.parent[size - 1] == 0 and uf.parent[size // 2] == 0
    assert uf.find(size // 2) == (0, (size // 2) % 2)


# Pins and parity links go through one union loop (a pin is a link to the
# ground node). PL = [x1 = 1] * [x2 = x3] with weights on x2 x3: its
# certificate has a pin on position 1 and a link between positions 2 and 3.
PL = make_table([0, 0, 0, 0, 2, 0, 0, F(1, 3)], "PL")
PIN2 = make_table([0, 0, 3, 0], "PIN2")  # pins x1 = 1 and x2 = 0, weight 3


def _check_one(inst: CspInstance):
    certs = certify_instance(inst)
    assert certs is not None
    fast = solve_tractable(inst, certs)
    slow = brute_force(inst)
    assert (fast.optimum, fast.argmax) == (slow.optimum, slow.argmax), inst
    return fast


def test_pin_and_link_on_one_variable_in_one_application():
    cert = certify_instance(CspInstance(3, ((PL, (1, 2, 3)),)))["PL"]
    assert cert.pins and cert.parity_links
    # (v, v, w): the pin and the link both read v.
    assert _check_one(CspInstance(2, ((PL, (1, 1, 2)),))).optimum == F(1, 3)
    assert _check_one(CspInstance(2, ((PL, (1, 1, 2)), (D0, (2,))))).optimum == 0
    assert _check_one(CspInstance(3, ((PL, (2, 2, 1)), (XOR, (1, 3))))).argmax == (1, 1, 0)
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 7)
        apps = []
        for _ in range(rng.randint(1, 2 * n)):
            table = rng.choice((PL, PL, EQ, XOR, THIRDS[2]))
            apps.append((table, tuple(rng.randint(1, n) for _ in range(table.arity))))
        _check_one(CspInstance(n, tuple(apps)))


def test_repeated_variable_with_an_odd_self_link_has_optimum_zero():
    result = _check_one(CspInstance(3, ((THIRDS[2], (1,)), (XOR, (2, 2)), (EQ, (1, 3)))))
    assert result.optimum == 0 and result.argmax == (0, 0, 0)
    # An even self-link constrains nothing.
    assert _check_one(CspInstance(2, ((EQ, (2, 2)), (THIRDS[2], (2,))))).optimum == 3


def test_d0_and_d1_on_one_variable():
    for apps in (((D0, (2,)), (D1, (2,))), ((D1, (1,)), (EQ, (1, 2)), (D0, (2,)))):
        result = _check_one(CspInstance(3, apps))
        assert result.optimum == 0 and result.argmax == (0, 0, 0)


def test_pin_only_tables():
    rng = random.Random(22)
    for _ in range(60):
        n = rng.randint(1, 6)
        apps = []
        for _ in range(rng.randint(0, 2 * n)):
            table = rng.choice((D0, D1, PIN2, THIRDS[3]))
            apps.append((table, tuple(rng.randint(1, n) for _ in range(table.arity))))
        _check_one(CspInstance(n, tuple(apps)))
    assert _check_one(CspInstance(3, ((PIN2, (3, 1)), (D1, (2,))))).argmax == (0, 1, 1)


def test_long_xor_chain_through_the_solver():
    n = 50_000
    apps = [(XOR, (v, v + 1)) for v in range(n - 1, 0, -1)]
    apps += [(D0, (1,)), (THIRDS[2], (n,))]  # x1 = 0; x_n prefers 1
    inst = CspInstance(n, tuple(apps))
    result = solve_tractable(inst, certify_instance(inst))
    assert result.optimum == 3
    assert result.argmax == tuple(1 - v % 2 for v in range(1, n + 1))
