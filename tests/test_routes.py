"""The solve dispatch against the exhaustive oracle, over every route it knows.

Each seeded case solves one instance by auto, brute, tractable and hill and
compares with `brute_force`: the exact routes give its optimum and its
argmax (the lexicographically smallest maximizer), tractable refuses exactly
the instances without ed certificates, and hill is self-consistent and
refused under exact_only.
"""

import random
from fractions import Fraction

import pytest

from prodcsp import (
    EQ,
    IMPLIES,
    NAND,
    XOR,
    ArgumentError,
    CapExceededError,
    CertificateError,
    CspInstance,
    Reduction,
    approx_scheme,
    apt_wrap,
    brute_force,
    certify_instance,
    exact_csp_scheme,
    make_table,
    measure,
    random_af_constraint,
    random_ed_constraint,
    random_imopt_constraint,
    random_instance,
    solve,
    solve_tractable,
)

CASES_PER_KIND = 40
P0 = make_table([1, 0], "P0")
P1 = make_table([0, 1], "P1")


def _ed_ties(rng, trial):
    pool = [
        random_ed_constraint(rng, rng.randint(1, 3), f"E{trial}"),
        random_af_constraint(rng, rng.randint(1, 3), f"A{trial}"),
        EQ,
        XOR,
    ]
    return random_instance(rng.randint(1, 10), pool, rng.randint(0, 12), trial)


def _uncertified(rng, trial):
    pool = [NAND, IMPLIES, random_imopt_constraint(rng, rng.randint(2, 3), f"W{trial}")]
    if rng.random() < 0.5:
        pool.append(random_ed_constraint(rng, 2, f"E{trial}"))
    return random_instance(rng.randint(2, 10), pool, rng.randint(1, 12), trial)


def _constants(rng, trial):
    constant = make_table([Fraction(rng.randint(0, 3), rng.randint(1, 3))], f"K{trial}")
    pool = [constant, EQ, random_ed_constraint(rng, 2, f"E{trial}")]
    if rng.random() < 0.5:
        pool.append(NAND)
    return random_instance(rng.randint(1, 8), pool, rng.randint(1, 10), trial)


def _pins(rng, trial):
    pool = [P0, P1, EQ, XOR]
    return random_instance(rng.randint(1, 6), pool, rng.randint(2, 10), trial)


def _unused(rng, trial):
    pool = [random_ed_constraint(rng, 2, f"E{trial}"), NAND, XOR]
    return random_instance(rng.randint(6, 12), pool, rng.randint(0, 3), trial)


def _no_vars(rng, trial):
    pool = [make_table([Fraction(rng.randint(0, 5), rng.randint(1, 4))], f"K{trial}")]
    return random_instance(0, pool, rng.randint(0, 3), trial)


KINDS = {
    "ed_ties": _ed_ties,
    "uncertified": _uncertified,
    "constants": _constants,
    "pins": _pins,
    "unused": _unused,
    "no_vars": _no_vars,
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_routes_match_the_oracle(kind):
    rng = random.Random(f"routes-{kind}")
    certified = 0
    for trial in range(CASES_PER_KIND):
        inst = KINDS[kind](rng, trial)
        want = brute_force(inst)
        for method in ("auto", "brute"):
            got = solve(inst, method)
            assert (got.optimum, got.argmax) == (want.optimum, want.argmax)
        if certify_instance(inst) is None:
            assert solve(inst).method == "brute_force"
            with pytest.raises(CertificateError):
                solve(inst, "tractable")
        else:
            certified += 1
            got = solve(inst, "tractable")
            assert got.method == "parity_components"
            assert (got.optimum, got.argmax) == (want.optimum, want.argmax)
        hill = solve(inst, "hill", seed=trial, restarts=3)
        assert hill.method == "external"
        assert measure(inst, hill.argmax) == hill.optimum
        with pytest.raises(ArgumentError):
            solve(inst, "hill", exact_only=True)
    # The NAND/IMPLIES pools mostly reach brute force; every other kind
    # reaches the parity route.
    if kind == "uncertified":
        assert certified < CASES_PER_KIND // 4
    else:
        assert certified > 0


def test_unknown_method_refused():
    with pytest.raises(ArgumentError):
        solve(CspInstance(1, ()), "flow")


def test_brute_honours_max_n():
    inst = CspInstance(5, ((EQ, (1, 5)),))
    with pytest.raises(CapExceededError):
        solve(inst, "brute", max_n=4)
    assert solve(inst, max_n=4).method == "parity_components"


def test_scheme_strategies_map_to_routes():
    rng = random.Random(3)
    inst = _uncertified(rng, 0)
    assert approx_scheme(inst, 0.5, "exact") == brute_force(inst).argmax
    bits = approx_scheme(inst, 0.5, "hill", seed=4, restarts=2)
    assert bits == solve(inst, "hill", seed=4, restarts=2).argmax
    with pytest.raises(ArgumentError):
        approx_scheme(inst, 0.5, "brute")


def _large_ed_instance(n: int = 2000) -> CspInstance:
    """Parity links consistent with a hidden assignment, so the optimum is
    not zero, plus positive unary weights on a third of the variables."""
    rng = random.Random(n)
    hidden = [rng.randint(0, 1) for _ in range(n + 1)]
    apps = []
    for _ in range(n):
        u, v = rng.randint(1, n), rng.randint(1, n)
        apps.append((EQ if hidden[u] == hidden[v] else XOR, (u, v)))
    unaries = [make_table([1, 2], "U12"), make_table([3, 1], "U31")]
    apps += [(rng.choice(unaries), (rng.randint(1, n),)) for _ in range(n // 3)]
    return CspInstance(n, tuple(apps))


def test_exact_schemes_take_the_parity_route_past_the_cap():
    inst = _large_ed_instance()
    want = solve_tractable(inst, certify_instance(inst)).argmax
    assert measure(inst, want) > 0 and 0 < sum(want) < inst.num_vars
    assert approx_scheme(inst, 0.5, "exact") == want
    assert exact_csp_scheme(inst, 0.5) == want
    identity = Reduction("id", lambda source: source, lambda bits, source: tuple(bits))
    solution, log = apt_wrap(identity, exact_csp_scheme)(inst, 0.5)
    assert solution == want and len(log.calls) == 1
