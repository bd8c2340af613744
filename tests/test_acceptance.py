"""Acceptance criteria.

Each test runs one criterion at its stated scale and tolerance and prints a
single PASS/FAIL line (visible with `pytest -s` or in captured output).
"""

import itertools
import random
import time
from fractions import Fraction

from prodcsp import (
    ConstructionScript,
    CspInstance,
    D0,
    D1,
    EQ,
    IMPLIES,
    NAND,
    OR,
    XOR,
    brute_force,
    certificate_matches,
    certify_instance,
    check_ratio,
    classify_set,
    complement_all,
    graph_brute_force,
    graph_measure,
    imopt_to_flow,
    is_degenerate,
    is_ed,
    is_imopt,
    is_to_csp,
    bis_to_implies,
    make_table,
    measure,
    memberships,
    random_af_constraint,
    random_ed_constraint,
    random_graph,
    random_imopt_constraint,
    random_instance,
    random_positive_quadruple,
    rewrite_by_construction,
    solve_tractable,
    solve_via_flow,
)
from prodcsp.construct import replay
from prodcsp.instances import int_to_assignment
from prodcsp.oracles import oracle_degenerate, oracle_ed, oracle_imopt
from prodcsp.tables import ConstraintTable
from prodcsp.trichotomy import Category

F = Fraction


def report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s){suffix}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget:.0f}s"


ATLAS = [
    ("EQ", EQ, {"ED", "AF", "IM_opt", "affine_support", "imp_support"}),
    ("XOR", XOR, {"ED", "AF", "affine_support"}),
    ("D0", D0, {"DG", "ED", "AF", "IM_opt", "affine_support", "imp_support"}),
    ("D1", D1, {"DG", "ED", "AF", "IM_opt", "affine_support", "imp_support"}),
    ("OR", OR, set()),
    ("NAND", NAND, set()),
    ("IMPLIES", IMPLIES, {"IM_opt", "imp_support"}),
    ("half", make_table([1, 1, F(1, 2), 1]), {"NZ", "IM_opt", "affine_support", "imp_support"}),
    ("two", make_table([2, 1, 1, 1]), {"NZ", "IM_opt", "affine_support", "imp_support"}),
    ("anti", make_table([1, 2, 2, 1]), {"NZ", "affine_support", "imp_support"}),
    ("rank1", make_table([2, 4, 3, 6]), {"NZ", "DG", "ED", "AF", "IM_opt", "affine_support", "imp_support"}),
    ("twin", make_table([1, 0, 0, 0, 0, 0, 0, 2]), {"ED", "AF", "IM_opt", "affine_support", "imp_support"}),
]


def test_criterion_1_classifier_atlas():
    start = time.time()
    ok = True
    detail = ""
    for name, table, expected in ATLAS:
        classes, certs = memberships(table)
        if classes != frozenset(expected):
            ok, detail = False, f"{name}: got {sorted(classes)}, want {sorted(expected)}"
            break
        for label, cert in certs.items():
            if not certificate_matches(cert, table):
                ok, detail = False, f"{name}: {label} certificate does not rebuild"
                break
    if ok:
        cases = [
            ([EQ, XOR], Category.PO_ED),
            ([IMPLIES], Category.INTERMEDIATE_IMOPT),
            ([OR], Category.IS_HARD),
            ([XOR, IMPLIES], Category.IS_HARD),
        ]
        for tables, want in cases:
            got = classify_set(tables).category
            if got is not want:
                ok, detail = False, f"classify_set({[t.name for t in tables]}) = {got}"
                break
    report("criterion-1 classifier atlas", ok, time.time() - start, 1.0, detail)


def test_criterion_2_decider_vs_oracle():
    start = time.time()
    grid = [F(0), F(1, 2), F(1), F(2)]
    disagreements = 0
    total = 0
    for arity in range(4):
        for ws in itertools.product(grid, repeat=1 << arity):
            table = ConstraintTable(arity, ws)
            total += 1
            if (
                oracle_degenerate(table) != (is_degenerate(table) is not None)
                or oracle_ed(table) != (is_ed(table) is not None)
                or oracle_imopt(table) != (is_imopt(table) is not None)
            ):
                disagreements += 1
    report(
        "criterion-2 decider-vs-oracle",
        disagreements == 0 and total == 4 + 16 + 256 + 65536,
        time.time() - start,
        600.0,
        f"{total} tables, {disagreements} disagreements",
    )


def test_criterion_3_tractable_solver():
    start = time.time()
    rng = random.Random(2024)
    agree = 0
    for trial in range(200):
        pool = []
        for i in range(rng.randint(1, 3)):
            arity = rng.randint(1, 3)
            maker = random_ed_constraint if rng.random() < 0.5 else random_af_constraint
            pool.append(maker(rng, arity, f"g{trial}_{i}"))
        inst = random_instance(rng.randint(1, 12), pool, rng.randint(0, 20), trial)
        certs = certify_instance(inst)
        fast = solve_tractable(inst, certs)
        slow = brute_force(inst)
        if fast.optimum == slow.optimum and measure(inst, fast.argmax) == fast.optimum:
            agree += 1
    report(
        "criterion-3 tractable solver",
        agree == 200,
        time.time() - start,
        60.0,
        f"{agree}/200 exact agreements",
    )


def test_criterion_4_reduction_soundness():
    start = time.time()
    is_ok = bis_ok = 0
    for trial in range(100):
        g = random_graph("IS", 3 + trial % 10, 7000 + trial)
        direct = graph_brute_force(g).optimum
        encoded = brute_force(is_to_csp(g)).optimum
        flipped = brute_force(complement_all(is_to_csp(g))).optimum
        if direct == encoded == flipped:
            is_ok += 1
        b = random_graph("BIS", 3 + trial % 10, 8000 + trial)
        if graph_brute_force(b).optimum == brute_force(bis_to_implies(b)).optimum:
            bis_ok += 1
    report(
        "criterion-4 reduction soundness",
        is_ok == 100 and bis_ok == 100,
        time.time() - start,
        60.0,
        f"IS {is_ok}/100, BIS {bis_ok}/100",
    )


def test_criterion_5_flow_reduction():
    start = time.time()
    rng = random.Random(55)
    value_ok = 0
    identity_checked = 0
    for trial in range(100):
        n = rng.randint(1, 10)
        pool = [
            random_imopt_constraint(
                rng, rng.randint(1, 3), f"f{trial}_{i}", allow_hard=(trial % 2 == 0)
            )
            for i in range(rng.randint(1, 2))
        ] + ([IMPLIES] if trial % 4 == 0 else [])
        inst = random_instance(n, pool, rng.randint(1, 8), 9000 + trial)
        value, bits = solve_via_flow(inst)
        if value == brute_force(inst).optimum and measure(inst, bits) == value:
            value_ok += 1
        red = imopt_to_flow(inst)
        if not red.trivially_zero and not red.has_hard_pairs and not red.pinned:
            pointwise = all(
                measure(inst, int_to_assignment(a, n))
                == red.constant * graph_measure(red.graph, int_to_assignment(a, n))
                for a in range(1 << n)
            )
            if not pointwise:
                value_ok = -1000  # force failure with a visible count
            identity_checked += 1
    report(
        "criterion-5 flow reduction",
        value_ok == 100 and identity_checked > 10,
        time.time() - start,
        120.0,
        f"{value_ok}/100 values, {identity_checked} pointwise identities",
    )


def test_criterion_6_rewriting():
    start = time.time()
    scripts = [
        ("xor=or*nand", ConstructionScript("OR", (("mul", "NAND"),)), XOR),
        ("d1=link(or)", ConstructionScript("OR", (("link", 1, 2),)), None),
        ("ones=maxout(implies)", ConstructionScript("IMPLIES", (("maxout", 1),)), None),
        ("eq3=scale(eq,3)", ConstructionScript("EQ", (("scale", F(3)),)), None),
    ]
    rng = random.Random(66)
    failures = []
    for label, script, known in scripts:
        target = (known or replay(script)).with_name(f"T_{label}")
        for trial in range(50):
            pool = [target, EQ, make_table([1, 2], "u")]
            inst = random_instance(rng.randint(1, 6), pool, rng.randint(1, 6),
                                   10_000 + trial)
            rw = rewrite_by_construction(inst, target, script)
            original = brute_force(inst)
            rewritten = brute_force(rw.instance, max_n=30)
            exact = rewritten.optimum * rw.scale_total**rw.occurrences == original.optimum
            projected = measure(inst, rw.project(rewritten.argmax)) == original.optimum
            if not (exact and projected):
                failures.append((label, trial))
    report(
        "criterion-6 rewriting",
        not failures,
        time.time() - start,
        60.0,
        f"4 scripts x 50 instances, failures: {failures[:3]}",
    )


def test_criterion_7_binary_membership_sampling():
    start = time.time()
    rng = random.Random(77)
    members = non_members = 0
    for _ in range(1000):
        x, y, z, w = random_positive_quadruple(rng, want_greater=True)
        table = make_table([x, y, z, w])
        cert = is_imopt(table)
        if cert is not None and certificate_matches(cert, table):
            members += 1
    for _ in range(1000):
        x, y, z, w = random_positive_quadruple(rng, want_greater=False)
        if is_imopt(make_table([x, y, z, w])) is None:
            non_members += 1
    report(
        "criterion-7 binary membership sampling",
        members == 1000 and non_members == 1000,
        time.time() - start,
        30.0,
        f"{members}/1000 certified, {non_members}/1000 rejected",
    )


def test_criterion_8_framework_conventions():
    start = time.time()
    ok = measure(CspInstance(4, ()), (0, 1, 1, 0)) == 1
    ok &= brute_force(CspInstance(0, ())).optimum == 1
    ok &= graph_measure(
        __import__("prodcsp").GraphInstance("IS", 2, (), (F(5), F(7))), (0, 0)
    ) == 1

    ok &= check_ratio(F(6), F(3), 2) and not check_ratio(F(6), F(1), 2)
    ok &= check_ratio(F(0), F(0), 3) and not check_ratio(F(0), F(1), 3)

    rng = random.Random(88)
    tie = make_table([1, 1, 1, 1], "TIE")
    for trial in range(15):
        pool = [tie, random_ed_constraint(rng, 2, f"c{trial}")]
        inst = random_instance(rng.randint(1, 8), pool, rng.randint(0, 6), trial)
        solo = brute_force(inst, workers=1)
        eight = brute_force(inst, workers=8)
        ok &= (solo.optimum, solo.argmax) == (eight.optimum, eight.argmax)

    for trial in range(15):
        g = random_graph("IS", rng.randint(1, 7), 500 + trial)
        inst = is_to_csp(g)
        twice = complement_all(complement_all(inst))
        ok &= [(t.weights, v) for t, v in twice.applications] == [
            (t.weights, v) for t, v in inst.applications
        ]
    report("criterion-8 framework conventions", bool(ok), time.time() - start, 60.0)
