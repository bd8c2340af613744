"""Named invariant suites, runnable from the command line and reused by the
test suite. Every check is seeded and deterministic."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import gen, reductions, routes
from .construct import ConstructionScript, replay
from .graphs import graph_brute_force, graph_measure
from .instances import (
    CspInstance,
    brute_force,
    check_ratio,
    int_to_assignment,
    measure,
)
from .membership import (
    certificate_matches,
    has_affine_support,
    has_imp_support,
    is_af,
    is_degenerate,
    is_ed,
    is_imopt,
    log_expansion,
)
from .oracles import (
    affine_by_equation_enumeration,
    oracle_degenerate,
    oracle_ed,
    oracle_imopt,
    rectangle_condition_holds,
)
from .tables import BUILTINS, ConstraintTable, EQ, XOR, make_table
from .formats import parse_constraints, parse_instance, render_constraint, render_instance
from .trichotomy import Category, classify_set

ONE = Fraction(1)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _random_table(rng: random.Random, arity: int, zeros: bool = True) -> ConstraintTable:
    values = [Fraction(rng.randint(0 if zeros else 1, 12), rng.randint(1, 6))
              for _ in range(1 << arity)]
    if zeros and all(v == 0 for v in values):
        values[rng.randrange(len(values))] = ONE
    return make_table(values)


def suite_tables(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    ok = True
    for _ in range(200):
        t = _random_table(rng, rng.randint(0, 4)).with_name("T")
        back = parse_constraints(render_constraint(t))["T"]
        ok &= back == t
    out.append(CheckResult("tables", "render/parse round trip", ok))

    ok = True
    for _ in range(200):
        k = rng.randint(0, 4)
        f, g = _random_table(rng, k), _random_table(rng, k)
        prod = f.multiply(g)
        x = rng.randrange(1 << k) if k else 0
        ok &= prod.weights[x] == f.weights[x] * g.weights[x]
    out.append(CheckResult("tables", "multiply is pointwise", ok))

    ok = True
    for _ in range(200):
        k = rng.randint(1, 4)
        f = _random_table(rng, k)
        i, c = rng.randint(1, k), rng.randint(0, 1)
        pinned = f.pin(i, c)
        for idx in range(1 << (k - 1)):
            bits = list(int_to_assignment(idx, k - 1))
            full = bits[: i - 1] + [c] + bits[i - 1 :]
            ok &= pinned.weights[idx] == f.evaluate(full)
    out.append(CheckResult("tables", "pin agrees with substitution", ok))

    ok = True
    for _ in range(100):
        k = rng.randint(1, 6)
        d = rng.randint(0, k)
        f = _random_table(rng, k)
        g = f.maximize_out(d)
        for idx in range(1 << (k - d)):
            want = max(
                f.weights[(idx << d) | rest] for rest in range(1 << d)
            )
            ok &= g.weights[idx] == want
        ok &= f.maximize_out(0) == f
    out.append(CheckResult("tables", "maximize_out = exhaustive max (arity <= 6)", ok))

    ok = True
    for _ in range(200):
        k = rng.randint(2, 4)
        f = _random_table(rng, k)
        i = rng.randint(1, k - 1)
        j = rng.randint(i + 1, k)
        ok &= sorted(f.permute(i, j).weights) == sorted(f.weights)
        ok &= sorted(f.complement_variable(i).weights) == sorted(f.weights)
        ok &= f.permute(i, j).permute(i, j) == f
        ok &= f.complement_variable(i).complement_variable(i) == f
    out.append(CheckResult("tables", "permute/complement are weight bijections", ok))

    ok = True
    for _ in range(200):
        f = _random_table(rng, rng.randint(0, 4))
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        ok &= f.scale(lam).support() == f.support()
        ok &= f.scale(lam).scale(1 / lam) == f
    out.append(CheckResult("tables", "scaling preserves the support", ok))

    ok = True
    for _ in range(100):
        k = rng.randint(0, 4)
        f = _random_table(rng, k)
        p = rng.randint(0, k)
        g = f.expand(p)
        ok &= g.pin(p + 1, 0) == f and g.pin(p + 1, 1) == f
    out.append(CheckResult("tables", "expand then pin is the identity", ok))
    return out


_CURATED = [
    BUILTINS["EQ"], BUILTINS["XOR"], BUILTINS["D0"], BUILTINS["D1"],
    BUILTINS["OR"], BUILTINS["NAND"], BUILTINS["IMPLIES"],
    make_table([1, 1, Fraction(1, 2), 1]), make_table([2, 1, 1, 1]),
    make_table([1, 2, 2, 1]), make_table([2, 4, 3, 6]),
    make_table([1, 0, 0, 0, 0, 0, 0, 2]),
]


def suite_membership(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    ok = True
    detail = ""
    pool = list(_CURATED) + [_random_table(rng, rng.randint(0, 3)) for _ in range(300)]
    for t in pool:
        for cert in (is_degenerate(t), is_ed(t), is_af(t), is_imopt(t)):
            if cert is not None and not certificate_matches(cert, t):
                ok = False
                detail = f"unsound certificate for {t}"
    out.append(CheckResult("membership", "certificates rebuild their constraint", ok, detail))

    ok = True
    grid = [Fraction(0), Fraction(1, 2), ONE, Fraction(2)]
    for k in (0, 1, 2):
        for ws in itertools.product(grid, repeat=1 << k):
            t = ConstraintTable(k, ws)
            if (
                oracle_degenerate(t) != (is_degenerate(t) is not None)
                or oracle_ed(t) != (is_ed(t) is not None)
                or oracle_imopt(t) != (is_imopt(t) is not None)
            ):
                ok = False
    sample = rng.sample(range(4**8), 300)
    for code in sample:
        ws = tuple(grid[(code // 4**p) % 4] for p in range(8))
        t = ConstraintTable(3, ws)
        if (
            oracle_degenerate(t) != (is_degenerate(t) is not None)
            or oracle_ed(t) != (is_ed(t) is not None)
            or oracle_imopt(t) != (is_imopt(t) is not None)
        ):
            ok = False
    out.append(CheckResult("membership", "deciders agree with the enumeration oracles", ok))

    ok = True
    for _ in range(300):
        t = _random_table(rng, rng.randint(0, 3))
        if is_degenerate(t) is not None:
            ok &= is_ed(t) is not None and is_af(t) is not None and is_imopt(t) is not None
        if is_ed(t) is not None or is_af(t) is not None:
            ok &= has_affine_support(t)
        if is_imopt(t) is not None:
            ok &= has_imp_support(t)
        if t.arity >= 1:  # arity 0 is degenerate only at value 1
            ok &= rectangle_condition_holds(t) == (is_degenerate(t) is not None)
    out.append(CheckResult("membership", "class inclusions hold", ok))

    ok = True
    for trial in range(200):
        x, y, z, w = gen.random_positive_quadruple(rng, want_greater=(trial % 2 == 0))
        t = make_table([x, y, z, w])
        member = is_imopt(t) is not None
        ok &= member == (x * w > y * z)
    out.append(CheckResult("membership", "binary full-support membership = xw>yz", ok))

    ok = True
    for _ in range(300):
        t = _random_table(rng, rng.randint(1, 4))
        if has_imp_support(t):
            pts = t.support().indices()
            k = t.arity
            for a in pts:
                for b in pts:
                    ok &= ((a & b) in t.support()) and ((a | b) in t.support())
    out.append(CheckResult("membership", "imp supports are AND/OR closed", ok))

    ok = True
    for _ in range(400):
        t = _random_table(rng, rng.randint(0, 4))
        ok &= has_affine_support(t) == affine_by_equation_enumeration(t)
    out.append(CheckResult("membership", "affine verdict matches GF(2) solving (arity <= 4)", ok))

    ok = True
    for _ in range(150):
        t = _random_table(rng, rng.randint(0, 3), zeros=False)
        exp = log_expansion(t)
        for idx in range(1 << t.arity):
            bits = int_to_assignment(idx, t.arity)
            want = float(__import__("math").log2(float(t.weights[idx])))
            ok &= abs(exp.reconstruct(bits) - want) < 1e-9
        if is_degenerate(t) is not None:
            ok &= exp.degree() <= 1 or all(
                abs(c) < 1e-9 for S, c in exp.coefficients.items() if len(S) >= 2
            )
    out.append(CheckResult("membership", "log expansion reconstructs log2 f", ok))
    return out


def suite_trichotomy(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []
    order = {Category.PO_ED: 0, Category.INTERMEDIATE_IMOPT: 1, Category.IS_HARD: 2}

    ok = True
    for _ in range(60):
        size = rng.randint(1, 3)
        sets = [rng.choice(_CURATED) for _ in range(size)]
        extra = rng.choice(_CURATED)
        before = classify_set(sets).category
        after = classify_set(sets + [extra]).category
        ok &= order[after] >= order[before]
    out.append(CheckResult("trichotomy", "adding constraints never eases the category", ok))

    ok = True
    for _ in range(60):
        size = rng.randint(1, 3)
        sets = [rng.choice(_CURATED) for _ in range(size)]
        unary = _random_table(rng, 1)
        ok &= classify_set(sets).category == classify_set(sets + [unary]).category
    out.append(CheckResult("trichotomy", "unary constraints never change the category", ok))

    ok = True
    for i in range(40):
        if i % 2 == 0:
            t = gen.random_ed_constraint(rng, rng.randint(1, 3), f"E{i}")
        else:
            t = gen.random_af_constraint(rng, rng.randint(1, 3), f"A{i}")
        ok &= classify_set([t]).category is Category.PO_ED
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        other = gen.random_ed_constraint(rng, t.arity, f"M{i}")
        ok &= classify_set([t.multiply(other).scale(lam)]).category is Category.PO_ED
    out.append(CheckResult("trichotomy", "certified pools classify as PO", ok))
    return out


def suite_instances(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    ok = True
    for trial in range(40):
        pool = [
            gen.random_ed_constraint(rng, rng.randint(1, 3), f"E{trial}a"),
            gen.random_af_constraint(rng, rng.randint(1, 3), f"A{trial}b"),
            EQ,  # unweighted links leave ties, where the argmax tie-break shows
            XOR,
        ]
        inst = gen.random_instance(rng.randint(1, 8), pool, rng.randint(0, 10), seed + trial)
        got = routes.solve(inst, "tractable")
        want = brute_force(inst)
        ok &= got.optimum == want.optimum
        ok &= got.argmax == want.argmax
        ok &= measure(inst, got.argmax) == got.optimum
    out.append(CheckResult("instances", "tractable solver matches brute force", ok))

    ok = True
    for trial in range(30):
        pool = [gen.random_ed_constraint(rng, 2, f"S{trial}")]
        inst = gen.random_instance(4, pool, 4, seed + trial)
        if not inst.applications:
            continue
        base = brute_force(inst)
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        pos = rng.randrange(len(inst.applications))
        apps = list(inst.applications)
        table, variables = apps[pos]
        apps[pos] = (table.scale(lam), variables)
        scaled = brute_force(CspInstance(inst.num_vars, tuple(apps)))
        ok &= scaled.optimum == lam * base.optimum
        ok &= scaled.argmax == base.argmax
    out.append(CheckResult("instances", "scaling one application scales the optimum", ok))

    ok = True
    for trial in range(30):
        pool = [_random_table(rng, 2).with_name(f"Z{trial}")]
        inst = gen.random_instance(5, pool, 6, seed + trial)
        result = brute_force(inst)
        any_nonzero = any(
            measure(inst, int_to_assignment(a, 5)) > 0 for a in range(32)
        )
        ok &= result.is_zero == (not any_nonzero)
        ok &= (result.log2 is None) == result.is_zero
    out.append(CheckResult("instances", "zero optimum exactly when all measures vanish", ok))

    ok = True
    for trial in range(30):
        pool = [_random_table(rng, 2).with_name(f"P{trial}")]
        inst = gen.random_instance(5, pool, 6, seed + trial)
        perm = list(inst.applications)
        rng.shuffle(perm)
        shuffled = CspInstance(inst.num_vars, tuple(perm))
        bits = int_to_assignment(rng.randrange(32), 5)
        ok &= measure(inst, bits) == measure(shuffled, bits)
        ok &= brute_force(inst).optimum == brute_force(shuffled).optimum
    out.append(CheckResult("instances", "the measure is order independent", ok))

    ok = True
    for trial in range(10):
        pool = [make_table([1, 1, 1, 1], "TIE"), _random_table(rng, 2).with_name(f"W{trial}")]
        inst = gen.random_instance(6, pool, 5, seed + trial)
        solo = brute_force(inst, workers=1)
        par = brute_force(inst, workers=8)
        ok &= (solo.optimum, solo.argmax) == (par.optimum, par.argmax)
    out.append(CheckResult("instances", "8-way brute force is deterministic", ok))

    ok = True
    for trial in range(20):
        g = gen.random_graph("IS", rng.randint(0, 9), seed + trial)
        ok &= graph_brute_force(g).optimum == brute_force(reductions.is_to_csp(g)).optimum
    out.append(CheckResult("instances", "IS enumeration = its CSP encoding", ok))

    ok = (
        check_ratio(Fraction(6), Fraction(3), 2)
        and not check_ratio(Fraction(6), Fraction(1), 2)
        and check_ratio(Fraction(0), Fraction(0), 5)
        and not check_ratio(Fraction(0), Fraction(1), 5)
        and measure(CspInstance(3, ()), (0, 1, 0)) == 1
    )
    out.append(CheckResult("instances", "ratio zero-rule and empty product", ok))

    ok = True
    for trial in range(8):
        pool = [
            gen.random_ed_constraint(rng, rng.randint(1, 3), f"R{trial}a"),
            gen.random_af_constraint(rng, rng.randint(2, 3), f"R{trial}b"),
            EQ,
            XOR,
        ]
        if trial == 0:  # a parity instance at the benchmark's scale
            inst = gen.random_instance(2000, pool, 4000, seed + trial)
        else:
            pool += [
                gen.random_imopt_constraint(rng, rng.randint(1, 3), f"R{trial}c"),
                make_table([Fraction(rng.randint(0, 5), rng.randint(1, 4))], f"R{trial}k"),
            ]
            inst = gen.random_instance(rng.randint(1, 12), pool, rng.randint(0, 20), seed + trial)
        back = parse_instance(render_instance(inst))
        ok &= back.num_vars == inst.num_vars
        ok &= back.applications == inst.applications  # tables compare by weights
        ok &= all(type(v) is int for _, vs in back.applications for v in vs)
    out.append(CheckResult("instances", "rendered instances parse back to the same applications", ok))

    ok = True
    for trial in range(10):
        n = rng.randint(9, 11)
        # Small weights and EQ links leave ties, where the argmax tie-break shows.
        pool = [make_table([rng.choice((0, 1, 1, 2)) for _ in range(1 << k)], f"B{trial}_{k}")
                for k in (1, 2, 3)] + [EQ]
        inst = gen.random_instance(n, pool, 2 * n, seed + trial)
        result = brute_force(inst)
        value, neg_a = max(
            (measure(inst, int_to_assignment(a, n)), -a) for a in range(1 << n)
        )
        ok &= (result.optimum, result.argmax) == (value, int_to_assignment(-neg_a, n))
    out.append(CheckResult(
        "instances", "brute force equals the measure enumeration past the 6-variable block", ok))
    return out


def suite_reductions(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    ok = True
    for trial in range(15):
        n = rng.randint(0, 7)
        g = gen.random_graph("IS", n, seed + trial)
        csp = reductions.is_to_csp(g)
        flipped = reductions.complement_all(csp)
        for a in range(1 << n):
            bits = int_to_assignment(a, n)
            ok &= graph_measure(g, bits) == measure(csp, bits)
            ok &= measure(csp, bits) == measure(flipped, tuple(1 - b for b in bits))
        b = gen.random_graph("BIS", n, seed + 100 + trial)
        enc = reductions.bis_to_implies(b)
        for a in range(1 << n):
            bits = int_to_assignment(a, n)
            csp_bits = tuple(bit ^ b.blocks[i] for i, bit in enumerate(bits))
            ok &= graph_measure(b, bits) == measure(enc, csp_bits)
    out.append(CheckResult("reductions", "graph encodings preserve measures pointwise", ok))

    ok = True
    for trial in range(15):
        pool = [
            gen.random_imopt_constraint(rng, rng.randint(1, 3), f"F{trial}", allow_hard=True)
        ]
        inst = gen.random_instance(rng.randint(1, 7), pool, rng.randint(1, 6), seed + trial)
        value, bits = reductions.solve_via_flow(inst)
        ok &= value == brute_force(inst).optimum
        ok &= measure(inst, bits) == value
    out.append(CheckResult("reductions", "flow argmax re-evaluates to the optimum", ok))

    ok = True
    scripts = [
        (ConstructionScript("OR", (("mul", "NAND"),)), BUILTINS["XOR"]),
        (ConstructionScript("EQ", (("scale", Fraction(3)),)), None),
        (ConstructionScript("IMPLIES", (("maxout", 1),)), None),
        (ConstructionScript("OR", (("link", 1, 2),)), None),
    ]
    for trial in range(12):
        script, known = scripts[trial % len(scripts)]
        target = (known or replay(script)).with_name(f"T{trial}")
        pool = [target, BUILTINS["EQ"], _random_table(rng, 1).with_name(f"u{trial}")]
        inst = gen.random_instance(rng.randint(1, 6), pool, rng.randint(1, 6), seed + trial)
        rw = reductions.rewrite_by_construction(inst, target, script)
        original = brute_force(inst)
        rewritten = brute_force(rw.instance, max_n=30)
        ok &= rewritten.optimum * rw.scale_total**rw.occurrences == original.optimum
        ok &= measure(inst, rw.project(rewritten.argmax)) == original.optimum
    out.append(CheckResult("reductions", "script rewriting preserves the optimum exactly", ok))

    ok = True
    for trial in range(10):
        g = gen.random_graph("BIS", rng.randint(1, 7), seed + trial)
        scheme = reductions.apt_wrap(
            reductions.reduction_bis_to_implies(), reductions.exact_csp_scheme
        )
        sol, log = scheme(g, 0.5)
        ok &= graph_measure(g, sol) == graph_brute_force(g).optimum
        ok &= log.bound_report == 2.0 and len(log.calls) == 1
    out.append(CheckResult("reductions", "apt composition with an exact oracle is exact", ok))
    return out


SUITES = {
    "tables": suite_tables,
    "membership": suite_membership,
    "trichotomy": suite_trichotomy,
    "instances": suite_instances,
    "reductions": suite_reductions,
}


def run_suites(names: list[str], seed: int = 0) -> list[CheckResult]:
    results = []
    for name in names:
        results.extend(SUITES[name](seed))
    return results
