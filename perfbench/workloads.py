"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is a fixed, seeded list of CLI calls on files written before
any timing starts. The seed changes the tables, graphs and instances; the
shape of the mix (shares, arities, sizes, call order) is the same for every
seed, so runs with different seeds measure the same amount of work.

Every call's output is checked after the call returns, outside its timed
region. Expected values come from how the input was built (a file built only
from ED tables is PO_ED), from the enumeration oracles on small dyadic
tables, and from re-evaluating the printed argmax with `measure`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

from prodcsp import gen, reductions
from prodcsp.formats import render_constraint, render_instance
from prodcsp.graphs import GraphInstance
from prodcsp.instances import CspInstance, brute_force, measure
from prodcsp.membership import (
    AfCertificate,
    DegenerateCertificate,
    EdCertificate,
    ImOptCertificate,
    certificate_matches,
)
from prodcsp.oracles import oracle_degenerate, oracle_ed, oracle_imopt
from prodcsp.tables import D0, D1, ConstraintTable, make_table

F = Fraction
# Weights of the random tables: zeros, non-dyadic thirds and dyadic halves.
WEIGHTS = (F(0), F(1, 3), F(1, 2), F(1), F(2), F(3))
POSITIVE = WEIGHTS[1:]


@dataclass
class Item:
    """One CLI call: its argv, the work it stands for, and its output check.

    `check` returns None when the output is right, else a short reason.
    """

    argv: list[str]
    work: int
    check: Callable[[str], str | None]
    key: str


@dataclass
class Workload:
    name: str
    calls: list[Item]  # one cycle; the run repeats it in this order
    warmup: list[list[str]]  # one call per route, on files outside the pool
    work_name: str  # what work_per_s counts here, e.g. tables_per_s
    tail_q: float  # latency percentile reported as latency_tail_ms
    trace_cycles: int  # cycles of `calls` the traced run replays
    siblings: list[Item] = field(default_factory=list)  # checked once, untimed


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def _machine_lines(out: str) -> dict[str, str]:
    lines = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            lines[key] = value
    return lines


def _bit(idx: int, var: int, arity: int) -> int:
    return (idx >> (arity - var)) & 1


def _scale_unary(table: ConstraintTable, var: int, w0: Fraction, w1: Fraction) -> ConstraintTable:
    """Multiply a table by a positive unary factor on one variable; this
    keeps every class (DG, ED, AF, IM_opt) the table belongs to."""
    k = table.arity
    out = [w * (w1 if _bit(i, var, k) else w0) for i, w in enumerate(table.weights)]
    return make_table(out, table.name)


def _random_table(rng: random.Random, arity: int, name: str) -> ConstraintTable:
    return make_table([rng.choice(WEIGHTS) for _ in range(1 << arity)], name)


def _pair_table(rng: random.Random, name: str, imopt: bool) -> ConstraintTable:
    """A full-support binary table (a, b, c, d) with a*d > b*c (IM_opt, not
    ED or AF) or a*d < b*c (in none of ED, AF, IM_opt)."""
    while True:
        a, b, c, d = (rng.choice(POSITIVE) for _ in range(4))
        if a * d != b * c and (a * d > b * c) == imopt:
            return make_table([a, b, c, d], name)


def _is_dyadic(w: Fraction) -> bool:
    n, d = w.numerator, w.denominator
    return w == 0 or (n & (n - 1) == 0 and d & (d - 1) == 0)


# ---------------------------------------------------------------------------
# classify-mix

CATEGORY_ORDER = ("PO_ED", "INTERMEDIATE_IMOPT", "IS_HARD", "PO_ED", "INTERMEDIATE_IMOPT",
                  "IS_HARD", "PO_ED", "INTERMEDIATE_IMOPT", "IS_HARD", "PO_ED")
CLASSIFY_FILES = 2400
CERT_LABELS = ("DG", "ED", "AF", "IM_opt")


def _classify_file(rng: random.Random, category: str):
    """Six tables of arity 1-4 whose set has the given category by
    construction. Returns [(table, classes it must have, classes it must
    lack)]."""
    tables = [(_random_table(rng, 1, "t0"), set(), set())]
    if category == "PO_ED":
        for pos, k in enumerate((2, 2, 3, 3, 4), start=1):
            if pos % 2:
                t, has = gen.random_ed_constraint(rng, k, f"t{pos}"), {"ED"}
            else:
                t, has = gen.random_af_constraint(rng, k, f"t{pos}"), {"AF"}
            tables.append((t, has, set()))
    elif category == "INTERMEDIATE_IMOPT":
        tables.append((_pair_table(rng, "t1", imopt=True), {"IM_opt"}, {"ED", "AF"}))
        for pos, k in enumerate((2, 3, 3, 4), start=2):
            t = gen.random_imopt_constraint(rng, k, f"t{pos}", allow_hard=pos % 2 == 0)
            tables.append((t, {"IM_opt"}, set()))
    else:
        tables.append((_pair_table(rng, "t1", imopt=False), set(), {"ED", "AF", "IM_opt"}))
        tables.append((_random_table(rng, 3, "t2"), set(), set()))
        tables.append((_random_table(rng, 4, "t3"), set(), set()))
        tables.append((gen.random_ed_constraint(rng, 3, "t4"), {"ED"}, set()))
        tables.append((gen.random_imopt_constraint(rng, 2, "t5"), {"IM_opt"}, set()))
    # Non-dyadic unary scaling on half the generated tables sends them down
    # the float certificate path of the IM_opt decider.
    out = []
    for t, has, lacks in tables:
        if t.arity >= 2 and rng.random() < 0.5:
            w = rng.choice((F(1, 3), F(3)))
            t = _scale_unary(t, rng.randint(1, t.arity), F(1), w)
        out.append((t, has, lacks))
    return out


@lru_cache(maxsize=None)
def _oracle_verdicts(table: ConstraintTable) -> dict[str, bool] | None:
    """Enumeration-oracle verdicts, for tables of arity <= 3 with weights in
    {0} and the powers of two (the imopt oracle's domain; it is too slow on
    arity 4)."""
    if table.arity > 3 or not all(_is_dyadic(w) for w in table.weights):
        return None
    return {"DG": oracle_degenerate(table), "ED": oracle_ed(table),
            "IM_opt": oracle_imopt(table)}


class ClassifyChecker:
    """Checks classify / classify-constraint output for one file."""

    def __init__(self, spec, category: str):
        self.spec = spec
        self.category = category
        self.tables = {t.name: t for t, _, _ in spec}

    def _check_classes(self, classes: dict[str, set[str]], category: str | None) -> str | None:
        if set(classes) != set(self.tables):
            return f"constraints reported {sorted(classes)}"
        if category != self.category:
            return f"category {category}, built as {self.category}"
        for t, has, lacks in self.spec:
            got = classes[t.name]
            if not has <= got or lacks & got:
                return f"{t.name} classes {sorted(got)}"
            verdicts = _oracle_verdicts(t)
            if verdicts is not None:
                for label, member in verdicts.items():
                    if (label in got) != member:
                        return f"{t.name} {label} verdict disagrees with the oracle"
        return None

    def machine(self, out: str) -> str | None:
        lines = _machine_lines(out)
        prefix, suffix = "constraint.", ".classes"
        classes = {
            key[len(prefix):-len(suffix)]: set(filter(None, value.split(",")))
            for key, value in lines.items()
            if key.startswith(prefix) and key.endswith(suffix)
        }
        return self._check_classes(classes, lines.get("category"))

    def detail(self, out: str) -> str | None:
        classes: dict[str, set[str]] = {}
        certs: dict[tuple[str, str], dict] = {}
        category = None
        cur = None
        pending = None
        for line in out.splitlines():
            if pending is not None:
                weights = tuple(F(w) for w in line.split())
                if pending[1] == 1:
                    cur["unary"].append(weights)
                else:
                    r, s = pending[0].rsplit(".p", 1)[1].split("_")
                    cur["pairs"].add((int(r), int(s), weights[2]))
                pending = None
            elif line.startswith("category: "):
                category = line.split(": ", 1)[1]
            elif line.startswith("# ") and " factorization of " in line:
                label, name = line[2:].split(" factorization of ")
                cur = {"unary": [], "pins": [], "links": set(), "pivot": None,
                       "rels": [], "pairs": set()}
                certs[(name, label)] = cur
            elif line.startswith("constraint "):
                tokens = line.split("#", 1)[0].split()
                pending = (tokens[1], int(tokens[2]))
            elif line.startswith("# pin x"):
                var, bit = line[len("# pin x"):].split(" = ")
                cur["pins"].append((int(var), int(bit)))
            elif line.startswith("# link "):
                rel, rest = line[len("# link "):].split("(")
                i, j = (int(x.strip(" x)")) for x in rest.split(","))
                cur["links"].add((i, j, "equal" if rel == "EQ" else "unequal"))
            elif line.startswith("# pivot x"):
                cur["pivot"] = int(line[len("# pivot x"):])
            elif line.startswith("# relation on "):
                head, pairs = line.split(": ")
                j = int(head.split(", x")[1].rstrip(")"))
                rel = frozenset((int(p[0]), int(p[1])) for p in pairs.strip("{}").split(",") if p)
                cur["rels"].append((j, rel))
            else:
                name, sep, verdicts = line.partition(": ")
                if sep and name in self.tables:
                    classes[name] = set() if verdicts == "none" else set(verdicts.split(", "))
        problem = self._check_classes(classes, category)
        if problem:
            return problem
        for name, got in classes.items():
            want = {label for label in CERT_LABELS if label in got}
            have = {label for n, label in certs if n == name}
            if want != have:
                return f"{name} certificates {sorted(have)} for classes {sorted(want)}"
        for (name, label), c in certs.items():
            unary = tuple(c["unary"])
            if label == "DG":
                cert = DegenerateCertificate(unary)
            elif label == "ED":
                cert = EdCertificate(tuple(c["pins"]), frozenset(c["links"]), unary)
            elif label == "AF":
                cert = AfCertificate(c["pivot"], tuple(c["rels"]), unary)
            else:
                cert = ImOptCertificate(unary, frozenset(c["pairs"]))
            if not certificate_matches(cert, self.tables[name]):
                return f"{label} certificate of {name} does not rebuild it"
        return None


def classify_mix(rng: random.Random, workdir: Path) -> Workload:
    files = []
    for j in range(CLASSIFY_FILES):
        category = CATEGORY_ORDER[j % len(CATEGORY_ORDER)]
        spec = _classify_file(rng, category)
        text = "".join(render_constraint(t) for t, _, _ in spec)
        files.append((_write(workdir, f"classify{j}.txt", text), ClassifyChecker(spec, category)))
    # Every fourth file goes through classify-constraint, the rest through
    # classify --machine.
    calls = []
    for j, (path, checker) in enumerate(files):
        if j % 4 == 3:
            calls.append(Item(["classify-constraint", path], 6, checker.detail, f"d{j}"))
        else:
            calls.append(Item(["--machine", "classify", path], 6, checker.machine, f"m{j}"))
    # The warm-up file's partial-support implication table takes the LP path.
    warm = _write(workdir, "warm_classify.txt", "".join(
        render_constraint(t) for t, _, _ in _classify_file(random.Random(0), "IS_HARD"))
        + "constraint w 2\n1 1 0 2\n")
    return Workload(
        "classify-mix", calls,
        [["--machine", "classify", warm], ["classify-constraint", warm]],
        "tables_per_s", tail_q=99.0, trace_cycles=1,
    )


# ---------------------------------------------------------------------------
# solve checks


FLIP_CHECK_MAX_N = 24
# Routes whose documented argmax tie-break is their own, not the package's
# lexicographically smallest maximizer: solve_tractable picks bit 0 for each
# parity component's representative.
OWN_TIE_BREAK = ("parity_components",)


class TieBreak(str):
    """A check's reason when the output is a correct maximizer with the right
    optimum, but not the lexicographically smallest one, on a route listed in
    OWN_TIE_BREAK. The runner counts these apart from failures."""


def _solve_checker(inst: CspInstance, lower: Fraction, zero: bool = False,
                   oracle: bool = False) -> Callable[[str], str | None]:
    """Printed argmax must evaluate to the printed optimum, the optimum must
    reach the known lower bound (and be 0 where built contradictory), and,
    with `oracle`, the optimum must equal brute_force's. On instances of up to
    FLIP_CHECK_MAX_N variables no single-bit flip of the argmax may do better.
    Then the tie-break: with `oracle` the argmax must be brute_force's, and no
    flip may tie by turning a 1 into a 0 (a lexicographically smaller
    maximizer). A tie-break miss fails the call, except on a route in
    OWN_TIE_BREAK, where it is returned as a TieBreak."""

    def check(out: str) -> str | None:
        lines = _machine_lines(out)
        try:
            optimum = F(lines["optimum"])
            bits = tuple(int(b) for b in lines["argmax"])
        except (KeyError, ValueError):
            return "no optimum/argmax lines"
        if len(bits) != inst.num_vars or measure(inst, bits) != optimum:
            return "argmax does not evaluate to the optimum"
        if optimum < lower or (zero and optimum != 0):
            return f"optimum {optimum} below the known bound {lower}"
        tie = None
        if oracle:
            slow = brute_force(inst)
            if slow.optimum != optimum:
                return f"optimum {optimum}, brute_force gives {slow.optimum}"
            if slow.argmax != bits:
                tie = "argmax is not brute_force's lexicographically smallest maximizer"
        if inst.num_vars <= FLIP_CHECK_MAX_N:
            for v in range(inst.num_vars):
                flipped = bits[:v] + (1 - bits[v],) + bits[v + 1:]
                value = measure(inst, flipped)
                if value > optimum:
                    return f"flipping x{v + 1} gives {value} against the optimum {optimum}"
                if value == optimum and bits[v] == 1 and tie is None:
                    tie = f"flipping x{v + 1} to 0 ties the optimum {optimum}"
        if tie is not None and lines.get("method") in OWN_TIE_BREAK:
            return TieBreak(tie)
        return tie

    return check


def _solve_item(workdir: Path, name: str, inst: CspInstance, work: int,
                lower: Fraction = F(0), zero: bool = False, oracle: bool = False) -> Item:
    path = _write(workdir, name, render_instance(inst))
    lower = max(lower, measure(inst, (0,) * inst.num_vars))
    return Item(["--machine", "solve", path], work, _solve_checker(inst, lower, zero, oracle), name)


# ---------------------------------------------------------------------------
# solve-exhaustive

EXHAUSTIVE_SIZES = (12, 14, 16, 18)


def _pow2(rng: random.Random) -> Fraction:
    return F(2) ** rng.randint(-2, 2)


def _random_edges(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return tuple(sorted(rng.sample(pairs, m)))


def _grid_edges(n: int) -> tuple[tuple[int, int], ...]:
    """Vertices 1..n laid out row by row, three to a row."""
    edges = []
    for v in range(1, n + 1):
        if v % 3 and v < n:
            edges.append((v, v + 1))
        if v + 3 <= n:
            edges.append((v, v + 3))
    return tuple(edges)


def _nand(rng: random.Random, n: int, edges) -> CspInstance:
    g = GraphInstance("IS", n, edges, tuple(_pow2(rng) for _ in range(n)))
    return reductions.is_to_csp(g)


def _imopt_instance(rng: random.Random, n: int) -> CspInstance:
    """Zero-free implication-weighted tables outside ED and AF, on 2n
    applications."""
    pool = [
        _pair_table(rng, "s1", imopt=True),
        gen.random_imopt_constraint(rng, 2, "s2", allow_hard=False),
        gen.random_imopt_constraint(rng, 3, "s3", allow_hard=False),
        gen.random_imopt_constraint(rng, 2, "s4", allow_hard=False),
    ]
    apps = []
    for a in range(2 * n):
        table = pool[a % len(pool)]
        apps.append((table, tuple(rng.sample(range(1, n + 1), table.arity))))
    return CspInstance(n, tuple(apps))


def solve_exhaustive(rng: random.Random, workdir: Path) -> Workload:
    calls = []
    for n in EXHAUSTIVE_SIZES:
        path = tuple((v, v + 1) for v in range(1, n))
        kinds = {
            "sparse": _nand(rng, n, path if n % 4 == 0 else _grid_edges(n)),
            "dense": _nand(rng, n, _random_edges(rng, n, round(0.4 * n * (n - 1) / 2))),
            "maxcut": gen.cut_to_prod(GraphInstance("IS", n, _random_edges(rng, n, 2 * n),
                                                    (F(1),) * n)),
            "imopt": _imopt_instance(rng, n),
        }
        for kind, inst in kinds.items():
            calls.append(_solve_item(workdir, f"exh_{kind}{n}.txt", inst, 1 << n))
    # Spread sizes and kinds over the cycle, so that any third of a run
    # holds a mix of them.
    calls = [calls[i * 5 % len(calls)] for i in range(len(calls))]
    warm = _write(workdir, "warm_exh.txt", render_instance(_nand(random.Random(0), 6, _grid_edges(6))))
    return Workload(
        "solve-exhaustive", calls, [["--machine", "solve", warm]],
        "assignments_per_s", tail_q=85.0, trace_cycles=1,
    )


def pool_instances(seed: int) -> list[CspInstance]:
    """Zero-free solve-exhaustive instances (n=16) for timing brute_force's
    worker pool in every traced run."""
    rng = random.Random(f"pool:{seed}")
    return [_imopt_instance(rng, 16), gen.cut_to_prod(
        GraphInstance("IS", 16, _random_edges(rng, 16, 32), (F(1),) * 16))]


# ---------------------------------------------------------------------------
# solve-parity-large

PARITY_SIZES = (2000, 4000, 6000, 8000, 10000)
SIBLING_N = 14
SIBLINGS = 4  # per generator setting
WEIGHTED_EVERY = 8  # one application in 8 carries weights; the rest are 0/1


def _parity_pool(rng: random.Random, setting: str) -> list[ConstraintTable]:
    """ED (or AF) generator tables with nonempty support: 0/1 supports of
    arity 2-3, then two weighted tables of arity 1-2. With weights on every
    application the optimum of a 10 000-variable instance has more digits
    than the CLI can print (Python's 4300-digit int-to-str limit)."""
    if setting == "af":
        makers = [(gen.random_af_constraint, k) for k in (2, 2, 3, 3)]
    else:
        makers = [(gen.random_ed_constraint, k) for k in (2, 2, 3, 3)]
    makers += [(gen.random_ed_constraint, 1), (gen.random_ed_constraint, 2)]
    pool = []
    for i, (maker, k) in enumerate(makers):
        table = maker(rng, k, f"{setting[0]}{i}")
        while table.is_zero():
            table = maker(rng, k, f"{setting[0]}{i}")
        if i < 4:
            table = make_table([1 if w else 0 for w in table.weights], table.name)
        pool.append(table)
    return pool


def _parity_instance(rng: random.Random, n: int, setting: str):
    """About 2 applications per variable, each nonzero at a planted
    assignment (tables are complemented per application where needed), so
    the optimum is positive; `contradict` adds D0 and D1 on one variable."""
    pool = _parity_pool(rng, "af" if setting == "af" else "ed")
    sigma = [rng.randint(0, 1) for _ in range(n)]
    variants: dict[tuple[int, int], ConstraintTable] = {}
    apps = []
    for a in range(2 * n):
        t = 4 + a // WEIGHTED_EVERY % 2 if a % WEIGHTED_EVERY == 0 else a % 4
        table = pool[t]
        variables = tuple(rng.sample(range(1, n + 1), table.arity))
        at = 0
        for v in variables:
            at = (at << 1) | sigma[v - 1]
        flip = 0
        if table.weights[at] == 0:
            support = [i for i, w in enumerate(table.weights) if w != 0]
            flip = rng.choice(support) ^ at
        if (t, flip) not in variants:
            weights = [table.weights[i ^ flip] for i in range(1 << table.arity)]
            variants[(t, flip)] = make_table(weights, f"{table.name}f{flip}")
        apps.append((variants[(t, flip)], variables))
    if setting == "contradict":
        v = rng.randint(1, n)
        at = rng.randrange(len(apps))
        apps[at:at] = [(D0, (v,)), (D1, (v,))]
    inst = CspInstance(n, tuple(apps))
    return inst, tuple(sigma)


def solve_parity_large(rng: random.Random, workdir: Path) -> Workload:
    calls, siblings = [], []
    for setting in ("ed", "af", "contradict"):
        sizes = (6000,) if setting == "contradict" else PARITY_SIZES
        for n in sizes * 2:  # two instances per setting and size
            inst, sigma = _parity_instance(rng, n, setting)
            zero = setting == "contradict"
            lower = F(0) if zero else measure(inst, sigma)
            calls.append(_solve_item(workdir, f"par{len(calls)}_{setting}{n}.txt", inst,
                                     len(inst.applications), lower=lower, zero=zero))
        for k in range(SIBLINGS):
            inst, _ = _parity_instance(rng, SIBLING_N, setting)
            siblings.append(_solve_item(workdir, f"par_{setting}_small{k}.txt", inst,
                                        len(inst.applications),
                                        zero=setting == "contradict", oracle=True))
    # Spread sizes over the cycle, so that any third of a run holds a mix.
    calls = calls[::2] + calls[1::2]
    warm_inst, _ = _parity_instance(random.Random(0), 50, "ed")
    warm = _write(workdir, "warm_par.txt", render_instance(warm_inst))
    return Workload(
        "solve-parity-large", calls, [["--machine", "solve", warm]],
        "apps_per_s", tail_q=85.0, trace_cycles=3, siblings=siblings,
    )


WORKLOADS = {
    "classify-mix": classify_mix,
    "solve-exhaustive": solve_exhaustive,
    "solve-parity-large": solve_parity_large,
}
