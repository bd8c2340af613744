"""Command-line front end.

Subcommands: classify, classify-constraint, solve, reduce, rewrite, gen,
eval, check. Global flags: --seed, --max-n, --exact, --machine.

`solve` hands the parsed instance to `routes.solve`, which picks the route.

Exit codes: 0 success, 1 property failure, 2 usage or parse error or an
input too large for memory. Machine mode prints one `key: value` pair per
line with a stable key set.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import checks, gen, reductions, routes
from .errors import ProdCspError
from .formats import (
    parse_assignment,
    parse_constraints,
    parse_graph,
    parse_instance,
    parse_script,
    render_graph,
    render_instance,
)
from .graphs import graph_measure
from .instances import DEFAULT_MAX_N, measure
from .membership import AfCertificate, EdCertificate, ImOptCertificate
from .ratmath import format_fraction, frac_to_decimal_str
from .tables import BUILTINS
from .trichotomy import classify_set, explain


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise ProdCspError(f"cannot read {path}: {exc}")


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render_certificate(name: str, label: str, cert) -> str:
    lines = [f"# {label} factorization of {name}"]
    for pos, (w0, w1) in enumerate(cert.unary_factors, start=1):
        lines.append(f"constraint {name}.u{pos} 1  # unary factor on x{pos}")
        lines.append(f"{format_fraction(w0)} {format_fraction(w1)}")
    if isinstance(cert, EdCertificate):
        for var, bit in cert.pins:
            lines.append(f"# pin x{var} = {bit}")
        for i, j, parity in sorted(cert.parity_links):
            rel = "EQ" if parity == "equal" else "XOR"
            lines.append(f"# link {rel}(x{i}, x{j})")
    elif isinstance(cert, AfCertificate):
        lines.append(f"# pivot x{cert.pivot}")
        for j, rel in cert.binary_relations:
            pairs = ",".join(f"{a}{b}" for a, b in sorted(rel))
            lines.append(f"# relation on (x{cert.pivot}, x{j}): {{{pairs}}}")
    elif isinstance(cert, ImOptCertificate):
        for r, s, lam in sorted(cert.lambda_pairs):
            lines.append(
                f"constraint {name}.p{r}_{s} 2  # pair factor on (x{r}, x{s})"
            )
            lines.append(f"1 1 {format_fraction(lam)} 1")
    return "\n".join(lines)


def cmd_classify(args) -> int:
    tables = parse_constraints(_read(args.file))
    if not tables:
        print("error: no constraints in input", file=sys.stderr)
        return 2
    report = classify_set(list(tables.values()))
    if args.machine:
        for r in report.per_constraint:
            classes = ",".join(sorted(r.classes))
            print(f"constraint.{r.name}.classes: {classes}")
        for label, name in sorted(report.witnesses.items()):
            print(f"witness.{label}: {name}")
        print(f"category: {report.category.value}")
        return 0
    if args.command == "classify-constraint":
        for r in report.per_constraint:
            verdicts = ", ".join(sorted(r.classes)) or "none"
            print(f"{r.name}: {verdicts}")
            for label, cert in sorted(r.certificates.items()):
                print(_render_certificate(r.name, label, cert))
        print(f"category: {report.category.value}")
    else:
        print(explain(report))
    return 0


def cmd_solve(args) -> int:
    inst = parse_instance(_read(args.file))
    result = routes.solve(inst, args.method, max_n=args.max_n, seed=args.seed,
                          restarts=args.restarts, exact_only=args.exact)
    decimal = frac_to_decimal_str(result.optimum)
    log2 = "ZERO" if result.is_zero else f"{result.log2:.12g}"
    argmax = "".join(map(str, result.argmax))
    if args.machine:
        print(f"optimum: {format_fraction(result.optimum)}")
        print(f"decimal: {decimal}")
        print(f"log2: {log2}")
        print(f"argmax: {argmax}")
        print(f"method: {result.method}")
    else:
        print(f"optimum {format_fraction(result.optimum)} (= {decimal}, log2 {log2})")
        print(f"argmax {argmax}")
        print(f"method {result.method}")
    return 0


def cmd_reduce(args) -> int:
    mode = args.mode
    if mode == "is2csp":
        out = render_instance(reductions.is_to_csp(parse_graph(_read(args.file))))
    elif mode == "complement":
        out = render_instance(reductions.complement_all(parse_instance(_read(args.file))))
    elif mode == "bis2csp":
        out = render_instance(reductions.bis_to_implies(parse_graph(_read(args.file))))
    else:  # csp2flow
        red = reductions.imopt_to_flow(parse_instance(_read(args.file)))
        if red.trivially_zero:
            out = "# contradictory pins: optimum 0 without a flow instance\n"
        else:
            vertex_map = " ".join(str(v) for v in red.graph_vertices)
            out = (
                f"# flow vertex t holds instance variable: {vertex_map}\n"
                + "".join(f"# pinned x{v} = {b}\n" for v, b in sorted(red.pinned.items()))
                + render_graph(red.graph)
            )
    _write_out(out, args.out)
    return 0


def cmd_rewrite(args) -> int:
    inst = parse_instance(_read(args.file))
    script = parse_script(_read(args.script))
    _, pool = inst.named_tables()
    if args.target in pool:
        target = pool[args.target]
    elif args.target in BUILTINS:
        target = BUILTINS[args.target]
    else:
        print(f"error: target {args.target!r} not applied in the instance", file=sys.stderr)
        return 2
    rw = reductions.rewrite_by_construction(inst, target, script, pool)
    header = (
        f"# rewrote {rw.occurrences} applications of {args.target}; "
        f"optimum scales by {format_fraction(rw.scale_total)} each\n"
    )
    _write_out(header + render_instance(rw.instance), args.out)
    return 0


def cmd_gen(args) -> int:
    kind = args.kind.upper()
    if kind in ("IS", "BIS", "FLOW"):
        out = render_graph(gen.random_graph(kind, args.n, args.seed))
    elif kind == "CSP":
        import random

        rng = random.Random(args.seed)
        pool = [
            gen.random_ed_constraint(rng, 2, "E1"),
            gen.random_af_constraint(rng, 3, "A1"),
            gen.random_ed_constraint(rng, 1, "U1"),
        ]
        out = render_instance(gen.random_instance(args.n, pool, args.apps, args.seed))
    else:
        print(f"error: unknown kind {args.kind!r}", file=sys.stderr)
        return 2
    _write_out(out, args.out)
    return 0


def cmd_eval(args) -> int:
    text = _read(args.file)
    first = next((line.split()[0] for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")), "")
    if first == "graph":
        g = parse_graph(text)
        bits = parse_assignment(args.assign, g.num_vertices)
        value = graph_measure(g, bits)
    else:
        inst = parse_instance(text)
        bits = parse_assignment(args.assign, inst.num_vars)
        value = measure(inst, bits)
    if args.machine:
        print(f"measure: {format_fraction(value)}")
        print(f"decimal: {frac_to_decimal_str(value)}")
    else:
        print(f"measure {format_fraction(value)} (= {frac_to_decimal_str(value)})")
    return 0


def cmd_check(args) -> int:
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    unknown = [n for n in names if n not in checks.SUITES]
    if unknown:
        print(f"error: unknown suite {unknown[0]!r}", file=sys.stderr)
        return 2
    results = checks.run_suites(names, args.seed)
    passed = sum(r.passed for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} [{r.suite}] {r.name}"
        if r.detail and not r.passed:
            line += f" ({r.detail})"
        print(line)
    print(f"passed: {passed}")
    print(f"failed: {len(results) - passed}")
    return 0 if passed == len(results) else 1


def _add_globals(parser: argparse.ArgumentParser, top: bool):
    """Global flags, accepted both before and after the subcommand."""
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=d(0), help="seed for all randomized paths")
    parser.add_argument("--max-n", type=int, default=d(DEFAULT_MAX_N), help="exhaustive solver cap")
    parser.add_argument(
        "--exact", action="store_true", default=d(False), help="refuse inexact paths"
    )
    parser.add_argument(
        "--machine", action="store_true", default=d(False), help="stable key: value output"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodcsp",
        description="Multiplicatively measured Boolean constraint satisfaction toolkit",
    )
    _add_globals(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_globals(p, top=False)
        p.set_defaults(func=func)
        return p

    p = command("classify", cmd_classify, help="classify a constraint file")
    p.add_argument("file")
    p = command(
        "classify-constraint", cmd_classify, help="per-constraint verdicts with certificates"
    )
    p.add_argument("file")

    p = command("solve", cmd_solve, help="optimize an instance file")
    p.add_argument("file")
    p.add_argument("--method", choices=("auto", "brute", "tractable", "hill"), default="auto")
    p.add_argument("--restarts", type=int, default=8)

    p = command("reduce", cmd_reduce, help="apply an instance transform")
    p.add_argument("mode", choices=("is2csp", "complement", "bis2csp", "csp2flow"))
    p.add_argument("file")
    p.add_argument("--out")

    p = command("rewrite", cmd_rewrite, help="rewrite applications of one constraint via a script")
    p.add_argument("file")
    p.add_argument("--script", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out")

    p = command("gen", cmd_gen, help="generate a random graph or instance")
    p.add_argument("--kind", required=True, help="is|bis|flow|csp")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--apps", type=int, default=10)
    p.add_argument("--out")

    p = command("eval", cmd_eval, help="evaluate one assignment's measure")
    p.add_argument("file")
    p.add_argument("--assign", required=True)

    p = command("check", cmd_check, help="run the invariant suites")
    p.add_argument("--suite", default="all")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state between
    calls, so in-process callers of main() reuse it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ProdCspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large for memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
