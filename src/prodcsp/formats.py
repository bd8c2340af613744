"""Text formats for constraints, instances, graphs, and derivation scripts.

Constraint blocks:
    constraint <NAME> <ARITY>
    <2^ARITY weights, whitespace separated, decimals or p/q rationals>

Instance files may mix constraint blocks with:
    vars <N>
    apply <NAME> <i1> ... <ik>        (1-based variable indices)

Graph files:
    graph <IS|BIS|FLOW> <N> <M>
    w <v> <weight>                    (default weight 1)
    edge <u> <v> [rate]               (rate only for FLOW, default 1)
    block <v> <0|1>                   (BIS only, default 0)

Script files:
    from <NAME>
    perm i j | pin i c | link i j | expand p | mul <NAME> | maxout d | scale p/q

Blank lines and '#' comments are ignored everywhere. The names EQ, XOR, OR,
NAND, IMPLIES, D0, D1 are predefined and reserved.

This module checks the syntax of every line, but not the applications:
`CspInstance` (instances.py) owns that rule, and `parse_instance` only maps
a refused application back to its line.
"""

from __future__ import annotations

from fractions import Fraction
from operator import length_hint

from .construct import ConstructionScript
from .errors import ParseError
from .graphs import GraphInstance
from .instances import Assignment, CspInstance
from .ratmath import format_fraction, parse_weight
from .tables import BUILTINS, ConstraintTable

_RESERVED = set(BUILTINS)


def _lines(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = (line.split("#", 1)[0] if "#" in line else line).split()
        if tokens:
            yield lineno, tokens


def _weight(token: str, lineno: int) -> Fraction:
    try:
        value = parse_weight(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad weight {token!r} (use decimals or p/q)")
    if value.numerator < 0:
        raise ParseError(lineno, f"weights must be nonnegative, got {token}")
    return value


def _int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"bad {what} {token!r}")


class _ConstraintAccumulator:
    """Shared block parser: `constraint NAME ARITY` followed by weights.

    Each distinct weight token is parsed once per file."""

    def __init__(self):
        self.tables: dict[str, ConstraintTable] = {}
        self.pending: tuple[str, int, int] | None = None  # name, arity, start line
        self.weights: list[Fraction] = []
        self.parsed: dict[str, Fraction] = {}  # weight token -> its value

    def start(self, tokens, lineno):
        self.finish(lineno)
        if len(tokens) != 3:
            raise ParseError(lineno, "expected: constraint <NAME> <ARITY>")
        name = tokens[1]
        if name in _RESERVED:
            raise ParseError(lineno, f"{name} is a reserved built-in name")
        if name in self.tables:
            raise ParseError(lineno, f"constraint {name} defined twice")
        arity = _int(tokens[2], lineno, "arity")
        if not (0 <= arity <= 16):
            raise ParseError(lineno, f"arity must be in 0..16, got {arity}")
        self.pending = (name, arity, lineno)
        self.weights = []

    def feed(self, tokens, lineno) -> bool:
        """Consume a weight line if a block is open; returns True if eaten."""
        if self.pending is None:
            return False
        parsed = self.parsed
        for token in tokens:
            if len(self.weights) >= (1 << self.pending[1]):
                raise ParseError(lineno, f"too many weights for {self.pending[0]}")
            value = parsed.get(token)
            if value is None:
                value = parsed[token] = _weight(token, lineno)
            self.weights.append(value)
        if len(self.weights) == (1 << self.pending[1]):
            name, arity, _ = self.pending
            self.tables[name] = ConstraintTable(arity, tuple(self.weights), name)
            self.pending = None
        return True

    def finish(self, lineno):
        if self.pending is not None:
            name, arity, start = self.pending
            raise ParseError(
                start,
                f"constraint {name} needs {1 << arity} weights, "
                f"got {len(self.weights)} by line {lineno}",
            )

    def lookup(self, name: str, lineno: int) -> ConstraintTable:
        if name in self.tables:
            return self.tables[name]
        if name in BUILTINS:
            return BUILTINS[name]
        raise ParseError(lineno, f"unknown constraint {name!r}")


def parse_constraints(text: str) -> dict[str, ConstraintTable]:
    """Parse a file of constraint blocks (built-ins are implicit)."""
    acc = _ConstraintAccumulator()
    last = 0
    for lineno, tokens in _lines(text):
        last = lineno
        if tokens[0] == "constraint":
            acc.start(tokens, lineno)
        elif not acc.feed(tokens, lineno):
            raise ParseError(lineno, f"unexpected directive {tokens[0]!r}")
    acc.finish(last + 1)
    return acc.tables


def render_constraint(table: ConstraintTable, name: str | None = None) -> str:
    name = name or table.name or "f"
    weights = " ".join(format_fraction(w) for w in table.weights)
    return f"constraint {name} {table.arity}\n{weights}\n"


def parse_instance(text: str) -> CspInstance:
    """Parse an instance file (constraint blocks may be inlined).

    The index tokens of each apply line go to CspInstance as read: it owns
    the application rule (int indices in 1..N, one per table position) and
    converts and checks each application once. When it refuses one, or a
    later line fails to parse, the first refused application is reported at
    its line (`_refused_application`); that search runs only on error.

    An apply line is split only into its head, its name and the rest; each
    rest is split into index tokens as CspInstance reads it, so no
    per-application container outlives its conversion.
    """
    acc = _ConstraintAccumulator()
    known: dict[str, ConstraintTable] = {}  # apply name -> table
    num_vars: int | None = None
    tables: list[ConstraintTable] = []  # per apply line: its table
    indices: list[str] = []  # and its index tokens, unsplit
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "#" in line:
                line = line.split("#", 1)[0]
            parts = line.split(None, 2)
            if not parts:
                continue
            head = parts[0]
            if head == "apply":
                if acc.pending is not None:
                    name, arity, _ = acc.pending
                    raise ParseError(
                        lineno,
                        f"apply inside constraint {name}, which has "
                        f"{len(acc.weights)} of its {1 << arity} weights",
                    )
                if num_vars is None:
                    raise ParseError(lineno, "apply before vars line")
                if len(parts) < 2:
                    raise ParseError(lineno, "expected: apply <NAME> <i1> ... <ik>")
                table = known.get(parts[1])
                if table is None:
                    table = known[parts[1]] = acc.lookup(parts[1], lineno)
                tables.append(table)
                indices.append(parts[2] if len(parts) == 3 else "")
                continue
            tokens = line.split()
            if head == "constraint":
                acc.start(tokens, lineno)
            elif acc.feed(tokens, lineno):
                pass
            elif head == "vars":
                if num_vars is not None:
                    raise ParseError(lineno, "duplicate vars line")
                num_vars = _int(tokens[1], lineno, "variable count") if len(tokens) == 2 else None
                if num_vars is None or num_vars < 0:
                    raise ParseError(lineno, "expected: vars <N>")
            else:
                raise ParseError(lineno, f"unknown directive {head!r}")
        if acc.pending is not None or num_vars is None:
            last = max((n for n, _ in _lines(text)), default=0)  # last nonblank line
            acc.finish(last + 1)
            raise ParseError(last + 1, "missing vars line")
        return CspInstance(num_vars, zip(tables, map(str.split, indices)))
    except ValueError:  # a ParseError, or CspInstance refusing an application
        apps = list(zip(tables, map(str.split, indices)))
        refused = _refused_application(text, apps, num_vars)
        if refused is not None:
            raise refused from None
        raise


def _refused_application(text: str, apps: list, num_vars: int | None) -> ParseError | None:
    """The first application CspInstance refuses, as a ParseError at its
    apply line; None if it refuses none. CspInstance checks applications in
    order and stops at the first it refuses, and every parsed application
    came from an apply line, in order: application k is on the k-th one."""
    if not apps:
        return None
    rest = iter(apps)
    try:
        CspInstance(num_vars, rest)
        return None
    except ValueError as exc:
        k = len(apps) - length_hint(rest) - 1
        reason = str(exc)
    for lineno, tokens in _lines(text):
        if tokens[0] == "apply":
            if k == 0:
                return ParseError(lineno, reason)
            k -= 1
    raise AssertionError("fewer apply lines than applications")


def render_instance(inst: CspInstance) -> str:
    """Emit vars, non-builtin constraint blocks, and apply lines."""
    chunks = [f"vars {inst.num_vars}\n"]
    names, blocks = inst.named_tables()
    rename: dict[str, str] = {}
    used = set(_RESERVED)
    for name, table in blocks.items():
        if table.name in BUILTINS and table == BUILTINS[table.name]:
            rename[name] = table.name
            continue
        final = name
        while final in used:
            final += "x"
        used.add(final)
        rename[name] = final
        chunks.append(render_constraint(table, final))
    for table, variables in inst.applications:
        idx = " ".join(str(v) for v in variables)
        chunks.append(f"apply {rename[names[id(table)]]} {idx}\n".rstrip() + "\n")
    return "".join(chunks)


def parse_graph(text: str) -> GraphInstance:
    kind = None
    n = m = 0
    weights: dict[int, Fraction] = {}
    blocks: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    rates: list[Fraction] = []
    header_line = 0
    for lineno, tokens in _lines(text):
        head = tokens[0]
        if head == "graph":
            if kind is not None:
                raise ParseError(lineno, "duplicate graph header")
            if len(tokens) != 4 or tokens[1] not in ("IS", "BIS", "FLOW"):
                raise ParseError(lineno, "expected: graph <IS|BIS|FLOW> <N> <M>")
            kind = tokens[1]
            n = _int(tokens[2], lineno, "vertex count")
            m = _int(tokens[3], lineno, "edge count")
            header_line = lineno
        elif kind is None:
            raise ParseError(lineno, "graph header must come first")
        elif head == "w":
            if len(tokens) != 3:
                raise ParseError(lineno, "expected: w <v> <weight>")
            weights[_int(tokens[1], lineno, "vertex")] = _weight(tokens[2], lineno)
        elif head == "edge":
            if len(tokens) not in (3, 4):
                raise ParseError(lineno, "expected: edge <u> <v> [rate]")
            u = _int(tokens[1], lineno, "vertex")
            v = _int(tokens[2], lineno, "vertex")
            edges.append((u, v))
            if kind == "FLOW":
                rates.append(_weight(tokens[3], lineno) if len(tokens) == 4 else Fraction(1))
            elif len(tokens) == 4:
                raise ParseError(lineno, f"edge rates only apply to FLOW, not {kind}")
        elif head == "block":
            if kind != "BIS":
                raise ParseError(lineno, "block lines only apply to BIS")
            if len(tokens) != 3 or tokens[2] not in ("0", "1"):
                raise ParseError(lineno, "expected: block <v> <0|1>")
            blocks[_int(tokens[1], lineno, "vertex")] = int(tokens[2])
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if kind is None:
        raise ParseError(1, "missing graph header")
    if len(edges) != m:
        raise ParseError(header_line, f"header promises {m} edges, file has {len(edges)}")
    for v in list(weights) + list(blocks):
        if not (1 <= v <= n):
            raise ParseError(header_line, f"vertex {v} out of range 1..{n}")
    try:
        return GraphInstance(
            kind,
            n,
            tuple(edges),
            tuple(weights.get(v, Fraction(1)) for v in range(1, n + 1)),
            tuple(rates),
            tuple(blocks.get(v, 0) for v in range(1, n + 1)) if kind == "BIS" else (),
        )
    except Exception as exc:
        raise ParseError(header_line, str(exc))


def render_graph(g: GraphInstance) -> str:
    lines = [f"graph {g.kind} {g.num_vertices} {len(g.edges)}"]
    for v in range(1, g.num_vertices + 1):
        lines.append(f"w {v} {format_fraction(g.weights[v - 1])}")
    if g.kind == "BIS":
        for v in range(1, g.num_vertices + 1):
            lines.append(f"block {v} {g.blocks[v - 1]}")
    for pos, (u, v) in enumerate(g.edges):
        if g.kind == "FLOW":
            lines.append(f"edge {u} {v} {format_fraction(g.rates[pos])}")
        else:
            lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def parse_script(text: str) -> ConstructionScript:
    source = None
    steps: list[tuple] = []
    for lineno, tokens in _lines(text):
        head = tokens[0]
        if head == "from":
            if source is not None:
                raise ParseError(lineno, "duplicate from line")
            if len(tokens) != 2:
                raise ParseError(lineno, "expected: from <NAME>")
            source = tokens[1]
            continue
        if source is None:
            raise ParseError(lineno, "script must start with a from line")
        if head in ("perm", "link"):
            if len(tokens) != 3:
                raise ParseError(lineno, f"expected: {head} i j")
            steps.append((head, _int(tokens[1], lineno, "index"), _int(tokens[2], lineno, "index")))
        elif head == "pin":
            if len(tokens) != 3 or tokens[2] not in ("0", "1"):
                raise ParseError(lineno, "expected: pin i <0|1>")
            steps.append(("pin", _int(tokens[1], lineno, "index"), int(tokens[2])))
        elif head in ("expand", "maxout"):
            if len(tokens) != 2:
                raise ParseError(lineno, f"expected: {head} <n>")
            steps.append((head, _int(tokens[1], lineno, "count")))
        elif head == "mul":
            if len(tokens) != 2:
                raise ParseError(lineno, "expected: mul <NAME>")
            steps.append(("mul", tokens[1]))
        elif head == "scale":
            if len(tokens) != 2:
                raise ParseError(lineno, "expected: scale <p/q>")
            lam = _weight(tokens[1], lineno)
            if lam <= 0:
                raise ParseError(lineno, "scale factor must be positive")
            steps.append(("scale", lam))
        else:
            raise ParseError(lineno, f"unknown script step {head!r}")
    if source is None:
        raise ParseError(1, "empty script")
    return ConstructionScript(source, tuple(steps))


def parse_assignment(token: str, n: int, lineno: int = 1) -> Assignment:
    if len(token) != n or any(c not in "01" for c in token):
        raise ParseError(lineno, f"assignment must be {n} bits of 0/1, got {token!r}")
    return tuple(int(c) for c in token)
