"""Executable instance transforms between the graph problems and the CSPs,
the implication-weighted-CSP-to-flow reduction, derivation-script instance
rewriting, and the approximation-preserving composition harness with its
oracle-call log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .construct import ConstructionScript, _lookup, replay
from .errors import ArgumentError, CertificateError, ReductionError
from .graphs import GraphInstance, graph_brute_force
from .instances import DEFAULT_MAX_N, Assignment, CspInstance, measure
from .membership import ImOptCertificate, is_imopt
from .routes import solve
from .tables import ConstraintTable, D0, D1, NAND, IMPLIES, make_table

ONE = Fraction(1)
ZERO = Fraction(0)


def _unary(w0, w1, name: str) -> ConstraintTable:
    return make_table([w0, w1], name)


# ---------------------------------------------------------------------------
# graph <-> CSP encodings


def is_to_csp(g: GraphInstance) -> CspInstance:
    """One NAND application per edge plus a (1, w_x) unary per vertex; the
    measures agree pointwise under A = {x : sigma(x) = 1}."""
    if g.kind != "IS":
        raise ReductionError(f"is_to_csp expects an IS graph, got {g.kind}")
    apps: list = [(NAND, (u, v)) for u, v in g.edges]
    for x in range(1, g.num_vertices + 1):
        apps.append((_unary(ONE, g.weights[x - 1], f"w{x}"), (x,)))
    return CspInstance(g.num_vertices, tuple(apps))


def complement_all(inst: CspInstance) -> CspInstance:
    """Flip the polarity of every variable: measure(out, ~sigma) equals
    measure(inst, sigma) for every assignment, so the optima agree."""
    apps = []
    for table, variables in inst.applications:
        flipped = table.complement_all()
        if table.name:
            swapped = {"NAND": "OR", "OR": "NAND", "D0": "D1", "D1": "D0"}
            flipped = flipped.with_name(swapped.get(table.name, table.name + "~"))
        apps.append((flipped, variables))
    return CspInstance(inst.num_vars, tuple(apps))


def bis_to_implies(g: GraphInstance) -> CspInstance:
    """Encode a bipartite independent-set instance over implications by
    complementing the right block: an edge (u in L, v in R) forbids
    "u chosen and v chosen", which after the flip is exactly Implies.

    The argmax maps back by flipping the right-block bits.
    """
    if g.kind != "BIS":
        raise ReductionError(f"bis_to_implies expects a BIS graph, got {g.kind}")
    apps: list = []
    for u, v in g.edges:
        if g.blocks[u - 1] == 1:
            u, v = v, u
        apps.append((IMPLIES, (u, v)))
    for x in range(1, g.num_vertices + 1):
        w = g.weights[x - 1]
        if g.blocks[x - 1] == 0:
            apps.append((_unary(ONE, w, f"w{x}"), (x,)))
        else:
            apps.append((_unary(w, ONE, f"w{x}"), (x,)))
    return CspInstance(g.num_vertices, tuple(apps))


def bis_assignment_back(g: GraphInstance, bits: Sequence[int]) -> Assignment:
    """Map an assignment of the implication encoding back to a vertex set."""
    return tuple(
        b ^ g.blocks[x] for x, b in enumerate(bits)
    )


# ---------------------------------------------------------------------------
# implication-weighted CSP -> flow design


@dataclass(frozen=True)
class FlowReduction:
    """Result of the flow encoding: the graph, the constant relating the two
    measures when no hard implication or pin is present, and the back map."""

    graph: Optional[GraphInstance]
    graph_vertices: tuple[int, ...]  # instance variable per flow vertex
    pinned: Mapping[int, int]
    constant: Fraction  # CSP measure = constant * FLOW measure (lambda>0, pin-free case)
    has_hard_pairs: bool
    trivially_zero: bool

    def assignment_back(self, flow_bits: Sequence[int], num_vars: int) -> Assignment:
        bits = [0] * num_vars
        for var, bit in self.pinned.items():
            bits[var - 1] = bit
        for vertex, var in enumerate(self.graph_vertices):
            bits[var - 1] = flow_bits[vertex]
        return tuple(bits)


def imopt_to_flow(
    inst: CspInstance,
    certs: Mapping[str, ImOptCertificate] | None = None,
) -> FlowReduction:
    """Build the flow-design instance for an implication-weighted CSP.

    Each pair factor (r, s, lam) with 0 < lam < 1 becomes a directed edge
    s -> r of rate 1/lam (the factor equals lam * (1/lam)^[sigma(s) >= sigma(r)]);
    positive unary factors (u0, u1) contribute influx u1/u0. Unary zero
    entries are propagated as pins first, and hard lam = 0 pairs get a
    surrogate rate large enough that no optimal flow assignment violates one
    unless all assignments do. Callers must re-evaluate the returned argmax
    on the source instance for the authoritative value.
    """
    named, blocks = inst.named_tables()
    for name, table in blocks.items():
        if certs is not None and table.arity > 0 and name not in certs:
            raise CertificateError(f"no imopt certificate supplied for {name!r}")
    if certs is None:
        certs = {}
        for name, table in blocks.items():
            if table.arity == 0:
                continue
            cert = is_imopt(table)
            if cert is None:
                raise CertificateError(
                    f"constraint {name!r} is not implication-weighted"
                )
            certs[name] = cert

    constant = ONE
    unary0: dict[int, Fraction] = {}
    unary1: dict[int, Fraction] = {}
    soft_pairs: list[tuple[int, int, Fraction]] = []
    hard_pairs: set[tuple[int, int]] = set()
    for table, variables in inst.applications:
        if table.arity == 0:
            constant *= table.value_at(0)
            continue
        cert = certs[named[id(table)]]
        for pos, (w0, w1) in enumerate(cert.unary_factors, start=1):
            var = variables[pos - 1]
            unary0[var] = unary0.get(var, ONE) * w0
            unary1[var] = unary1.get(var, ONE) * w1
        for r, s, lam in cert.lambda_pairs:
            vr, vs = variables[r - 1], variables[s - 1]
            if vr == vs:
                continue  # the factor reads (1,1,lam,1) at equal bits: always 1
            if lam == 0:
                hard_pairs.add((vr, vs))
            else:
                soft_pairs.append((vr, vs, lam))
    if constant == 0:
        return FlowReduction(None, (), {}, ZERO, bool(hard_pairs), True)

    # Pin propagation: unary zero entries force bits; implications propagate.
    pinned: dict[int, int] = {}

    def pin(var: int, bit: int) -> bool:
        if var in pinned:
            return pinned[var] == bit
        pinned[var] = bit
        return True

    ok = True
    for var in set(unary0) | set(unary1):
        w0 = unary0.get(var, ONE)
        w1 = unary1.get(var, ONE)
        if w0 == 0 and w1 == 0:
            ok = False
        elif w0 == 0:
            ok = ok and pin(var, 1)
        elif w1 == 0:
            ok = ok and pin(var, 0)
    changed = ok
    while changed and ok:
        changed = False
        for r, s in hard_pairs:
            if pinned.get(r) == 1 and s not in pinned:
                ok = pin(s, 1)
                changed = True
            elif pinned.get(s) == 0 and r not in pinned:
                ok = pin(r, 0)
                changed = True
            elif pinned.get(r) == 1 and pinned.get(s) == 0:
                ok = False
            if not ok:
                break
    if not ok:
        return FlowReduction(None, (), pinned, ZERO, bool(hard_pairs), True)

    free_vars = [v for v in range(1, inst.num_vars + 1) if v not in pinned]
    vertex_of = {var: t for t, var in enumerate(free_vars)}

    influx = {var: ONE for var in free_vars}
    for var in free_vars:
        w0 = unary0.get(var, ONE)
        w1 = unary1.get(var, ONE)
        influx[var] = w1 / w0
        constant *= w0
    edges: list[tuple[int, int]] = []
    rates: list[Fraction] = []
    for r, s, lam in soft_pairs:
        br, bs = pinned.get(r), pinned.get(s)
        if br is not None and bs is not None:
            if br == 1 and bs == 0:
                constant *= lam
            continue
        if br == 0 or bs == 1:
            continue  # factor is 1 on every surviving assignment
        if br == 1:  # factor lam^(1-sigma(s)): unary (lam, 1) on s
            constant *= lam
            influx[s] /= lam
            continue
        if bs == 0:  # factor lam^sigma(r): unary (1, lam) on r
            influx[r] *= lam
            continue
        edges.append((vertex_of[s] + 1, vertex_of[r] + 1))
        rates.append(ONE / lam)
        constant *= lam
    live_hard = [
        (r, s)
        for r, s in sorted(hard_pairs)
        if r not in pinned and s not in pinned
    ]
    if live_hard:
        bound = Fraction(2)
        for rate in rates:
            bound *= rate
        for var in free_vars:
            bound *= max(influx[var], ONE)
        surrogate = bound + 1  # strictly larger than twice the satisfiable maximum
        for r, s in live_hard:
            edges.append((vertex_of[s] + 1, vertex_of[r] + 1))
            rates.append(surrogate)
    graph = GraphInstance(
        "FLOW",
        len(free_vars),
        tuple(edges),
        tuple(influx[var] for var in free_vars),
        tuple(rates),
    )
    return FlowReduction(
        graph, tuple(free_vars), pinned, constant, bool(live_hard), False
    )


def solve_via_flow(
    inst: CspInstance,
    certs: Mapping[str, ImOptCertificate] | None = None,
    max_n: int = DEFAULT_MAX_N,
) -> tuple[Fraction, Assignment]:
    """Optimize through the flow encoding; the argmax is re-evaluated on the
    source instance so the returned value is exact and authoritative."""
    red = imopt_to_flow(inst, certs)
    if red.trivially_zero:
        bits = (0,) * inst.num_vars
        return ZERO, bits
    flow = graph_brute_force(red.graph, max_n=max_n)
    bits = red.assignment_back(flow.argmax, inst.num_vars)
    return measure(inst, bits), bits


# ---------------------------------------------------------------------------
# derivation-script rewriting


@dataclass(frozen=True)
class Gadget:
    """A compiled script: the target constraint as a scaled maximization over
    private auxiliary slots of a product of source-constraint applications."""

    free_slots: tuple[int, ...]
    aux_slots: tuple[int, ...]
    factors: tuple[tuple[ConstraintTable, tuple[int, ...]], ...]
    scale: Fraction

    @property
    def arity(self) -> int:
        return len(self.free_slots)


def compile_script(
    script: ConstructionScript,
    tables: Mapping[str, ConstraintTable] | None = None,
) -> Gadget:
    """Turn a script into a flat application form.

    Pins become private auxiliary slots constrained by a pin unary, links
    merge slots, expansion inserts unused slots, and maximization moves
    trailing slots into the auxiliary set.
    """
    src = _lookup(script.source, tables)
    next_slot = src.arity
    free = list(range(src.arity))
    aux: list[int] = []
    factors: list[tuple[ConstraintTable, tuple[int, ...]]] = [
        (src, tuple(range(src.arity)))
    ]
    scale = ONE
    for step in script.steps:
        op = step[0]
        if op == "perm":
            i, j = step[1], step[2]
            free[i - 1], free[j - 1] = free[j - 1], free[i - 1]
        elif op == "pin":
            i, c = step[1], step[2]
            slot = free.pop(i - 1)
            aux.append(slot)
            factors.append((D1 if c else D0, (slot,)))
        elif op == "link":
            i, j = step[1], step[2]
            gone = free.pop(i - 1)
            keep = free[j - 1 if j < i else j - 2]
            factors = [
                (t, tuple(keep if s == gone else s for s in slots))
                for t, slots in factors
            ]
        elif op == "expand":
            free.insert(step[1], next_slot)
            next_slot += 1
        elif op == "mul":
            other = _lookup(step[1], tables)
            if other.arity != len(free):
                raise ArgumentError(
                    f"mul {step[1]}: arity {other.arity} != current arity {len(free)}"
                )
            factors.append((other, tuple(free)))
        elif op == "maxout":
            d = step[1]
            if d > len(free):
                raise ArgumentError(f"cannot maximize {d} of {len(free)} variables")
            for _ in range(d):
                aux.append(free.pop())
        elif op == "scale":
            scale *= step[1]
        else:
            raise ArgumentError(f"unknown script step {op!r}")
    used = {s for _, slots in factors for s in slots}
    aux_used = tuple(s for s in aux if s in used)
    return Gadget(tuple(free), aux_used, factors, scale)


def gadget_table(gadget: Gadget) -> ConstraintTable:
    """Evaluate a gadget back into a dense table (cross-check against replay)."""
    k = gadget.arity
    m = len(gadget.aux_slots)
    factors = [(table.weights, slots) for table, slots in gadget.factors]
    out = []
    for idx in range(1 << k):
        free_bits = {
            slot: (idx >> (k - 1 - p)) & 1 for p, slot in enumerate(gadget.free_slots)
        }
        best = ZERO
        for amask in range(1 << m):
            bits = dict(free_bits)
            for p, slot in enumerate(gadget.aux_slots):
                bits[slot] = (amask >> (m - 1 - p)) & 1
            value = gadget.scale
            for weights, slots in factors:
                value *= weights[
                    sum(bits[s] << (len(slots) - 1 - t) for t, s in enumerate(slots))
                ]
                if value == 0:
                    break
            best = max(best, value)
        out.append(best)
    return ConstraintTable(k, tuple(out))


@dataclass(frozen=True)
class RewriteResult:
    instance: CspInstance
    occurrences: int
    scale_total: Fraction  # the script's accumulated positive scale
    num_source_vars: int

    def project(self, bits: Sequence[int]) -> Assignment:
        """Drop the private auxiliary variables from a rewritten assignment."""
        return tuple(bits[: self.num_source_vars])


def rewrite_by_construction(
    inst: CspInstance,
    target: ConstraintTable,
    script: ConstructionScript,
    tables: Mapping[str, ConstraintTable] | None = None,
) -> RewriteResult:
    """Replace every application of `target` by the script's constituent
    applications, with fresh private auxiliary variables per occurrence.

    The optima satisfy m*(rewritten) * scale_total^occurrences = m*(original)
    exactly, and projecting a rewritten argmax achieves the original optimum.
    """
    replayed = replay(script, tables)
    if replayed != target:
        diff = next(
            i for i in range(1 << target.arity)
            if replayed.value_at(i) != target.value_at(i)
        ) if replayed.arity == target.arity else -1
        raise ReductionError(
            f"script replay does not reproduce the target constraint "
            f"(first divergence at table index {diff}): "
            f"replay={replayed.weights if replayed.arity == target.arity else replayed}"
        )
    gadget = compile_script(script, tables)
    apps: list = []
    next_var = inst.num_vars
    occurrences = 0
    for table, variables in inst.applications:
        if table != target:
            apps.append((table, variables))
            continue
        occurrences += 1
        slot_var: dict[int, int] = {}
        for pos, slot in enumerate(gadget.free_slots):
            slot_var[slot] = variables[pos]
        for slot in gadget.aux_slots:
            next_var += 1
            slot_var[slot] = next_var
        for factor_table, slots in gadget.factors:
            apps.append((factor_table, tuple(slot_var[s] for s in slots)))
    rewritten = CspInstance(next_var, tuple(apps))
    return RewriteResult(rewritten, occurrences, script.accumulated_scale, inst.num_vars)


# ---------------------------------------------------------------------------
# approximation-preserving composition


@dataclass
class AptCallLog:
    """Record of every oracle call a composed scheme makes."""

    eps: float
    calls: list[tuple[object, float]] = field(default_factory=list)

    def record(self, sub_instance: object, delta: float):
        if not (0 < delta < 1):
            raise ArgumentError(f"oracle tolerance must lie in (0,1), got {delta}")
        self.calls.append((sub_instance, delta))

    @property
    def bound_report(self) -> float:
        """Largest inverse tolerance passed to the oracle."""
        return max((1.0 / d for _, d in self.calls), default=0.0)


@dataclass(frozen=True)
class Reduction:
    """An instance transform with its solution back-map."""

    name: str
    transform: Callable[[object], object]
    back: Callable[[Sequence[int], object], Assignment]


def apt_wrap(
    outer: Reduction,
    inner_scheme: Callable[[object, float], Sequence[int]],
) -> Callable[[object, float], tuple[Assignment, AptCallLog]]:
    """Compose a reduction with an approximation scheme for its target: the
    result is a scheme for the source problem that logs its oracle calls.
    With an exact inner scheme the composed scheme is exact."""

    def scheme(source, eps: float) -> tuple[Assignment, AptCallLog]:
        if not (0 < eps < 1):
            raise ArgumentError(f"error tolerance must lie in (0,1), got {eps}")
        log = AptCallLog(eps)
        sub = outer.transform(source)
        delta = eps
        log.record(sub, delta)
        inner = inner_scheme(sub, delta)
        return outer.back(inner, source), log

    return scheme


def exact_csp_scheme(inst: CspInstance, delta: float) -> Assignment:
    return solve(inst).argmax


def exact_flow_scheme(g: GraphInstance, delta: float) -> Assignment:
    return graph_brute_force(g).argmax


def reduction_is_to_csp() -> Reduction:
    return Reduction("is2csp", is_to_csp, lambda bits, g: tuple(bits))


def reduction_is_to_or_csp() -> Reduction:
    """Independent set through the complemented (OR-based) encoding."""

    return Reduction(
        "is2orcsp",
        lambda g: complement_all(is_to_csp(g)),
        lambda bits, g: tuple(1 - b for b in bits),
    )


def reduction_bis_to_implies() -> Reduction:
    return Reduction("bis2csp", bis_to_implies, lambda bits, g: bis_assignment_back(g, bits))


def reduction_imopt_to_flow() -> Reduction:
    """CSP-level reduction to flow; the inner scheme sees the flow graph."""

    def transform(inst: CspInstance):
        red = imopt_to_flow(inst)
        if red.trivially_zero:
            return GraphInstance("FLOW", 0, (), (), ())
        return red.graph

    def back(bits, inst: CspInstance) -> Assignment:
        red = imopt_to_flow(inst)
        if red.trivially_zero:
            return (0,) * inst.num_vars
        return red.assignment_back(bits, inst.num_vars)

    return Reduction("csp2flow", transform, back)
