"""Polynomial-time exact solver for instances whose constraints carry ed
factorization certificates (af members are ed members, so they need no
route of their own).

Every application decomposes through its certificate into unary weight
factors, pins, and pairwise parity links. A parity union-find groups the
variables; a contradiction forces the optimum to zero, and otherwise each
parity component contributes independently the larger of its two aggregate
weights, so only linearly many candidate solutions are ever examined. A tie
sets the component's smallest-index variable to 0: the argmax is the
lexicographically smallest maximizer, as everywhere else in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional

from .errors import CertificateError, ProdCspError
from .instances import CspInstance, SolveResult, measure
from .membership import EdCertificate, is_ed

ONE = Fraction(1)


class ParityUnionFind:
    """Union-find storing each node's parity relative to its root."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.parity = [0] * size  # parity of node relative to its parent
        self.rank = [0] * size

    def find(self, x: int) -> tuple[int, int]:
        parent, parity = self.parent, self.parity
        up = parent[x]
        if parent[up] == up:  # x is a root (parity 0) or a root's child
            return up, parity[x]
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        # Compress from the node nearest the root, accumulating parities.
        par = 0
        for node in reversed(path):
            par ^= parity[node]
            parity[node] = par
            parent[node] = x
        return x, par

    def union(self, x: int, y: int, parity: int) -> bool:
        """Demand x xor y == parity; False on contradiction."""
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            return (px ^ py) == parity
        if self.rank[rx] < self.rank[ry]:
            rx, ry, px, py = ry, rx, py, px
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ parity
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True


def certify_instance(inst: CspInstance) -> Optional[dict[str, EdCertificate]]:
    """Ed certificates for every distinct applied constraint, keyed by name,
    or None when some constraint has none."""
    certs: dict[str, EdCertificate] = {}
    _, blocks = inst.named_tables()
    for name, table in blocks.items():
        if table.arity == 0:
            continue
        cert = is_ed(table)
        if cert is None:
            return None
        certs[name] = cert
    return certs


def _zero_result(n: int) -> SolveResult:
    return SolveResult(Fraction(0), (0,) * n, "parity_components")


def _plan(cert: EdCertificate):
    """A certificate in integer form with 0-based positions: (pins, links with
    parity 0/1, non-trivial unary pairs times the lcm of their denominators,
    and scale, the product of those lcms)."""
    pins = [(pos - 1, bit) for pos, bit in cert.pins]
    links = [
        (i - 1, j - 1, 0 if parity == "equal" else 1)
        for i, j, parity in cert.parity_links
    ]
    unaries = []
    scale = 1
    for pos, (w0, w1) in enumerate(cert.unary_factors):
        if w0 == w1 == ONE:
            continue
        lcm = math.lcm(w0.denominator, w1.denominator)
        unaries.append((pos, int(w0 * lcm), int(w1 * lcm)))
        scale *= lcm
    return pins, links, unaries, scale


def solve_tractable(
    inst: CspInstance,
    certs: Mapping[str, EdCertificate],
    allow_brute_fallback: bool = False,
) -> SolveResult:
    """Exact optimum through the certificates' pins/links/unary factors.

    Contradictory systems (and components whose both choices vanish) yield
    optimum 0 with the all-zeros assignment. When a component's two choices
    tie, it takes the one that sets its smallest-index variable to 0, so the
    argmax is the lexicographically smallest maximizer. A missing certificate
    is refused unless the explicit brute-force fallback is requested; a
    certificate that is not an ed certificate is refused always.

    Each distinct table is planned once (`_plan`), and all weights are ints
    until the optimum is built as constant * product / (product of scales).
    """
    n = inst.num_vars
    names, blocks = inst.named_tables()
    plans = {}
    for name, table in blocks.items():
        if table.arity == 0:
            plans[name] = ((), (), (), 1)
            continue
        if name not in certs:
            if allow_brute_fallback:
                from .instances import brute_force

                return brute_force(inst)
            raise CertificateError(
                f"no ed certificate supplied for applied constraint {name!r}"
            )
        cert = certs[name]
        if not isinstance(cert, EdCertificate):
            raise CertificateError(f"certificate for {name!r} is not an ed certificate")
        if len(cert.unary_factors) != table.arity:
            raise CertificateError(f"certificate arity mismatch for {name!r}")
        plans[name] = _plan(cert)
    constant = math.prod(t.weights[0] for t, _ in inst.applications if t.arity == 0)
    if constant == 0:
        return _zero_result(n)
    uf = ParityUnionFind(n + 1)  # node 0 is the grounded "false" reference
    union = uf.union
    weights = ([1] * (n + 1), [1] * (n + 1))  # per variable, at bit 0 and 1
    denominator = 1
    for table, variables in inst.applications:
        pins, links, unaries, scale = plans[names[id(table)]]
        for pos, bit in pins:
            if not union(variables[pos], 0, bit):
                return _zero_result(n)
        for i, j, parity in links:
            if not union(variables[i], variables[j], parity):
                return _zero_result(n)
        for pos, a0, a1 in unaries:
            weights[0][variables[pos]] *= a0
            weights[1][variables[pos]] *= a1
        if scale != 1:
            denominator *= scale
    # Aggregate per parity component: [value at root bit 0, at root bit 1,
    # parity of the component's smallest-index variable]. sigma(ground)=0
    # forces the ground component's root bit to ground_par.
    found = [uf.find(var) for var in range(n + 1)]
    ground_root, ground_par = found[0]
    per_root: dict[int, list[int]] = {}
    for var in range(1, n + 1):
        root, par = found[var]  # the variable reads (root bit) xor par
        w_t0, w_t1 = weights[par][var], weights[par ^ 1][var]
        acc = per_root.get(root)
        if acc is None:
            per_root[root] = [w_t0, w_t1, par]
        else:
            acc[0] *= w_t0
            acc[1] *= w_t1
    product = 1
    root_bit: dict[int, int] = {ground_root: ground_par}
    for root, (v0, v1, first_par) in per_root.items():
        if root == ground_root:
            bit = ground_par
        elif v0 == v1:
            bit = first_par  # the smallest-index variable reads 0
        else:
            bit = int(v1 > v0)
        value = v1 if bit else v0
        if value == 0:
            return _zero_result(n)
        product *= value
        root_bit[root] = bit
    optimum = constant * Fraction(product, denominator)
    argmax = tuple([root_bit[root] ^ par for root, par in found[1:]])
    achieved = measure(inst, argmax)
    if achieved != optimum:
        raise ProdCspError(
            "internal error: parity-component optimum "
            f"{optimum} not achieved by its assignment (got {achieved}); "
            "a supplied certificate does not reproduce its constraint"
        )
    return SolveResult(optimum, argmax, "parity_components")
