"""Polynomial-time exact solver for instances whose constraints carry ed
factorization certificates (af members are ed members, so they need no
route of their own).

Every application decomposes through its certificate into unary weight
factors, pins, and pairwise parity links. A parity union-find groups the
variables; a contradiction forces the optimum to zero, and otherwise each
parity component contributes independently the larger of its two aggregate
weights, so only linearly many candidate solutions are ever examined.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        if self.parent[x] == x:
            return x, 0
        root, par = self.find(self.parent[x])
        self.parent[x] = root
        self.parity[x] ^= par
        return root, self.parity[x]

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


def _decompose(
    cert: EdCertificate, variables: tuple[int, ...]
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]], list[tuple[int, Fraction, Fraction]]]:
    """Map a certificate's structure onto instance variables.

    Returns (pins, links, unary weight contributions)."""
    pins = [(variables[pos - 1], bit) for pos, bit in cert.pins]
    links = [
        (variables[i - 1], variables[j - 1], 0 if parity == "equal" else 1)
        for i, j, parity in cert.parity_links
    ]
    unaries = [
        (variables[pos - 1], w0, w1)
        for pos, (w0, w1) in enumerate(cert.unary_factors, start=1)
        if (w0, w1) != (ONE, ONE)
    ]
    return pins, links, unaries


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


def solve_tractable(
    inst: CspInstance,
    certs: Mapping[str, EdCertificate],
    allow_brute_fallback: bool = False,
) -> SolveResult:
    """Exact optimum through the certificates' pins/links/unary factors.

    Contradictory systems (and components whose both choices vanish) yield
    optimum 0 with the all-zeros assignment. Per-component ties pick the
    representative bit 0. A missing certificate is refused unless the
    explicit brute-force fallback is requested; a certificate that is not an
    ed certificate is refused always.
    """
    n = inst.num_vars
    uf = ParityUnionFind(n + 1)  # node 0 is the grounded "false" reference
    weight0 = [ONE] * (n + 1)
    weight1 = [ONE] * (n + 1)
    constant = ONE
    names, blocks = inst.named_tables()
    for name, table in blocks.items():
        if table.arity > 0 and name not in certs:
            if allow_brute_fallback:
                from .instances import brute_force

                return brute_force(inst)
            raise CertificateError(
                f"no ed certificate supplied for applied constraint {name!r}"
            )
        if table.arity > 0 and not isinstance(certs[name], EdCertificate):
            raise CertificateError(f"certificate for {name!r} is not an ed certificate")
    for table, variables in inst.applications:
        if table.arity == 0:
            constant *= table.weights[0]
            if constant == 0:
                return _zero_result(n)
            continue
        name = names[id(table)]
        cert = certs[name]
        if len(cert.unary_factors) != table.arity:
            raise CertificateError(f"certificate arity mismatch for {name!r}")
        pins, links, unaries = _decompose(cert, variables)
        for var, bit in pins:
            if not uf.union(var, 0, bit):
                return _zero_result(n)
        for x, y, parity in links:
            if not uf.union(x, y, parity):
                return _zero_result(n)
        for var, w0, w1 in unaries:
            weight0[var] *= w0
            weight1[var] *= w1
    # Aggregate per parity component; the ground component is forced.
    ground_root, ground_par = uf.find(0)  # sigma(ground)=0 forces bit(root)=ground_par
    per_root: dict[int, tuple[Fraction, Fraction]] = {}
    for var in range(1, n + 1):
        root, par = uf.find(var)
        v0, v1 = per_root.get(root, (ONE, ONE))
        # component value when the root's bit is t: variable reads t xor par
        w_t0 = weight0[var] if par == 0 else weight1[var]
        w_t1 = weight1[var] if par == 0 else weight0[var]
        per_root[root] = (v0 * w_t0, v1 * w_t1)
    optimum = constant
    root_bit: dict[int, int] = {ground_root: ground_par}
    for root, (v0, v1) in per_root.items():
        if root == ground_root:
            optimum *= v0 if ground_par == 0 else v1
        elif v1 > v0:
            optimum *= v1
            root_bit[root] = 1
        else:
            optimum *= v0
            root_bit[root] = 0
        if optimum == 0:
            return _zero_result(n)
    bits = []
    for var in range(1, n + 1):
        root, par = uf.find(var)
        bits.append(root_bit[root] ^ par)
    argmax = tuple(bits)
    result = SolveResult(optimum, argmax, "parity_components")
    achieved = measure(inst, argmax)
    if achieved != optimum:
        raise ProdCspError(
            "internal error: parity-component optimum "
            f"{optimum} not achieved by its assignment (got {achieved}); "
            "a supplied certificate does not reproduce its constraint"
        )
    return result
