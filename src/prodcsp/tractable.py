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
Whether an instance takes this route is decided in `routes.solve`.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import itemgetter, xor
from typing import Mapping, Optional

from .errors import CertificateError, ProdCspError
from .instances import CspInstance, SolveResult, measure
from .membership import EdCertificate, is_ed

ONE = Fraction(1)
GROUND = (0,)  # appended to an application's variables: pins link to node 0


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


def _plan(cert: EdCertificate, arity: int):
    """A certificate in integer form with 0-based positions: (links with
    parity 0/1, non-trivial unary pairs times the lcm of their denominators,
    and scale, the product of those lcms). A pin is a link to position
    `arity`, which the solve loop points at the ground node 0."""
    links = [(pos - 1, arity, bit) for pos, bit in cert.pins]
    links += [
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
    return links, unaries, scale


def solve_tractable(
    inst: CspInstance,
    certs: Mapping[str, EdCertificate],
) -> SolveResult:
    """Exact optimum through the certificates' pins/links/unary factors.

    Contradictory systems (and components whose both choices vanish) yield
    optimum 0 with the all-zeros assignment. When a component's two choices
    tie, it takes the one that sets its smallest-index variable to 0, so the
    argmax is the lexicographically smallest maximizer. A missing or non-ed
    certificate is refused.

    Each distinct table is planned once (`_plan`) and its plan is found by
    the table object; all weights are ints until the optimum is built as
    constant * product / (product of scales).
    """
    n = inst.num_vars
    names, blocks = inst.named_tables()
    by_name = {}
    for name, table in blocks.items():
        if table.arity == 0:
            by_name[name] = ((), (), 1)
            continue
        if name not in certs:
            raise CertificateError(
                f"no ed certificate supplied for applied constraint {name!r}"
            )
        cert = certs[name]
        if not isinstance(cert, EdCertificate):
            raise CertificateError(f"certificate for {name!r} is not an ed certificate")
        if len(cert.unary_factors) != table.arity:
            raise CertificateError(f"certificate arity mismatch for {name!r}")
        by_name[name] = _plan(cert, table.arity)
    plans = {table_id: by_name[name] for table_id, name in names.items()}
    # Per distinct table object: the arity-0 constant and the scale, raised to
    # the table's number of applications.
    uses = Counter(map(id, map(itemgetter(0), inst.applications)))
    constant = ONE
    denominator = 1
    for table_id, count in uses.items():
        name = names[table_id]
        if blocks[name].arity == 0:
            constant *= blocks[name].weights[0] ** count
        denominator *= by_name[name][2] ** count
    if constant == 0:
        return _zero_result(n)
    # A parity union-find over the variables and node 0, the grounded "false"
    # reference (sigma(0) = 0); a pin is a link to node 0. The root-or-child
    # case of find is inlined; deeper paths take ParityUnionFind.find.
    uf = ParityUnionFind(n + 1)
    parent, parity, rank, find = uf.parent, uf.parity, uf.rank, uf.find
    # Per weighted variable: the product of its unary weights at 0 and at 1.
    weight0: dict[int, int] = {}
    weight1: dict[int, int] = {}
    for table, variables in inst.applications:
        links, unaries, _ = plans[id(table)]
        if links:
            variables += GROUND
            for i, j, link_parity in links:
                x = variables[i]
                rx = parent[x]
                if parent[rx] == rx:
                    px = parity[x]
                else:
                    rx, px = find(x)
                y = variables[j]
                ry = parent[y]
                if parent[ry] == ry:
                    py = parity[y]
                else:
                    ry, py = find(y)
                if rx == ry:
                    if px ^ py != link_parity:
                        return _zero_result(n)
                    continue
                if rank[rx] < rank[ry]:
                    rx, ry = ry, rx
                elif rank[rx] == rank[ry]:
                    rank[rx] += 1
                parent[ry] = rx
                parity[ry] = px ^ py ^ link_parity
        for pos, a0, a1 in unaries:
            v = variables[pos]
            if v in weight0:
                weight0[v] *= a0
                weight1[v] *= a1
            else:
                weight0[v] = a0
                weight1[v] = a1
    # Point every node straight at its root: parent[v] is then v's root and
    # parity[v] its parity relative to that root (0 for a root).
    for v, up in enumerate(parent):
        if parent[up] != up:
            find(v)
    # Each root's bit defaults to the parity of its component's smallest
    # node, which sets that node to 0: the tie rule, and for the ground
    # component (whose smallest node is 0) the forced value.
    root_bit = dict(zip(reversed(parent), reversed(parity)))
    ground_root = parent[0]
    value0: dict[int, int] = {}  # per weighted component's root: its value
    value1: dict[int, int] = {}  # at root bit 0 and at root bit 1
    for v, a0 in weight0.items():
        a1 = weight1[v]
        if parity[v]:
            a0, a1 = a1, a0
        root = parent[v]
        if root in value0:
            value0[root] *= a0
            value1[root] *= a1
        else:
            value0[root] = a0
            value1[root] = a1
    product = 1
    for root, v0 in value0.items():
        v1 = value1[root]
        if root != ground_root and v0 != v1:
            root_bit[root] = int(v1 > v0)
        value = v1 if root_bit[root] else v0
        if value == 0:
            return _zero_result(n)
        product *= value
    optimum = constant * Fraction(product, denominator)
    argmax = tuple(map(xor, map(root_bit.__getitem__, parent[1:]), parity[1:]))
    achieved = measure(inst, argmax)
    if achieved != optimum:
        raise ProdCspError(
            "internal error: parity-component optimum "
            f"{optimum} not achieved by its assignment (got {achieved}); "
            "a supplied certificate does not reproduce its constraint"
        )
    return SolveResult(optimum, argmax, "parity_components")
