"""Decision procedures, with machine-checkable certificates, for the structural
classes of weighted Boolean constraints:

- nonzero:     every output is positive
- degenerate:  a product of unary factors on distinct variables; read off
               the ed certificate, as the ed members with no parity link
- ed:          a product of unary factors, binary equalities, and binary
               disequalities (parity links)
- af:          a degenerate part times a star of binary affine relations
               sharing one pivot variable; read off the ed certificate, as
               the ed members with at most one parity component of two or
               more variables
- imopt:       a product of unary factors and implication-weighted factors
               (1,1,lambda,1) with 0 <= lambda < 1

plus the two support predicates (affine support, implication-definable
support) and the multilinear log2 expansion, which is for display only.
Every decider is exact. The ED and IM_opt deciders put the table's weights
over one common denominator and compare cross-multiplied ints of that form
(`_int_form`); only a table that passes gets Fractions, as the ratios of
its certificate, which rebuild it with no tolerance.

Conventions for the degenerate corner cases:
- the all-zero constraint of arity >= 1 belongs to ed/af/imopt/degenerate
  (realizable with a (0,0) unary factor);
- an arity-0 constraint (c) belongs to these classes iff c == 1 (the empty
  product), since there is no variable to hang a factor on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional

from .construct import ConstructionScript
from .errors import ArgumentError, DomainError
from .ratmath import frac_log2
from .tables import ConstraintTable, Support

ONE = Fraction(1)
ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# certificates


def _unary_product(
    factors: tuple[tuple[Fraction, Fraction], ...], index: int, arity: int
) -> Fraction:
    value = ONE
    for var in range(1, arity + 1):
        value *= factors[var - 1][(index >> (arity - var)) & 1]
        if value == 0:
            return ZERO
    return value


@dataclass(frozen=True)
class DegenerateCertificate:
    """Unary factors whose pointwise product reproduces f exactly."""

    unary_factors: tuple[tuple[Fraction, Fraction], ...]

    def to_table(self) -> ConstraintTable:
        k = len(self.unary_factors)
        return ConstraintTable(
            k, tuple(_unary_product(self.unary_factors, i, k) for i in range(1 << k))
        )


@dataclass(frozen=True)
class EdCertificate:
    """Pins + parity links + unary factors reproducing f."""

    pins: tuple[tuple[int, int], ...]  # (variable, forced bit)
    parity_links: frozenset[tuple[int, int, str]]  # (i, j, "equal"|"unequal")
    unary_factors: tuple[tuple[Fraction, Fraction], ...]

    def to_table(self) -> ConstraintTable:
        k = len(self.unary_factors)
        out = []
        for idx in range(1 << k):
            bit = lambda v: (idx >> (k - v)) & 1
            ok = all(bit(v) == c for v, c in self.pins) and all(
                (bit(i) ^ bit(j)) == (0 if parity == "equal" else 1)
                for i, j, parity in self.parity_links
            )
            out.append(_unary_product(self.unary_factors, idx, k) if ok else ZERO)
        return ConstraintTable(k, tuple(out))


@dataclass(frozen=True)
class AfCertificate:
    """Unary factors times binary affine relations all sharing the pivot.

    Pins are encoded as zero entries of the unary factors, so the fields
    alone rebuild f.
    """

    pivot: int
    binary_relations: tuple[tuple[int, frozenset[tuple[int, int]]], ...]
    unary_factors: tuple[tuple[Fraction, Fraction], ...]

    def to_table(self) -> ConstraintTable:
        k = len(self.unary_factors)
        out = []
        for idx in range(1 << k):
            bit = lambda v: (idx >> (k - v)) & 1
            ok = all((bit(self.pivot), bit(j)) in rel for j, rel in self.binary_relations)
            out.append(_unary_product(self.unary_factors, idx, k) if ok else ZERO)
        return ConstraintTable(k, tuple(out))


@dataclass(frozen=True)
class ImOptCertificate:
    """Unary factors plus (1,1,lambda,1) pair factors reproducing f.

    A pair (r, s, lam) contributes lam exactly when x_r=1 and x_s=0;
    lam == 0 encodes a hard implication. Pins are zero entries of the
    unary factors.
    """

    unary_factors: tuple[tuple[Fraction, Fraction], ...]
    lambda_pairs: frozenset[tuple[int, int, Fraction]]

    def to_table(self) -> ConstraintTable:
        k = len(self.unary_factors)
        out = []
        for idx in range(1 << k):
            bit = lambda v: (idx >> (k - v)) & 1
            value = _unary_product(self.unary_factors, idx, k)
            for r, s, lam in self.lambda_pairs:
                if bit(r) == 1 and bit(s) == 0:
                    value *= lam
            out.append(value)
        return ConstraintTable(k, tuple(out))


Certificate = DegenerateCertificate | EdCertificate | AfCertificate | ImOptCertificate


def certificate_matches(cert: Certificate, table: ConstraintTable) -> bool:
    """Check that a certificate's rebuilt table is f exactly: same arity and
    the same rational weight at every input."""
    return cert.to_table() == table


# ---------------------------------------------------------------------------
# support analysis (cached on the (arity, mask) pair)


def _bit(idx: int, var: int, arity: int) -> int:
    return (idx >> (arity - var)) & 1


@lru_cache(maxsize=None)
def _support_points(arity: int, mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(1 << arity) if (mask >> i) & 1)


@lru_cache(maxsize=None)
def _affine_mask(arity: int, mask: int) -> bool:
    """Affine = closed under triple XOR = the difference set is a linear span."""
    if mask == 0:
        return True
    pts = _support_points(arity, mask)
    base = pts[0]
    pivots: dict[int, int] = {}
    for p in pts:
        x = p ^ base
        while x:
            h = x.bit_length() - 1
            if h in pivots:
                x ^= pivots[h]
            else:
                pivots[h] = x
                break
    return len(pts) == 1 << len(pivots)


@lru_cache(maxsize=None)
def _pins_of(arity: int, mask: int) -> tuple[tuple[int, int], ...]:
    """Variables that are constant across the support (nonempty support only)."""
    pts = _support_points(arity, mask)
    pins = []
    for v in range(1, arity + 1):
        seen = {_bit(p, v, arity) for p in pts}
        if len(seen) == 1:
            pins.append((v, seen.pop()))
    return tuple(pins)


@lru_cache(maxsize=None)
def _parity_pairs(arity: int, mask: int) -> tuple[tuple[int, int, int], ...]:
    """Unpinned pairs (i, j, parity) with x_i xor x_j constant on the support."""
    pts = _support_points(arity, mask)
    pinned = {v for v, _ in _pins_of(arity, mask)}
    out = []
    for i in range(1, arity + 1):
        if i in pinned:
            continue
        for j in range(i + 1, arity + 1):
            if j in pinned:
                continue
            seen = {_bit(p, i, arity) ^ _bit(p, j, arity) for p in pts}
            if len(seen) == 1:
                out.append((i, j, seen.pop()))
    return tuple(out)


@lru_cache(maxsize=None)
def _parity_components(arity: int, mask: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The unpinned variables grouped by constant XOR (nonempty support only):
    one tuple per component of (variable, parity to the representative), the
    representative (smallest index, parity 0) first.

    Constant XOR is an equivalence, so `_parity_pairs` holds every pair of a
    component, and a variable's first partner there is its representative.
    """
    rep: dict[int, tuple[int, int]] = {}
    for i, j, p in _parity_pairs(arity, mask):
        rep.setdefault(j, (i, p))
    pinned = {v for v, _ in _pins_of(arity, mask)}
    comps: dict[int, list[tuple[int, int]]] = {}
    for v in range(1, arity + 1):
        if v not in pinned:
            r, p = rep.get(v, (v, 0))
            comps.setdefault(r, []).append((v, p))
    return tuple(tuple(comp) for comp in comps.values())


@lru_cache(maxsize=None)
def _implication_pairs(arity: int, mask: int) -> tuple[tuple[int, int], ...]:
    """Ordered pairs (r, s) whose forbidden pattern (x_r, x_s) = (1, 0) never
    occurs on the support."""
    pts = _support_points(arity, mask)
    out = []
    for r in range(1, arity + 1):
        for s in range(1, arity + 1):
            if r == s:
                continue
            if all(not (_bit(p, r, arity) == 1 and _bit(p, s, arity) == 0) for p in pts):
                out.append((r, s))
    return tuple(out)


@lru_cache(maxsize=None)
def _imp_rebuild(arity: int, mask: int) -> int:
    pins = _pins_of(arity, mask)
    imps = _implication_pairs(arity, mask)
    rebuilt = 0
    for idx in range(1 << arity):
        if all(_bit(idx, v, arity) == c for v, c in pins) and all(
            not (_bit(idx, r, arity) == 1 and _bit(idx, s, arity) == 0) for r, s in imps
        ):
            rebuilt |= 1 << idx
    return rebuilt


def has_affine_support(table: ConstraintTable) -> bool:
    """True iff the support is closed under triple XOR (empty support counts)."""
    return _affine_mask(table.arity, table.support().mask)


def has_imp_support(table: ConstraintTable) -> bool:
    """True iff the support equals the solution set of its own derived pins
    and pairwise implications."""
    mask = table.support().mask
    if mask == 0:
        return True
    return _imp_rebuild(table.arity, mask) == mask


# ---------------------------------------------------------------------------
# the integer form and the unary-product factorization over a structured support


def _int_form(table: ConstraintTable) -> tuple[list[int], int]:
    """The weights over their least common denominator L, as the ints
    W_i = w_i * L, and the support mask read from W.

    Every ratio and every cross-multiplied comparison of weights is the
    same over W as over w, so the deciders compare ints and build Fractions
    only for a certificate. Built once per decider call and kept nowhere.
    """
    ws = table.weights
    dens = [w.denominator for w in ws]
    common = lcm(*dens)
    if common == 1:
        W = [w.numerator for w in ws]
    else:
        W = [w.numerator * (common // d) for w, d in zip(ws, dens)]
    mask = 0
    for i, x in enumerate(W):
        if x:
            mask |= 1 << i
    return W, mask


@lru_cache(maxsize=None)
def _component_walk(
    arity: int, mask: int
) -> tuple[int, tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """The base (first) support point, the index masks of the parity
    components, and for each subset t of two or more components, in
    increasing order, the triple (idx(t), idx(t - c), base ^ mask_c), with
    c the lowest component of t and idx(t) the base point with the
    components of t flipped."""
    k = arity
    base = _support_points(k, mask)[0]
    masks = tuple(sum(1 << (k - v) for v, _ in comp) for comp in _parity_components(k, mask))
    idx = [base]
    walk = []
    for t in range(1, 1 << len(masks)):
        c = (t & -t).bit_length() - 1
        rest = idx[t & (t - 1)]
        idx.append(rest ^ masks[c])
        if t & (t - 1):
            walk.append((idx[t], rest, base ^ masks[c]))
    return base, masks, tuple(walk)


def _factor_over_components(
    table: ConstraintTable, W: list[int], mask: int
) -> Optional[tuple[tuple[Fraction, Fraction], ...]]:
    """Try to factor f over its support as constant x product of one unary
    weight per parity component; returns per-variable factors or None.

    Assumes the support is exactly {base xor any subset of component masks}.
    f factors iff f(idx(t)) * f(base) == f(idx(t - c)) * f(base ^ mask_c)
    at each subset t of components, c its lowest (`_component_walk`): one
    multiply-compare of the integer form W per support point, walked in
    increasing t so that t - c is checked first. Only a table that passes gets Fractions, and the
    ratios of W are the ratios of f, so the factors rebuild f exactly.
    """
    k = table.arity
    base, masks, walk = _component_walk(k, mask)
    b = W[base]
    for i, rest, single in walk:
        if W[i] * b != W[rest] * W[single]:
            return None
    factors: list[tuple[Fraction, Fraction]] = [(ONE, ONE)] * k
    for comp, m in zip(_parity_components(k, mask), masks):
        ratio = Fraction(W[base ^ m], b)
        rep, _ = comp[0]
        factors[rep - 1] = (ONE, ratio) if _bit(base, rep, k) == 0 else (ratio, ONE)
    # fold the base constant into variable 1
    const = table.weights[base]
    u0, u1 = factors[0]
    factors[0] = (const * u0, const * u1)
    return tuple(factors)


# ---------------------------------------------------------------------------
# the deciders


def is_nonzero(table: ConstraintTable) -> bool:
    """True iff every output value is strictly positive."""
    return all(w.numerator for w in table.weights)


def _all_zero_factors(arity: int) -> tuple[tuple[Fraction, Fraction], ...]:
    return ((ZERO, ZERO),) + ((ONE, ONE),) * (arity - 1)


def is_ed(table: ConstraintTable) -> Optional[EdCertificate]:
    """The support must be exactly the solutions of its own pins and parity
    links, and the values on it must factor into per-component unary weights.

    The derived pins and links hold on the support and have 2^(components)
    solutions, so the support is theirs exactly when it has that many points;
    a support whose size is no power of two fails before any component is
    derived (or cached).
    """
    k = table.arity
    if k == 0:
        return EdCertificate((), frozenset(), ()) if table.weights[0] == 1 else None
    W, mask = _int_form(table)
    if mask == 0:
        return EdCertificate((), frozenset(), _all_zero_factors(k))
    size = mask.bit_count()
    if size & (size - 1):
        return None
    comps = _parity_components(k, mask)
    if size != 1 << len(comps):
        return None
    factors = _factor_over_components(table, W, mask)
    if factors is None:
        return None
    links = frozenset(
        (comp[0][0], v, "equal" if p == 0 else "unequal")
        for comp in comps
        for v, p in comp[1:]
    )
    return EdCertificate(_pins_of(k, mask), links, factors)


def _pins_as_zeros(ed: EdCertificate) -> tuple[tuple[Fraction, Fraction], ...]:
    """The ED certificate's unary factors with each pin as a zero entry."""
    factors = list(ed.unary_factors)
    for v, c in ed.pins:
        u = factors[v - 1]
        factors[v - 1] = (u[0], ZERO) if c == 0 else (ZERO, u[1])
    return tuple(factors)


def _dg_from_ed(ed: Optional[EdCertificate]) -> Optional[DegenerateCertificate]:
    """The DG certificate carried by an ED certificate, or None.

    A product of unaries has a product support, where no two free variables
    have a constant XOR, while pins times unaries is always a product: the
    DG members are exactly the ED members with no parity link.
    """
    if ed is None or ed.parity_links:
        return None
    return DegenerateCertificate(_pins_as_zeros(ed))


def is_degenerate(table: ConstraintTable) -> Optional[DegenerateCertificate]:
    """One unary factor per variable, read off the ED certificate (see
    `_dg_from_ed`)."""
    return _dg_from_ed(is_ed(table))


_EQUAL = frozenset([(0, 0), (1, 1)])
_UNEQUAL = frozenset([(0, 1), (1, 0)])


def _af_from_ed(ed: Optional[EdCertificate]) -> Optional[AfCertificate]:
    """The AF certificate carried by an ED certificate, or None.

    A binary affine relation is empty, a point, a pin, a parity link or the
    whole square, so a star of them through one pivot is pins plus parity
    links that all touch the pivot: the ED certificates whose links share one
    representative. That representative is the pivot (variable 1 when there
    are no links), each link becomes one relation, and the pins become zero
    unary entries.
    """
    if ed is None:
        return None
    reps = {i for i, _, _ in ed.parity_links}
    if len(reps) > 1:
        return None
    pivot = reps.pop() if reps else 1
    relations = tuple(
        (j, _EQUAL if parity == "equal" else _UNEQUAL)
        for _, j, parity in sorted(ed.parity_links)
    )
    return AfCertificate(pivot, relations, _pins_as_zeros(ed))


def is_af(table: ConstraintTable) -> Optional[AfCertificate]:
    """A degenerate part times binary affine relations sharing one pivot,
    read off the ED certificate (see `_af_from_ed`): exactly the ED members
    with at most one parity component of two or more variables.

    This is the narrow AF of this package, and it lies inside ED. The paper
    lists AF ("affine"-like constraints) as a tractable case of its own and
    defines it more broadly; that class is not decided here.
    """
    return _af_from_ed(is_ed(table))


# ---------------------------------------------------------------------------
# multilinear log expansion and the imopt decider


@dataclass(frozen=True)
class LogExpansion:
    """Multilinear coefficients of log2 f for a full-support constraint:
    log2 f(x) = sum over subsets S of coefficients[S] * prod_{i in S} x_i."""

    domain: Support
    coefficients: dict[frozenset[int], float]

    def reconstruct(self, bits) -> float:
        ones = {i + 1 for i, b in enumerate(bits) if b}
        return sum(c for S, c in self.coefficients.items() if S <= ones)

    def pair_coefficient(self, r: int, s: int) -> float:
        return self.coefficients.get(frozenset((r, s)), 0.0)

    def degree(self) -> int:
        return max((len(S) for S, c in self.coefficients.items() if c != 0), default=0)


def log_expansion(table: ConstraintTable) -> LogExpansion:
    """Finite-difference (Moebius) transform of log2 f on the full cube.

    For display and the invariant suites only: no decider reads these floats.
    """
    if not is_nonzero(table):
        raise DomainError("log expansion requires a strictly positive constraint")
    k = table.arity
    values = [frac_log2(w) for w in table.weights]
    for v in range(1, k + 1):  # one axis per variable, x1 first
        bit = 1 << (k - v)
        for idx in range(1 << k):
            if idx & bit:
                values[idx] -= values[idx ^ bit]
    coeffs: dict[frozenset[int], float] = {}
    for idx in range(1 << k):
        S = frozenset(v for v in range(1, k + 1) if (idx >> (k - v)) & 1)
        coeffs[S] = values[idx]
    return LogExpansion(table.support(), coeffs)


@dataclass(frozen=True)
class _ImpLattice:
    """An implication-definable support as the up-sets of a poset.

    The poset's elements are the classes of tied unpinned variables (equal
    on every support point); class A lies below class B when x_A = 1 forces
    x_B = 1. A support point is `base` with the bits of an up-set's classes
    set, so it is determined by the classes whose bits it has.
    """

    base: int  # the support point with every unpinned variable at 0
    classes: tuple[tuple[int, ...], ...]  # each sorted; lower classes first
    masks: tuple[int, ...]  # index bits of each class's variables
    ups: tuple[int, ...]  # index bits of each class and every class above it
    incomparable: tuple[tuple[int, int], ...]  # class positions (a, b), a < b
    # each support point but base, in increasing index, with the position
    # of its first class; lower classes come first, so that class is minimal
    points: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def _imp_lattice(arity: int, mask: int) -> _ImpLattice:
    k = arity
    pins = _pins_of(k, mask)
    pinned = {v for v, _ in pins}
    above: dict[int, set[int]] = {v: {v} for v in range(1, k + 1) if v not in pinned}
    for r, s in _implication_pairs(k, mask):
        if r in above and s in above:
            above[r].add(s)
    groups: dict[frozenset[int], list[int]] = {}
    for v, up in above.items():
        groups.setdefault(frozenset(up), []).append(v)
    # A class strictly below another has strictly more variables above it.
    ordered = sorted(groups.items(), key=lambda item: (-len(item[0]), item[1][0]))

    def bits(variables) -> int:
        return sum(1 << (k - v) for v in variables)

    masks = tuple(bits(cls) for _, cls in ordered)
    ups = tuple(bits(up) for up, _ in ordered)
    incomparable = tuple(
        (a, b)
        for a, b in itertools.combinations(range(len(ordered)), 2)
        if not (ups[a] & masks[b] or ups[b] & masks[a])
    )
    base = bits(v for v, c in pins if c)
    points = tuple(
        (idx, next(a for a, m in enumerate(masks) if idx & m))
        for idx in _support_points(k, mask)
        if idx != base
    )
    return _ImpLattice(
        base=base,
        classes=tuple(tuple(cls) for _, cls in ordered),
        masks=masks,
        ups=ups,
        incomparable=incomparable,
        points=points,
    )


def _imopt_exact(
    table: ConstraintTable, W: list[int], mask: int
) -> Optional[ImOptCertificate]:
    """The exact IM_opt test on an implication-definable support (Rota 1964).

    On the support, log2 f is a function on the up-sets T of the class
    poset, and the functions [X subset of T], one per antichain X, are a
    basis. The coefficient of an antichain X is log2(even/odd), where even
    (odd) multiplies f over the up-sets left when an even (odd) number of
    X's classes is removed from the up-set X generates. f is in IM_opt
    exactly when every antichain of >= 3 classes has even == odd and every
    2-antichain has even >= odd; on the full support the classes are the
    variables and this is the multilinear expansion's degree-2 test.

    The 2-antichain products give the pair factors delta = even/odd and each
    class's unary ratio rho; the >= 3 conditions then hold exactly when
    f(T) = f(T - A) * rho_A * prod(delta_AB for B in T incomparable with A)
    at every support point T, with A a minimal class of T. The points are
    checked in increasing index, so each T - A is checked before T and the
    test exits at the first point that fails.

    Every test runs on the integer form W: rho and delta stay (num, den)
    int pairs, even and odd are compared as ints, and the point test
    cross-multiplies. Each is a ratio of table weights, the same over W as
    over f, so the certificate built from them once the table has passed
    rebuilds f exactly.
    """
    k = table.arity
    lat = _imp_lattice(k, mask)
    base = lat.base
    n = len(lat.classes)
    rho = [(W[base | up], W[base | (up ^ m)]) for up, m in zip(lat.ups, lat.masks)]
    partners: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    deltas: list[tuple[int, int, int, int]] = []
    for a, b in lat.incomparable:
        top = base | lat.ups[a] | lat.ups[b]
        even = W[top] * W[top ^ lat.masks[a] ^ lat.masks[b]]
        odd = W[top ^ lat.masks[a]] * W[top ^ lat.masks[b]]
        if even < odd:
            return None
        if even != odd:
            partners[a].append((lat.masks[b], even, odd))
            partners[b].append((lat.masks[a], even, odd))
            deltas.append((a, b, even, odd))
    for idx, a in lat.points:
        num, den = rho[a]
        num *= W[idx ^ lat.masks[a]]
        den *= W[idx]
        for m, even, odd in partners[a]:
            if idx & m:
                num *= even
                den *= odd
        if num != den:
            return None

    pins = _pins_of(k, mask)
    pinned = {v for v, _ in pins}
    factors: list[tuple[Fraction, Fraction]] = [(ONE, ONE)] * k
    for v, c in pins:
        factors[v - 1] = (ZERO, ONE) if c else (ONE, ZERO)
    hi = {cls[0]: Fraction(*rho[a]) for a, cls in enumerate(lat.classes)}
    lambda_pairs = {
        (r, s, ZERO)
        for r, s in _implication_pairs(k, mask)
        if r not in pinned and s not in pinned
    }
    for a, b, even, odd in deltas:
        # delta^(x_r x_s) = delta^x_r * (1/delta)^(x_r (1 - x_s))
        r, s = sorted((lat.classes[a][0], lat.classes[b][0]))
        hi[r] *= Fraction(even, odd)
        lambda_pairs.add((r, s, Fraction(odd, even)))
    for rep, ratio in hi.items():
        factors[rep - 1] = (ONE, ratio)
    const = table.weights[base]
    u0, u1 = factors[0]
    factors[0] = (const * u0, const * u1)
    return ImOptCertificate(tuple(factors), frozenset(lambda_pairs))


def is_imopt(table: ConstraintTable) -> Optional[ImOptCertificate]:
    """Implication-definable support plus the exact antichain Moebius test
    on its values (see `_imopt_exact`); every support, full or partial, is
    decided in integer arithmetic on the table's common-denominator form.
    """
    k = table.arity
    if k == 0:
        return ImOptCertificate((), frozenset()) if table.weights[0] == 1 else None
    W, mask = _int_form(table)
    if mask == 0:
        return ImOptCertificate(_all_zero_factors(k), frozenset())
    if _imp_rebuild(k, mask) != mask:
        return None
    return _imopt_exact(table, W, mask)


# ---------------------------------------------------------------------------
# reachable-binary diagnostic


def binary_witness_search(
    table: ConstraintTable,
) -> list[tuple[ConstructionScript, ConstraintTable]]:
    """All distinct binary constraints reachable by pinning, linking and
    permuting (one witness derivation each, scale-normalized to a leading 1).

    Permutations before pins/links are absorbed by trying every position, so
    only the final argument swap is enumerated explicitly.
    """
    if table.arity < 2:
        raise ArgumentError("binary witness search needs arity >= 2")
    name = table.name or "f"
    start = ConstructionScript(name)
    frontier: list[tuple[ConstraintTable, ConstructionScript]] = [(table, start)]
    seen_intermediate = {(table.arity, table.weights)}
    found: dict[tuple[Fraction, ...], tuple[ConstructionScript, ConstraintTable]] = {}

    def record(t: ConstraintTable, script: ConstructionScript):
        lead = next((w for w in t.weights if w != 0), None)
        if lead is not None and lead != 1:
            script = script.extended(("scale", ONE / lead))
            t = t.scale(ONE / lead)
        if t.weights not in found:
            found[t.weights] = (script, t)

    while frontier:
        current, script = frontier.pop()
        k = current.arity
        if k == 2:
            record(current, script)
            record(current.permute(1, 2), script.extended(("perm", 1, 2)))
            continue
        nexts = []
        for i in range(1, k + 1):
            for c in (0, 1):
                nexts.append((current.pin(i, c), ("pin", i, c)))
            for j in range(1, k + 1):
                if i != j:
                    nexts.append((current.link(i, j), ("link", i, j)))
        for t, step in nexts:
            key = (t.arity, t.weights)
            if key not in seen_intermediate:
                seen_intermediate.add(key)
                frontier.append((t, script.extended(step)))
    return [found[w] for w in sorted(found)]


# ---------------------------------------------------------------------------
# bundled membership lookup

CLASS_NAMES = ("NZ", "DG", "ED", "AF", "IM_opt", "affine_support", "imp_support")


def memberships(
    table: ConstraintTable,
) -> tuple[frozenset[str], dict[str, Certificate]]:
    """All class memberships of one constraint, with certificates where the
    class carries one; DG and AF come from the ED certificate, not more passes."""
    members: set[str] = set()
    certs: dict[str, Certificate] = {}
    if is_nonzero(table):
        members.add("NZ")
    if has_affine_support(table):
        members.add("affine_support")
    if has_imp_support(table):
        members.add("imp_support")
    ed = is_ed(table)
    for label, cert in (
        ("DG", _dg_from_ed(ed)),
        ("ED", ed),
        ("AF", _af_from_ed(ed)),
        ("IM_opt", is_imopt(table)),
    ):
        if cert is not None:
            members.add(label)
            certs[label] = cert
    return frozenset(members), certs
