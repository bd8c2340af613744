"""Brute-force oracles for the class deciders.

These deliberately take a different route from the deciders: they enumerate
every candidate support structure (variable boxes, pin/parity systems,
pin/implication systems), match the enumerated structure's solution set
against the support, and then solve the factor equations exactly (rational
Gaussian elimination, rational Fourier-Motzkin) instead of deriving the
structure from the support.

The imopt oracle's value side runs sign-constrained feasibility in log2
space and therefore requires every nonzero weight to be an integer power of
two (the agreement sweeps use such weight grids); the other oracles are
exact for arbitrary rational weights.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import DomainError
from .tables import ConstraintTable

ONE = Fraction(1)


def _bit(idx: int, var: int, arity: int) -> int:
    return (idx >> (arity - var)) & 1


def dyadic_log2(value: Fraction) -> int:
    """Exact log2 of a rational that is an integer power of two."""
    num, den = value.numerator, value.denominator
    if num <= 0 or num & (num - 1) or den & (den - 1):
        raise DomainError(f"{value} is not a power of two")
    return num.bit_length() - den.bit_length()


# ---------------------------------------------------------------------------
# exact rational linear algebra


def integer_kernel(matrix: list[list[Fraction]]) -> list[list[int]]:
    """Integer-scaled basis of the rational kernel {y : matrix * y = 0}."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    m = [row[:] for row in matrix]
    pivots: list[int] = []
    rank_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank_row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank_row], m[pivot] = m[pivot], m[rank_row]
        inv = ONE / m[rank_row][col]
        m[rank_row] = [v * inv for v in m[rank_row]]
        for r in range(len(m)):
            if r != rank_row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank_row])]
        pivots.append(col)
        rank_row += 1
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for fc in free_cols:
        y = [Fraction(0)] * ncols
        y[fc] = ONE
        for r, pc in enumerate(pivots):
            y[pc] = -m[r][fc]
        common = lcm(*(v.denominator for v in y))
        basis.append([int(v * common) for v in y])
    return basis


def product_identities_hold(
    values: list[Fraction], rows: list[list[Fraction]]
) -> bool:
    """Whether log-linear system rows*beta = log(values) is consistent, decided
    exactly: every integer left-nullspace vector y of the row matrix must give
    prod values[p]^{y_p} = 1."""
    transposed = [[rows[p][v] for p in range(len(rows))] for v in range(len(rows[0]))]
    for y in integer_kernel(transposed):
        pos = neg = ONE
        for value, exp in zip(values, y):
            if exp > 0:
                pos *= value**exp
            elif exp < 0:
                neg *= value ** (-exp)
        if pos != neg:
            return False
    return True


def _normalized(row: list[Fraction], rhs: Fraction) -> tuple[tuple[Fraction, ...], Fraction]:
    """Scale an inequality so its leading nonzero coefficient (or rhs) is +-1,
    making duplicates detectable."""
    lead = next((a for a in row if a != 0), None)
    if lead is None:
        return tuple(row), (ONE if rhs > 0 else -ONE if rhs < 0 else Fraction(0))
    scale = abs(lead)
    return tuple(a / scale for a in row), rhs / scale


def fm_feasible(
    equalities: list[tuple[list[Fraction], Fraction]],
    nonpos_vars: set[int],
    nvar: int,
    max_rows: int = 200_000,
) -> bool:
    """Feasibility of {eq rows hold, x_v <= 0 for v in nonpos_vars} over the
    rationals: pivot the unconstrained variables out through the equalities,
    then run Fourier-Motzkin on the sign-constrained rest.

    Rows are normalized and deduplicated between eliminations; growth past
    max_rows (possible well beyond the arity-3 scale this backs) raises.
    """
    # Phase 1: eliminate unconstrained variables by pivoting on equalities.
    eqs = [(list(row), rhs) for row, rhs in equalities]
    free = [v for v in range(nvar) if v not in nonpos_vars]
    remaining: list[tuple[list[Fraction], Fraction]] = []
    while eqs:
        row, rhs = eqs.pop()
        pivot = next((v for v in free if row[v] != 0), None)
        if pivot is None:
            remaining.append((row, rhs))
            continue
        free.remove(pivot)
        inv = ONE / row[pivot]
        prow = [v * inv for v in row]
        prhs = rhs * inv
        for group in (eqs, remaining):
            for i, (orow, orhs) in enumerate(group):
                f = orow[pivot]
                if f != 0:
                    group[i] = (
                        [a - f * b for a, b in zip(orow, prow)],
                        orhs - f * prhs,
                    )
    # Phase 2: inequalities row*x <= rhs.
    ineqs: set[tuple[tuple[Fraction, ...], Fraction]] = set()
    for row, rhs in remaining:
        ineqs.add(_normalized(row, rhs))
        ineqs.add(_normalized([-v for v in row], -rhs))
    for v in sorted(nonpos_vars):
        unit = [Fraction(0)] * nvar
        unit[v] = ONE
        ineqs.add(_normalized(unit, Fraction(0)))
    # Phase 3: Fourier-Motzkin elimination of the sign-constrained variables.
    for v in sorted(nonpos_vars):
        upper, lower, rest = [], [], set()
        for row, rhs in ineqs:
            a = row[v]
            if a > 0:
                upper.append(([x / a for x in row], rhs / a))
            elif a < 0:
                lower.append(([x / a for x in row], rhs / a))
            else:
                rest.add((row, rhs))
        for urow, urhs in upper:
            for lrow, lrhs in lower:
                combined = [x - y for x, y in zip(urow, lrow)]
                combined[v] = Fraction(0)
                rest.add(_normalized(combined, urhs - lrhs))
                if len(rest) > max_rows:
                    raise DomainError(
                        "Fourier-Motzkin system grew past the row cap; "
                        "the instance is beyond this oracle's scale"
                    )
        ineqs = rest
    return all(rhs >= 0 for row, rhs in ineqs if all(a == 0 for a in row))


# ---------------------------------------------------------------------------
# structure enumerations


@lru_cache(maxsize=None)
def _ed_masks(arity: int) -> frozenset[int]:
    """All support masks cut out by some pin/parity-link system."""
    pairs = list(itertools.combinations(range(1, arity + 1), 2))
    masks = set()
    for pins in itertools.product((None, 0, 1), repeat=arity):
        for links in itertools.product((None, 0, 1), repeat=len(pairs)):
            mask = 0
            for idx in range(1 << arity):
                ok = all(
                    pins[v - 1] is None or _bit(idx, v, arity) == pins[v - 1]
                    for v in range(1, arity + 1)
                ) and all(
                    links[t] is None
                    or (_bit(idx, i, arity) ^ _bit(idx, j, arity)) == links[t]
                    for t, (i, j) in enumerate(pairs)
                )
                if ok:
                    mask |= 1 << idx
            masks.add(mask)
    return frozenset(masks)


@lru_cache(maxsize=None)
def _imp_masks(arity: int) -> frozenset[int]:
    """All support masks cut out by some pin/implication system."""
    pairs = [
        (r, s)
        for r in range(1, arity + 1)
        for s in range(1, arity + 1)
        if r != s
    ]
    masks = set()
    for pins in itertools.product((None, 0, 1), repeat=arity):
        for impset in range(1 << len(pairs)):
            mask = 0
            for idx in range(1 << arity):
                ok = all(
                    pins[v - 1] is None or _bit(idx, v, arity) == pins[v - 1]
                    for v in range(1, arity + 1)
                ) and all(
                    not ((impset >> t) & 1)
                    or not (
                        _bit(idx, r, arity) == 1 and _bit(idx, s, arity) == 0
                    )
                    for t, (r, s) in enumerate(pairs)
                )
                if ok:
                    mask |= 1 << idx
            masks.add(mask)
    return frozenset(masks)


# ---------------------------------------------------------------------------
# the oracles


def oracle_degenerate(table: ConstraintTable) -> bool:
    """Enumerate per-variable support boxes; solve the unary factors from the
    box corner and verify the product over the whole cube."""
    k, ws = table.arity, table.weights
    if k == 0:
        return ws[0] == 1
    if table.is_zero():
        return True
    mask = table.support().mask
    for box in itertools.product(((0,), (1,), (0, 1)), repeat=k):
        boxmask = 0
        for point in itertools.product(*box):
            boxmask |= 1 << sum(b << (k - 1 - t) for t, b in enumerate(point))
        if boxmask != mask:
            continue
        base = sum(min(box[t]) << (k - 1 - t) for t in range(k))
        const = ws[base]
        factors = []
        for v in range(1, k + 1):
            pair = [Fraction(0), Fraction(0)]
            pair[min(box[v - 1])] = ONE
            if len(box[v - 1]) == 2:
                pair[1] = ws[base ^ (1 << (k - v))] / const
            factors.append(pair)
        ok = True
        for idx in range(1 << k):
            value = const
            for v in range(1, k + 1):
                value *= factors[v - 1][_bit(idx, v, k)]
            if value != ws[idx]:
                ok = False
                break
        if ok:
            return True
    return False


def oracle_ed(table: ConstraintTable) -> bool:
    """Support must match some enumerated pin/parity system; the on-support
    values must admit per-variable log weights, decided exactly through the
    left null space of the incidence system (no log evaluation needed)."""
    k, ws = table.arity, table.weights
    if k == 0:
        return ws[0] == 1
    if table.is_zero():
        return True
    mask = table.support().mask
    if mask not in _ed_masks(k):
        return False
    pts = [i for i in range(1 << k) if (mask >> i) & 1]
    rows = []
    for p in pts:
        row = [Fraction(0)] * (2 * k)
        for v in range(1, k + 1):
            row[2 * (v - 1) + _bit(p, v, k)] = ONE
        rows.append(row)
    return product_identities_hold([ws[p] for p in pts], rows)


def oracle_imopt(table: ConstraintTable) -> bool:
    """Support must match some enumerated pin/implication system; the
    on-support values must satisfy the sign-constrained log-affine system,
    decided by exact Fourier-Motzkin."""
    k, ws = table.arity, table.weights
    if k == 0:
        return ws[0] == 1
    if table.is_zero():
        return True
    mask = table.support().mask
    if mask not in _imp_masks(k):
        return False
    pts = [i for i in range(1 << k) if (mask >> i) & 1]
    pairs = [
        (r, s)
        for r in range(1, k + 1)
        for s in range(1, k + 1)
        if r != s
    ]
    nvar = 1 + k + len(pairs)
    equalities = []
    for p in pts:
        row = [Fraction(0)] * nvar
        row[0] = ONE
        for v in range(1, k + 1):
            row[v] = Fraction(_bit(p, v, k))
        for t, (r, s) in enumerate(pairs):
            row[1 + k + t] = Fraction(_bit(p, r, k) * (1 - _bit(p, s, k)))
        equalities.append((row, Fraction(dyadic_log2(ws[p]))))
    nonpos = set(range(1 + k, nvar))
    return fm_feasible(equalities, nonpos, nvar)


# ---------------------------------------------------------------------------
# auxiliary exact characterizations used by property tests


def rectangle_condition_holds(table: ConstraintTable) -> bool:
    """f(a)f(b) = f(c)f(d) whenever a+b = c+d as integer vectors, over the
    whole cube. Equivalent to f being a product of unary factors."""
    k, ws = table.arity, table.weights
    buckets: dict[tuple[int, ...], Fraction] = {}
    for a in range(1 << k):
        for b in range(a, 1 << k):
            key = tuple(_bit(a, v, k) + _bit(b, v, k) for v in range(1, k + 1))
            product = ws[a] * ws[b]
            if key in buckets:
                if buckets[key] != product:
                    return False
            else:
                buckets[key] = product
    return True


def affine_by_equation_enumeration(table: ConstraintTable) -> bool:
    """Affinity oracle: collect every GF(2) linear equation valid on the
    support and compare the joint solution set with the support."""
    k = table.arity
    mask = table.support().mask
    if mask == 0:
        return True
    pts = [i for i in range(1 << k) if (mask >> i) & 1]
    valid = []
    for coeffs in range(1 << k):
        for rhs in (0, 1):
            if all(bin(p & coeffs).count("1") % 2 == rhs for p in pts):
                valid.append((coeffs, rhs))
    solution = 0
    for idx in range(1 << k):
        if all(bin(idx & c).count("1") % 2 == r for c, r in valid):
            solution |= 1 << idx
    return solution == mask
