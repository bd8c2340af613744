"""Product-measured CSP instances: the measure, the exhaustive solver used as
the correctness oracle everywhere, the hill-climb local search, and the ratio
check with its zero rule. Which solver a call takes is chosen in `routes`.

Assignments are plain 0/1 tuples; position l holds the value of variable
x_{l+1}. An assignment's integer encoding (x1 as the most significant bit)
makes numeric order coincide with lexicographic order, which is the argmax
tie-break everywhere.

`CspInstance` owns the application rule: every index is an int in
1..num_vars and each application has as many indices as its table's arity.
It converts and checks each application once, on construction; the
instance parser hands it the index tokens as read and maps a refusal back to
its line only when one occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .errors import ArgumentError, ArityError, CapExceededError
from .ratmath import frac_log2
from .tables import ConstraintTable, bits_to_index, index_to_bits

Assignment = tuple[int, ...]

DEFAULT_MAX_N = 24

Application = tuple[ConstraintTable, tuple[int, ...]]


class _Indices(dict):
    """Variable index -> int, each distinct index converted and range-checked
    on first sight. Keys are the indices as given (ints, or the tokens a
    parser read), so the cache grows with the input, never with num_vars."""

    __slots__ = ("num_vars",)

    def __init__(self, num_vars: int):
        super().__init__()
        self.num_vars = num_vars

    def __missing__(self, key) -> int:
        try:
            value = int(key)
        except ValueError:
            raise ArgumentError(f"bad variable index {key!r}") from None
        if not 1 <= value <= self.num_vars:
            raise ArgumentError(f"variable index {value} out of range 1..{self.num_vars}")
        self[key] = value
        return value


@dataclass(frozen=True)
class CspInstance:
    """A variable count plus an ordered multiset of constraint applications.

    Variable indices are 1-based; repeats inside one tuple are allowed (the
    constraint then reads the same variable several times). Indices may be
    given as any int-like values (including digit strings); they are stored
    as tuples of ints. A wrong index count raises ArityError; an index
    outside 1..num_vars, or one that is not int-like, raises ArgumentError.
    """

    num_vars: int
    applications: tuple[Application, ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ArgumentError("variable count must be nonnegative")
        index = _Indices(self.num_vars).__getitem__
        apps = []
        append = apps.append
        for table, variables in self.applications:
            variables = tuple(map(index, variables))
            if len(variables) != table.arity:
                raise ArityError(
                    f"{table.name or 'constraint'} has arity {table.arity}, "
                    f"applied to {len(variables)} variables"
                )
            append((table, variables))
        object.__setattr__(self, "applications", tuple(apps))

    def named_tables(self) -> tuple[dict[int, str], dict[str, ConstraintTable]]:
        """A stable name per applied table object.

        Returns (object id -> name, name -> table). Unnamed tables get
        positional names; equal tables keep their own names, and a name clash
        between unequal tables is uniquified. Computed once per instance;
        each call returns fresh dicts.
        """
        names, chosen = self._named
        return dict(names), dict(chosen)

    @cached_property
    def _named(self) -> tuple[dict[int, str], dict[str, ConstraintTable]]:
        applied = list(map(itemgetter(0), self.applications))
        names: dict[int, str] = {}
        chosen: dict[str, ConstraintTable] = {}
        # Distinct table objects in first-use order.
        distinct = dict(zip(map(id, applied), applied)).values()
        for pos, table in enumerate(distinct, start=1):
            name = table.name or f"c{pos}"
            while name in chosen and chosen[name] != table:
                name += "x"
            chosen.setdefault(name, table)
            names[id(table)] = name
        return names, chosen

    def __getstate__(self):
        # The name cache is keyed by table ids, which a copy does not keep.
        state = dict(self.__dict__)
        state.pop("_named", None)
        return state


# Assignments index like table rows: x1 is the most significant bit.
assignment_to_int = bits_to_index
int_to_assignment = index_to_bits


def measure(inst: CspInstance, bits: Sequence[int]) -> Fraction:
    """Exact product of all applied constraint values; empty product is 1 and
    any zero factor makes the whole measure exactly 0."""
    if len(bits) != inst.num_vars:
        raise ArityError(
            f"assignment length {len(bits)} != variable count {inst.num_vars}"
        )
    # bit[v] is variable v's value (bit[0] pads the 1-based indices). Multiply
    # numerators and denominators as ints; one Fraction at the end.
    bit = [0]
    bit += [b & 1 for b in bits]
    num = den = 1
    for table, variables in inst.applications:
        idx = 0
        for v in variables:
            idx = idx << 1 | bit[v]
        n, d = table.weight_pairs[idx]
        if n != 1:
            if not n:
                return Fraction(0)
            num *= n
        if d != 1:
            den *= d
    return Fraction(num, den)


@dataclass(frozen=True)
class SolveResult:
    """Exact optimum with its maximizing assignment.

    log2 carries the optimum's logarithm for display; it is None exactly when
    the optimum is zero (is_zero is the explicit flag).
    """

    optimum: Fraction
    argmax: Assignment
    method: str
    is_zero: bool = field(init=False)
    log2: float | None = field(init=False)

    def __post_init__(self):
        zero = self.optimum == 0
        object.__setattr__(self, "is_zero", zero)
        object.__setattr__(self, "log2", None if zero else frac_log2(self.optimum))


def _scan(
    total: int,
    napps: int,
    shifts: list[tuple[int, ...]],
    offsets: list[tuple[int, ...]],
    tables: list[tuple[int, ...]],
) -> tuple[int, int]:
    """Best (integer value, smallest assignment int) over [0, total)."""
    best = -1
    best_at = 0
    for a in range(total):
        value = 1
        for t in range(napps):
            idx = 0
            sh = shifts[t]
            off = offsets[t]
            for p in range(len(sh)):
                idx |= ((a >> sh[p]) & 1) << off[p]
            value *= tables[t][idx]
            if value == 0:
                break
        if value > best:
            best = value
            best_at = a
    return best, best_at


def brute_force(
    inst: CspInstance,
    max_n: int = DEFAULT_MAX_N,
    workers: int = 1,
) -> SolveResult:
    """Exhaustive exact optimum; argmax is the lexicographically smallest
    maximizer. Only variables that occur in some application are enumerated;
    the others are 0 in it, and the cap still applies to the variable count.
    `workers` is accepted for compatibility and ignored: the scan
    runs in one thread, since a thread pool gave no speedup on this
    pure-Python loop."""
    n = inst.num_vars
    if n > max_n:
        raise CapExceededError(
            f"{n} variables exceed the exhaustive cap {max_n}; raise max_n, or "
            "use the tractable or approximate paths"
        )
    occurring = sorted({v for _, variables in inst.applications for v in variables})
    m = len(occurring)
    shift = {v: m - 1 - rank for rank, v in enumerate(occurring)}
    # Clear denominators per application: a constant factor per application
    # cannot change which assignments maximize the product.
    denominator = Fraction(1)
    shifts, offsets, int_tables = [], [], []
    for table, variables in inst.applications:
        k = table.arity
        lcm = 1
        for w in table.weights:
            lcm = lcm * w.denominator // math.gcd(lcm, w.denominator)
        denominator *= lcm
        int_tables.append(tuple(int(w * lcm) for w in table.weights))
        shifts.append(tuple(shift[v] for v in variables))
        offsets.append(tuple(k - 1 - p for p in range(k)))
    best, best_at = _scan(1 << m, len(inst.applications), shifts, offsets, int_tables)
    bits = [0] * n
    for v in occurring:
        bits[v - 1] = (best_at >> shift[v]) & 1
    return SolveResult(Fraction(best, 1) / denominator, tuple(bits), "brute_force")


def check_ratio(
    optimum: Fraction, value: Fraction, alpha: float | Fraction
) -> bool:
    """The two-sided approximation bound 1/alpha <= value/optimum <= alpha,
    with the zero rule: a zero optimum demands a zero value."""
    if alpha < 1:
        raise ArgumentError(f"approximation factor must be >= 1, got {alpha}")
    if optimum == 0:
        return value == 0
    if value == 0:
        return False
    bound = Fraction(alpha)
    ratio = Fraction(value) / Fraction(optimum)
    return 1 / bound <= ratio <= bound


def hill_climb(
    inst: CspInstance, seed: int = 0, restarts: int = 8
) -> Assignment:
    """Best-effort local search: greedy single-bit improvement from seeded
    restarts. No approximation guarantee is claimed."""
    import random

    n = inst.num_vars
    rng = random.Random(seed)
    space = 1 << n
    count = min(restarts, space)
    starts = rng.sample(range(space), count) if space <= (1 << 22) else [
        rng.randrange(space) for _ in range(count)
    ]
    best_bits: Assignment = (0,) * n
    best_value = measure(inst, best_bits)
    for start in starts:
        bits = list(int_to_assignment(start, n))
        value = measure(inst, bits)
        improved = True
        while improved:
            improved = False
            for i in range(n):
                bits[i] ^= 1
                candidate = measure(inst, bits)
                if candidate > value:
                    value = candidate
                    improved = True
                else:
                    bits[i] ^= 1
        if value > best_value or (
            value == best_value and tuple(bits) < best_bits
        ):
            best_value, best_bits = value, tuple(bits)
    return best_bits

