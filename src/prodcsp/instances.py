"""Product-measured CSP instances: the measure, the exhaustive solver used as
the correctness oracle everywhere, the hill-climb local search, and the ratio
check with its zero rule. Which solver a call takes is chosen in `routes`.

The exhaustive solver is a block-vector scan: the 64 assignments of the last
six occurring variables are scored at once as one list product, the rest
are enumerated, and only subtrees whose product is all zeros are skipped.

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
import operator
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
_LOW_BITS = 6  # variables scored at once by brute_force's vectors
_MERGE_BITS = 6  # most high variables one of brute_force's merged tables reads

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


def _merged(
    union: tuple[int, ...], members: list[tuple[tuple[int, ...], list[list[int]]]]
) -> list[list[int]]:
    """One vector per assignment of the high ranks `union` (first rank most
    significant): the product of the members' vectors, each member read at
    its own ranks, a subset of `union`."""
    width = len(union)
    out = []
    for i in range(1 << width):
        vec = None
        for ranks, vectors in members:
            j = 0
            for r in ranks:
                j = j << 1 | i >> (width - 1 - union.index(r)) & 1
            vec = vectors[j] if vec is None else list(map(operator.mul, vec, vectors[j]))
        out.append(vec)
    return out


def _block_scan(
    high: int, low: int, base: list[int], at_depth: list[list]
) -> tuple[int, int]:
    """Best (integer value, smallest assignment int), where an assignment
    int is (high index << low) | low index.

    `base` is the vector of the applications without a high variable;
    `at_depth[d]` lists (high ranks, one vector per assignment of them) for
    the tables whose last high rank is d. The high block is enumerated
    depth-first in increasing order with one partial product per depth; an
    all-zero one ends its subtree, where every assignment scores 0. The best
    starts at 0 for assignment 0 and moves only on a strictly greater value,
    so it is the first maximizer in numeric order.
    """
    if not high:
        top = max(base)
        return top, base.index(top)
    mul = operator.mul
    best = best_at = 0
    bits = [0] * high
    vecs = [base] * high
    last = high - 1
    d = 0
    while True:
        vec = vecs[d]
        for ranks, vectors in at_depth[d]:
            i = 0
            for r in ranks:
                i = i << 1 | bits[r]
            vec = list(map(mul, vec, vectors[i]))
        if d == last:
            top = max(vec)
            if top > best:
                hi = 0
                for b in bits:
                    hi = hi << 1 | b
                best, best_at = top, hi << low | vec.index(top)
        elif any(vec):
            d += 1
            vecs[d] = vec
            continue
        # Next sibling: climb past the depths already at 1, resetting them.
        while bits[d]:
            bits[d] = 0
            if not d:
                return best, best_at
            d -= 1
        bits[d] = 1


def brute_force(
    inst: CspInstance,
    max_n: int = DEFAULT_MAX_N,
    workers: int = 1,
) -> SolveResult:
    """Exhaustive exact optimum; argmax is the lexicographically smallest
    maximizer. Only variables that occur in some application are enumerated;
    the others are 0 in it, and the cap still applies to the variable count.

    The last `_LOW_BITS` occurring variables form the low block, the others
    the high block. Each application becomes one vector of its integer
    values over the low block per assignment of its high variables. Those
    without a high variable multiply into one base vector, the rest into one
    group per set of high variables. The groups ending at the same high
    variable are multiplied out into as few tables as `_MERGE_BITS` allows,
    so that a node of `_block_scan`'s enumeration costs about one vector
    product, whatever the instance's shape.

    `workers` is accepted and ignored. It is kept only because the benchmark
    passes it; ROADMAP item 13 deletes it."""
    n = inst.num_vars
    if n > max_n:
        raise CapExceededError(
            f"{n} variables exceed the exhaustive cap {max_n}; raise max_n, or "
            "use the tractable or approximate paths"
        )
    occurring = sorted({v for _, variables in inst.applications for v in variables})
    m = len(occurring)
    low = min(m, _LOW_BITS)
    high = m - low
    rank = {v: r for r, v in enumerate(occurring)}
    base = [1] * (1 << low)
    groups: dict[tuple[int, ...], list[list[int]]] = {}
    # Clear denominators per application: a constant factor per application
    # cannot change which assignments maximize the product.
    denominator = Fraction(1)
    for table, variables in inst.applications:
        k = table.arity
        lcm = 1
        for w in table.weights:
            lcm = lcm * w.denominator // math.gcd(lcm, w.denominator)
        denominator *= lcm
        weights = [int(w * lcm) for w in table.weights]
        # Each variable's bits in the table index (a repeat sets several).
        mask: dict[int, int] = {}
        for p, v in enumerate(variables):
            mask[rank[v]] = mask.get(rank[v], 0) | 1 << (k - 1 - p)
        # Table-index part contributed by each low index, built from the
        # least significant low bit (rank m - 1) up.
        lows = [0]
        for r in range(m - 1, high - 1, -1):
            c = mask.get(r, 0)
            lows += [x | c for x in lows] if c else lows
        ranks = tuple(sorted(r for r in mask if r < high))
        highs = [0]
        for r in ranks:
            highs = [x | c for x in highs for c in (0, mask[r])]
        vectors = [[weights[h | x] for x in lows] for h in highs]
        if not ranks:
            base = list(map(operator.mul, base, vectors[0]))
        elif ranks in groups:
            groups[ranks] = [list(map(operator.mul, a, b))
                             for a, b in zip(groups[ranks], vectors)]
        else:
            groups[ranks] = vectors
    # Bucket the groups by their last high rank, largest rank sets first,
    # each bucket reading at most _MERGE_BITS ranks; multiply each out once.
    buckets: list[list] = [[] for _ in range(high)]
    for ranks in sorted(groups, key=len, reverse=True):
        for bucket in buckets[ranks[-1]]:
            union = tuple(sorted({*bucket[0], *ranks}))
            if len(union) <= _MERGE_BITS:
                bucket[0] = union
                bucket.append(ranks)
                break
        else:
            buckets[ranks[-1]].append([ranks, ranks])
    at_depth = [
        [(union, _merged(union, [(r, groups.pop(r)) for r in members]))
         for union, *members in filed]
        for filed in buckets
    ]
    best, best_at = _block_scan(high, low, base, at_depth)
    bits = [0] * n
    for v in occurring:
        bits[v - 1] = (best_at >> (m - 1 - rank[v])) & 1
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

