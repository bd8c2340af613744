"""Nonnegative-rational weighted Boolean constraints stored as dense value tables.

A constraint of arity k maps {0,1}^k to nonnegative rationals and is stored as
its 2^k output values in lexicographic input order with x1 as the most
significant bit: for k=2 the order is (f(00), f(01), f(10), f(11)).

Variable positions in every operation are 1-based (x1..xk), matching the text
formats. All values are immutable; operations return fresh tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ArgumentError, ArityError, IndexRangeError

MAX_ARITY = 16

WeightLike = Fraction | int | str | float


_ZERO = Fraction(0)


def _as_weight(w: WeightLike) -> Fraction:
    """The weight as a nonnegative Fraction; every zero is the one shared
    `_ZERO`, so that sparse tables (pins, parity links, hard constraints)
    hold no Fraction object per zero entry."""
    value = w if type(w) is Fraction else Fraction(w)
    n = value.numerator
    if n < 0:
        raise ArgumentError(f"weights must be nonnegative, got {value}")
    return value if n else _ZERO


def bits_to_index(bits: Sequence[int]) -> int:
    """Lexicographic index of a bit tuple (x1 is the most significant bit)."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | (b & 1)
    return idx


def index_to_bits(index: int, arity: int) -> tuple[int, ...]:
    return tuple((index >> (arity - 1 - i)) & 1 for i in range(arity))


def _coerce_bits(x: Sequence[int] | str, arity: int) -> tuple[int, ...]:
    if isinstance(x, str):
        if not all(c in "01" for c in x):
            raise ArgumentError(f"bit string may contain only 0/1, got {x!r}")
        bits = tuple(int(c) for c in x)
    else:
        bits = tuple(int(b) for b in x)
        if not all(b in (0, 1) for b in bits):
            raise ArgumentError(f"bits must be 0/1, got {bits}")
    if len(bits) != arity:
        raise ArityError(f"expected {arity} bits, got {len(bits)}")
    return bits


@dataclass(frozen=True)
class Support:
    """The nonzero locus of a constraint, as a bit mask over table indices."""

    arity: int
    mask: int

    def __contains__(self, point: int | Sequence[int] | str) -> bool:
        idx = point if isinstance(point, int) else bits_to_index(_coerce_bits(point, self.arity))
        return bool((self.mask >> idx) & 1)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(1 << self.arity) if (self.mask >> i) & 1)

    def points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(index_to_bits(i, self.arity) for i in self.indices())

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << (1 << self.arity)) - 1


@dataclass(frozen=True)
class ConstraintTable:
    """Arity-k constraint as 2^k exact rational weights in lexicographic order."""

    arity: int
    weights: tuple[Fraction, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (0 <= self.arity <= MAX_ARITY):
            raise ArityError(f"arity must be in 0..{MAX_ARITY}, got {self.arity}")
        weights = tuple(_as_weight(w) for w in self.weights)
        if len(weights) != 1 << self.arity:
            raise ArityError(
                f"arity {self.arity} needs {1 << self.arity} weights, got {len(weights)}"
            )
        object.__setattr__(self, "weights", weights)

    # -- lookups ------------------------------------------------------------

    def evaluate(self, x: Sequence[int] | str) -> Fraction:
        """Value at input x (a bit sequence or 0/1 string of length arity)."""
        return self.weights[bits_to_index(_coerce_bits(x, self.arity))]

    def __call__(self, x: Sequence[int] | str) -> Fraction:
        return self.evaluate(x)

    def value_at(self, index: int) -> Fraction:
        return self.weights[index]

    @cached_property
    def weight_pairs(self) -> tuple[tuple[int, int], ...]:
        """Each weight as its int (numerator, denominator), in table order;
        read once per table, for loops that multiply many weights."""
        return tuple((w.numerator, w.denominator) for w in self.weights)

    def support(self) -> Support:
        mask = 0
        for i, w in enumerate(self.weights):
            if w.numerator:
                mask |= 1 << i
        return Support(self.arity, mask)

    def is_zero(self) -> bool:
        return all(w == 0 for w in self.weights)

    # -- constructibility operations -----------------------------------------

    def _check_pos(self, i: int):
        if not (1 <= i <= self.arity):
            raise IndexRangeError(f"variable position {i} out of range 1..{self.arity}")

    def permute(self, i: int, j: int) -> "ConstraintTable":
        """Exchange the roles of variables at positions i < j."""
        self._check_pos(i)
        self._check_pos(j)
        if i >= j:
            raise ArgumentError(f"permute requires i < j, got {i}, {j}")
        k = self.arity
        bi, bj = k - i, k - j  # bit offsets from the LSB
        out = []
        for idx in range(1 << k):
            x, y = (idx >> bi) & 1, (idx >> bj) & 1
            src = idx & ~(1 << bi) & ~(1 << bj) | (y << bi) | (x << bj)
            out.append(self.weights[src])
        return ConstraintTable(k, tuple(out))

    def pin(self, i: int, c: int) -> "ConstraintTable":
        """Fix variable i to constant bit c; arity drops by one."""
        if self.arity < 1:
            raise ArityError("cannot pin an arity-0 constraint")
        self._check_pos(i)
        if c not in (0, 1):
            raise ArgumentError(f"pin bit must be 0 or 1, got {c}")
        k = self.arity
        out = []
        for idx in range(1 << (k - 1)):
            bits = index_to_bits(idx, k - 1)
            full = bits[: i - 1] + (c,) + bits[i - 1 :]
            out.append(self.weights[bits_to_index(full)])
        return ConstraintTable(k - 1, tuple(out))

    def link(self, i: int, j: int) -> "ConstraintTable":
        """Identify variable i with variable j (i removed); arity drops by one."""
        self._check_pos(i)
        self._check_pos(j)
        if i == j:
            raise ArgumentError("link requires two distinct positions")
        k = self.arity
        jj = j if j < i else j - 1  # j's position after removing i
        out = []
        for idx in range(1 << (k - 1)):
            bits = index_to_bits(idx, k - 1)
            full = bits[: i - 1] + (bits[jj - 1],) + bits[i - 1 :]
            out.append(self.weights[bits_to_index(full)])
        return ConstraintTable(k - 1, tuple(out))

    def expand(self, position: int) -> "ConstraintTable":
        """Insert a fresh ignored variable after `position` originals (0 = in front)."""
        if not (0 <= position <= self.arity):
            raise IndexRangeError(
                f"insertion point {position} out of range 0..{self.arity}"
            )
        k = self.arity
        out = []
        for idx in range(1 << (k + 1)):
            bits = index_to_bits(idx, k + 1)
            src = bits[:position] + bits[position + 1 :]
            out.append(self.weights[bits_to_index(src)])
        return ConstraintTable(k + 1, tuple(out))

    def multiply(self, other: "ConstraintTable") -> "ConstraintTable":
        """Pointwise product with a constraint over the same variable series."""
        if self.arity != other.arity:
            raise ArityError(
                f"multiply requires equal arities, got {self.arity} and {other.arity}"
            )
        return ConstraintTable(
            self.arity, tuple(a * b for a, b in zip(self.weights, other.weights))
        )

    def maximize_out(self, d: int) -> "ConstraintTable":
        """Maximize over the last d variables; arity drops by d."""
        if not (0 <= d <= self.arity):
            raise ArityError(f"cannot maximize {d} of {self.arity} variables")
        k = self.arity
        block = 1 << d
        out = []
        for idx in range(1 << (k - d)):
            base = idx << d
            out.append(max(self.weights[base : base + block]))
        return ConstraintTable(k - d, tuple(out))

    def scale(self, lam: WeightLike) -> "ConstraintTable":
        """Multiply all weights by a positive rational."""
        factor = Fraction(lam)
        if factor <= 0:
            raise ArgumentError(f"scale factor must be positive, got {factor}")
        return ConstraintTable(self.arity, tuple(factor * w for w in self.weights))

    def complement_variable(self, i: int) -> "ConstraintTable":
        """Flip the polarity of variable i: g(..xi..) = f(..1-xi..)."""
        self._check_pos(i)
        bi = self.arity - i
        out = [self.weights[idx ^ (1 << bi)] for idx in range(1 << self.arity)]
        return ConstraintTable(self.arity, tuple(out))

    def complement_all(self) -> "ConstraintTable":
        """Flip every variable's polarity (reverses the table)."""
        g = self
        for i in range(1, self.arity + 1):
            g = g.complement_variable(i)
        return g

    def with_name(self, name: str | None) -> "ConstraintTable":
        return ConstraintTable(self.arity, self.weights, name)

    def __repr__(self):
        label = f" {self.name}" if self.name else ""
        vals = ",".join(str(w) for w in self.weights)
        return f"ConstraintTable{label}[{self.arity}]({vals})"


def make_table(weights: Iterable[WeightLike], name: str | None = None) -> ConstraintTable:
    """Build a table from 2^k weights, inferring the arity."""
    ws = tuple(weights)  # ConstraintTable converts and checks each weight
    n = len(ws)
    arity = n.bit_length() - 1
    if n != 1 << arity:
        raise ArityError(f"weight count {n} is not a power of two")
    return ConstraintTable(arity, ws, name)


def support_of(table: ConstraintTable) -> Support:
    """The underlying relation of f: all inputs where f is nonzero."""
    return table.support()


# Named binary/unary relations used throughout as weighted constraints.
EQ = make_table([1, 0, 0, 1], "EQ")
XOR = make_table([0, 1, 1, 0], "XOR")
OR = make_table([0, 1, 1, 1], "OR")
NAND = make_table([1, 1, 1, 0], "NAND")
IMPLIES = make_table([1, 1, 0, 1], "IMPLIES")
D0 = make_table([1, 0], "D0")
D1 = make_table([0, 1], "D1")

BUILTINS: dict[str, ConstraintTable] = {
    t.name: t for t in (EQ, XOR, OR, NAND, IMPLIES, D0, D1)
}
