"""Nonnegative-rational weighted Boolean constraints stored as dense value tables.

A constraint of arity k maps {0,1}^k to nonnegative rationals and is stored as
its 2^k output values in lexicographic input order with x1 as the most
significant bit: for k=2 the order is (f(00), f(01), f(10), f(11)).

The values are stored as ints over one common denominator: a positive int
`den` and a tuple `nums` of 2^k nonnegative ints, value i being nums[i] / den,
in lowest terms (gcd(den, *nums) == 1, so the all-zero table has den == 1);
equality and hashing are then tuple equality. The support `mask` is read once,
at construction. The operations, deciders and solvers work on these ints;
`weights`, `value_at` and `evaluate` build Fractions.

Variable positions in every operation are 1-based (x1..xk), matching the text
formats. All values are immutable; operations return fresh tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import ArgumentError, ArityError, IndexRangeError
from .ratmath import parse_weight

MAX_ARITY = 16

# The most bits a table's ints may take, as den.bit_length() << arity. Coprime
# denominators make den, and every int over it, grow with the table; arity 12
# with 4 096 distinct prime denominators fits, arity 14 with 16 384 does not.
MAX_TABLE_BITS = 1 << 30

WeightLike = Fraction | int | str | float


def _rational(w: WeightLike) -> Fraction:
    """A weight as a Fraction. A str goes through `parse_weight`, so that a
    huge decimal exponent is refused before any conversion."""
    try:
        return parse_weight(w) if isinstance(w, str) else Fraction(w)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArgumentError(f"bad weight {w!r}: {exc}") from None


def _check_size(arity: int, den: int):
    if den.bit_length() << arity > MAX_TABLE_BITS:
        raise ArgumentError(f"arity-{arity} table over a common denominator of "
                            f"{den.bit_length()}+ bits exceeds {MAX_TABLE_BITS} bits")


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


@dataclass(frozen=True, init=False)
class ConstraintTable:
    """Arity-k constraint as 2^k exact rational weights in lexicographic order,
    stored as the ints `nums` over one positive int `den` (see the module
    docstring). Equality and hashing compare (arity, den, nums); the name is
    a label only."""

    arity: int
    den: int
    nums: tuple[int, ...]
    name: str | None = field(compare=False)
    mask: int = field(compare=False)  # the support: bit i is set iff nums[i] > 0

    def __init__(self, arity: int, weights: Iterable[WeightLike], name: str | None = None):
        if not (0 <= arity <= MAX_ARITY):
            raise ArityError(f"arity must be in 0..{MAX_ARITY}, got {arity}")
        ws = [w if type(w) is Fraction else _rational(w) for w in weights]
        if len(ws) != 1 << arity:
            raise ArityError(f"arity {arity} needs {1 << arity} weights, got {len(ws)}")
        den = 1
        for d in {w.denominator for w in ws}:
            if den % d:
                den = lcm(den, d)
                _check_size(arity, den)
        nums = tuple(w.numerator * (den // w.denominator) for w in ws)
        if min(nums) < 0:
            raise ArgumentError(f"weights must be nonnegative, got {min(ws)}")
        self._set(arity, den, nums, name)

    @classmethod
    def _of(cls, arity: int, den: int, nums: tuple[int, ...], name: str | None = None):
        """The table with weights nums[i] / den, brought to lowest terms: the
        one constructor of every table operation."""
        g = gcd(den, *nums)
        if g != 1:
            den, nums = den // g, tuple(x // g for x in nums)
        _check_size(arity, den)
        return object.__new__(cls)._set(arity, den, nums, name)

    def _set(self, arity, den, nums, name) -> "ConstraintTable":
        mask = int("".join(["1" if x else "0" for x in reversed(nums)]), 2)  # linear time
        # Frozen, so the fields go straight into the instance dict.
        self.__dict__.update(arity=arity, den=den, nums=nums, name=name, mask=mask)
        return self

    # -- lookups ------------------------------------------------------------

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """The weights as Fractions, built afresh on each read."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def value_at(self, index: int) -> Fraction:
        return Fraction(self.nums[index], self.den)

    def evaluate(self, x: Sequence[int] | str) -> Fraction:
        """Value at input x (a bit sequence or 0/1 string of length arity)."""
        return self.value_at(bits_to_index(_coerce_bits(x, self.arity)))

    __call__ = evaluate

    def support(self) -> Support:
        return Support(self.arity, self.mask)

    def is_zero(self) -> bool:
        return self.mask == 0

    # -- constructibility operations -----------------------------------------

    def _check_pos(self, *positions: int):
        for i in positions:
            if not (1 <= i <= self.arity):
                raise IndexRangeError(f"variable position {i} out of range 1..{self.arity}")

    def _gather(self, arity: int, sources: Iterable[int]) -> "ConstraintTable":
        """The table whose weight i is this table's weight at sources[i]."""
        nums = self.nums
        return ConstraintTable._of(arity, self.den, tuple(nums[s] for s in sources))

    def permute(self, i: int, j: int) -> "ConstraintTable":
        """Exchange the roles of variables at positions i < j."""
        self._check_pos(i, j)
        if i >= j:
            raise ArgumentError(f"permute requires i < j, got {i}, {j}")
        k = self.arity
        bi, bj = k - i, k - j  # bit offsets from the LSB
        return self._gather(k, (
            idx & ~(1 << bi | 1 << bj) | (idx >> bj & 1) << bi | (idx >> bi & 1) << bj
            for idx in range(1 << k)
        ))

    def pin(self, i: int, c: int) -> "ConstraintTable":
        """Fix variable i to constant bit c; arity drops by one."""
        if self.arity < 1:
            raise ArityError("cannot pin an arity-0 constraint")
        self._check_pos(i)
        if c not in (0, 1):
            raise ArgumentError(f"pin bit must be 0 or 1, got {c}")
        b = self.arity - i  # x_i's bit offset from the LSB
        low = (1 << b) - 1
        return self._gather(self.arity - 1, (
            (idx & ~low) << 1 | c << b | idx & low for idx in range(1 << (self.arity - 1))
        ))

    def link(self, i: int, j: int) -> "ConstraintTable":
        """Identify variable i with variable j (i removed); arity drops by one."""
        self._check_pos(i, j)
        if i == j:
            raise ArgumentError("link requires two distinct positions")
        k = self.arity
        jj = j if j < i else j - 1  # j's position after removing i
        b, bj = k - i, k - 1 - jj  # bit offsets of x_i in the input, x_j in the output
        low = (1 << b) - 1
        return self._gather(k - 1, (
            (idx & ~low) << 1 | (idx >> bj & 1) << b | idx & low for idx in range(1 << (k - 1))
        ))

    def expand(self, position: int) -> "ConstraintTable":
        """Insert a fresh ignored variable after `position` originals (0 = in front)."""
        if not (0 <= position <= self.arity):
            raise IndexRangeError(f"insertion point {position} out of range 0..{self.arity}")
        b = self.arity - position  # the new variable's bit offset from the LSB
        low = (1 << b) - 1
        return self._gather(self.arity + 1, (
            idx >> (b + 1) << b | idx & low for idx in range(1 << (self.arity + 1))
        ))

    def multiply(self, other: "ConstraintTable") -> "ConstraintTable":
        """Pointwise product with a constraint over the same variable series."""
        if self.arity != other.arity:
            raise ArityError(
                f"multiply requires equal arities, got {self.arity} and {other.arity}"
            )
        return ConstraintTable._of(
            self.arity, self.den * other.den, tuple(map(mul, self.nums, other.nums))
        )

    def maximize_out(self, d: int) -> "ConstraintTable":
        """Maximize over the last d variables; arity drops by d."""
        if not (0 <= d <= self.arity):
            raise ArityError(f"cannot maximize {d} of {self.arity} variables")
        nums, block = self.nums, 1 << d
        return ConstraintTable._of(self.arity - d, self.den, tuple(
            max(nums[base : base + block]) for base in range(0, len(nums), block)
        ))

    def scale(self, lam: WeightLike) -> "ConstraintTable":
        """Multiply all weights by a positive rational."""
        factor = _rational(lam)
        if factor <= 0:
            raise ArgumentError(f"scale factor must be positive, got {factor}")
        p = factor.numerator
        return ConstraintTable._of(self.arity, self.den * factor.denominator,
                                   tuple(p * x for x in self.nums))

    def complement_variable(self, i: int) -> "ConstraintTable":
        """Flip the polarity of variable i: g(..xi..) = f(..1-xi..)."""
        self._check_pos(i)
        flip = 1 << (self.arity - i)
        return self._gather(self.arity, (idx ^ flip for idx in range(1 << self.arity)))

    def complement_all(self) -> "ConstraintTable":
        """Flip every variable's polarity (reverses the table)."""
        return ConstraintTable._of(self.arity, self.den, self.nums[::-1])

    def with_name(self, name: str | None) -> "ConstraintTable":
        return ConstraintTable._of(self.arity, self.den, self.nums, name)

    def __repr__(self):
        label = f" {self.name}" if self.name else ""
        vals = ",".join(str(w) for w in self.weights)
        return f"ConstraintTable{label}[{self.arity}]({vals})"


def make_table(weights: Iterable[WeightLike], name: str | None = None) -> ConstraintTable:
    """Build a table from 2^k weights, inferring the arity."""
    ws = tuple(weights)  # ConstraintTable converts and checks each weight
    arity = len(ws).bit_length() - 1
    if len(ws) != 1 << arity:
        raise ArityError(f"weight count {len(ws)} is not a power of two")
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

BUILTINS: dict[str, ConstraintTable] = {t.name: t for t in (EQ, XOR, OR, NAND, IMPLIES, D0, D1)}
