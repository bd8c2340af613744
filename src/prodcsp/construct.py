"""Derivation scripts: sequences of table operations that build one constraint
from source constraints (permute / pin / link / expand / multiply /
maximize-out / scale), with the accumulated positive scale tracked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import ArgumentError
from .tables import BUILTINS, ConstraintTable

# A step is ("perm", i, j) | ("pin", i, c) | ("link", i, j) | ("expand", p)
#           | ("mul", name) | ("maxout", d) | ("scale", Fraction)
Step = tuple


@dataclass(frozen=True)
class ConstructionScript:
    """A replayable derivation of one constraint from named source constraints."""

    source: str
    steps: tuple[Step, ...] = ()

    @property
    def accumulated_scale(self) -> Fraction:
        total = Fraction(1)
        for step in self.steps:
            if step[0] == "scale":
                total *= step[1]
        return total

    def extended(self, *steps: Step) -> "ConstructionScript":
        return ConstructionScript(self.source, self.steps + tuple(steps))

    def render(self) -> str:
        lines = [f"from {self.source}"]
        for step in self.steps:
            op = step[0]
            if op == "scale":
                lam = step[1]
                lines.append(f"scale {lam.numerator}/{lam.denominator}")
            elif op == "mul":
                lines.append(f"mul {step[1]}")
            else:
                lines.append(op + " " + " ".join(str(a) for a in step[1:]))
        return "\n".join(lines) + "\n"


def _lookup(name: str, tables: Mapping[str, ConstraintTable] | None) -> ConstraintTable:
    if tables and name in tables:
        return tables[name]
    if name in BUILTINS:
        return BUILTINS[name]
    raise ArgumentError(f"unknown source constraint {name!r}")


def replay(
    script: ConstructionScript,
    tables: Mapping[str, ConstraintTable] | None = None,
) -> ConstraintTable:
    """Apply the script's steps to its source tables and return the result."""
    current = _lookup(script.source, tables)
    for step in script.steps:
        op = step[0]
        if op == "perm":
            current = current.permute(step[1], step[2])
        elif op == "pin":
            current = current.pin(step[1], step[2])
        elif op == "link":
            current = current.link(step[1], step[2])
        elif op == "expand":
            current = current.expand(step[1])
        elif op == "mul":
            current = current.multiply(_lookup(step[1], tables))
        elif op == "maxout":
            current = current.maximize_out(step[1])
        elif op == "scale":
            current = current.scale(step[1])
        else:
            raise ArgumentError(f"unknown script step {op!r}")
    return current
