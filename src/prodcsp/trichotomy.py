"""Decision tree for a finite constraint set with free unary constraints:

- every constraint ed-factorable
  -> the product optimum is computable exactly in polynomial time (every
     af-factorable constraint is ed-factorable, so AF needs no category);
- otherwise, everything implication-weighted (imopt)
  -> intermediate: as hard as product bipartite independent set, and
     reducible to the product flow-design problem;
- otherwise -> as hard as product independent set.

Unary constraints never move the outcome: they belong to all three classes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ArgumentError
from .membership import CLASS_NAMES, Certificate, memberships
from .tables import ConstraintTable


class Category(enum.Enum):
    PO_ED = "PO_ED"
    INTERMEDIATE_IMOPT = "INTERMEDIATE_IMOPT"
    IS_HARD = "IS_HARD"


@dataclass(frozen=True)
class ConstraintReport:
    name: str
    table: ConstraintTable
    classes: frozenset[str]
    certificates: Mapping[str, Certificate]


@dataclass(frozen=True)
class ClassReport:
    per_constraint: tuple[ConstraintReport, ...]
    category: Category
    witnesses: Mapping[str, str]  # failed class -> name of a violating constraint

    def constraint(self, name: str) -> ConstraintReport:
        for report in self.per_constraint:
            if report.name == name:
                return report
        raise KeyError(name)


def _named(tables: Sequence[ConstraintTable]) -> list[tuple[str, ConstraintTable]]:
    out = []
    used = set()
    for pos, table in enumerate(tables, start=1):
        name = table.name or f"c{pos}"
        while name in used:
            name += "'"
        used.add(name)
        out.append((name, table))
    return out


def classify_set(constraints: Sequence[ConstraintTable]) -> ClassReport:
    """Classify a finite constraint set, with per-constraint evidence.

    An af set is an ed set, so every PO set is PO_ED; AF verdicts and
    certificates are still attached per constraint.
    """
    if not constraints:
        raise ArgumentError("classify_set requires a nonempty constraint set")
    reports = []
    for name, table in _named(constraints):
        classes, certs = memberships(table)
        reports.append(ConstraintReport(name, table, classes, certs))
    witnesses: dict[str, str] = {}
    for label in ("ED", "AF", "IM_opt"):
        violator = next((r.name for r in reports if label not in r.classes), None)
        if violator is not None:
            witnesses[label] = violator
    if "ED" not in witnesses:
        category = Category.PO_ED
    elif "IM_opt" not in witnesses:
        category = Category.INTERMEDIATE_IMOPT
    else:
        category = Category.IS_HARD
    shown = {
        label: name
        for label, name in witnesses.items()
        if category in (Category.INTERMEDIATE_IMOPT, Category.IS_HARD)
    }
    return ClassReport(tuple(reports), category, shown)


def explain(report: ClassReport) -> str:
    """Human-readable narrative for the category and the implied reductions."""
    lines = []
    for r in report.per_constraint:
        present = ", ".join(c for c in CLASS_NAMES if c in r.classes) or "none"
        lines.append(f"{r.name}: {present}")
    cat = report.category
    if cat is Category.PO_ED:
        lines.append(
            "Every constraint factors into equality/disequality products; the "
            "exact polynomial-time parity-component solver applies, so the "
            "optimization problem is solvable exactly in polynomial time."
        )
    elif cat is Category.INTERMEDIATE_IMOPT:
        lines.append(
            "All constraints are implication-weighted but the set escapes both "
            "polynomial-time families "
            f"(ED fails at {report.witnesses['ED']}, AF fails at {report.witnesses['AF']}); "
            "the problem lies between the tractable class and the hardest class: "
            "the product bipartite independent-set problem reduces in, and the "
            "problem reduces out to the product flow-design problem."
        )
    else:
        lines.append(
            f"Constraint {report.witnesses['IM_opt']} is not implication-weighted "
            "and the set escapes both polynomial-time families; the product "
            "independent-set problem reduces in, so the problem is as hard as "
            "any product-measure optimization."
        )
    lines.append(f"category: {cat.value}")
    return "\n".join(lines)
