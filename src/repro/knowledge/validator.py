"""Batch validity scoring against the knowledge graph.

:class:`BatchValidator` turns the per-record reasoner queries into vectorised
scores over whole tables.  It is used in two places:

* the knowledge-guided discriminator ``D_KG`` takes the exact 0/1 validity
  of the real training rows from :meth:`BatchValidator.table_scores` (the
  KG query ``Q``); its per-step scoring of corrupted and generated rows
  runs on integer codes inside ``D_KG`` itself;
* the evaluation harness reports the *constraint-violation rate* of each
  synthesizer's output (ablation A1, ``benchmarks/test_ablation_knowledge.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.knowledge.reasoner import KGReasoner
from repro.tabular.table import Table

__all__ = ["ValidityReport", "BatchValidator"]


@dataclass
class ValidityReport:
    """Summary of a batch validity check."""

    total: int
    valid: int
    violations_by_rule: dict[str, int] = field(default_factory=dict)

    @property
    def validity_rate(self) -> float:
        return self.valid / self.total if self.total else 1.0

    @property
    def violation_rate(self) -> float:
        return 1.0 - self.validity_rate

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [
            f"ValidityReport: {self.valid}/{self.total} valid "
            f"({100 * self.validity_rate:.1f}%)"
        ]
        for rule, count in sorted(self.violations_by_rule.items()):
            lines.append(f"  {rule}: {count} violations")
        return "\n".join(lines)


class BatchValidator:
    """Score records or tables for knowledge-graph validity."""

    def __init__(self, reasoner: KGReasoner) -> None:
        self.reasoner = reasoner

    def table_scores(self, table: Table) -> np.ndarray:
        """Per-row validity scores for a table (batched KG query)."""
        return self.reasoner.validity_mask(table).astype(np.float64)

    def report(self, table: Table) -> ValidityReport:
        """Full validity report with per-rule violation counts."""
        violations_by_rule: dict[str, int] = {}
        valid = 0
        records = table.to_records()
        for record in records:
            violations = self.reasoner.violations(record)
            if not violations:
                valid += 1
            for violation in violations:
                violations_by_rule[violation.rule_name] = (
                    violations_by_rule.get(violation.rule_name, 0) + 1
                )
        return ValidityReport(
            total=len(records), valid=valid, violations_by_rule=violations_by_rule
        )
