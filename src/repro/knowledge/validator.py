"""Batch validity scoring against the knowledge graph.

:class:`BatchValidator` turns the reasoner's per-family violation masks
into scores and reports over whole tables.  It is used in two places:

* the knowledge-guided discriminator ``D_KG`` takes the exact 0/1 validity
  of the real training rows from :meth:`BatchValidator.table_scores` (the
  KG query ``Q``); its per-step scoring of corrupted and generated rows
  runs on integer codes, over the tables it binds from the reasoner
  (:meth:`~repro.knowledge.reasoner.KGReasoner.bind`);
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
            f"ValidityReport: {self.valid}/{self.total} valid ({100 * self.validity_rate:.1f}%)"
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
        masks = self.reasoner.violation_masks(table)
        invalid = np.zeros(table.n_rows, dtype=bool)
        for mask in masks.values():
            invalid |= mask
        return ValidityReport(
            total=table.n_rows,
            valid=int(table.n_rows - invalid.sum()),
            violations_by_rule={rule: int(m.sum()) for rule, m in masks.items() if m.any()},
        )
