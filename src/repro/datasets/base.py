"""Common dataset bundle returned by every loader."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.knowledge.catalog import DomainCatalog
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table

__all__ = ["DatasetBundle", "clip_scalar", "mixture"]


def clip_scalar(value, low, high) -> float:
    """``float(np.clip(value, low, high))`` for one scalar, without numpy's call cost.

    The simulators clip every drawn feature one record at a time, where the
    ufunc dispatch of ``np.clip`` costs more than the draw.  ``min``/``max``
    return the same value and sign for NaN, infinities, signed zeros, integer
    bounds and numpy integer inputs, so the seeded datasets stay bit-identical
    (pinned by ``tests/datasets/test_golden.py``).
    """
    return float(min(max(value, low), high))


def mixture(weights: dict) -> tuple[tuple, np.ndarray]:
    """The keys of a ``{choice: weight}`` mapping and the CDF of their mixture.

    Resolved once per mapping.  ``cdf.searchsorted(rng.random(), side="right")``
    then draws the index that ``rng.choice(len(keys), p=p)`` draws, from the
    same single uniform: it is numpy's own weighted ``Generator.choice``
    without the per-call validation of ``p`` (pinned by
    ``tests/datasets/test_mixture.py``).
    """
    values = np.asarray(list(weights.values()))
    p = values / values.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return tuple(weights), cdf


@dataclass
class DatasetBundle:
    """A dataset plus everything the pipeline needs to use it.

    Attributes
    ----------
    name:
        Registry name of the dataset.
    table:
        The generated records.
    schema:
        Column schema of ``table``.
    catalog:
        Domain catalog describing devices, events and attacks; the
        knowledge-graph builder consumes this.
    label_column:
        The column downstream NIDS classifiers predict.
    condition_columns:
        Discrete attributes used for the KiNETGAN condition vector.
    description:
        Human-readable provenance note (including the simulation caveat).
    """

    name: str
    table: Table
    schema: TableSchema
    catalog: DomainCatalog
    label_column: str
    condition_columns: list[str] = field(default_factory=list)
    description: str = ""

    @property
    def n_records(self) -> int:
        return self.table.n_rows

    def summary(self) -> str:
        """One-paragraph description used by the examples."""
        label_dist = self.table.class_distribution(self.label_column)
        parts = [
            f"Dataset {self.name!r}: {self.n_records} records, "
            f"{len(self.schema)} columns "
            f"({len(self.schema.categorical_names)} categorical, "
            f"{len(self.schema.continuous_names)} continuous).",
            "Label distribution: "
            + ", ".join(f"{value}={share:.3f}" for value, share in label_dist.items())
            + ".",
        ]
        if self.description:
            parts.append(self.description)
        return "\n".join(parts)
