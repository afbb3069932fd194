"""A device node in the distributed NIDS deployment."""

from __future__ import annotations

import numpy as np

from repro.core.base import Synthesizer
from repro.core.config import KiNETGANConfig
from repro.core.synthesizer import KiNETGAN
from repro.distributed.protocol import SyntheticShare
from repro.knowledge.catalog import DomainCatalog
from repro.knowledge.builder import build_network_kg
from repro.knowledge.reasoner import KGReasoner
from repro.knowledge.validator import BatchValidator
from repro.nids.features import TabularFeaturizer
from repro.nids.metrics import accuracy_score, f1_score
from repro.nids.pipeline import make_classifier
from repro.tabular.table import Table

__all__ = ["DeviceNode"]


class DeviceNode:
    """A monitored device (or site) with local traffic it cannot share raw.

    The node trains a local synthesizer on its own traffic and publishes a
    :class:`SyntheticShare`; it can also train a purely local detector so
    the simulation can quantify what synthetic sharing buys.
    """

    def __init__(
        self,
        node_id: str,
        table: Table,
        label_column: str,
        catalog: DomainCatalog | None = None,
        condition_columns: list[str] | None = None,
        synthesizer: Synthesizer | None = None,
        config: KiNETGANConfig | None = None,
        seed: int = 0,
    ) -> None:
        if table.n_rows == 0:
            raise ValueError(f"node {node_id!r} has no local data")
        self.node_id = node_id
        self.table = table
        self.label_column = label_column
        self.catalog = catalog
        self.condition_columns = condition_columns
        self.seed = seed
        self.synthesizer = synthesizer if synthesizer is not None else KiNETGAN(
            config if config is not None else KiNETGANConfig(seed=seed)
        )
        self._reasoner: KGReasoner | None = None
        self._local_classifier = None
        self._local_featurizer: TabularFeaturizer | None = None
        self._fitted = False

    # ------------------------------------------------------------------ #
    @property
    def n_records(self) -> int:
        return self.table.n_rows

    def fit_synthesizer(self) -> "DeviceNode":
        """Train the local generator on local traffic only."""
        kwargs: dict = {}
        if isinstance(self.synthesizer, KiNETGAN):
            kwargs["condition_columns"] = self.condition_columns
            if self.catalog is not None and not self.synthesizer.knowledge_free:
                kwargs["catalog"] = self.catalog
        self.synthesizer.fit(self.table, **kwargs)
        if self.catalog is not None:
            self._reasoner = KGReasoner(
                build_network_kg(self.catalog), field_map=self.catalog.field_map
            )
        self._fitted = True
        return self

    def produce_share(self, n_records: int | None = None,
                      rng: np.random.Generator | None = None) -> SyntheticShare:
        """Generate the synthetic records this node publishes."""
        if not self._fitted:
            raise RuntimeError("fit_synthesizer() must be called before produce_share()")
        n_records = n_records if n_records is not None else self.table.n_rows
        synthetic = self.synthesizer.sample(n_records, rng=rng)
        validity = None
        if self._reasoner is not None:
            validity = BatchValidator(self._reasoner).report(synthetic).validity_rate
        return SyntheticShare(
            node_id=self.node_id,
            synthetic=synthetic,
            n_real_records=self.table.n_rows,
            generator_name=self.synthesizer.name,
            validity_rate=validity,
        )

    # ------------------------------------------------------------------ #
    def train_local_detector(self, classifier: str = "decision_tree") -> "DeviceNode":
        """Train a detector on local data only (the no-sharing baseline)."""
        self._local_featurizer = TabularFeaturizer(self.label_column).fit(self.table)
        X, y = self._local_featurizer.transform(self.table)
        self._local_classifier = make_classifier(classifier, seed=self.seed)
        self._local_classifier.fit(X, y)
        return self

    def evaluate_local_detector(self, test: Table) -> dict[str, float]:
        """Accuracy and macro-F1 of the local-only detector on a test set.

        Macro-F1 matters here: a node that never observed an attack class can
        still post a high accuracy (benign traffic dominates) while being
        useless against that attack, which is exactly the gap synthetic
        sharing is meant to close.
        """
        if self._local_classifier is None or self._local_featurizer is None:
            raise RuntimeError("train_local_detector() must be called first")
        X, y = self._local_featurizer.transform(test)
        predictions = self._local_classifier.predict(X)
        return {
            "accuracy": accuracy_score(y, predictions),
            "f1": f1_score(y, predictions),
        }
