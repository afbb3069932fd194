"""The public KiNETGAN synthesizer API."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.base import Synthesizer, require_row_count
from repro.core.config import KiNETGANConfig
from repro.core.trainer import KiNETGANTrainer, TrainingHistory
from repro.engine import sampling_rng
from repro.knowledge.builder import build_network_kg
from repro.knowledge.catalog import DomainCatalog
from repro.knowledge.graph import KnowledgeGraph
from repro.knowledge.reasoner import KGReasoner
from repro.knowledge.validator import BatchValidator, ValidityReport
from repro.tabular.sampler import ConditionSampler
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer

__all__ = ["KiNETGAN"]


class KiNETGAN(Synthesizer):
    """Knowledge-infused conditional GAN for network-activity tables.

    Typical use::

        from repro.core import KiNETGAN
        from repro.datasets import load_lab_iot

        bundle = load_lab_iot()
        model = KiNETGAN()
        model.fit(bundle.table, catalog=bundle.catalog,
                  condition_columns=bundle.condition_columns)
        synthetic = model.sample(5000)

    The knowledge source can be given as a :class:`DomainCatalog` (the graph
    is built internally), a prebuilt :class:`KnowledgeGraph`, or a
    :class:`KGReasoner`.  Without any knowledge source the model degrades to
    a plain conditional tabular GAN (this is exactly the ablation studied in
    ``benchmarks/test_ablation_knowledge.py``).
    """

    name = "KiNETGAN"

    #: True for family members built without a knowledge discriminator
    #: (CTGAN, OCTGAN): their :meth:`fit` rejects a knowledge source, and
    #: callers holding one (``DeviceNode``) keep it back.
    knowledge_free = False

    def __init__(self, config: KiNETGANConfig | None = None) -> None:
        self.config = config if config is not None else KiNETGANConfig()
        self.transformer: DataTransformer | None = None
        self.sampler: ConditionSampler | None = None
        self.reasoner: KGReasoner | None = None
        self.trainer: KiNETGANTrainer | None = None
        self.history: TrainingHistory | None = None
        self._fitted = False

    # ------------------------------------------------------------------ #
    def fit(
        self,
        table: Table,
        catalog: DomainCatalog | None = None,
        knowledge_graph: KnowledgeGraph | None = None,
        reasoner: KGReasoner | None = None,
        condition_columns: list[str] | None = None,
        field_map: dict[str, str] | None = None,
    ) -> "KiNETGAN":
        """Fit the model on a real table.

        Exactly one of ``catalog``, ``knowledge_graph`` or ``reasoner`` should
        be supplied to enable the knowledge-guided discriminator; with none of
        them, D_KG is disabled.  A :attr:`knowledge_free` model raises
        ``TypeError`` for any of them.
        """
        if self.knowledge_free:
            sources = {"catalog": catalog, "knowledge_graph": knowledge_graph, "reasoner": reasoner}
            given = [name for name, source in sources.items() if source is not None]
            if given:
                raise TypeError(f"{self.name} has no knowledge discriminator; drop {', '.join(given)}")
        config = self.config
        self.reasoner = self._resolve_reasoner(catalog, knowledge_graph, reasoner, field_map)

        self.transformer = DataTransformer(
            max_modes=config.max_modes,
            continuous_encoding=config.continuous_encoding,
            seed=config.seed,
        ).fit(table)
        self.sampler = ConditionSampler(
            table=table,
            transformer=self.transformer,
            conditional_columns=condition_columns,
            uniform_probability=config.uniform_probability,
        )
        self.trainer = self._build_trainer()
        self.history = self.trainer.fit(table)
        self._fitted = True
        return self

    def _build_trainer(self) -> KiNETGANTrainer:
        """Construct the trainer; baseline subclasses override this hook to
        inject alternative generator / discriminator architectures."""
        assert self.transformer is not None and self.sampler is not None
        return KiNETGANTrainer(
            config=self.config,
            transformer=self.transformer,
            sampler=self.sampler,
            reasoner=self.reasoner,
        )

    @staticmethod
    def _resolve_reasoner(
        catalog: DomainCatalog | None,
        knowledge_graph: KnowledgeGraph | None,
        reasoner: KGReasoner | None,
        field_map: dict[str, str] | None,
    ) -> KGReasoner | None:
        if reasoner is not None:
            return reasoner
        if knowledge_graph is not None:
            return KGReasoner(knowledge_graph, field_map=field_map)
        if catalog is not None:
            graph = build_network_kg(catalog)
            return KGReasoner(graph, field_map=field_map or catalog.field_map)
        return None

    # ------------------------------------------------------------------ #
    def sample(
        self,
        n: int,
        conditions: dict | None = None,
        rng: np.random.Generator | None = None,
    ) -> Table:
        """Sample ``n`` synthetic rows.

        ``conditions`` optionally fixes conditional-attribute values for every
        generated row, e.g. ``{"event_type": "traffic_flooding"}`` to generate
        attack traffic only.
        """
        rng = rng if rng is not None else sampling_rng(self.config.seed)
        condition_matrix = self.sample_conditions(n, conditions, rng)
        assert self.trainer is not None and self.transformer is not None
        return self.transformer.decode(*self.trainer.share_codes(condition_matrix, rng))

    def sample_conditions(
        self, n: int, conditions: dict | None, rng: np.random.Generator
    ) -> np.ndarray:
        """The condition matrix ``sample(n, conditions, rng)`` draws first
        (fixed ``conditions`` are tiled without touching ``rng``)."""
        self._require_fitted(self._fitted)
        n = require_row_count(n)
        assert self.sampler is not None
        if conditions is not None:
            return np.tile(self.sampler.vector_from_values(conditions), (n, 1))
        return self.sampler.empirical_conditions(n, rng)

    def sample_inputs(
        self,
        n: int,
        conditions: dict | None = None,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(noise, condition_matrix)`` pair ``sample()`` consumes, drawn
        in its order: one generator forward on them, hardened and decoded,
        reproduces ``sample(n, conditions, rng)``."""
        rng = rng if rng is not None else sampling_rng(self.config.seed)
        condition_matrix = self.sample_conditions(n, conditions, rng)
        noise = rng.normal(size=(len(condition_matrix), self.config.embedding_dim))
        return noise, condition_matrix

    # ------------------------------------------------------------------ #
    # Artifact-state protocol (repro.serve)
    # ------------------------------------------------------------------ #
    def artifact_state(self) -> dict:
        self._require_fitted(self._fitted)
        assert self.transformer is not None and self.sampler is not None
        state = {
            "config": self.config,
            "transformer": self.transformer.artifact_state(),
            "sampler": self.sampler.artifact_state(),
            "reasoner": self.reasoner,
        }
        state.update(self._extra_artifact_state())
        return state

    def _extra_artifact_state(self) -> dict:
        """Subclass hook for extra constructor state (e.g. OCTGAN ode_steps)."""
        return {}

    def _apply_extra_artifact_state(self, state: dict) -> None:
        """Subclass hook: consume :meth:`_extra_artifact_state` entries."""

    def restore_state(self, state: dict) -> None:
        self.config = state["config"]
        self.transformer = DataTransformer.from_artifact_state(state["transformer"])
        self.sampler = ConditionSampler.from_artifact_state(state["sampler"], self.transformer)
        self.reasoner = state["reasoner"]
        self._apply_extra_artifact_state(state)
        # Networks are built freshly initialised here; the artifact loader
        # overwrites their weights from the saved .npz files.
        self.trainer = self._build_trainer()
        self.history = None
        self._fitted = True

    def artifact_networks(self) -> dict:
        self._require_fitted(self._fitted)
        assert self.trainer is not None
        networks = {
            "generator": self.trainer.generator.network,
            "discriminator": self.trainer.discriminator.network,
        }
        kg = self.trainer.kg_discriminator
        if kg is not None and kg.head is not None:
            networks["kg_head"] = kg.head
        return networks

    # ------------------------------------------------------------------ #
    def validity_report(
        self, n: int = 1000, rng: np.random.Generator | None = None
    ) -> ValidityReport:
        """Knowledge-graph validity of freshly sampled data (needs a reasoner)."""
        self._require_fitted(self._fitted)
        if self.reasoner is None:
            raise RuntimeError("no knowledge source was provided at fit time")
        synthetic = self.sample(n, rng=rng)
        return BatchValidator(self.reasoner).report(synthetic)

    def save(self, directory: str | Path) -> None:
        """Persist generator and discriminator weights to ``directory``."""
        self._require_fitted(self._fitted)
        assert self.trainer is not None
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.trainer.generator.network.save(directory / "generator.npz")
        self.trainer.discriminator.network.save(directory / "discriminator.npz")

    def load_weights(self, directory: str | Path) -> None:
        """Restore weights saved by :meth:`save` into a fitted model."""
        self._require_fitted(self._fitted)
        assert self.trainer is not None
        directory = Path(directory)
        self.trainer.generator.network.load(directory / "generator.npz")
        self.trainer.discriminator.network.load(directory / "discriminator.npz")
