"""Distributed NIDS tests: protocol, node, coordinator and full simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import CTGAN, IndependentSampler
from repro.core import KiNETGAN
from repro.distributed import (
    Coordinator,
    DeviceNode,
    DistributedNIDSSimulation,
    SyntheticShare,
)


class TestProtocol:
    def test_share_validation(self, tiny_table):
        share = SyntheticShare(
            node_id="n0", synthetic=tiny_table, n_real_records=300, generator_name="X"
        )
        assert share.validity_rate is None
        with pytest.raises(ValueError):
            SyntheticShare(node_id="n0", synthetic=tiny_table, n_real_records=-1,
                           generator_name="X")
        with pytest.raises(ValueError):
            SyntheticShare(node_id="n0", synthetic=tiny_table, n_real_records=1,
                           generator_name="X", validity_rate=1.5)


class TestDeviceNode:
    def test_local_detector_and_share(self, tiny_table, rng):
        node = DeviceNode(
            node_id="sensor",
            table=tiny_table,
            label_column="label",
            synthesizer=IndependentSampler(seed=1),
        )
        node.train_local_detector("decision_tree")
        metrics = node.evaluate_local_detector(tiny_table)
        assert metrics["accuracy"] > 0.7
        assert 0.0 <= metrics["f1"] <= 1.0

        node.fit_synthesizer()
        share = node.produce_share(120, rng=rng)
        assert share.synthetic.n_rows == 120
        assert share.node_id == "sensor"
        assert share.n_real_records == tiny_table.n_rows

    def test_share_before_fit_rejected(self, tiny_table):
        node = DeviceNode("n", tiny_table, "label", synthesizer=IndependentSampler())
        with pytest.raises(RuntimeError):
            node.produce_share(10)

    def test_empty_table_rejected(self, tiny_table):
        from repro.tabular.table import Table

        with pytest.raises(ValueError):
            DeviceNode("n", Table.empty(tiny_table.schema), "label")

    def test_kinetgan_node_reports_share_validity(self, lab_bundle_small, fast_config, rng):
        node = DeviceNode(
            node_id="iot",
            table=lab_bundle_small.table.head(300),
            label_column="label",
            catalog=lab_bundle_small.catalog,
            condition_columns=["event_type", "label"],
            config=fast_config,
        )
        node.fit_synthesizer()
        share = node.produce_share(100, rng=rng)
        assert share.validity_rate is not None
        assert 0.0 <= share.validity_rate <= 1.0

    def test_knowledge_free_synthesizer_fits_without_catalog(self, lab_bundle_small, fast_config):
        node = DeviceNode(
            node_id="iot",
            table=lab_bundle_small.table.head(300),
            label_column="label",
            catalog=lab_bundle_small.catalog,
            condition_columns=["event_type", "label"],
            synthesizer=CTGAN(fast_config),
        )
        node.fit_synthesizer()
        assert node.synthesizer.trainer.kg_discriminator is None
        # The node still scores its share against the catalog's graph.
        assert node.produce_share(50).validity_rate is not None

    def test_ablated_kinetgan_still_gets_the_catalog(self, lab_bundle_small, fast_config):
        """D_KG switched off is not knowledge-free: the model keeps its reasoner."""
        config = fast_config.with_overrides(use_knowledge_discriminator=False)
        node = DeviceNode(
            node_id="iot",
            table=lab_bundle_small.table.head(300),
            label_column="label",
            catalog=lab_bundle_small.catalog,
            condition_columns=["event_type", "label"],
            synthesizer=KiNETGAN(config),
        )
        node.fit_synthesizer()
        assert node.synthesizer.trainer.kg_discriminator is None
        assert node.synthesizer.reasoner is not None


class TestCoordinator:
    def test_pooling_and_training(self, tiny_table, tiny_table_alt, rng):
        coordinator = Coordinator(label_column="label", classifier="decision_tree")
        coordinator.receive(SyntheticShare("a", tiny_table, 300, "X"))
        coordinator.receive(SyntheticShare("b", tiny_table_alt, 300, "Y"))
        assert coordinator.pooled_training_data.n_rows == 600
        coordinator.train_global_detector()
        summary = coordinator.evaluate(tiny_table)
        assert summary.global_accuracy > 0.7
        assert 0.0 <= summary.global_f1 <= 1.0

    def test_empty_share_rejected(self, tiny_table):
        from repro.tabular.table import Table

        coordinator = Coordinator(label_column="label")
        with pytest.raises(ValueError):
            coordinator.receive(SyntheticShare("a", Table.empty(tiny_table.schema), 0, "X"))

    def test_evaluate_before_training_rejected(self, tiny_table):
        with pytest.raises(RuntimeError):
            Coordinator(label_column="label").evaluate(tiny_table)

    def test_missing_label_column_rejected(self, tiny_table):
        coordinator = Coordinator(label_column="label")
        with pytest.raises(ValueError):
            coordinator.receive(
                SyntheticShare("a", tiny_table.drop_columns(["label"]), 10, "X")
            )


class TestSimulation:
    def test_full_simulation_with_cheap_synthesizer(self, lab_bundle_small):
        simulation = DistributedNIDSSimulation(
            lab_bundle_small,
            num_nodes=3,
            non_iid_skew=0.6,
            classifier="decision_tree",
            synthesizer_factory=lambda seed: IndependentSampler(seed=seed),
            seed=5,
        )
        result = simulation.run(share_size=200)
        for value in (result.local_only, result.synthetic_sharing, result.centralised_real):
            assert 0.0 <= value <= 1.0
        assert len(result.per_node_local) == 3
        # Centralised real data is an upper bound (within small slack).
        assert result.centralised_real >= result.synthetic_sharing - 0.1
        assert np.isfinite(result.local_only_f1)

    def test_partition_respects_node_count(self, lab_bundle_small, rng):
        simulation = DistributedNIDSSimulation(lab_bundle_small, num_nodes=4, seed=1)
        partitions = simulation.partition(lab_bundle_small.table, rng)
        assert len(partitions) == 4
        assert sum(p.n_rows for p in partitions) >= lab_bundle_small.n_records

    def test_invalid_parameters_rejected(self, lab_bundle_small):
        with pytest.raises(ValueError):
            DistributedNIDSSimulation(lab_bundle_small, num_nodes=1)
        with pytest.raises(ValueError):
            DistributedNIDSSimulation(lab_bundle_small, non_iid_skew=1.0)
