"""Tests for federated KiNETGAN weight averaging."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import KiNETGANConfig
from repro.core.trainer import KiNETGANTrainer
from repro.federated.dp import DPFedAvgConfig
from repro.federated.kinetgan import FederatedKiNETGAN
from repro.federated.partition import label_skew_partition
from repro.knowledge.reasoner import KGReasoner


@pytest.fixture(scope="module")
def tiny_config() -> KiNETGANConfig:
    return KiNETGANConfig(
        embedding_dim=8,
        generator_dims=(16,),
        discriminator_dims=(16,),
        epochs=1,
        batch_size=32,
        knowledge_negatives_per_batch=8,
        max_modes=3,
        seed=0,
    )


@pytest.fixture(scope="module")
def fed_setup(lab_bundle_small, tiny_config):
    table = lab_bundle_small.table.head(400)
    rng = np.random.default_rng(0)
    parts = label_skew_partition(table, "label", 2, rng, skew=0.5, min_rows=20)
    fed = FederatedKiNETGAN(
        reference_table=table.head(200),
        config=tiny_config,
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
        seed=0,
    )
    for i, part in enumerate(parts):
        fed.add_site(f"site-{i}", part)
    return fed, table


def _three_site_fed(lab_bundle_small, tiny_config, fraction, seed=5):
    table = lab_bundle_small.table.head(400)
    rng = np.random.default_rng(2)
    parts = label_skew_partition(table, "label", 3, rng, skew=0.3, min_rows=20)
    fed = FederatedKiNETGAN(
        reference_table=table.head(150),
        config=tiny_config,
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
        seed=seed,
        client_fraction=fraction,
    )
    for i, part in enumerate(parts):
        fed.add_site(f"site-{i}", part)
    return fed


class TestSetup:
    def test_sites_registered(self, fed_setup):
        fed, _ = fed_setup
        assert fed.n_sites == 2

    def test_duplicate_site_rejected(self, fed_setup, lab_bundle_small):
        fed, table = fed_setup
        with pytest.raises(ValueError):
            fed.add_site("site-0", table.head(30))

    def test_needs_two_sites(self, lab_bundle_small, tiny_config):
        fed = FederatedKiNETGAN(
            reference_table=lab_bundle_small.table.head(100), config=tiny_config
        )
        fed.add_site("only", lab_bundle_small.table.head(50))
        with pytest.raises(RuntimeError):
            fed.run_round()

    def test_sampling_before_training_rejected(self, lab_bundle_small, tiny_config):
        fed = FederatedKiNETGAN(
            reference_table=lab_bundle_small.table.head(100), config=tiny_config
        )
        fed.add_site("a", lab_bundle_small.table.head(50))
        fed.add_site("b", lab_bundle_small.table.head(50))
        with pytest.raises(RuntimeError):
            fed.sample(10)


class TestTraining:
    def test_rounds_average_weights_and_record_history(self, fed_setup):
        fed, _ = fed_setup
        rounds = fed.run(num_rounds=2, local_epochs=1)
        assert len(rounds) >= 2
        generator_state, discriminator_state = fed.global_states()
        assert all(np.isfinite(value).all() for value in generator_state.values())
        assert all(np.isfinite(value).all() for value in discriminator_state.values())

        # After a round, every site carries the same broadcast weights once
        # set_state is applied (as sample() does).
        fed.sites[0].set_state(generator_state, discriminator_state)
        fed.sites[1].set_state(generator_state, discriminator_state)
        state_a = fed.sites[0].get_state()[0]
        state_b = fed.sites[1].get_state()[0]
        for key in state_a:
            np.testing.assert_allclose(state_a[key], state_b[key])

    def test_sample_returns_schema_conformant_table(self, fed_setup):
        fed, table = fed_setup
        if not fed.rounds:
            fed.run(num_rounds=1, local_epochs=1)
        synthetic = fed.sample(120, rng=np.random.default_rng(1))
        assert synthetic.n_rows == 120
        assert synthetic.schema.names == table.schema.names
        # Generated categories must come from the schema's category lists.
        protocols = set(synthetic.column("protocol"))
        assert protocols <= set(table.schema.column("protocol").categories)

    def test_invalid_round_and_epoch_counts_rejected(self, fed_setup):
        fed, _ = fed_setup
        with pytest.raises(ValueError):
            fed.run(num_rounds=0)
        with pytest.raises(ValueError):
            fed.sites[0].train_local(epochs=0)

    def test_client_fraction_validated(self, lab_bundle_small, tiny_config):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                FederatedKiNETGAN(
                    reference_table=lab_bundle_small.table.head(100),
                    config=tiny_config,
                    client_fraction=bad,
                )

    def test_client_fraction_subsamples_sites_per_round(self, lab_bundle_small, tiny_config):
        fed = _three_site_fed(lab_bundle_small, tiny_config, fraction=0.5)
        rounds = fed.run(num_rounds=3, local_epochs=1)
        all_ids = {site.site_id for site in fed.sites}
        for round_info in rounds:
            assert len(round_info.participants) == 2  # round(0.5 * 3) sites
            assert set(round_info.participants) <= all_ids

    def test_client_fraction_selection_is_seeded(self, lab_bundle_small, tiny_config):
        fed_a = _three_site_fed(lab_bundle_small, tiny_config, fraction=0.5, seed=5)
        fed_b = _three_site_fed(lab_bundle_small, tiny_config, fraction=0.5, seed=5)
        rounds_a = fed_a.run(num_rounds=2, local_epochs=1)
        rounds_b = fed_b.run(num_rounds=2, local_epochs=1)
        assert [r.participants for r in rounds_a] == [r.participants for r in rounds_b]
        state_a, _ = fed_a.global_states()
        state_b, _ = fed_b.global_states()
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])

    def test_full_participation_consumes_no_selection_draws(
        self, lab_bundle_small, tiny_config
    ):
        """At the default fraction the coordinator RNG stream is untouched,
        so seeded runs recorded before the knob existed replay exactly."""
        fed = _three_site_fed(lab_bundle_small, tiny_config, fraction=1.0)
        before = fed.rng.bit_generator.state
        selected = fed._select_sites()
        assert selected == [0, 1, 2]
        assert fed.rng.bit_generator.state == before

    def test_dp_variant_reports_epsilon(self, lab_bundle_small, tiny_config):
        table = lab_bundle_small.table.head(300)
        rng = np.random.default_rng(3)
        parts = label_skew_partition(table, "label", 2, rng, skew=0.3, min_rows=20)
        fed = FederatedKiNETGAN(
            reference_table=table.head(150),
            config=tiny_config,
            catalog=lab_bundle_small.catalog,
            condition_columns=lab_bundle_small.condition_columns,
            dp_config=DPFedAvgConfig(clip_norm=5.0, noise_multiplier=0.5, delta=1e-5),
            seed=1,
        )
        for i, part in enumerate(parts):
            fed.add_site(f"s{i}", part)
        round_info = fed.run_round(local_epochs=1)
        assert round_info.epsilon is not None and round_info.epsilon > 0.0


class TestSiteKGCache:
    """A site's real-row KG arrays are scored once, not once per round."""

    def _run(self, lab_bundle_small, tiny_config, rounds=3):
        fed = _three_site_fed(lab_bundle_small, tiny_config, fraction=1.0)
        for _ in range(rounds):
            fed.run_round(local_epochs=1)
        return fed

    def test_each_site_table_scored_once_across_rounds(
        self, lab_bundle_small, tiny_config, monkeypatch
    ):
        scored = []
        validity_mask = KGReasoner.validity_mask

        def spy(reasoner, table_or_columns):
            scored.append(table_or_columns)
            return validity_mask(reasoner, table_or_columns)

        monkeypatch.setattr(KGReasoner, "validity_mask", spy)
        fed = self._run(lab_bundle_small, tiny_config)
        assert len(fed.rounds) == 3
        assert len(scored) == fed.n_sites
        assert [id(table) for table in scored] == [id(site.table) for site in fed.sites]

    def test_cached_rounds_match_uncached_rounds(self, lab_bundle_small, tiny_config, monkeypatch):
        cached = self._run(lab_bundle_small, tiny_config)

        def uncached(trainer, table):
            kg = trainer.kg_discriminator
            return kg.hard_scores(table), kg.kg_rows(table)

        monkeypatch.setattr(KiNETGANTrainer, "kg_arrays", uncached)
        fresh = self._run(lab_bundle_small, tiny_config)
        for site_a, site_b in zip(cached.sites, fresh.sites):
            assert site_a.trainer.history == site_b.trainer.history
        for state_a, state_b in zip(cached.global_states(), fresh.global_states()):
            for key in state_a:
                np.testing.assert_array_equal(state_a[key], state_b[key])

    def test_cache_stays_out_of_pickles(self, lab_bundle_small, tiny_config):
        fed = self._run(lab_bundle_small, tiny_config, rounds=1)
        trainer = fed.sites[0].trainer
        assert trainer._kg_cache is not None
        payload = pickle.dumps(trainer)
        trainer._kg_cache = None
        assert pickle.dumps(trainer) == payload
        assert pickle.loads(payload)._kg_cache is None
