"""Seeded-reproducibility regression tests.

Every synthesizer routes its RNG construction through
:mod:`repro.engine.seeding` and its loop through the engine, so a seeded
``fit()`` must be bit-reproducible: two fresh fits with the same config,
sampled with the same generator, must produce identical records.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import PATEGAN, TVAE, TableGAN
from repro.core import KiNETGAN, KiNETGANConfig
from repro.engine import sampling_rng, seeded_rng


def _tiny_config(**overrides) -> KiNETGANConfig:
    return KiNETGANConfig(
        embedding_dim=12,
        generator_dims=(24,),
        discriminator_dims=(24,),
        epochs=2,
        batch_size=64,
        seed=5,
    ).with_overrides(**overrides)


def _fit_and_sample(factory, table):
    model = factory()
    if isinstance(model, KiNETGAN):
        model.fit(table, condition_columns=["label"])
    else:
        model.fit(table)
    return model.sample(60, rng=np.random.default_rng(11)).to_records()


@pytest.mark.parametrize(
    "factory",
    [
        lambda: KiNETGAN(_tiny_config()),
        lambda: TVAE(_tiny_config()),
        lambda: PATEGAN(_tiny_config(), num_teachers=3),
        lambda: TableGAN(_tiny_config()),
    ],
    ids=["kinetgan", "tvae", "pategan", "tablegan"],
)
def test_seeded_refit_is_bit_reproducible(factory, tiny_table):
    first = _fit_and_sample(factory, tiny_table)
    second = _fit_and_sample(factory, tiny_table)
    assert first == second


def test_seeding_helpers_are_deterministic_and_disjoint():
    assert seeded_rng(7).integers(0, 1 << 30) == seeded_rng(7).integers(0, 1 << 30)
    assert sampling_rng(7).integers(0, 1 << 30) == sampling_rng(7).integers(0, 1 << 30)
    # The sampling stream differs from the training stream for the same seed.
    assert seeded_rng(7).integers(0, 1 << 30) != sampling_rng(7).integers(0, 1 << 30)


def test_default_sample_rng_matches_across_models(tiny_table):
    """Two same-seed fits also agree on the *default* sampling stream."""
    a = TVAE(_tiny_config()).fit(tiny_table).sample(40).to_records()
    b = TVAE(_tiny_config()).fit(tiny_table).sample(40).to_records()
    assert a == b


class TestEngineIntegration:
    def test_early_stopping_via_config_shortens_training(self, tiny_table):
        # min_delta so large no epoch ever counts as an improvement: training
        # stops after `patience` epochs.
        config = _tiny_config(epochs=8, patience=1, min_delta=1e9)
        model = TVAE(config).fit(tiny_table)
        assert len(model.loss_history) == 2

    def test_checkpoint_dir_round_trip_restores_samples(self, tiny_table, tmp_path):
        config = _tiny_config(checkpoint_dir=str(tmp_path / "ckpt"))
        model = KiNETGAN(config)
        model.fit(tiny_table, condition_columns=["label"])
        before = model.sample(40, rng=np.random.default_rng(3)).to_records()

        # The engine checkpoint uses the same file layout as KiNETGAN.save,
        # so load_weights restores the exact trained networks.
        for param, _ in model.trainer.generator.parameters():
            param += 0.25
        model.load_weights(tmp_path / "ckpt")
        after = model.sample(40, rng=np.random.default_rng(3)).to_records()
        assert before == after

    def test_trainer_runs_through_engine(self, tiny_table):
        model = KiNETGAN(_tiny_config())
        model.fit(tiny_table, condition_columns=["label"])
        # The engine's per-epoch metrics reach the public history.
        assert len(model.history.generator_loss) == 2


def test_epoch_logging_leaves_a_seeded_fit_unchanged(lab_bundle_small):
    """The KG validity probe printed with each epoch line draws from its own
    stream: a ``verbose`` fit logging every epoch trains the same model as
    a quiet one (same loss histories, same samples)."""
    bundle = lab_bundle_small

    def fit(**overrides) -> KiNETGAN:
        config = _tiny_config(epochs=3, lambda_knowledge=2.0, **overrides)
        return KiNETGAN(config).fit(
            bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns
        )

    quiet = fit()
    logged = fit(verbose=True, log_every=1)
    assert len(logged.history.validity_rate) == 3
    for name in ("generator_loss", "discriminator_loss", "condition_loss", "knowledge_loss"):
        assert getattr(logged.history, name) == getattr(quiet.history, name), name
    sample_quiet = quiet.sample(200, rng=np.random.default_rng(3)).to_records()
    assert logged.sample(200, rng=np.random.default_rng(3)).to_records() == sample_quiet
