"""Baseline synthesizer tests: every model fits and samples on tiny data."""

from __future__ import annotations

import pytest

from repro.baselines import (
    CTGAN,
    OCTGAN,
    PATEGAN,
    TVAE,
    IndependentSampler,
    TableGAN,
    baseline_classes,
)
from repro.core import KiNETGAN
from repro.core.config import KiNETGANConfig


def _fast_config() -> KiNETGANConfig:
    return KiNETGANConfig(
        embedding_dim=12,
        generator_dims=(24,),
        discriminator_dims=(24,),
        epochs=2,
        batch_size=64,
        seed=0,
    )


@pytest.mark.parametrize("name", ["CTGAN", "OCTGAN", "TVAE", "TABLEGAN", "PATEGAN", "INDEPENDENT"])
def test_every_baseline_fits_and_samples(name, tiny_table):
    cls = baseline_classes()[name]
    if name == "INDEPENDENT":
        model = cls()
    elif name == "PATEGAN":
        model = cls(_fast_config(), num_teachers=3)
    else:
        model = cls(_fast_config())
    kwargs = {"condition_columns": ["proto", "label"]} if name in ("CTGAN", "OCTGAN") else {}
    model.fit(tiny_table, **kwargs)
    synthetic = model.sample(100)
    assert synthetic.n_rows == 100
    assert synthetic.schema.names == tiny_table.schema.names
    # Values stay inside the schema domains.
    for spec in tiny_table.schema:
        if spec.is_categorical:
            assert set(synthetic.column(spec.name)).issubset(set(spec.categories))


@pytest.mark.parametrize("cls", [TVAE, PATEGAN, TableGAN, OCTGAN])
def test_float32_rejected_where_networks_ignore_dtype(cls):
    """These baselines always build float64 networks, so a float32 config is
    refused up front instead of silently trained in float64; the
    dtype-aware KiNETGAN and CTGAN take the same config."""
    config = _fast_config().with_overrides(dtype="float32")
    with pytest.raises(ValueError, match="float64 networks only"):
        cls(config)
    assert KiNETGAN(config).config.dtype == CTGAN(config).config.dtype == "float32"


def test_registry_covers_all_paper_baselines():
    assert set(baseline_classes()) == {
        "CTGAN", "OCTGAN", "TVAE", "TABLEGAN", "PATEGAN", "INDEPENDENT",
    }


class TestCTGAN:
    def test_knowledge_is_disabled(self, tiny_table):
        model = CTGAN(_fast_config())
        assert model.config.use_knowledge_discriminator is False
        assert model.config.lambda_knowledge == 0.0
        # Passing a catalog is silently ignored rather than an error.
        model.fit(tiny_table, catalog=None, condition_columns=["label"])
        assert model.trainer.kg_discriminator is None

    def test_conditional_sampling_supported(self, tiny_table):
        model = CTGAN(_fast_config()).fit(tiny_table, condition_columns=["label"])
        synthetic = model.sample(80, conditions={"label": "attack"})
        assert synthetic.class_distribution("label").get("attack", 0) > 0.5


class TestOCTGAN:
    def test_networks_contain_ode_blocks(self, tiny_table):
        from repro.neural.ode import ODEBlock

        model = OCTGAN(_fast_config(), ode_steps=2).fit(tiny_table, condition_columns=["label"])
        generator_layers = model.trainer.generator.network.layers
        discriminator_layers = model.trainer.discriminator.network.layers
        assert any(isinstance(layer, ODEBlock) for layer in generator_layers)
        assert any(isinstance(layer, ODEBlock) for layer in discriminator_layers)


class TestTVAE:
    def test_loss_decreases(self, tiny_table):
        config = _fast_config().with_overrides(epochs=8)
        model = TVAE(config).fit(tiny_table)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_conditions_rejected(self, tiny_table):
        model = TVAE(_fast_config()).fit(tiny_table)
        with pytest.raises(ValueError):
            model.sample(10, conditions={"label": "attack"})


class TestTableGAN:
    def test_label_column_auto_detected(self, tiny_table):
        model = TableGAN(_fast_config()).fit(tiny_table)
        assert model.label_column == "label"

    def test_uses_minmax_encoding(self, tiny_table):
        model = TableGAN(_fast_config()).fit(tiny_table)
        assert model.config.continuous_encoding == "minmax"
        assert model.transformer.column_info("bytes").dim == 1


class TestPATEGAN:
    def test_epsilon_accumulates(self, tiny_table):
        model = PATEGAN(_fast_config(), num_teachers=3, laplace_scale=1.0)
        model.fit(tiny_table)
        assert model.epsilon_spent > 0
        assert len(model.teachers) == 3

    def test_too_few_teachers_rejected(self):
        with pytest.raises(ValueError):
            PATEGAN(num_teachers=1)


class TestIndependentSampler:
    def test_marginals_preserved(self, tiny_table, rng):
        model = IndependentSampler(seed=1).fit(tiny_table)
        synthetic = model.sample(2000, rng=rng)
        real_share = tiny_table.class_distribution("label")["attack"]
        synth_share = synthetic.class_distribution("label").get("attack", 0.0)
        assert abs(real_share - synth_share) < 0.06

    def test_respects_schema_bounds(self, tiny_table, rng):
        model = IndependentSampler(jitter=0.5, seed=1).fit(tiny_table)
        synthetic = model.sample(500, rng=rng)
        assert synthetic.column("bytes").astype(float).min() >= 0.0

    def test_sample_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            IndependentSampler().sample(5)
