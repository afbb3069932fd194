"""Integration tests: KiNETGAN end-to-end fit / sample / conditioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import KiNETGAN, KiNETGANConfig


@pytest.fixture(scope="module")
def trained_kinetgan(lab_bundle_small):
    """A KiNETGAN trained briefly on a small lab capture (shared by tests)."""
    config = KiNETGANConfig(
        embedding_dim=16,
        generator_dims=(48,),
        discriminator_dims=(48,),
        epochs=6,
        batch_size=64,
        knowledge_negatives_per_batch=32,
        seed=1,
    )
    model = KiNETGAN(config)
    model.fit(
        lab_bundle_small.table,
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
    )
    return model


class TestFitSample:
    def test_sample_shape_and_schema(self, trained_kinetgan, lab_bundle_small):
        synthetic = trained_kinetgan.sample(200)
        assert synthetic.n_rows == 200
        assert synthetic.schema.names == lab_bundle_small.schema.names

    def test_sampled_values_respect_schema_domains(self, trained_kinetgan, lab_bundle_small):
        synthetic = trained_kinetgan.sample(150)
        for spec in lab_bundle_small.schema:
            values = synthetic.column(spec.name)
            if spec.is_categorical:
                assert set(values).issubset(set(spec.categories))
            else:
                numeric = values.astype(float)
                if spec.minimum is not None:
                    assert numeric.min() >= spec.minimum - 1e-6
                if spec.maximum is not None:
                    assert numeric.max() <= spec.maximum + 1e-6

    def test_label_distribution_roughly_preserved(self, trained_kinetgan, lab_bundle_small):
        synthetic = trained_kinetgan.sample(600)
        real = lab_bundle_small.table.class_distribution("label")
        synth = synthetic.class_distribution("label")
        assert abs(real["normal"] - synth.get("normal", 0.0)) < 0.2

    def test_conditional_sampling_honours_condition(self, trained_kinetgan):
        synthetic = trained_kinetgan.sample(120, conditions={"event_type": "traffic_flooding"})
        share = synthetic.class_distribution("event_type").get("traffic_flooding", 0.0)
        assert share > 0.7

    def test_sampling_is_reproducible_with_same_rng(self, trained_kinetgan):
        a = trained_kinetgan.sample(50, rng=np.random.default_rng(9))
        b = trained_kinetgan.sample(50, rng=np.random.default_rng(9))
        assert a.to_records() == b.to_records()

    def test_history_recorded(self, trained_kinetgan):
        history = trained_kinetgan.history
        assert history.epochs == 6
        assert len(history.discriminator_loss) == 6
        assert np.isfinite(history.last()["generator_loss"])

    def test_validity_report_available(self, trained_kinetgan):
        report = trained_kinetgan.validity_report(n=150, rng=np.random.default_rng(0))
        assert 0.0 <= report.validity_rate <= 1.0

    def test_save_and_reload_weights(self, trained_kinetgan, tmp_path):
        before = trained_kinetgan.sample(30, rng=np.random.default_rng(4))
        trained_kinetgan.save(tmp_path)
        # Perturb, then reload.
        for param, _ in trained_kinetgan.trainer.generator.parameters():
            param += 0.3
        trained_kinetgan.load_weights(tmp_path)
        after = trained_kinetgan.sample(30, rng=np.random.default_rng(4))
        assert before.to_records() == after.to_records()


class TestErrorHandling:
    def test_sample_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KiNETGAN().sample(10)

    def test_invalid_sample_size_rejected(self, trained_kinetgan):
        with pytest.raises(ValueError):
            trained_kinetgan.sample(0)

    def test_validity_report_without_knowledge_raises(self, lab_bundle_small, fast_config):
        model = KiNETGAN(fast_config)
        model.fit(lab_bundle_small.table.head(200), condition_columns=["label"])
        with pytest.raises(RuntimeError):
            model.validity_report(10)

    def test_unknown_condition_value_rejected(self, trained_kinetgan):
        with pytest.raises(ValueError):
            trained_kinetgan.sample(10, conditions={"event_type": "not_real"})

    def test_unknown_fit_keyword_raises(self, lab_bundle_small, fast_config):
        # A misspelt knowledge source must not train silently without D_KG.
        with pytest.raises(TypeError, match="catalogue"):
            KiNETGAN(fast_config).fit(lab_bundle_small.table, catalogue=lab_bundle_small.catalog)


class TestKnowledgeAblation:
    def test_knowledge_guidance_improves_validity(self, lab_bundle_small):
        """The core claim: D_KG pushes generated records towards KG validity."""
        common = dict(
            embedding_dim=16,
            generator_dims=(48,),
            discriminator_dims=(48,),
            epochs=8,
            batch_size=64,
            knowledge_negatives_per_batch=32,
            seed=3,
        )
        with_kg = KiNETGAN(KiNETGANConfig(**common, lambda_knowledge=2.0))
        with_kg.fit(
            lab_bundle_small.table,
            catalog=lab_bundle_small.catalog,
            condition_columns=lab_bundle_small.condition_columns,
        )
        without_kg = KiNETGAN(
            KiNETGANConfig(**common, use_knowledge_discriminator=False, lambda_knowledge=0.0)
        )
        without_kg.fit(
            lab_bundle_small.table,
            condition_columns=lab_bundle_small.condition_columns,
        )
        from repro.knowledge import BatchValidator, KGReasoner, build_network_kg

        reasoner = KGReasoner(
            build_network_kg(lab_bundle_small.catalog),
            field_map=lab_bundle_small.catalog.field_map,
        )
        validator = BatchValidator(reasoner)
        rng = np.random.default_rng(0)
        validity_with = validator.report(with_kg.sample(300, rng=rng)).validity_rate
        validity_without = validator.report(without_kg.sample(300, rng=rng)).validity_rate
        assert validity_with > validity_without
