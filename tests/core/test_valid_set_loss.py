"""Tests for the valid-set knowledge penalty of ``D_KG``.

The valid-set loss is the direct reading of section III-B-1: the knowledge
graph is queried with the condition values and the generator is penalised
for probability mass outside the returned valid sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.generator import TabularOutputActivation
from repro.core.kg_discriminator import KnowledgeGuidedDiscriminator
from repro.knowledge.builder import build_network_kg
from repro.knowledge.reasoner import KGReasoner
from repro.tabular.transformer import DataTransformer


@pytest.fixture
def lab_setup(lab_bundle_small):
    table = lab_bundle_small.table.head(300)
    transformer = DataTransformer(max_modes=4, seed=0).fit(table)
    reasoner = KGReasoner(
        build_network_kg(lab_bundle_small.catalog),
        field_map=lab_bundle_small.catalog.field_map,
    )
    return table, transformer, reasoner


def _soft_matrix(transformer: DataTransformer, n: int, rng: np.random.Generator) -> np.ndarray:
    """A random matrix whose softmax blocks are proper distributions."""
    raw = rng.normal(size=(n, transformer.output_dim))
    return TabularOutputActivation(transformer.activation_spans(), rng=rng).forward(raw)


def _mask(dkg: KnowledgeGuidedDiscriminator, column: str, event: str):
    """The bound valid-category row of ``column`` under ``event``, or
    ``None`` when it carries no signal (the valid-set loss skips it)."""
    events = list(dkg.transformer.encoder("event_type").categories)
    row = dkg._bound.tables[column][events.index(event)]
    return None if row.all() or not row.any() else row


class TestValidMask:
    def test_mask_matches_reasoner_valid_values(self, lab_setup, rng):
        table, transformer, reasoner = lab_setup
        dkg = KnowledgeGuidedDiscriminator(reasoner, transformer, rng=rng)
        mask = _mask(dkg, "protocol", "ntp_sync")
        categories = list(transformer.encoder("protocol").categories)
        assert mask is not None
        valid = reasoner.valid_values("protocol", "ntp_sync")
        for category, flag in zip(categories, mask):
            assert flag == (category in valid)

    def test_unknown_event_gives_no_mask(self, lab_setup, rng):
        table, transformer, reasoner = lab_setup
        bound = reasoner.bind(
            {
                "event_type": ["nonexistent_event"],
                "protocol": transformer.encoder("protocol").categories,
            }
        )
        assert not bound.known[0]
        assert bound.tables["protocol"][0].all()

    def test_mask_is_cached(self, lab_setup, rng):
        table, transformer, reasoner = lab_setup
        dkg = KnowledgeGuidedDiscriminator(reasoner, transformer, rng=rng)
        assert dkg._penalty_plans() is dkg._penalty_plans()

    def test_destination_port_mask_honours_cve_range(self, lab_setup, rng):
        """The paper's running example: CVE-1999-0003 ports lie in 32771..34000."""
        table, transformer, reasoner = lab_setup
        dkg = KnowledgeGuidedDiscriminator(reasoner, transformer, rng=rng)
        mask = _mask(dkg, "dst_port", "cve_1999_0003")
        categories = list(transformer.encoder("dst_port").categories)
        assert mask is not None
        for category, flag in zip(categories, mask):
            port = int(category)
            assert flag == (32771 <= port <= 34000)


class TestValidSetLoss:
    def test_zero_terms_without_event_in_condition(self, lab_setup, rng):
        table, transformer, reasoner = lab_setup
        dkg = KnowledgeGuidedDiscriminator(reasoner, transformer, rng=rng)
        fake = _soft_matrix(transformer, 8, rng)
        loss, grad = dkg.valid_set_loss_and_grad(fake, [{} for _ in range(8)])
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_batch_size_mismatch_rejected(self, lab_setup, rng):
        table, transformer, reasoner = lab_setup
        dkg = KnowledgeGuidedDiscriminator(reasoner, transformer, rng=rng)
        fake = _soft_matrix(transformer, 8, rng)
        with pytest.raises(ValueError):
            dkg.valid_set_loss_and_grad(fake, [{"event_type": "ntp_sync"}])

    def test_valid_mass_gives_lower_loss_than_invalid_mass(self, lab_setup, rng):
        table, transformer, reasoner = lab_setup
        dkg = KnowledgeGuidedDiscriminator(reasoner, transformer, rng=rng)
        conditions = [{"event_type": "ntp_sync"}] * 4

        # Build one batch whose protocol block is all mass on the valid value
        # and one with all mass on an invalid value.
        info = transformer.column_info("protocol")
        categories = list(transformer.encoder("protocol").categories)
        valid_protocols = reasoner.valid_values("protocol", "ntp_sync")
        valid_index = next(i for i, c in enumerate(categories) if c in valid_protocols)
        invalid_index = next(i for i, c in enumerate(categories) if c not in valid_protocols)

        base = _soft_matrix(transformer, 4, rng)
        good = base.copy()
        good[:, info.start : info.end] = 0.0
        good[:, info.start + valid_index] = 1.0
        bad = base.copy()
        bad[:, info.start : info.end] = 0.0
        bad[:, info.start + invalid_index] = 1.0

        loss_good, _ = dkg.valid_set_loss_and_grad(good, conditions)
        loss_bad, _ = dkg.valid_set_loss_and_grad(bad, conditions)
        assert loss_bad > loss_good

    def test_gradient_pushes_mass_toward_valid_categories(self, lab_setup, rng):
        table, transformer, reasoner = lab_setup
        dkg = KnowledgeGuidedDiscriminator(reasoner, transformer, rng=rng)
        conditions = [{"event_type": "motion_detected"}] * 6
        fake = _soft_matrix(transformer, 6, rng)
        loss, grad = dkg.valid_set_loss_and_grad(fake, conditions)
        assert loss > 0.0

        info = transformer.column_info("src_ip")
        categories = list(transformer.encoder("src_ip").categories)
        valid = reasoner.valid_values("source_ip", "motion_detected")
        block = grad[:, info.start : info.end]
        for j, category in enumerate(categories):
            if category in valid:
                # Descending the loss raises the probability of valid values.
                assert np.all(block[:, j] <= 0.0)
            else:
                assert np.all(block[:, j] == 0.0)

    def test_gradient_zero_outside_kg_columns(self, lab_setup, rng):
        table, transformer, reasoner = lab_setup
        dkg = KnowledgeGuidedDiscriminator(reasoner, transformer, rng=rng)
        conditions = [{"event_type": "dns_lookup"}] * 5
        fake = _soft_matrix(transformer, 5, rng)
        _, grad = dkg.valid_set_loss_and_grad(fake, conditions)
        mask = np.zeros(transformer.output_dim, dtype=bool)
        for name in dkg.kg_columns:
            info = transformer.column_info(name)
            mask[info.start : info.end] = True
        assert np.abs(grad[:, ~mask]).sum() == 0.0

    def test_trainer_with_valid_set_loss_reaches_high_validity(self, lab_bundle_small):
        """End-to-end: a briefly trained KiNETGAN with the valid-set loss produces
        mostly KG-valid records while the identically trained model without D_KG
        does not reach the same level (the core claim of the paper)."""
        from repro.core import KiNETGAN, KiNETGANConfig
        from repro.knowledge.validator import BatchValidator

        table = lab_bundle_small.table
        config = KiNETGANConfig(
            embedding_dim=16,
            generator_dims=(32, 32),
            discriminator_dims=(32,),
            epochs=12,
            batch_size=64,
            lambda_knowledge=2.0,
            knowledge_negatives_per_batch=16,
            seed=3,
        )
        with_kg = KiNETGAN(config).fit(
            table,
            catalog=lab_bundle_small.catalog,
            condition_columns=lab_bundle_small.condition_columns,
        )
        without_kg = KiNETGAN(
            config.with_overrides(use_knowledge_discriminator=False, lambda_knowledge=0.0)
        ).fit(table, condition_columns=lab_bundle_small.condition_columns)

        reasoner = KGReasoner(
            build_network_kg(lab_bundle_small.catalog),
            field_map=lab_bundle_small.catalog.field_map,
        )
        validator = BatchValidator(reasoner)
        rng = np.random.default_rng(0)
        validity_with = validator.report(with_kg.sample(400, rng=rng)).validity_rate
        validity_without = validator.report(without_kg.sample(400, rng=rng)).validity_rate
        assert validity_with >= validity_without
        assert validity_with > 0.5
