"""Seeded-fit bit-parity: fused arena steps vs the per-tensor reference.

Every network in the repository trains through its parameter arena, so
these tests pin the load-bearing invariant at the level of a whole fit: a
seeded fit with the fused optimizer kernels and bound step workspaces must
produce *bit-identical* weights, loss history, and samples to the same fit
with every optimizer step replaced by the per-tensor reference (the
``per_tensor_step`` fixture) and every workspace unbound (the allocating
passes).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.baselines import TVAE
from repro.core import KiNETGAN
from repro.neural.network import Sequential
from repro.neural.optimizers import SGD, Adam, RMSprop


@pytest.fixture
def reference_path(monkeypatch, per_tensor_step):
    """A context: optimizers step per tensor, networks keep no workspace."""
    consolidate = Sequential.consolidate

    def consolidate_unbound(network):
        arena = consolidate(network)
        network.unbind_workspace()
        return arena

    @contextlib.contextmanager
    def context():
        with monkeypatch.context() as m:
            for cls in (SGD, RMSprop, Adam):
                m.setattr(cls, "step", per_tensor_step)
            m.setattr(Sequential, "consolidate", consolidate_unbound)
            yield

    return context


def _fit_kinetgan(fast_config, table, bundle=None):
    model = KiNETGAN(fast_config)
    if bundle is not None:
        model.fit(
            table,
            catalog=bundle.catalog,
            condition_columns=bundle.condition_columns,
        )
    else:
        model.fit(table, condition_columns=["label"])
    return model


def _assert_states_bitwise_equal(state_a, state_b):
    assert sorted(state_a) == sorted(state_b)
    for key, value in state_a.items():
        assert np.array_equal(value, state_b[key]), key


class TestKiNETGANParity:
    def test_fit_and_samples_bit_identical(self, fast_config, tiny_table, reference_path):
        arena_model = _fit_kinetgan(fast_config, tiny_table)
        with reference_path():
            plain_model = _fit_kinetgan(fast_config, tiny_table)

        assert arena_model.trainer.generator.network.workspace is not None
        assert plain_model.trainer.generator.network.workspace is None

        for attr in ("generator", "discriminator"):
            _assert_states_bitwise_equal(
                getattr(arena_model.trainer, attr).network.state_dict(),
                getattr(plain_model.trainer, attr).network.state_dict(),
            )
        assert (
            arena_model.trainer.history.generator_loss
            == plain_model.trainer.history.generator_loss
        )
        assert (
            arena_model.trainer.history.discriminator_loss
            == plain_model.trainer.history.discriminator_loss
        )

        sample_arena = arena_model.sample(64, rng=np.random.default_rng(5))
        sample_plain = plain_model.sample(64, rng=np.random.default_rng(5))
        assert sample_arena.to_records() == sample_plain.to_records()

    def test_fit_with_knowledge_graph_bit_identical(
        self, fast_config, lab_bundle_small, reference_path
    ):
        table = lab_bundle_small.table.head(300)
        arena_model = _fit_kinetgan(fast_config, table, bundle=lab_bundle_small)
        with reference_path():
            plain_model = _fit_kinetgan(fast_config, table, bundle=lab_bundle_small)

        assert arena_model.trainer.kg_discriminator.head is not None
        _assert_states_bitwise_equal(
            arena_model.trainer.kg_discriminator.head.state_dict(),
            plain_model.trainer.kg_discriminator.head.state_dict(),
        )
        for attr in ("generator", "discriminator"):
            _assert_states_bitwise_equal(
                getattr(arena_model.trainer, attr).network.state_dict(),
                getattr(plain_model.trainer, attr).network.state_dict(),
            )
        assert (
            arena_model.trainer.history.knowledge_loss
            == plain_model.trainer.history.knowledge_loss
        )


class TestBaselineParity:
    def test_tvae_fit_and_samples_bit_identical(self, tiny_table, reference_path):
        def fit():
            model = TVAE()
            model.config.epochs = 2
            model.config.batch_size = 64
            model.config.seed = 11
            return model.fit(tiny_table)

        arena_model = fit()
        with reference_path():
            plain_model = fit()

        assert arena_model.decoder.workspace is not None
        assert plain_model.decoder.workspace is None
        _assert_states_bitwise_equal(
            arena_model.decoder.state_dict(), plain_model.decoder.state_dict()
        )
        _assert_states_bitwise_equal(
            arena_model.encoder.state_dict(), plain_model.encoder.state_dict()
        )
        assert arena_model.loss_history == plain_model.loss_history

        sample_arena = arena_model.sample(64, rng=np.random.default_rng(6))
        sample_plain = plain_model.sample(64, rng=np.random.default_rng(6))
        assert sample_arena.to_records() == sample_plain.to_records()
