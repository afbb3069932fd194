"""The blocked share path is exactly invariant to its row-block size.

``KiNETGAN.sample`` and ``FederatedKiNETGAN.sample`` run the generator in
fixed-size row blocks and decode straight from each block's winners, taken
from the logits wherever a margin proves them equal to the soft output's
(``BlockLayout.softmax_argmax``).  These tests pin them column for column
(``np.array_equal``, not a tolerance) against an unblocked oracle assembled
from public pieces: ``sample_inputs`` (or the sampler plus one normal draw),
one generator forward over all rows, ``harden`` and ``inverse_transform``.
Row counts straddle the block size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.octgan import OCTGAN
from repro.core import KiNETGAN, KiNETGANConfig
from repro.core.trainer import SHARE_BLOCK_ROWS
from repro.engine import sampling_rng
from repro.federated.kinetgan import FederatedKiNETGAN
from repro.federated.partition import label_skew_partition

B = SHARE_BLOCK_ROWS
ROW_COUNTS = (1, B - 1, B, B + 1, 2 * B + 37)


def small_config(**overrides) -> KiNETGANConfig:
    base = dict(
        embedding_dim=16,
        generator_dims=(32,),
        discriminator_dims=(32,),
        epochs=1,
        batch_size=64,
        knowledge_negatives_per_batch=16,
        max_modes=4,
        seed=3,
    )
    base.update(overrides)
    return KiNETGANConfig(**base)


def assert_tables_identical(a, b) -> None:
    assert a.schema.names == b.schema.names
    assert a.n_rows == b.n_rows
    for name in a.schema.names:
        assert np.array_equal(a.column(name), b.column(name)), name


def unblocked_rows(trainer, noise, condition):
    """One generator forward over every row, hardened, as the decoder sees it."""
    raw = trainer.generator.forward(noise, condition, training=False)
    return trainer.transformer.harden(raw)


def oracle(model, n, conditions, rng):
    noise, condition = model.sample_inputs(n, conditions, rng)
    return model.transformer.inverse_transform(unblocked_rows(model.trainer, noise, condition))


VARIANTS = {
    "float64": (KiNETGAN, {}),
    "float32": (KiNETGAN, {"dtype": "float32"}),
    "minmax": (KiNETGAN, {"continuous_encoding": "minmax"}),
    # OCTGAN rebuilds the generator's network around an ODE block.
    "octgan": (OCTGAN, {}),
}


def fit_model(bundle, cls=KiNETGAN, **overrides) -> KiNETGAN:
    fitted = cls(small_config(**overrides))
    fitted.fit(
        bundle.table.head(400),
        catalog=bundle.catalog,
        condition_columns=bundle.condition_columns,
    )
    return fitted


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def model(request, lab_bundle_small):
    cls, overrides = VARIANTS[request.param]
    return fit_model(lab_bundle_small, cls, **overrides)


@pytest.fixture(scope="module")
def plain_model(lab_bundle_small):
    return fit_model(lab_bundle_small)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_sample_matches_unblocked_oracle(model, n):
    rng, expected_rng = sampling_rng(5), sampling_rng(5)
    assert_tables_identical(oracle(model, n, None, expected_rng), model.sample(n, rng=rng))
    # Per-block noise draws consume the caller's stream exactly like one draw.
    assert rng.bit_generator.state == expected_rng.bit_generator.state


@pytest.mark.parametrize("n", (1, B + 1, 2 * B + 37))
def test_conditional_sample_matches_unblocked_oracle(model, n):
    event = model.sampler.categories("event_type")[1]
    conditions = {"event_type": event}
    expected = oracle(model, n, conditions, sampling_rng(8))
    assert_tables_identical(expected, model.sample(n, conditions=conditions, rng=sampling_rng(8)))


def test_generator_activation_is_the_live_output_layer(model):
    """The share step reads its softmax temperature from this layer."""
    generator = model.trainer.generator
    assert generator.activation is generator.network.layers[-1]


@pytest.mark.parametrize("n", (B - 1, 2 * B + 37))
def test_generate_matrix_matches_hardened_forward(model, n):
    """The validity probe's hardened matrix, rebuilt from block winners."""
    trainer = model.trainer
    condition = trainer.sampler.empirical_conditions(n, sampling_rng(9))
    noise = sampling_rng(2).normal(size=(n, trainer.config.embedding_dim))
    got = trainer.generate_matrix(n, conditions=condition, rng=sampling_rng(2))
    assert got.dtype == np.float64
    assert np.array_equal(unblocked_rows(trainer, noise, condition), got)


@pytest.fixture(scope="module")
def federation(lab_bundle_small):
    table = lab_bundle_small.table.head(400)
    parts = label_skew_partition(
        table, "label", 2, np.random.default_rng(0), skew=0.5, min_rows=20
    )
    fed = FederatedKiNETGAN(
        reference_table=table.head(200),
        config=small_config(),
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
        seed=0,
    )
    for i, part in enumerate(parts):
        fed.add_site(f"site-{i}", part)
    fed.run(num_rounds=1)
    return fed


def federated_oracle(fed, n, rng):
    """The pooled share, site by site, each through one unblocked forward."""
    generator_state, discriminator_state = fed.global_states()
    total = sum(site.n_records for site in fed.sites)
    pooled, remaining = None, n
    for i, site in enumerate(fed.sites):
        share = remaining
        if i < len(fed.sites) - 1:
            share = min(int(round(n * site.n_records / total)), remaining)
        if share <= 0:
            continue
        site.set_state(generator_state, discriminator_state)
        condition = site.sampler.empirical_conditions(share, rng)
        noise = rng.normal(size=(share, site.trainer.config.embedding_dim))
        local = site.transformer.inverse_transform(unblocked_rows(site.trainer, noise, condition))
        pooled = local if pooled is None else pooled.concat(local)
        remaining -= share
    return pooled


@pytest.mark.parametrize("n", (B - 1, 2 * B + 37))
def test_federated_sample_matches_per_site_oracle(federation, n):
    expected = federated_oracle(federation, n, sampling_rng(4))
    assert_tables_identical(expected, federation.sample(n, rng=sampling_rng(4)))


@pytest.mark.parametrize("bad", [3.0, True, False, "3", np.float64(2.0), None])
@pytest.mark.parametrize("sampler", ["kinetgan", "federated"])
def test_non_integer_row_counts_rejected_before_drawing(sampler, bad, plain_model, federation):
    target = federation if sampler == "federated" else plain_model
    rng = sampling_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(TypeError, match="integer"):
        target.sample(bad, rng=rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("sampler", ["kinetgan", "federated"])
def test_numpy_integer_row_counts_accepted(sampler, plain_model, federation):
    target = federation if sampler == "federated" else plain_model
    assert target.sample(np.int64(7), rng=sampling_rng(1)).n_rows == 7
