"""A share's memory beyond its output table is a few blocks, whatever its size.

``KiNETGAN.sample``, ``FederatedKiNETGAN.sample`` and ``sample_stream`` keep
a share's conditions as integer codes and decode every row block straight
into preallocated output columns, so no share holds a full-length condition,
winner or scalar matrix.  These tests trace each share's allocations
(``tracemalloc``) at two sizes and pin that:

* the peak minus the output table's own bytes stays below a few blocks'
  worth of working memory, and
* it grows by less than ``ROW_BYTES`` per extra row (the conditions' one
  integer per row); one full-length float64 matrix of any of the three
  would add at least ten times that.

A drained stream keeps no output, so its whole peak is held to the bound.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import KiNETGAN, KiNETGANConfig
from repro.core import trainer as trainer_module
from repro.core.trainer import SHARE_BLOCK_ROWS
from repro.engine import sampling_rng
from repro.federated.kinetgan import FederatedKiNETGAN
from repro.federated.partition import label_skew_partition
from repro.serve.service import sample_stream

SIZES = (20_000, 60_000)
#: Growth allowed per extra share row: the conditions' one int64 per row.
ROW_BYTES = 16
#: Working memory allowed beyond the output, in blocks of float64 rows as
#: wide as the generator's widest layer input (noise, conditions, hidden
#: and output activations of the blocks in flight and their temporaries).
BLOCKS = 12


def small_config() -> KiNETGANConfig:
    return KiNETGANConfig(
        embedding_dim=16,
        generator_dims=(32,),
        discriminator_dims=(32,),
        epochs=1,
        batch_size=64,
        knowledge_negatives_per_batch=16,
        max_modes=4,
        seed=3,
    )


def table_bytes(table) -> int:
    """Bytes of the arrays backing ``table``'s columns, each counted once."""
    bases = {}
    for name in table.schema.names:
        column = table.column(name)
        base = column.base if column.base is not None else column
        bases[id(base)] = base.nbytes
    return sum(bases.values())


def traced_peak(fn):
    """``fn()``'s result and the peak of the bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def block_bytes(model_trainer) -> int:
    generator = model_trainer.generator
    width = (
        generator.noise_dim
        + generator.condition_dim
        + sum(model_trainer.config.generator_dims)
        + model_trainer.transformer.output_dim
    )
    return SHARE_BLOCK_ROWS * width * 8


def assert_bounded(extras: dict[int, int], trainer) -> None:
    small, large = SIZES
    bound = BLOCKS * block_bytes(trainer)
    assert max(extras.values()) < bound, (extras, bound)
    assert extras[large] - extras[small] < ROW_BYTES * (large - small), extras


@pytest.fixture(scope="module")
def model(lab_bundle_small):
    fitted = KiNETGAN(small_config())
    fitted.fit(
        lab_bundle_small.table.head(400),
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
    )
    fitted.sample(SHARE_BLOCK_ROWS, rng=sampling_rng(0))  # build the lazy caches
    return fitted


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
    fed.sample(SHARE_BLOCK_ROWS, rng=sampling_rng(0))
    return fed


@pytest.fixture(params=(1, 2), ids=("inline", "fan-out"))
def threads(request, monkeypatch):
    """Pin the share's thread count, so the bound does not follow the host's CPUs."""
    monkeypatch.setattr(trainer_module, "_share_threads", lambda: request.param)
    return request.param


def test_sample_memory_is_output_plus_blocks(model, threads):
    extras = {}
    for n in SIZES:
        table, peak = traced_peak(lambda: model.sample(n, rng=sampling_rng(1)))
        assert table.n_rows == n
        extras[n] = peak - table_bytes(table)
    assert_bounded(extras, model.trainer)


def test_conditional_sample_memory_is_output_plus_blocks(model, threads):
    conditions = {"event_type": model.sampler.categories("event_type")[1]}
    extras = {}
    for n in SIZES:
        table, peak = traced_peak(
            lambda: model.sample(n, conditions=conditions, rng=sampling_rng(1))
        )
        extras[n] = peak - table_bytes(table)
    assert_bounded(extras, model.trainer)


def test_federated_sample_memory_is_output_plus_blocks(federation, threads):
    extras = {}
    for n in SIZES:
        table, peak = traced_peak(lambda: federation.sample(n, rng=sampling_rng(1)))
        assert table.n_rows == n
        extras[n] = peak - table_bytes(table)
    assert_bounded(extras, federation.sites[0].trainer)


def test_drained_stream_memory_is_bounded_by_the_chunk(model, threads):
    def drain(n):
        rows = 0
        for chunk in sample_stream(model, n, seed=1, chunk_rows=1024):
            rows += chunk.n_rows
        return rows

    extras = {}
    for n in SIZES:
        rows, peak = traced_peak(lambda: drain(n))
        assert rows == n
        extras[n] = peak
    assert_bounded(extras, model.trainer)
