"""The blocked share path is exactly invariant to its row-block size.

``KiNETGAN.sample`` and ``FederatedKiNETGAN.sample`` run the generator in
fixed-size row blocks and decode straight from each block's winners, taken
from the logits wherever a margin proves them equal to the soft output's
(``BlockLayout.softmax_argmax``).  These tests pin them column for column
(``np.array_equal``, not a tolerance) against an unblocked oracle assembled
from public pieces: ``sample_inputs`` (or the sampler plus one normal draw),
one generator forward over all rows, ``harden`` and ``inverse_transform``.
Row counts straddle the block size.

A share of several blocks overlaps its block forwards on the process's
share helper threads (``KiNETGANTrainer.iter_share_blocks``).  The fan-out
tests pin every consumer against the one-thread path bit for bit, with the
thread count forced through ``_share_threads``, and check that one-block
shares start no thread and that no block of an abandoned stream runs on.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.baselines.octgan import OCTGAN
from repro.core import KiNETGAN, KiNETGANConfig
from repro.core import trainer as trainer_module
from repro.core.trainer import SHARE_BLOCK_ROWS, SHARE_THREAD_PREFIX, share_blocks
from repro.engine import sampling_rng
from repro.federated.kinetgan import FederatedKiNETGAN
from repro.federated.partition import label_skew_partition
from repro.runtime.executor import ProcessExecutor, default_worker_count
from repro.serve.service import sample_stream

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
    # OCTGAN is knowledge-free and rejects a catalog.
    catalog = None if fitted.knowledge_free else bundle.catalog
    fitted.fit(
        bundle.table.head(400),
        catalog=catalog,
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


# ---------------------------------------------------------------------- #
# Fan-out: block forwards overlapped on helper threads.

FAN_OUT_ROWS = (2 * B, 2 * B + 37, 7 * B + 1)


@pytest.fixture
def started(monkeypatch):
    """Names of the share helper threads started during the test, which
    begins without a helper pool (the previous one winds down once dropped)."""
    monkeypatch.setattr(trainer_module, "_helpers", None)
    names: list[str] = []
    real_start = threading.Thread.start

    def start(thread):
        if thread.name.startswith(SHARE_THREAD_PREFIX):
            names.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return names


def with_threads(monkeypatch, threads, fn):
    monkeypatch.setattr(trainer_module, "_share_threads", lambda: threads)
    return fn()


def concat(tables):
    merged = tables[0]
    for table in tables[1:]:
        merged = merged.concat(table)
    return merged


@pytest.mark.parametrize("threads", (2, 3))
@pytest.mark.parametrize("n", FAN_OUT_ROWS)
def test_fan_out_sample_matches_one_thread(model, n, threads, monkeypatch, started):
    rng, expected_rng = sampling_rng(5), sampling_rng(5)
    expected = with_threads(monkeypatch, 1, lambda: model.sample(n, rng=expected_rng))
    assert started == []
    got = with_threads(monkeypatch, threads, lambda: model.sample(n, rng=rng))
    assert_tables_identical(expected, got)
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    assert 1 <= len(started) <= threads - 1


@pytest.mark.parametrize("n", FAN_OUT_ROWS)
def test_fan_out_federated_sample_matches_one_thread(federation, n, monkeypatch, started):
    expected = with_threads(monkeypatch, 1, lambda: federation.sample(n, rng=sampling_rng(4)))
    got = with_threads(monkeypatch, 2, lambda: federation.sample(n, rng=sampling_rng(4)))
    assert_tables_identical(expected, got)
    # The sites split the rows, so only the largest share fans out per site.
    assert bool(started) == (n == 7 * B + 1)


@pytest.mark.parametrize("n", FAN_OUT_ROWS)
def test_fan_out_stream_matches_one_thread(plain_model, n, monkeypatch, started):
    def stream():
        return list(sample_stream(plain_model, n, seed=6, chunk_rows=B + 188))

    expected = with_threads(monkeypatch, 1, stream)
    got = with_threads(monkeypatch, 2, stream)
    assert [chunk.n_rows for chunk in got] == [chunk.n_rows for chunk in expected]
    assert_tables_identical(concat(expected), concat(got))
    assert started


def test_thread_count_follows_cpu_affinity(plain_model, started):
    """Unpatched, a share uses one thread per CPU it may run on: under
    ``taskset -c 0`` even a seven-block share runs inline."""
    plain_model.sample(7 * B + 1, rng=sampling_rng(1))
    assert bool(started) == (default_worker_count() > 1)
    assert len(started) <= default_worker_count() - 1


def test_blocks_yielded_in_block_order(plain_model, monkeypatch):
    """Blocks come back in block order with their one-thread bits, even when
    later blocks finish first because the first forward is slowed."""
    trainer, n = plain_model.trainer, 7 * B + 1
    condition = trainer.sampler.empirical_conditions(n, sampling_rng(3))

    def blocks():
        return list(trainer.iter_share_blocks(condition, sampling_rng(4)))

    expected = with_threads(monkeypatch, 1, blocks)
    real_logits, calls = trainer.generator.logits, []

    def slow_first_call(noise, condition):
        calls.append(None)
        if len(calls) == 1:
            time.sleep(0.1)
        return real_logits(noise, condition)

    monkeypatch.setattr(trainer.generator, "logits", slow_first_call)
    got = with_threads(monkeypatch, 3, blocks)
    assert [(start, stop) for start, stop, _, _ in got] == share_blocks(n)
    for (_, _, winners, scalars), (_, _, got_winners, got_scalars) in zip(expected, got):
        assert np.array_equal(winners, got_winners)
        assert np.array_equal(scalars, got_scalars)


def test_one_block_share_starts_no_thread(plain_model, monkeypatch, started):
    # Serve requests are 64 rows; the validity probe draws 256.
    with_threads(monkeypatch, 4, lambda: plain_model.sample(64, rng=sampling_rng(1)))
    with_threads(monkeypatch, 4, lambda: plain_model.trainer.generate_matrix(256))
    assert started == []
    assert trainer_module._helpers is None


@pytest.mark.parametrize("abandon", ["close", "drop"])
def test_abandoned_stream_leaves_no_block_running(plain_model, monkeypatch, started, abandon):
    """Closing a stream early drops its unstarted blocks and waits for its
    running ones: no forward of it runs once the close returns."""
    generator = plain_model.trainer.generator
    real_logits, calls = generator.logits, []

    def slow_logits(noise, condition):
        time.sleep(0.01)
        calls.append(None)
        return real_logits(noise, condition)

    monkeypatch.setattr(generator, "logits", slow_logits)
    monkeypatch.setattr(trainer_module, "_share_threads", lambda: 3)
    n = 7 * B + 1
    stream = sample_stream(plain_model, n, seed=6, chunk_rows=B)
    next(stream)
    assert len(started) == 2
    if abandon == "close":
        stream.close()
    else:
        del stream
        gc.collect()
    ran = len(calls)
    time.sleep(0.1)
    assert len(calls) == ran < len(share_blocks(n))


def test_helper_error_raised_on_caller(plain_model, monkeypatch, started):
    generator = plain_model.trainer.generator
    real_logits = generator.logits
    calls = []

    def failing_logits(noise, condition):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("forward failed")
        return real_logits(noise, condition)

    monkeypatch.setattr(generator, "logits", failing_logits)
    monkeypatch.setattr(trainer_module, "_share_threads", lambda: 2)
    with pytest.raises(RuntimeError, match="forward failed"):
        plain_model.sample(7 * B + 1, rng=sampling_rng(1))
    assert started
    # The helpers survive a failed block and serve the next share.
    monkeypatch.setattr(generator, "logits", real_logits)
    expected = with_threads(monkeypatch, 1, lambda: plain_model.sample(3 * B, rng=sampling_rng(2)))
    got = with_threads(monkeypatch, 2, lambda: plain_model.sample(3 * B, rng=sampling_rng(2)))
    assert_tables_identical(expected, got)
    assert len(started) == 1


def test_concurrent_fan_out_shares_under_switch_pressure(plain_model, monkeypatch, started):
    """Two callers fan out on one model at once, with more threads than
    cores and a tiny switch interval; a lost or misplaced block would change
    a table.  The callers run on joined threads so the test cannot hang."""
    n = 7 * B + 1
    expected = [
        with_threads(monkeypatch, 1, lambda s=seed: plain_model.sample(n, rng=sampling_rng(s)))
        for seed in (2, 3)
    ]
    monkeypatch.setattr(trainer_module, "_share_threads", lambda: 3)
    got: dict[int, list] = {0: [], 1: []}

    def caller(slot, seed):
        for _ in range(3):
            got[slot].append(plain_model.sample(n, rng=sampling_rng(seed)))

    callers = [threading.Thread(target=caller, args=(i, seed)) for i, seed in enumerate((2, 3))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    for slot in (0, 1):
        assert len(got[slot]) == 3
        for table in got[slot]:
            assert_tables_identical(expected[slot], table)
    # Both callers' blocks went to one pool of ``threads - 1`` helpers.
    assert 1 <= len(started) <= 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_drops_the_parents_helpers(plain_model, monkeypatch, started):
    """A forked child has none of its parent's threads, so it must not
    inherit the parent's helper pool."""
    with_threads(monkeypatch, 2, lambda: plain_model.sample(2 * B, rng=sampling_rng(1)))
    assert trainer_module._helpers is not None
    pid = os.fork()
    if pid == 0:
        os._exit(0 if trainer_module._helpers is None else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def _worker_share_threads(_) -> int:
    return trainer_module._share_threads()


def test_process_pool_workers_run_shares_inline():
    """A process-pool worker's siblings hold the other CPUs, so its shares
    use one thread; the coordinating process keeps the affinity's count."""
    with ProcessExecutor(1) as executor:
        assert executor.map(_worker_share_threads, [None]) == [1]
    assert trainer_module._share_threads() == default_worker_count()
