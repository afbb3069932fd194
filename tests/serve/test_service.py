"""The batched sampling service: registry, micro-batching, streaming.

The determinism contract under test: a request's rows depend only on
(artifact, n, conditions, seed) -- never on which requests it was batched
with, the chunk size, or whether it went through the queue.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.baselines import TVAE, IndependentSampler
from repro.core import KiNETGAN, KiNETGANConfig
from repro.core.trainer import SHARE_BLOCK_ROWS, share_blocks
from repro.engine import sampling_rng
from repro.runtime import SerialExecutor
from repro.serve import ModelRegistry, SampleRequest, SamplingService, load_model, save_model


def small_config(seed: int = 0) -> KiNETGANConfig:
    return KiNETGANConfig(
        embedding_dim=16,
        generator_dims=(32,),
        discriminator_dims=(32,),
        epochs=2,
        batch_size=64,
        knowledge_negatives_per_batch=16,
        max_modes=4,
        seed=seed,
    )


@pytest.fixture(scope="module")
def artifacts(lab_bundle_small, tmp_path_factory):
    """Two saved artifacts (a conditional GAN and a TVAE) plus the originals."""
    train = lab_bundle_small.table.head(400)
    kinetgan = KiNETGAN(small_config())
    kinetgan.fit(
        train,
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
    )
    tvae = TVAE(small_config(), latent_dim=8).fit(train)
    independent = IndependentSampler(seed=7).fit(train)
    root = tmp_path_factory.mktemp("service_artifacts")
    save_model(kinetgan, root / "kinetgan")
    save_model(tvae, root / "tvae")
    save_model(independent, root / "independent")
    return {
        "kinetgan_dir": root / "kinetgan",
        "tvae_dir": root / "tvae",
        "independent_dir": root / "independent",
        "kinetgan": kinetgan,
        "tvae": tvae,
        "independent": independent,
    }


def assert_tables_identical(a, b) -> None:
    assert a.schema.names == b.schema.names
    assert a.n_rows == b.n_rows
    for name in a.schema.names:
        assert np.array_equal(a.column(name), b.column(name)), name


class TestSingleRequests:
    def test_sample_matches_model_sample(self, artifacts):
        service = SamplingService()
        served = service.sample(artifacts["kinetgan_dir"], 128, seed=21)
        expected = artifacts["kinetgan"].sample(128, rng=sampling_rng(21))
        assert_tables_identical(expected, served)

    def test_non_gan_models_served_per_request(self, artifacts):
        service = SamplingService()
        served = service.sample(artifacts["tvae_dir"], 90, seed=4)
        expected = artifacts["tvae"].sample(90, rng=sampling_rng(4))
        assert_tables_identical(expected, served)

    def test_invalid_request_rejected(self):
        with pytest.raises(ValueError):
            SampleRequest(artifact="x", n=0)

    def test_default_seed_for_configless_model(self, artifacts):
        """Models without a config (IndependentSampler) fall back to their
        own seed when the request carries none, matching model.sample()."""
        service = SamplingService()
        served = service.sample(artifacts["independent_dir"], 60)
        assert_tables_identical(artifacts["independent"].sample(60), served)
        streamed = list(service.sample_stream(artifacts["independent_dir"], 60, chunk_rows=25))
        merged = streamed[0].concat(streamed[1]).concat(streamed[2])
        assert_tables_identical(artifacts["independent"].sample(60), merged)


class TestMicroBatching:
    def test_batched_requests_match_individual_sampling(self, artifacts):
        """Batching with other requests never changes a request's rows."""
        service = SamplingService()
        conditions = {
            "event_type": artifacts["kinetgan"].sampler.categories("event_type")[0]
        }
        requests = [
            SampleRequest(str(artifacts["kinetgan_dir"]), n=70, seed=1),
            SampleRequest(str(artifacts["tvae_dir"]), n=40, seed=2),
            SampleRequest(str(artifacts["kinetgan_dir"]), n=55, seed=3, conditions=conditions),
            SampleRequest(str(artifacts["kinetgan_dir"]), n=101, seed=1),
        ]
        tables = service.sample_many(requests)
        assert [t.n_rows for t in tables] == [70, 40, 55, 101]
        model, tvae = artifacts["kinetgan"], artifacts["tvae"]
        assert_tables_identical(model.sample(70, rng=sampling_rng(1)), tables[0])
        assert_tables_identical(tvae.sample(40, rng=sampling_rng(2)), tables[1])
        assert_tables_identical(
            model.sample(55, conditions=conditions, rng=sampling_rng(3)), tables[2]
        )
        assert_tables_identical(model.sample(101, rng=sampling_rng(1)), tables[3])

    def test_same_artifact_requests_share_generator_passes(self, artifacts):
        service = SamplingService()
        requests = [
            SampleRequest(str(artifacts["kinetgan_dir"]), n=50, seed=i) for i in range(6)
        ]
        service.sample_many(requests)
        assert service.stats.requests == 6
        assert service.stats.generator_passes == 1

    def test_empty_burst(self):
        assert SamplingService().sample_many([]) == []


class TestStreaming:
    def test_chunks_concatenate_to_one_shot_sample(self, artifacts):
        service = SamplingService(chunk_rows=64)
        chunks = list(service.sample_stream(artifacts["kinetgan_dir"], 300, seed=11))
        assert [c.n_rows for c in chunks] == [64, 64, 64, 64, 44]
        merged = chunks[0]
        for chunk in chunks[1:]:
            merged = merged.concat(chunk)
        expected = artifacts["kinetgan"].sample(300, rng=sampling_rng(11))
        assert_tables_identical(expected, merged)

    def test_stream_for_non_gan_model(self, artifacts):
        service = SamplingService(chunk_rows=32)
        chunks = list(service.sample_stream(artifacts["tvae_dir"], 80, seed=6))
        merged = chunks[0].concat(chunks[1]).concat(chunks[2])
        assert_tables_identical(artifacts["tvae"].sample(80, rng=sampling_rng(6)), merged)


class TestBlockedShare:
    """Stacked and streamed requests cross share blocks like ``model.sample``."""

    def test_stacked_requests_straddling_blocks(self, artifacts):
        service = SamplingService()
        sizes = (SHARE_BLOCK_ROWS - 1, 300, SHARE_BLOCK_ROWS + 37)
        requests = [
            SampleRequest(str(artifacts["kinetgan_dir"]), n=n, seed=30 + i)
            for i, n in enumerate(sizes)
        ]
        tables = service.sample_many(requests)
        model = artifacts["kinetgan"]
        for i, (n, table) in enumerate(zip(sizes, tables)):
            assert_tables_identical(model.sample(n, rng=sampling_rng(30 + i)), table)
        assert service.stats.generator_passes == len(share_blocks(sum(sizes)))

    @pytest.mark.parametrize("chunk_rows", [1, 300, SHARE_BLOCK_ROWS + 188])
    def test_stream_chunks_not_aligned_to_blocks(self, artifacts, chunk_rows):
        n = 2 * SHARE_BLOCK_ROWS + 37
        service = SamplingService()
        chunks = list(
            service.sample_stream(artifacts["kinetgan_dir"], n, seed=12, chunk_rows=chunk_rows)
        )
        sizes = [min(chunk_rows, n - start) for start in range(0, n, chunk_rows)]
        assert [chunk.n_rows for chunk in chunks] == sizes
        merged = chunks[0]
        for chunk in chunks[1:]:
            merged = merged.concat(chunk)
        assert_tables_identical(artifacts["kinetgan"].sample(n, rng=sampling_rng(12)), merged)
        assert service.stats.generator_passes == len(share_blocks(n))


class TestRegistry:
    def test_lru_eviction_at_capacity(self, artifacts):
        registry = ModelRegistry(capacity=1)
        registry.get(artifacts["kinetgan_dir"])
        registry.get(artifacts["tvae_dir"])
        assert len(registry) == 1
        assert registry.evictions == 1
        # The evicted model reloads transparently and still serves correctly.
        service = SamplingService(registry=registry)
        served = service.sample(artifacts["kinetgan_dir"], 30, seed=8)
        assert_tables_identical(
            artifacts["kinetgan"].sample(30, rng=sampling_rng(8)), served
        )
        assert registry.misses == 3

    def test_hits_do_not_reload(self, artifacts):
        registry = ModelRegistry(capacity=2)
        first = registry.get(artifacts["kinetgan_dir"])
        second = registry.get(artifacts["kinetgan_dir"])
        assert first is second
        assert (registry.hits, registry.misses) == (1, 1)

    def test_preload_fans_out_over_executor(self, artifacts):
        registry = ModelRegistry(capacity=4)
        executor = SerialExecutor()
        registry.preload(
            [artifacts["kinetgan_dir"], artifacts["tvae_dir"]], executor=executor
        )
        assert len(registry) == 2
        assert registry.misses == 0  # preloaded, not lazily loaded

    def test_preload_accepts_worker_specs(self, artifacts):
        registry = ModelRegistry(capacity=4)
        registry.preload([artifacts["kinetgan_dir"]], executor="serial")
        assert len(registry) == 1

    def test_preload_uses_the_injected_loader(self, artifacts):
        loads: list[str] = []

        def spy_loader(key: str):
            loads.append(key)
            return load_model(key)

        registry = ModelRegistry(capacity=4, loader=spy_loader)
        registry.preload([artifacts["tvae_dir"]])
        registry.get(artifacts["kinetgan_dir"])
        assert len(loads) == 2


class TestConcurrentFrontend:
    def test_submitted_futures_resolve_with_parity(self, artifacts):
        with SamplingService() as service:
            futures = [
                service.submit(SampleRequest(str(artifacts["kinetgan_dir"]), n=40, seed=s))
                for s in range(5)
            ]
            tables = [future.result(timeout=60) for future in futures]
        for seed, table in enumerate(tables):
            assert_tables_identical(
                artifacts["kinetgan"].sample(40, rng=sampling_rng(seed)), table
            )

    def test_cancelled_future_does_not_kill_the_batcher(self, artifacts):
        """A future cancelled while queued is dropped; later requests and
        co-batched futures still resolve (regression: set_result on a
        cancelled future used to raise and kill the batcher thread)."""
        service = SamplingService()
        cancelled = Future()
        kept: "Future" = Future()
        request = SampleRequest(str(artifacts["tvae_dir"]), n=10, seed=0)
        cancelled.cancel()
        now = time.monotonic()
        service._serve_batch([(request, cancelled, now), (request, kept, now)])
        assert kept.result(timeout=60).n_rows == 10
        with service:
            follow_up = service.submit(SampleRequest(str(artifacts["tvae_dir"]), n=5, seed=1))
            assert follow_up.result(timeout=60).n_rows == 5

    def test_poisoned_request_fails_only_its_own_future(self, artifacts):
        """Regression: one bad request in a batch used to fail every
        co-batched future with its exception (and a batcher-thread death
        would hang all later submissions).  The poisoned future must carry
        the error alone; co-batched and follow-up requests are served."""
        with SamplingService() as service:
            poisoned = Future()
            good = Future()
            now = time.monotonic()
            service._serve_batch(
                [
                    (SampleRequest("missing/artifact", n=5, seed=0), poisoned, now),
                    (SampleRequest(str(artifacts["tvae_dir"]), n=10, seed=0), good, now),
                ]
            )
            assert isinstance(poisoned.exception(timeout=60), Exception)
            assert good.result(timeout=60).n_rows == 10
            # The batcher thread is still alive: a poisoned submission
            # followed by a good one resolves both appropriately.
            bad_future = service.submit(SampleRequest("missing/artifact", n=5, seed=0))
            good_future = service.submit(
                SampleRequest(str(artifacts["tvae_dir"]), n=7, seed=1)
            )
            assert isinstance(bad_future.exception(timeout=60), Exception)
            assert good_future.result(timeout=60).n_rows == 7

    def test_request_timeout_fails_only_the_stale_request(self, artifacts):
        """A request that overran ``request_timeout`` in the queue fails
        with TimeoutError on its own future; fresh requests are served."""
        service = SamplingService(request_timeout=0.05)
        stale = Future()
        fresh = Future()
        request = SampleRequest(str(artifacts["tvae_dir"]), n=10, seed=0)
        now = time.monotonic()
        service._serve_batch([(request, stale, now - 1.0), (request, fresh, now)])
        assert isinstance(stale.exception(timeout=60), TimeoutError)
        assert fresh.result(timeout=60).n_rows == 10

    def test_close_is_idempotent_and_restartable(self, artifacts):
        service = SamplingService()
        future = service.submit(SampleRequest(str(artifacts["tvae_dir"]), n=10, seed=0))
        future.result(timeout=60)
        service.close()
        service.close()
        # Submitting after close restarts the batcher.
        again = service.submit(SampleRequest(str(artifacts["tvae_dir"]), n=10, seed=0))
        assert again.result(timeout=60).n_rows == 10
        service.close()


class TestLoadModelRoundTripThroughService:
    def test_loaded_model_serves_like_original(self, artifacts):
        loaded = load_model(artifacts["kinetgan_dir"])
        assert_tables_identical(
            artifacts["kinetgan"].sample(60, rng=sampling_rng(31)),
            loaded.sample(60, rng=sampling_rng(31)),
        )
