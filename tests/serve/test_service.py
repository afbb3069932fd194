"""In-process serving: ``ServingPool`` requests and ``sample_stream`` chunks.

The determinism contract under test: a request's rows depend only on
(artifact, n, conditions, seed) -- never on the chunk size or on the path
(pool or stream) that served it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import TVAE, IndependentSampler
from repro.core import KiNETGAN, KiNETGANConfig
from repro.core.trainer import SHARE_BLOCK_ROWS, share_blocks
from repro.engine import sampling_rng
from repro.serve import ServingPool, load_model, sample_stream, save_model


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
    """Three saved artifacts (a conditional GAN, a TVAE and a configless
    IndependentSampler) plus the originals."""
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


NAMES = ("kinetgan", "tvae", "independent")


@pytest.fixture(scope="module")
def pool(artifacts):
    """A serial pool over every artifact, addressed by model name."""
    with ServingPool({name: artifacts[f"{name}_dir"] for name in NAMES}) as pool:
        yield pool


@pytest.fixture(scope="module")
def loaded(artifacts):
    """Each artifact reloaded, as ``repro sample`` streams it."""
    return {name: load_model(artifacts[f"{name}_dir"]) for name in NAMES}


def serve_one(pool, artifact, n, conditions=None, seed=None):
    (result,) = pool.sample_batch([(artifact, n, conditions, seed)])
    assert result.failure is None, result.failure
    return result.value


def assert_tables_identical(a, b) -> None:
    assert a.schema.names == b.schema.names
    assert a.n_rows == b.n_rows
    for name in a.schema.names:
        assert np.array_equal(a.column(name), b.column(name)), name


class TestSingleRequests:
    def test_sample_matches_model_sample(self, artifacts, pool):
        served = serve_one(pool, "kinetgan", 128, seed=21)
        expected = artifacts["kinetgan"].sample(128, rng=sampling_rng(21))
        assert_tables_identical(expected, served)

    def test_non_gan_models_served_per_request(self, artifacts, pool):
        served = serve_one(pool, "tvae", 90, seed=4)
        expected = artifacts["tvae"].sample(90, rng=sampling_rng(4))
        assert_tables_identical(expected, served)

    def test_default_seed_for_configless_model(self, artifacts, pool, loaded):
        """Models without a config (IndependentSampler) fall back to their
        own seed when the request carries none, matching model.sample()."""
        served = serve_one(pool, "independent", 60)
        assert_tables_identical(artifacts["independent"].sample(60), served)
        streamed = list(sample_stream(loaded["independent"], 60, chunk_rows=25))
        merged = streamed[0].concat(streamed[1]).concat(streamed[2])
        assert_tables_identical(artifacts["independent"].sample(60), merged)


class TestStreaming:
    def test_chunks_concatenate_to_one_shot_sample(self, artifacts, loaded):
        chunks = list(sample_stream(loaded["kinetgan"], 300, seed=11, chunk_rows=64))
        assert [c.n_rows for c in chunks] == [64, 64, 64, 64, 44]
        merged = chunks[0]
        for chunk in chunks[1:]:
            merged = merged.concat(chunk)
        expected = artifacts["kinetgan"].sample(300, rng=sampling_rng(11))
        assert_tables_identical(expected, merged)

    def test_stream_for_non_gan_model(self, artifacts, loaded):
        chunks = list(sample_stream(loaded["tvae"], 80, seed=6, chunk_rows=32))
        merged = chunks[0].concat(chunks[1]).concat(chunks[2])
        assert_tables_identical(artifacts["tvae"].sample(80, rng=sampling_rng(6)), merged)


class TestBlockedShare:
    """Streamed requests cross share blocks like ``model.sample``."""

    @pytest.mark.parametrize(
        "chunk_rows", [1, 300, SHARE_BLOCK_ROWS + 188, 2 * SHARE_BLOCK_ROWS + 37, 4096]
    )
    def test_stream_chunks_not_aligned_to_blocks(self, artifacts, loaded, monkeypatch, chunk_rows):
        n = 2 * SHARE_BLOCK_ROWS + 37
        generator = loaded["kinetgan"].trainer.generator
        forwards = []
        real_logits = generator.logits

        def counted_logits(noise, condition):
            forwards.append(len(noise))
            return real_logits(noise, condition)

        monkeypatch.setattr(generator, "logits", counted_logits)
        chunks = list(sample_stream(loaded["kinetgan"], n, seed=12, chunk_rows=chunk_rows))
        sizes = [min(chunk_rows, n - start) for start in range(0, n, chunk_rows)]
        assert [chunk.n_rows for chunk in chunks] == sizes
        merged = chunks[0]
        for chunk in chunks[1:]:
            merged = merged.concat(chunk)
        assert_tables_identical(artifacts["kinetgan"].sample(n, rng=sampling_rng(12)), merged)
        # Block forwards may run on helper threads, so they start in any order.
        assert sorted(forwards) == sorted(stop - start for start, stop in share_blocks(n))

    def test_chunk_spanning_several_blocks(self, artifacts, loaded):
        n, chunk_rows = 5 * SHARE_BLOCK_ROWS + 3, 3 * SHARE_BLOCK_ROWS + 7
        chunks = list(sample_stream(loaded["kinetgan"], n, seed=13, chunk_rows=chunk_rows))
        assert [chunk.n_rows for chunk in chunks] == [chunk_rows, n - chunk_rows]
        merged = chunks[0].concat(chunks[1])
        assert_tables_identical(artifacts["kinetgan"].sample(n, rng=sampling_rng(13)), merged)


class TestLoadModelRoundTripThroughService:
    def test_loaded_model_serves_like_original(self, artifacts):
        loaded = load_model(artifacts["kinetgan_dir"])
        assert_tables_identical(
            artifacts["kinetgan"].sample(60, rng=sampling_rng(31)),
            loaded.sample(60, rng=sampling_rng(31)),
        )
