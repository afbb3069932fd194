"""Tests for the client-level DP-FedAvg mechanism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated.dp import DPFedAvgConfig, DPFedAvgMechanism
from repro.federated.parameters import StateCodec

CODEC = StateCodec({"layers.0.weight": np.zeros((5, 4)), "layers.0.bias": np.zeros(4)})


def make_update(seed: int = 0, scale: float = 1.0) -> np.ndarray:
    """One flat client update in ``CODEC``'s layout."""
    return scale * np.random.default_rng(seed).normal(size=CODEC.dim)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = DPFedAvgConfig()
        assert config.clip_norm > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clip_norm": 0.0},
            {"clip_norm": -1.0},
            {"noise_multiplier": -0.1},
            {"delta": 0.0},
            {"delta": 1.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DPFedAvgConfig(**kwargs)


class TestMechanism:
    def test_clip_bounds_update_norm(self):
        mechanism = DPFedAvgMechanism(DPFedAvgConfig(clip_norm=1.0), rng=np.random.default_rng(0))
        rows = np.stack([make_update(seed, scale=10.0) for seed in range(3)])
        mechanism.clip_rows(rows, CODEC)
        assert all(np.linalg.norm(row) <= 1.0 + 1e-9 for row in rows)
        assert mechanism.clipped_fraction == 1.0

    def test_small_update_not_clipped(self):
        mechanism = DPFedAvgMechanism(DPFedAvgConfig(clip_norm=100.0), rng=np.random.default_rng(0))
        update = make_update(scale=0.01)
        rows = update[np.newaxis].copy()
        mechanism.clip_rows(rows, CODEC)
        np.testing.assert_array_equal(rows[0], update)
        assert mechanism.clipped_fraction == 0.0

    def test_noise_average_changes_values_when_enabled(self):
        mechanism = DPFedAvgMechanism(
            DPFedAvgConfig(clip_norm=1.0, noise_multiplier=1.0), rng=np.random.default_rng(0)
        )
        average = make_update(scale=0.1)
        noised = mechanism.noise_average(average, n_clients=4)
        assert not np.allclose(noised, average)

    def test_zero_noise_multiplier_is_identity_and_infinite_epsilon(self):
        mechanism = DPFedAvgMechanism(
            DPFedAvgConfig(clip_norm=1.0, noise_multiplier=0.0), rng=np.random.default_rng(0)
        )
        average = make_update(scale=0.1)
        noised = mechanism.noise_average(average, n_clients=4)
        np.testing.assert_array_equal(noised, average)
        assert mechanism.epsilon() == float("inf")

    def test_noise_scales_inversely_with_cohort_size(self):
        config = DPFedAvgConfig(clip_norm=1.0, noise_multiplier=1.0)
        zeros = np.zeros(20_000)
        small_cohort = DPFedAvgMechanism(config, rng=np.random.default_rng(1)).noise_average(
            zeros, n_clients=2
        )
        large_cohort = DPFedAvgMechanism(config, rng=np.random.default_rng(1)).noise_average(
            zeros, n_clients=200
        )
        assert np.std(small_cohort) > 10 * np.std(large_cohort)

    def test_epsilon_grows_with_rounds(self):
        mechanism = DPFedAvgMechanism(
            DPFedAvgConfig(clip_norm=1.0, noise_multiplier=1.2, delta=1e-5),
            rng=np.random.default_rng(0),
        )
        epsilons = []
        for _ in range(3):
            mechanism.record_round(sample_rate=0.5)
            epsilons.append(mechanism.epsilon())
        assert epsilons[0] < epsilons[1] < epsilons[2]

    def test_invalid_cohort_size_rejected(self):
        mechanism = DPFedAvgMechanism(DPFedAvgConfig(), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            mechanism.noise_average(make_update(), n_clients=0)
