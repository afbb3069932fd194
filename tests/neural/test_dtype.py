"""The neural tier's dtype contract (``docs/precision.md``).

Float64 is the default and must stay bit-for-bit what it always was; a
float32 network keeps *everything* -- parameters, grads, optimizer
moments, workspace buffers, layer caches -- in float32, initialises as
the float64 draw rounded exactly once, and trains deterministically
under a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.neural.layers import BatchNorm, Dense, Dropout, LeakyReLU, ReLU
from repro.neural.losses import BinaryCrossEntropy, CrossEntropy
from repro.neural.network import Sequential
from repro.neural.optimizers import Adam


def _make_network(seed: int, dtype) -> Sequential:
    rng = np.random.default_rng(seed)
    network = Sequential(
        [
            Dense(6, 8, rng=rng, init="he", dtype=dtype),
            BatchNorm(8, dtype=dtype),
            LeakyReLU(0.2),
            Dropout(0.25, rng=np.random.default_rng(seed + 1)),
            Dense(8, 1, rng=rng, init="glorot", dtype=dtype),
        ]
    )
    network.consolidate()
    return network


def _train(network: Sequential, seed: int, steps: int = 5, step=Adam.step) -> np.ndarray:
    dtype = network.dtype
    data_rng = np.random.default_rng(seed + 100)
    optimizer = Adam(network, lr=0.01)
    loss = BinaryCrossEntropy()
    for _ in range(steps):
        x = data_rng.normal(size=(32, 6)).astype(dtype)
        y = (data_rng.random(size=(32, 1)) > 0.5).astype(dtype)
        out = network.forward(x, training=True)
        loss.forward(out, y)
        network.zero_grad()
        network.backward(loss.backward())
        step(optimizer)
    return np.concatenate([p.ravel().copy() for p, _ in network.parameters()])


class TestDtypePlumbing:
    def test_default_is_float64(self):
        network = _make_network(0, np.float64)
        assert np.dtype(network.dtype) == np.float64
        for param, grad in network.parameters():
            assert param.dtype == np.float64
            assert grad.dtype == np.float64

    def test_float32_network_holds_float32_everywhere(self):
        network = _make_network(0, np.float32)
        assert np.dtype(network.dtype) == np.float32
        for param, grad in network.parameters():
            assert param.dtype == np.float32
            assert grad.dtype == np.float32
        x = np.random.default_rng(1).normal(size=(16, 6)).astype(np.float32)
        out = network.forward(x, training=True)
        assert out.dtype == np.float32
        network.zero_grad()
        grad_in = network.backward(np.ones_like(out) / 16)
        assert grad_in.dtype == np.float32

    def test_state_dict_carries_dtype(self):
        state = _make_network(0, np.float32).state_dict()
        assert {value.dtype for value in state.values()} == {np.dtype(np.float32)}

    def test_initialisation_is_float64_rounded_once(self):
        f64 = _make_network(0, np.float64)
        f32 = _make_network(0, np.float32)
        for (p64, _), (p32, _) in zip(f64.parameters(), f32.parameters()):
            assert np.array_equal(p64.astype(np.float32), p32)

    def test_adam_moments_match_parameter_dtype(self):
        network = _make_network(0, np.float32)
        optimizer = Adam(network, lr=0.01)
        x = np.random.default_rng(2).normal(size=(8, 6)).astype(np.float32)
        network.forward(x, training=True)
        network.zero_grad()
        network.backward(np.ones((8, 1), dtype=np.float32) / 8)
        optimizer.step()
        for param, _ in network.parameters():
            assert param.dtype == np.float32


class TestDtypeDeterminism:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_seeded_training_is_bit_identical(self, dtype):
        first = _train(_make_network(3, dtype), seed=3)
        second = _train(_make_network(3, dtype), seed=3)
        assert first.dtype == np.dtype(dtype)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_consolidated_matches_unconsolidated(self, dtype, per_tensor_step):
        """The fused step over the arena with a bound workspace matches the
        per-tensor reference step with the allocating passes, per dtype."""
        arena = _train(_make_network(4, dtype), seed=4)
        loose_network = _make_network(4, dtype)
        loose_network.unbind_workspace()
        loose = _train(loose_network, seed=4, step=per_tensor_step)
        assert np.array_equal(arena, loose)

    def test_float32_stays_close_to_float64(self):
        """Not bit-identical across dtypes -- but the same trajectory.

        Measured on a dropout-free stack: Dropout's per-dtype uniform
        stream draws *different masks* (documented in docs/precision.md),
        which legitimately forks the trajectory, whereas here the only
        divergence left is float32 rounding.
        """

        def stochastic_free(seed: int, dtype) -> Sequential:
            rng = np.random.default_rng(seed)
            network = Sequential(
                [
                    Dense(6, 8, rng=rng, init="he", dtype=dtype),
                    LeakyReLU(0.2),
                    Dense(8, 1, rng=rng, init="glorot", dtype=dtype),
                ]
            )
            network.consolidate()
            return network

        f64 = _train(stochastic_free(5, np.float64), seed=5)
        f32 = _train(stochastic_free(5, np.float32), seed=5)
        assert not np.array_equal(f64.astype(np.float32), f32)  # rounding differs
        np.testing.assert_allclose(f64, f32, rtol=2e-2, atol=2e-2)


class TestLossDtype:
    def test_cross_entropy_grad_matches_logits_dtype(self):
        loss = CrossEntropy()
        logits = np.random.default_rng(0).normal(size=(8, 3)).astype(np.float32)
        loss.forward(logits, np.arange(8) % 3)
        assert loss.backward().dtype == np.float32

    def test_cross_entropy_float64_unchanged(self):
        loss = CrossEntropy()
        logits = np.random.default_rng(0).normal(size=(8, 3))
        loss.forward(logits, np.arange(8) % 3)
        assert loss.backward().dtype == np.float64

    def test_bce_grad_matches_prediction_dtype(self):
        loss = BinaryCrossEntropy()
        scores = np.random.default_rng(0).normal(size=(8, 1)).astype(np.float32)
        loss.forward(scores, np.ones((8, 1), dtype=np.float32))
        assert loss.backward().dtype == np.float32


class TestMixedInputs:
    def test_bare_sequential_rejects_mismatched_input(self):
        """Only model wrappers cast at the boundary; the bare engine does
        not silently convert (a silent upcast would hide the perf bug)."""
        network = Sequential(
            [Dense(4, 4, rng=np.random.default_rng(0), dtype=np.float32), ReLU()]
        )
        network.consolidate()
        x64 = np.random.default_rng(1).normal(size=(4, 4))
        with pytest.raises((TypeError, ValueError)):
            network.forward(x64, training=True)
