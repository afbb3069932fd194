"""Initializers and the ODE block."""

from __future__ import annotations

import numpy as np
import pytest

from repro.neural.initializers import glorot_uniform, he_normal, normal_init, zeros_init
from repro.neural.layers import Dense
from repro.neural.network import Sequential
from repro.neural.ode import ODEBlock
from repro.neural.optimizers import Adam
from repro.neural.losses import MeanSquaredError


class TestInitializers:
    def test_shapes(self, rng):
        assert glorot_uniform(3, 5, rng).shape == (3, 5)
        assert he_normal(3, 5, rng).shape == (3, 5)
        assert normal_init(3, 5, rng).shape == (3, 5)
        assert zeros_init((4,)).shape == (4,)

    def test_glorot_respects_limit(self, rng):
        w = glorot_uniform(10, 10, rng)
        limit = np.sqrt(6.0 / 20)
        assert np.all(np.abs(w) <= limit)

    def test_he_std_scales_with_fan_in(self, rng):
        wide = he_normal(1000, 50, rng).std()
        narrow = he_normal(10, 50, rng).std()
        assert wide < narrow

    def test_invalid_fan_rejected(self, rng):
        with pytest.raises(ValueError):
            glorot_uniform(0, 3, rng)

    def test_reproducible_with_same_seed(self):
        a = glorot_uniform(4, 4, np.random.default_rng(5))
        b = glorot_uniform(4, 4, np.random.default_rng(5))
        np.testing.assert_allclose(a, b)


class TestODEBlock:
    def test_output_shape_preserved(self, rng):
        block = ODEBlock(6, hidden_dim=8, num_steps=3, rng=rng)
        assert block.forward(rng.normal(size=(4, 6))).shape == (4, 6)

    def test_backward_shape(self, rng):
        block = ODEBlock(6, hidden_dim=8, num_steps=3, rng=rng)
        block.forward(rng.normal(size=(4, 6)))
        assert block.backward(np.ones((4, 6))).shape == (4, 6)

    def test_gradient_matches_numerical(self, rng):
        block = ODEBlock(3, hidden_dim=4, num_steps=2, rng=rng)
        x = rng.normal(size=(2, 3))
        grad_out = rng.normal(size=(2, 3))
        block.forward(x)
        grad_in = block.backward(grad_out)

        eps = 1e-6
        numeric = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                plus = x.copy()
                plus[i, j] += eps
                minus = x.copy()
                minus[i, j] -= eps
                numeric[i, j] = (
                    (block.forward(plus) * grad_out).sum()
                    - (block.forward(minus) * grad_out).sum()
                ) / (2 * eps)
        np.testing.assert_allclose(grad_in, numeric, atol=1e-4)

    def test_trainable_inside_sequential(self, rng):
        net = Sequential([Dense(2, 4, rng=rng), ODEBlock(4, 8, 2, rng=rng), Dense(4, 1, rng=rng)])
        net.consolidate()
        optimizer = Adam(net, lr=0.01)
        loss = MeanSquaredError()
        X = rng.normal(size=(64, 2))
        y = X[:, :1] * 0.5
        initial = loss.forward(net(X), y)
        for _ in range(150):
            loss.forward(net(X), y)
            net.zero_grad()
            net.backward(loss.backward())
            optimizer.step()
        assert loss.forward(net(X), y) < initial

    def test_invalid_steps_rejected(self, rng):
        with pytest.raises(ValueError):
            ODEBlock(4, num_steps=0, rng=rng)

    def test_wrong_width_rejected(self, rng):
        block = ODEBlock(4, rng=rng)
        with pytest.raises(ValueError):
            block.forward(rng.normal(size=(2, 5)))
