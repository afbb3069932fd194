"""Sequential container tests: training, serialisation, parameter plumbing."""

from __future__ import annotations

import numpy as np

from repro.neural.layers import Dense, ReLU, Tanh
from repro.neural.losses import BinaryCrossEntropy, MeanSquaredError
from repro.neural.network import Sequential
from repro.neural.optimizers import Adam


def _make_network(rng, widths=(8,)):
    layers = []
    in_dim = 2
    for width in widths:
        layers.append(Dense(in_dim, width, rng=rng))
        layers.append(ReLU())
        in_dim = width
    layers.append(Dense(in_dim, 1, rng=rng))
    network = Sequential(layers)
    network.consolidate()
    return network


def test_forward_shape(rng):
    net = _make_network(rng)
    assert net(rng.normal(size=(5, 2))).shape == (5, 1)


def test_parameters_are_live_references(rng):
    net = _make_network(rng)
    params = net.parameters()
    params[0][0][...] = 7.0
    assert np.all(net.layers[0].weight == 7.0)


def test_num_parameters_counts_all(rng):
    net = Sequential([Dense(3, 4, rng=rng), Dense(4, 2, rng=rng)])
    assert net.num_parameters() == (3 * 4 + 4) + (4 * 2 + 2)


def test_training_learns_xor_like_function(rng):
    net = Sequential([Dense(2, 16, rng=rng), Tanh(), Dense(16, 1, rng=rng)])
    net.consolidate()
    optimizer = Adam(net, lr=0.02)
    loss = BinaryCrossEntropy()
    X = rng.uniform(-1, 1, size=(256, 2))
    y = ((X[:, 0] * X[:, 1]) > 0).astype(float)[:, None]
    for _ in range(400):
        logits = net(X)
        loss.forward(logits, y)
        net.zero_grad()
        net.backward(loss.backward())
        optimizer.step()
    predictions = (net(X, training=False) > 0).astype(float)
    assert (predictions == y).mean() > 0.9


def test_training_reduces_regression_loss(rng):
    net = _make_network(rng, widths=(16,))
    optimizer = Adam(net, lr=0.01)
    loss = MeanSquaredError()
    X = rng.normal(size=(128, 2))
    y = (X[:, :1] * 2 - X[:, 1:] * 0.5)
    initial = loss.forward(net(X), y)
    for _ in range(200):
        prediction = net(X)
        loss.forward(prediction, y)
        net.zero_grad()
        net.backward(loss.backward())
        optimizer.step()
    assert loss.forward(net(X), y) < initial * 0.2


def test_save_and_load_round_trip(tmp_path, rng):
    net = _make_network(rng)
    X = rng.normal(size=(4, 2))
    expected = net(X, training=False)
    path = tmp_path / "weights.npz"
    net.save(path)

    other = _make_network(np.random.default_rng(999))
    assert not np.allclose(other(X, training=False), expected)
    other.load(path)
    np.testing.assert_allclose(other(X, training=False), expected)


def test_state_dict_keys_are_prefixed(rng):
    net = Sequential([Dense(2, 3, rng=rng), ReLU(), Dense(3, 1, rng=rng)])
    keys = set(net.state_dict())
    assert "layers.0.weight" in keys and "layers.2.bias" in keys


def test_summary_mentions_every_layer(rng):
    net = _make_network(rng)
    text = net.summary()
    assert "Dense" in text and "Total parameters" in text


def test_add_chaining(rng):
    net = Sequential().add(Dense(2, 2, rng=rng)).add(ReLU())
    assert len(net.layers) == 2
