"""Optimizer behaviour tests, on consolidated one-layer networks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.neural.layers import Dense
from repro.neural.network import Sequential
from repro.neural.optimizers import SGD, Adam, RMSprop


def _network(in_features: int = 3) -> Sequential:
    """A consolidated ``Dense(in_features, 1)``: ``in_features + 1`` parameters."""
    network = Sequential([Dense(in_features, 1)])
    network.consolidate()
    return network


def _quadratic_problem():
    """Minimise ||w - 3||^2 over all four parameters, starting from zero."""
    network = _network()
    w, grad = network.arena.data, network.arena.grads
    w[...] = 0.0
    target = np.full(4, 3.0)

    def compute_grad():
        grad[...] = 2 * (w - target)

    return network, w, target, compute_grad


def _scalar(weight: float, grad: float) -> Sequential:
    """A one-parameter network (``Dense(1, 1)`` without bias)."""
    network = Sequential([Dense(1, 1, bias=False)])
    network.consolidate()
    network.arena.data[...] = weight
    network.arena.grads[...] = grad
    return network


@pytest.mark.parametrize(
    "factory",
    [
        lambda network: SGD(network, lr=0.05),
        lambda network: SGD(network, lr=0.05, momentum=0.9),
        lambda network: RMSprop(network, lr=0.05),
        lambda network: Adam(network, lr=0.2),
    ],
    ids=["sgd", "sgd_momentum", "rmsprop", "adam"],
)
def test_optimizers_converge_on_quadratic(factory):
    network, w, target, compute_grad = _quadratic_problem()
    optimizer = factory(network)
    for _ in range(300):
        compute_grad()
        optimizer.step()
    np.testing.assert_allclose(w, target, atol=0.05)


def test_sgd_step_is_plain_gradient_descent():
    network = _scalar(1.0, 2.0)
    SGD(network, lr=0.1).step()
    np.testing.assert_allclose(network.arena.data, [0.8])


def test_zero_grad_clears_buffers():
    network = _scalar(1.0, 5.0)
    optimizer = Adam(network, lr=0.1)
    optimizer.zero_grad()
    np.testing.assert_allclose(network.layers[0].grad_weight, [[0.0]])


def test_adam_bias_correction_first_step():
    network = _scalar(0.0, 1.0)
    Adam(network, lr=0.1).step()
    # With bias correction the first step is ~lr regardless of beta values.
    np.testing.assert_allclose(network.arena.data, [-0.1], atol=1e-6)


def test_invalid_learning_rate_rejected():
    with pytest.raises(ValueError):
        SGD(_network(), lr=0.0)


def test_unconsolidated_network_rejected():
    network = Sequential([Dense(3, 1)])
    for factory in (SGD, RMSprop, Adam):
        with pytest.raises(ValueError, match="consolidate"):
            factory(network, lr=0.1)
    with pytest.raises(ValueError, match="consolidate"):
        Adam(network.parameters(), lr=0.1)  # a bare parameter list is not a network


def test_mismatched_shapes_rejected():
    layer = Dense(2, 1)
    layer.grad_weight = np.zeros((3, 1))
    with pytest.raises(TypeError, match="gradient grad_weight differ in shape"):
        Sequential([layer]).consolidate()


def test_invalid_momentum_rejected():
    with pytest.raises(ValueError):
        SGD(_network(), lr=0.1, momentum=1.5)


def test_invalid_betas_rejected():
    with pytest.raises(ValueError):
        Adam(_network(), lr=0.1, betas=(1.2, 0.9))


@pytest.mark.parametrize(
    "factory",
    [
        lambda network: SGD(network, lr=0.05, momentum=0.9),
        lambda network: RMSprop(network, lr=0.05),
        lambda network: Adam(network, lr=0.2, betas=(0.5, 0.9)),
    ],
    ids=["sgd-momentum", "rmsprop", "adam"],
)
def test_state_dict_round_trip_resumes_bit_identically(factory):
    """An optimizer restored from state_dict continues exactly where it was.

    This is the invariant the federated runtime's delta round-trips rely
    on: shipping (weights, optimizer state) to another process and back
    must not change the trajectory.
    """
    network, w, _target, compute_grad = _quadratic_problem()
    optimizer = factory(network)
    for _ in range(3):
        compute_grad()
        optimizer.step()
    snapshot_w = w.copy()
    state = optimizer.state_dict()

    # Reference: three more steps without interruption.
    for _ in range(3):
        compute_grad()
        optimizer.step()
    expected = w.copy()

    # Resume: fresh optimizer bound to the network reset to the snapshot.
    w[...] = snapshot_w
    resumed = factory(network)
    resumed.load_state_dict(state)
    for _ in range(3):
        compute_grad()
        resumed.step()
    assert np.array_equal(w, expected)


def test_state_dict_is_a_copy_not_a_view():
    network, _w, _target, compute_grad = _quadratic_problem()
    optimizer = Adam(network, lr=0.1)
    compute_grad()
    optimizer.step()
    state = optimizer.state_dict()
    frozen = state["m"][0].copy()
    compute_grad()
    optimizer.step()
    assert np.array_equal(state["m"][0], frozen)


def test_load_state_dict_validates_keys_and_lengths():
    optimizer = Adam(_network(), lr=0.1)
    with pytest.raises(KeyError):
        optimizer.load_state_dict({"m": [np.zeros((3, 1)), np.zeros(1)]})
    with pytest.raises(ValueError):
        optimizer.load_state_dict({"m": [], "v": [], "t": 1})


@pytest.mark.parametrize(
    "factory, key",
    [
        (lambda network: SGD(network, lr=0.1, momentum=0.9), "velocity"),
        (lambda network: RMSprop(network, lr=0.1), "square_avg"),
    ],
    ids=["sgd", "rmsprop"],
)
def test_sgd_rmsprop_state_errors(factory, key):
    optimizer = factory(_network(in_features=2))  # weight (2, 1), bias (1,)
    with pytest.raises(KeyError):
        optimizer.load_state_dict({})
    with pytest.raises(ValueError):
        optimizer.load_state_dict({key: [np.zeros((2, 1)), np.zeros(1), np.zeros(1)]})  # too many
    with pytest.raises(ValueError):
        optimizer.load_state_dict({key: []})  # too few
    with pytest.raises(ValueError):
        optimizer.load_state_dict({key: [np.zeros((3, 1)), np.zeros(1)]})  # wrong shape


def test_adam_requires_step_counter():
    network = _network(in_features=2)
    optimizer = Adam(network, lr=0.1)
    with pytest.raises(KeyError):
        optimizer.load_state_dict(
            {"m": [np.zeros((2, 1)), np.zeros(1)], "v": [np.zeros((2, 1)), np.zeros(1)]}
        )


def test_state_dict_snapshots_are_independent_of_optimizer_storage():
    """Mutating a snapshot must not leak into the flat buffers."""
    network = _scalar(0.0, 1.0)
    optimizer = RMSprop(network, lr=0.1)
    optimizer.step()
    state = optimizer.state_dict()
    state["square_avg"][0][...] = 123.0
    assert not np.array_equal(optimizer._state_buffers()["square_avg"][0], state["square_avg"][0])
