"""Arena / workspace fast-path tests.

The contract under test: consolidating a network (``Sequential.consolidate``)
changes *nothing* about its numerics -- the fused optimizer kernels match a
per-tensor elementwise reference (the ``per_tensor_step`` fixture) bit for
bit, and a bound workspace matches the allocating passes of an unbound
network -- while removing the per-step allocation churn.
"""

from __future__ import annotations

import io
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.neural.arena import reduce_flat_view
from repro.neural.layers import BatchNorm, Dense, Layer, LeakyReLU, ReLU, Residual, Tanh
from repro.neural.losses import BinaryCrossEntropy
from repro.neural.network import Sequential
from repro.neural.optimizers import SGD, Adam, RMSprop


def _make_network(seed: int = 0, consolidate: bool = True) -> Sequential:
    rng = np.random.default_rng(seed)
    network = Sequential(
        [
            Dense(6, 16, rng=rng, init="he"),
            BatchNorm(16),
            ReLU(),
            Residual([Dense(16, 8, rng=rng, init="he"), LeakyReLU(0.2)]),
            Dense(24, 4, rng=rng, init="glorot"),
            Tanh(),
            Dense(4, 1, rng=rng, init="glorot"),
        ]
    )
    if consolidate:
        network.consolidate()
    return network


def _inject_grads(network: Sequential, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for _param, grad in network.parameters():
        grad[...] = rng.normal(size=grad.shape)


# --------------------------------------------------------------------------- #
# Arena construction invariants
# --------------------------------------------------------------------------- #
class TestConsolidation:
    def test_rebinds_params_as_views_preserving_values(self):
        reference = _make_network(seed=3, consolidate=False)
        expected = {key: value.copy() for key, value in reference.state_dict().items()}
        arena = reference.consolidate()
        assert arena is not None
        state = reference.state_dict()
        assert sorted(state) == list(arena.spans)
        for key, value in state.items():
            assert np.array_equal(value, expected[key])
            root = value
            while isinstance(root.base, np.ndarray):
                root = root.base
            assert root is arena.data

    def test_spans_follow_codec_sorted_key_order(self):
        network = _make_network(seed=1)
        arena = network.arena
        cursor = 0
        for key in sorted(network.state_dict()):
            start, end, shape, _trainable = arena.spans[key]
            assert start == cursor
            assert end - start == int(np.prod(shape))
            cursor = end
        assert cursor == arena.size

    def test_batchnorm_buffers_make_gaps(self):
        arena = _make_network(seed=1).arena
        gaps = [key for key, (*_span, trainable) in arena.spans.items() if not trainable]
        assert gaps == ["layers.1.running_mean", "layers.1.running_var"]
        dense_only = Sequential([Dense(4, 3), ReLU(), Dense(3, 2)])
        assert all(trainable for *_span, trainable in dense_only.consolidate().spans.values())

    def test_zero_grad_single_fill(self):
        network = _make_network(seed=2)
        _inject_grads(network, seed=5)
        network.zero_grad()
        assert not network.arena.grads.any()

    def test_consolidate_is_idempotent(self):
        network = _make_network(seed=4)
        arena = network.arena
        assert network.consolidate() is arena

    def test_undescribed_stateful_layer_is_rejected_by_name(self):
        class Opaque(Layer):
            def __init__(self):
                self.weight = np.zeros((2, 2))
                self.grad_weight = np.zeros((2, 2))

            def forward(self, x, training=True):
                return x

            def backward(self, grad_output):
                return grad_output

            @property
            def params(self):
                return [self.weight]

            @property
            def grads(self):
                return [self.grad_weight]

            def state_dict(self):
                return {"weight": self.weight}

            # No arena_entries override: the base implementation rejects
            # any stateful layer that does not describe its state.

        network = Sequential([Dense(3, 2), Opaque()])
        with pytest.raises(TypeError, match="Opaque"):
            network.consolidate()
        assert network.arena is None

    def test_mixed_dtypes_are_rejected_by_name(self):
        network = Sequential([Dense(3, 2, dtype=np.float32), ReLU(), Dense(2, 1)])
        with pytest.raises(TypeError, match=r"layers\.2\.\w+ \(Dense\.\w+\) is float64"):
            network.consolidate()
        assert network.arena is None

    def test_load_state_dict_keeps_arena_intact(self):
        network = _make_network(seed=9)
        arena = network.arena
        replacement = {
            key: np.full(value.shape, 0.5) for key, value in network.state_dict().items()
        }
        network.load_state_dict(replacement)
        assert arena.intact
        for key, value in network.state_dict().items():
            assert np.array_equal(value, replacement[key])

    def test_plain_pickle_repacks_and_continues_bit_identically(self):
        network = _make_network(seed=10)
        optimizer = Adam(network, lr=0.01)
        _inject_grads(network, seed=11)
        optimizer.step()  # non-zero moments cross too
        clone, clone_opt = pickle.loads(pickle.dumps((network, optimizer)))
        assert clone.arena.intact and clone_opt.network is clone
        for model, opt in ((network, optimizer), (clone, clone_opt)):
            for step in range(3):
                _inject_grads(model, seed=20 + step)
                opt.step()
        for key, value in network.state_dict().items():
            assert np.array_equal(clone.state_dict()[key], value), key
        for name, flat in optimizer._state.items():
            assert np.array_equal(clone_opt._state[name], flat), name


class _ViewPickler(pickle.Pickler):
    def reducer_override(self, obj):
        if type(obj) is np.ndarray:
            reduced = reduce_flat_view(obj)
            if reduced is not None:
                return reduced
        return NotImplemented


def _view_pickle(obj) -> bytes:
    stream = io.BytesIO()
    _ViewPickler(stream, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return stream.getvalue()


class TestViewKeepingPickle:
    @pytest.mark.parametrize("round_trips", [1, 2])
    def test_arena_and_optimizer_stay_bound(self, round_trips):
        network = _make_network(seed=12)
        optimizer = Adam(network, lr=0.01)
        clone, clone_opt = network, optimizer
        for _ in range(round_trips):  # an unpickled arena pickles again
            clone, clone_opt = pickle.loads(_view_pickle((clone, clone_opt)))
        assert clone.arena.intact and clone_opt.network is clone
        # Kept as it came, not re-packed: the layer attributes are the
        # arena's own views.
        for (param, grad), (arena_param, arena_grad) in zip(
            clone.parameters(), clone.arena.pairs
        ):
            assert param is arena_param and grad is arena_grad
        for key, value in network.state_dict().items():
            assert np.array_equal(clone.state_dict()[key], value)

    def test_every_value_crosses_once(self):
        network = _make_network(seed=13)
        optimizer = Adam(network, lr=0.01)
        kept = len(_view_pickle((network, optimizer)))
        plain = len(pickle.dumps((network, optimizer), protocol=pickle.HIGHEST_PROTOCOL))
        # Params and grads cross once instead of twice (the moments are
        # flat buffers either way).
        values = 2 * network.num_parameters() * network.arena.data.itemsize
        assert plain - kept >= values

    def test_steps_match_the_original(self):
        network = _make_network(seed=14)
        optimizer = Adam(network, lr=0.01)
        clone, clone_opt = pickle.loads(_view_pickle((network, optimizer)))
        for model, opt in ((network, optimizer), (clone, clone_opt)):
            for step in range(3):
                _inject_grads(model, seed=20 + step)
                opt.step()
        for key, value in network.state_dict().items():
            assert np.array_equal(clone.state_dict()[key], value)

    def test_unregistered_views_pickle_as_copies(self):
        base = np.arange(12.0)
        view = base[2:6]
        assert reduce_flat_view(view) is None
        clone = pickle.loads(_view_pickle(view))
        assert clone.base is None or clone.base is not base
        assert np.array_equal(clone, view)


# --------------------------------------------------------------------------- #
# Fused optimizer kernels vs the per-tensor reference
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "factory",
    [
        lambda network: SGD(network, lr=0.05),
        lambda network: SGD(network, lr=0.05, momentum=0.9),
        lambda network: RMSprop(network, lr=0.01),
        lambda network: Adam(network, lr=0.01, betas=(0.5, 0.9)),
    ],
    ids=["sgd", "sgd-momentum", "rmsprop", "adam"],
)
def test_fused_step_bit_identical_to_per_tensor(factory, per_tensor_step):
    # The BatchNorm layer puts gap regions (its running statistics) between
    # the trainable spans: the fused kernels run over them, the reference
    # never touches them.
    fused_net = _make_network(seed=21)
    plain_net = _make_network(seed=21)
    for network in (fused_net, plain_net):
        network.layers[1].running_var[...] = np.linspace(0.5, 2.0, 16)
    fused_opt = factory(fused_net)
    plain_opt = factory(plain_net)
    for step in range(5):
        _inject_grads(fused_net, seed=100 + step)
        _inject_grads(plain_net, seed=100 + step)
        fused_opt.step()
        per_tensor_step(plain_opt)
        assert np.array_equal(fused_net.arena.data, plain_net.arena.data)
        for name, flat in fused_opt._state.items():
            assert np.array_equal(flat, plain_opt._state[name]), name
        fused_opt.zero_grad()
        plain_opt.zero_grad()


def test_fused_adam_leaves_batchnorm_buffers_bitwise_unchanged():
    network = _make_network(seed=22)
    bn = network.layers[1]
    bn.running_mean[...] = np.linspace(-1.0, 1.0, bn.num_features)
    bn.running_var[...] = np.linspace(0.5, 2.0, bn.num_features)
    frozen_mean, frozen_var = bn.running_mean.copy(), bn.running_var.copy()
    optimizer = Adam(network, lr=0.1)
    for step in range(3):
        _inject_grads(network, seed=200 + step)
        optimizer.step()
    assert np.array_equal(bn.running_mean, frozen_mean)
    assert np.array_equal(bn.running_var, frozen_var)


def test_optimizer_state_dict_round_trip_on_arena_path():
    """Flat moment buffers must still round-trip positionally."""
    network = _make_network(seed=23)
    optimizer = Adam(network, lr=0.01)
    _inject_grads(network, seed=24)
    optimizer.step()
    state = optimizer.state_dict()
    twin = _make_network(seed=23)
    twin_opt = Adam(twin, lr=0.01)
    twin_opt.load_state_dict(state)
    for name in ("m", "v"):
        assert np.array_equal(optimizer._state[name], twin_opt._state[name]), name
    assert twin_opt._t == optimizer._t


# --------------------------------------------------------------------------- #
# Workspace semantics
# --------------------------------------------------------------------------- #
class TestWorkspace:
    @pytest.mark.parametrize("training", [False, True])
    def test_forward_output_does_not_alias_scratch(self, training):
        """Outputs escape the step: a later forward must not clobber them.

        Regression test for the white-box membership-inference scorer, where
        scoring members and then non-members through the same discriminator
        produced two references to one recycled buffer (collapsing attack
        accuracy to exactly 0.5).
        """
        network = _make_network(seed=30)
        x1 = np.random.default_rng(0).normal(size=(32, 6))
        x2 = np.random.default_rng(1).normal(size=(32, 6))
        out1 = network.forward(x1, training=training)
        frozen = out1.copy()
        out2 = network.forward(x2, training=training)
        assert np.array_equal(out1, frozen)
        assert not np.shares_memory(out1, out2)
        assert not network.workspace.owns(out1)

    def test_forward_backward_bit_identical_to_plain_path(self):
        fused_net = _make_network(seed=31)
        plain_net = _make_network(seed=31)
        plain_net.unbind_workspace()
        loss_fused = BinaryCrossEntropy(from_logits=True)
        loss_plain = BinaryCrossEntropy(from_logits=True)
        rng = np.random.default_rng(32)
        for step in range(4):
            x = rng.normal(size=(48, 6))
            target = (rng.uniform(size=(48, 1)) < 0.5).astype(np.float64)
            out_f = fused_net.forward(x, training=True)
            out_p = plain_net.forward(x, training=True)
            assert np.array_equal(out_f, out_p)
            lf = loss_fused.forward(out_f, target)
            lp = loss_plain.forward(out_p, target)
            assert lf == lp
            gf = fused_net.backward(loss_fused.backward())
            gp = plain_net.backward(loss_plain.backward())
            assert np.array_equal(gf, gp)
            for (_, fg), (_, pg) in zip(fused_net.parameters(), plain_net.parameters()):
                assert np.array_equal(fg, pg)
            fused_net.zero_grad()
            plain_net.zero_grad()

    def test_backward_releases_cached_activations(self):
        network = _make_network(seed=33)
        x = np.random.default_rng(34).normal(size=(16, 6))
        out = network.forward(x, training=True)
        network.backward(np.ones_like(out))
        for layer in network.layers:
            assert getattr(layer, "_cache_input", None) is None
            assert getattr(layer, "_mask", None) is None
            assert getattr(layer, "_out", None) is None
            assert getattr(layer, "_cache", None) is None

    def test_workspace_pickles_empty(self):
        network = _make_network(seed=35)
        network.forward(np.zeros((8, 6)), training=True)
        assert network.workspace.nbytes() > 0
        clone = pickle.loads(pickle.dumps(network))
        assert clone.workspace.nbytes() == 0


# --------------------------------------------------------------------------- #
# Allocation regression: the steady-state step must not churn
# --------------------------------------------------------------------------- #
def _measure_step_peak(network: Sequential, optimizer, loss, x, target) -> int:
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    out = network.forward(x, training=True)
    loss.forward(out, target)
    network.backward(loss.backward())
    optimizer.step()
    optimizer.zero_grad()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak - baseline


def test_steady_state_step_allocations_drop_by_an_order_of_magnitude():
    """At training-realistic sizes the bound step stops allocating.

    The remaining transients are numpy's internal broadcast-ufunc buffers
    (capped at the ~64 KiB iterator buffer regardless of batch size) plus
    the owned copy of the (batch, 1) output logits, so the peak must sit at
    least an order of magnitude under the full-batch allocations of the
    same network with its workspace unbound -- and stay flat as the batch
    grows.
    """
    batch = 1024

    def build() -> Sequential:
        rng = np.random.default_rng(40)
        return Sequential(
            [
                Dense(32, 128, rng=rng, init="he"),
                BatchNorm(128),
                ReLU(),
                Dense(128, 128, rng=rng, init="he"),
                Tanh(),
                Dense(128, 1, rng=rng, init="glorot"),
            ]
        )

    def run(bound: bool) -> int:
        network = build()
        network.consolidate()
        if not bound:
            network.unbind_workspace()
        optimizer = Adam(network, lr=0.01)
        loss = BinaryCrossEntropy(from_logits=True)
        rng = np.random.default_rng(41)
        x = rng.normal(size=(batch, 32))
        target = (rng.uniform(size=(batch, 1)) < 0.5).astype(np.float64)
        for _ in range(3):  # warm the workspace / scratch buffers
            out = network.forward(x, training=True)
            loss.forward(out, target)
            network.backward(loss.backward())
            optimizer.step()
            optimizer.zero_grad()
        return _measure_step_peak(network, optimizer, loss, x, target)

    peak_plain = run(bound=False)
    peak_arena = run(bound=True)
    assert peak_arena * 10 <= peak_plain
    assert peak_arena < 256 * 1024
