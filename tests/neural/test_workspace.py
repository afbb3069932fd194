"""Bounded step scratch: one workspace buffer per family, none for eval,
none once a fit returns.

A :class:`~repro.neural.workspace.Workspace` keeps one base array per
``(layer, tag, trailing dims, dtype)`` family at the tallest height it has
served; every other height is a leading-rows view of it.  Eval forwards
(``training=False``) never touch the workspace and keep no backward cache,
which is also what makes a bound model safe to sample from several
threads at once.  Scratch is fit-scoped: ``KiNETGANTrainer.fit`` releases
every trained network's workspace and every optimizer's fused scratch when
it returns, so the family checks below read the workspaces as the fit's
last step left them, just before that release.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import KiNETGAN, KiNETGANConfig
from repro.core.trainer import KiNETGANTrainer
from repro.engine import sampling_rng
from repro.neural.layers import BatchNorm, Dense, LeakyReLU, ReLU, Residual, Tanh
from repro.neural.losses import BinaryCrossEntropy
from repro.neural.network import Sequential
from repro.neural.ode import ODEBlock
from repro.neural.workspace import Workspace

#: Backward caches a layer may hold between a training forward and its backward.
CACHE_ATTRS = ("_cache_input", "_mask", "_cache", "_out", "_trajectory")


def _family(key: tuple) -> tuple:
    owner, tag, shape, char = key
    return owner, tag, shape[1:], char


def _memory_owner(array: np.ndarray) -> np.ndarray:
    return array if array.base is None else array.base


def assert_one_buffer_per_family(ws: Workspace) -> None:
    """Every family is served from one allocation at its tallest height, and
    ``nbytes()`` counts exactly those allocations."""
    families: dict[tuple, list[np.ndarray]] = {}
    for key, buf in ws._buffers.items():
        families.setdefault(_family(key), []).append(buf)
    expected = 0
    for family, bufs in families.items():
        owners = {id(_memory_owner(buf)) for buf in bufs}
        assert len(owners) == 1, f"{family} holds {len(owners)} buffers"
        tallest = max(bufs, key=lambda buf: buf.shape[0])
        assert _memory_owner(tallest).nbytes == tallest.nbytes, family
        expected += tallest.nbytes
    assert ws.nbytes() == expected


def _walk(layers):
    for layer in layers:
        yield layer
        if isinstance(layer, Residual):
            yield from _walk(layer.inner)
        elif isinstance(layer, ODEBlock):
            yield from _walk(layer.field.layers)


def assert_no_backward_cache(network: Sequential) -> None:
    for layer in _walk(network.layers):
        for attr in CACHE_ATTRS:
            assert getattr(layer, attr, None) is None, (layer, attr)


def _make_network(seed: int) -> Sequential:
    rng = np.random.default_rng(seed)
    network = Sequential(
        [
            Dense(6, 16, rng=rng),
            BatchNorm(16),
            ReLU(),
            Residual([Dense(16, 8, rng=rng), LeakyReLU(0.2)]),
            ODEBlock(24, hidden_dim=8, num_steps=2, rng=rng),
            Dense(24, 4, rng=rng),
            Tanh(),
            Dense(4, 1, rng=rng),
        ]
    )
    network.consolidate()
    return network


def _train_pass(network: Sequential, rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 6))
    out = network.forward(x, training=True)
    loss = BinaryCrossEntropy(from_logits=True)
    loss.forward(out, (rng.uniform(size=out.shape) < 0.5).astype(np.float64))
    return network.backward(loss.backward())


# --------------------------------------------------------------------------- #
# The workspace itself
# --------------------------------------------------------------------------- #
class TestFamilies:
    def test_heights_share_one_base_grown_to_the_tallest(self):
        ws = Workspace()
        owner = object()
        short = ws.buffer(owner, "fwd", (4, 3))
        tall = ws.buffer(owner, "fwd", (9, 3))
        again = ws.buffer(owner, "fwd", (4, 3))
        assert tall.shape == (9, 3) and again.shape == (4, 3)
        assert again.flags.c_contiguous
        assert again.base is tall
        assert np.shares_memory(again, tall)
        assert again.__array_interface__["data"] == tall.__array_interface__["data"]
        # The grown family dropped the view of its old base.
        assert not np.shares_memory(short, tall)
        assert not ws.owns(short)
        assert ws.owns(tall) and ws.owns(again) and ws.owns(again[:, 1:])
        assert ws.nbytes() == tall.nbytes

    def test_hit_path_returns_the_same_array(self):
        ws = Workspace()
        owner = object()
        ws.buffer(owner, "fwd", (8, 2))
        view = ws.buffer(owner, "fwd", (5, 2))
        assert ws.buffer(owner, "fwd", (5, 2)) is view
        assert ws.buffer(owner, "fwd", (8, 2)) is view.base

    def test_trailing_dims_dtype_tag_and_owner_split_families(self):
        ws = Workspace()
        a, b = object(), object()
        bufs = [
            ws.buffer(a, "fwd", (4, 3)),
            ws.buffer(a, "fwd", (4, 5)),
            ws.buffer(a, "fwd", (4, 3), dtype=bool),
            ws.buffer(a, "bwd", (4, 3)),
            ws.buffer(b, "fwd", (4, 3)),
        ]
        for i, x in enumerate(bufs):
            for y in bufs[i + 1 :]:
                assert not np.shares_memory(x, y)
        assert ws.nbytes() == sum(buf.nbytes for buf in bufs)

    def test_mixed_heights_keep_training_bit_identical(self):
        """Alternating heights through one bound network (its families are
        resized and re-viewed) matches an unbound twin bit for bit."""
        bound = _make_network(seed=3)
        plain = _make_network(seed=3)
        plain.unbind_workspace()
        for step, rows in enumerate((40, 12, 64, 12, 40, 64, 7)):
            assert np.array_equal(
                _train_pass(bound, rows, seed=step), _train_pass(plain, rows, seed=step)
            )
            for (_, g1), (_, g2) in zip(bound.parameters(), plain.parameters()):
                assert np.array_equal(g1, g2)
        assert_one_buffer_per_family(bound.workspace)


class TestEvalForward:
    def test_eval_forward_keeps_nothing(self):
        network = _make_network(seed=4)
        _train_pass(network, 32, seed=0)
        held = network.workspace.nbytes()
        for rows in (32, 100, 5):
            network.forward(np.ones((rows, 6)), training=False)
        assert network.workspace.nbytes() == held
        assert_no_backward_cache(network)

    def test_eval_forward_cannot_be_differentiated(self):
        network = _make_network(seed=6)
        out = network.forward(np.ones((4, 6)), training=False)
        with pytest.raises(RuntimeError, match="backward called before forward"):
            network.backward(np.ones_like(out))


# --------------------------------------------------------------------------- #
# A fitted KiNETGAN
# --------------------------------------------------------------------------- #
def _networks(trainer: KiNETGANTrainer) -> dict[str, Sequential]:
    return {
        "generator": trainer.generator.network,
        "discriminator": trainer.discriminator.network,
        "kg_head": trainer.kg_discriminator.head,
    }


def _optimizers(trainer: KiNETGANTrainer) -> dict:
    return {
        "generator": trainer._opt_g,
        "discriminator": trainer._opt_d,
        "kg_head": trainer.kg_discriminator._optimizer,
    }


def _config(**overrides) -> KiNETGANConfig:
    """A few-epoch seeded fit whose knowledge head trains on ragged heights
    (128 rows plus however many corruptions the KG rejects) and scores the
    generator on 64 rows."""
    options = dict(
        embedding_dim=16,
        generator_dims=(32,),
        discriminator_dims=(32,),
        epochs=3,
        batch_size=64,
        knowledge_negatives_per_batch=64,
        seed=11,
    )
    options.update(overrides)
    return KiNETGANConfig(**options)


def _fit(bundle, config: KiNETGANConfig) -> KiNETGAN:
    return KiNETGAN(config).fit(
        bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns
    )


@pytest.fixture(scope="module")
def fitted_and_held(lab_bundle_small) -> tuple[KiNETGAN, dict[str, Workspace]]:
    """The fitted model, and each network's workspace as the fit's last step
    left it (recorded just before the fit releases it)."""
    held: dict[str, Workspace] = {}
    release = KiNETGANTrainer.release_scratch

    def probe(trainer: KiNETGANTrainer) -> None:
        held.update((name, net.workspace) for name, net in _networks(trainer).items())
        release(trainer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KiNETGANTrainer, "release_scratch", probe)
        model = _fit(lab_bundle_small, _config())
    return model, held


@pytest.fixture(scope="module")
def fitted(fitted_and_held) -> KiNETGAN:
    return fitted_and_held[0]


def test_fit_holds_one_buffer_per_family(fitted_and_held):
    _model, held = fitted_and_held
    assert set(held) == {"generator", "discriminator", "kg_head"}
    for name, workspace in held.items():
        assert workspace.nbytes() > 0, name
        assert_one_buffer_per_family(workspace)


def test_fit_releases_its_scratch(fitted):
    """After ``fit`` every trained network's workspace and every optimizer's
    fused scratch is empty, while the networks stay bound for the next fit."""
    trainer = fitted.trainer
    for name, network in _networks(trainer).items():
        workspace = network.workspace
        assert workspace is not None, name
        assert workspace.nbytes() == 0 and workspace._buffers == {}, name
        assert all(layer._ws is workspace for layer in _walk(network.layers)), name
        assert_no_backward_cache(network)
    assert trainer.generator.network.layers[-1]._scratch == {}
    networks = _networks(trainer)
    for name, optimizer in _optimizers(trainer).items():
        assert optimizer.network is networks[name], name
        assert optimizer._scratch is None, name


def test_refit_after_the_release_is_bit_identical(lab_bundle_small):
    """Scratch is never read across steps: fitting twice with the release
    between the fits matches fitting twice without it, bit for bit."""
    config = _config(epochs=1)
    released = _fit(lab_bundle_small, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KiNETGANTrainer, "release_scratch", lambda trainer: None)
        kept = _fit(lab_bundle_small, config)
        assert _networks(kept.trainer)["generator"].workspace.nbytes() > 0
        kept.trainer.fit(lab_bundle_small.table)
    released.trainer.fit(lab_bundle_small.table)
    for name, network in _networks(released.trainer).items():
        kept_state = _networks(kept.trainer)[name].state_dict()
        for key, value in network.state_dict().items():
            assert np.array_equal(value, kept_state[key]), (name, key)
    assert_tables_identical(
        released.sample(600, rng=sampling_rng(9)), kept.sample(600, rng=sampling_rng(9))
    )


def test_sampling_and_scoring_leave_the_workspaces_alone(fitted):
    trainer = fitted.trainer
    networks = _networks(trainer)
    fitted.sample(5000, rng=sampling_rng(1))
    matrix = trainer.generate_matrix(700, rng=sampling_rng(2))
    condition = trainer.sampler.empirical_conditions(700, sampling_rng(3))
    trainer.discriminator.forward(matrix, condition, training=False)
    trainer.kg_discriminator.head_scores(matrix)
    noise = sampling_rng(4).normal(size=(700, fitted.config.embedding_dim))
    trainer.generator.forward(noise, condition, training=False)
    for name, network in networks.items():
        assert network.workspace.nbytes() == 0, name
        assert_no_backward_cache(network)


def assert_tables_identical(a, b) -> None:
    assert a.schema.names == b.schema.names
    assert a.n_rows == b.n_rows
    for name in a.schema.names:
        assert np.array_equal(a.column(name), b.column(name)), name


def test_concurrent_sampling_of_a_bound_model_matches_serial(fitted):
    """Two threads sampling one bound model at once get the serial tables."""
    assert all(network.workspace is not None for network in _networks(fitted.trainer).values())
    seeds = [[100 * thread + i for i in range(8)] for thread in range(2)]
    serial = {seed: fitted.sample(1500, rng=sampling_rng(seed)) for run in seeds for seed in run}
    results: dict[int, object] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(seeds))

    def worker(run: list[int]) -> None:
        try:
            barrier.wait()
            for seed in run:
                results[seed] = fitted.sample(1500, rng=sampling_rng(seed))
        except BaseException as exc:  # surfaced on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(run,)) for run in seeds]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    for seed, table in serial.items():
        assert_tables_identical(results[seed], table)
