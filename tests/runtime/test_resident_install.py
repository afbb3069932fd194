"""A resident state in a process worker behaves like the in-process one.

Two halves: an installed state arrives with its parameter arenas intact
(views stay views) and its optimizers bound to them, and an evicted state -- or a
closed shared buffer -- is freed in the worker at its next dispatch.  A
worker keeps no state segment mapped once it has unpickled its copy.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.config import KiNETGANConfig
from repro.federated.kinetgan import FederatedKiNETGAN
from repro.neural.layers import Dense, LeakyReLU, Tanh
from repro.neural.network import Sequential
from repro.neural.optimizers import Adam
from repro.runtime import ProcessExecutor
from repro.runtime.state import DirectStateRef, worker_store

#: Worker-side weak references kept between two tasks of one worker.
_WATCHED: dict[str, weakref.ref] = {}


@pytest.fixture(scope="module")
def site(lab_bundle_small):
    config = KiNETGANConfig(
        embedding_dim=8,
        generator_dims=(16,),
        discriminator_dims=(16,),
        epochs=1,
        batch_size=32,
        knowledge_negatives_per_batch=8,
        max_modes=3,
        seed=0,
    )
    table = lab_bundle_small.table.head(200)
    fed = FederatedKiNETGAN(
        reference_table=table,
        config=config,
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
        seed=0,
    )
    fed.add_site("site-0", table.head(120))
    fed.add_site("site-1", table.select_rows(np.arange(120, 200)))
    return fed.sites[0]


def _network(seed: int, dtype) -> Sequential:
    rng = np.random.default_rng(seed)
    network = Sequential(
        [
            Dense(5, 12, rng=rng, init="he", dtype=dtype),
            LeakyReLU(0.2),
            Dense(12, 3, rng=rng, init="glorot", dtype=dtype),
            Tanh(),
        ]
    )
    network.consolidate()
    return network


def _train(network: Sequential, optimizer: Adam, steps: int) -> None:
    """Deterministic forward/backward/step rounds (same inputs everywhere)."""
    dtype = network.dtype
    for step in range(steps):
        x = np.random.default_rng(100 + step).normal(size=(16, 5)).astype(dtype)
        optimizer.zero_grad()
        out = network.forward(x)
        network.backward(out - np.asarray(0.25, dtype=dtype))
        optimizer.step()


# --------------------------------------------------------------------------- #
# Worker task bodies (module level: they cross the pool by reference)
# --------------------------------------------------------------------------- #
def _train_and_watch(task) -> bool:
    ref, buffer_ref, name = task
    gc.disable()  # only the eviction broadcast may collect from here on
    site = ref.resolve()
    site.train_local(1)
    buffer_ref.resolve()  # attach the buffer segment in this worker
    _WATCHED[name] = weakref.ref(site.trainer)
    # The store still holds the trained site: only the eviction can drop it.
    return worker_store().contains(ref.name)


def _released(names) -> tuple[bool, list[str]]:
    state_name, buffer_name = names
    try:
        dead = _WATCHED[state_name]() is None
        attached = [name for name in names if name in worker_store()._segments]
        return dead, attached
    finally:
        gc.enable()


def _resolve_and_report(ref) -> tuple[bool, bool, int]:
    site = ref.resolve()
    store = worker_store()
    return store.contains(ref.name), ref.name in store._segments, site.n_records


def _site_bindings(ref) -> dict[str, bool]:
    trainer = ref.resolve().trainer
    optimizers = {
        "generator": (trainer._opt_g, trainer.generator.network),
        "discriminator": (trainer._opt_d, trainer.discriminator.network),
        "kg": (trainer.kg_discriminator._optimizer, trainer.kg_discriminator.head),
    }
    report: dict[str, bool] = {}
    for label, (optimizer, network) in optimizers.items():
        report[f"{label} steps its network"] = optimizer.network is network
        report[f"{label} arena intact"] = network.arena.intact
        report[f"{label} params are arena views"] = all(
            param is arena_param and grad is arena_grad
            for (param, grad), (arena_param, arena_grad) in zip(
                network.parameters(), network.arena.pairs
            )
        )
        report[f"{label} moments are arena-sized"] = all(
            flat.shape == (network.arena.size,) for flat in optimizer._state.values()
        )
    return report


def _train_resolved(ref) -> tuple[bool, dict[str, np.ndarray]]:
    network, optimizer = ref.resolve()
    _train(network, optimizer, steps=4)
    return optimizer.network is network, network.state_dict()


def _train_two_networks(ref) -> tuple[bool, dict[str, np.ndarray], dict[str, np.ndarray]]:
    first, second, optimizers = ref.resolve()
    for step in range(3):
        rng = np.random.default_rng(step)
        for network, optimizer in zip((first, second), optimizers):
            for _param, grad in network.parameters():
                grad[...] = rng.normal(size=grad.shape)
            optimizer.step()
    intact = first.arena.intact and second.arena.intact
    return intact, first.state_dict(), second.state_dict()


# --------------------------------------------------------------------------- #
class TestWorkerRelease:
    def test_evicted_state_and_closed_buffer_are_freed(self, site):
        with ProcessExecutor(max_workers=1) as executor:
            ref = executor.install(site)
            buffer = executor.shared_array((4,))
            buffer_name = buffer.name
            assert executor.map(_train_and_watch, [(ref, buffer.ref(), ref.name)]) == [True]
            executor.evict(ref)
            buffer.close()
            [(dead, attached)] = executor.map(_released, [(ref.name, buffer_name)])
            assert dead, "the evicted state survived the eviction broadcast"
            assert attached == [], "closed segments are still attached in the worker"

    def test_resolved_state_detaches_its_segment(self, site):
        with ProcessExecutor(max_workers=1) as executor:
            ref = executor.install(site)
            reports = executor.map(_resolve_and_report, [ref, ref])
        # Unpickled once, cached, and the segment unmapped right after; the
        # second task is served from the cache.
        assert reports == [(True, False, site.n_records)] * 2

    def test_closed_buffer_leaves_the_executor(self):
        with ProcessExecutor(max_workers=1) as executor:
            kept = executor.shared_array((2,))
            closed = executor.shared_array((3,))
            closed.close()
            assert executor._buffers == [kept]


class TestInstallKeepsArenas:
    def test_resolved_site_runs_the_fused_kernels(self, site):
        with ProcessExecutor(max_workers=1) as executor:
            [report] = executor.map(_site_bindings, [executor.install(site)])
        assert report and all(report.values()), report

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_steps_match_the_in_process_twin(self, dtype):
        network = _network(seed=3, dtype=dtype)
        optimizer = Adam(network, lr=0.01, betas=(0.5, 0.9))
        _train(network, optimizer, steps=2)  # non-zero moments cross too
        with ProcessExecutor(max_workers=1) as executor:
            [(fused, state)] = executor.map(
                _train_resolved, [executor.install((network, optimizer))]
            )
        _train(network, optimizer, steps=4)
        assert fused
        for key, value in network.state_dict().items():
            assert state[key].dtype == value.dtype
            assert np.array_equal(state[key], value), key

    def test_one_optimizer_per_network(self):
        # The TVAE pattern: two networks trained together, each stepped by
        # its own optimizer.
        first, second = _network(seed=4, dtype=np.float64), _network(seed=5, dtype=np.float64)
        optimizers = (Adam(first, lr=0.01), Adam(second, lr=0.01))
        with ProcessExecutor(max_workers=1) as executor:
            [(intact, first_state, second_state)] = executor.map(
                _train_two_networks, [executor.install((first, second, optimizers))]
            )
        _train_two_networks(DirectStateRef((first, second, optimizers)))
        assert intact
        for network, state in ((first, first_state), (second, second_state)):
            for key, value in network.state_dict().items():
                assert np.array_equal(state[key], value), key
