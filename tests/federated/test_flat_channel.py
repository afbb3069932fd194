"""The flat-parameter channel both federated round transports run on.

A :class:`FlatChannel` owns one broadcast vector and one result matrix in
the execution plane; its :class:`FlatSlot` s are what round tasks carry.
These tests pin the slot round-trip, the result matrix's growth when a
round has more units than rows (a site added between rounds), and that
releasing a coordinator's transport leaves a process pool holding nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import KiNETGANConfig
from repro.federated.client import FederatedClient
from repro.federated.kinetgan import FederatedKiNETGAN
from repro.federated.parameters import FlatChannel, StateCodec
from repro.federated.partition import label_skew_partition
from repro.federated.server import FederatedServer
from repro.federated.simulation import DetectorFactory
from repro.runtime import ProcessExecutor, SerialExecutor, resolve_executor

CONFIG = KiNETGANConfig(
    embedding_dim=8,
    generator_dims=(16,),
    discriminator_dims=(16,),
    epochs=1,
    batch_size=32,
    knowledge_negatives_per_batch=8,
    max_modes=3,
    seed=0,
)


def _state(seed: int, dtype=np.float64) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "layers.0.weight": rng.normal(size=(3, 2)).astype(dtype),
        "layers.0.bias": rng.normal(size=(2,)).astype(dtype),
    }


def _assert_process_plane_empty(executor) -> None:
    if isinstance(executor, ProcessExecutor):
        assert executor._installed == {}
        assert executor._buffers == []


class TestFlatChannel:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_slot_round_trip(self, dtype):
        channel = FlatChannel(SerialExecutor(), _state(0, dtype))
        channel.publish(_state(1, dtype), units=2)
        slot = channel.slot(1)
        broadcast = slot.global_state()
        for key, value in _state(1, dtype).items():
            assert broadcast[key].dtype == dtype
            assert np.array_equal(broadcast[key], value)
        live = _state(2, dtype)
        slot.load_into(live)
        assert all(np.array_equal(live[key], broadcast[key]) for key in live)
        slot.store(_state(3, dtype))
        rows = channel.rows([1])
        assert rows.shape == (1, channel.codec.dim) and rows.dtype == dtype
        stored = channel.codec.decode(rows[0])
        assert all(np.array_equal(stored[key], _state(3, dtype)[key]) for key in stored)
        # The rows are a copy: rewriting the result matrix leaves them alone.
        slot.store(_state(5, dtype))
        assert np.array_equal(rows[0], channel.codec.encode(_state(3, dtype)))
        parent = _state(4, dtype)
        channel.load_into(parent)
        assert all(np.array_equal(parent[key], broadcast[key]) for key in parent)
        channel.close()

    def test_result_matrix_grows_and_close_frees_the_pool(self):
        with ProcessExecutor(max_workers=1) as executor:
            channel = FlatChannel(executor, _state(0))
            channel.publish(_state(0), units=1)
            channel.publish(_state(0), units=3)
            channel.slot(2).store(_state(5))
            assert np.array_equal(channel.rows([2])[0], channel.codec.encode(_state(5)))
            # The outgrown matrix was released: only the broadcast vector and
            # the current result matrix remain mapped.
            assert len(executor._buffers) == 2
            channel.close()
            _assert_process_plane_empty(executor)


def _late_site_run(bundle, executor):
    """Two sites for a round, a third joins, one more round, then a share."""
    table = bundle.table.head(300)
    rng = np.random.default_rng(0)
    parts = label_skew_partition(table, "label", 3, rng, skew=0.5, min_rows=20)
    with FederatedKiNETGAN(
        reference_table=table.head(150),
        config=CONFIG,
        catalog=bundle.catalog,
        condition_columns=bundle.condition_columns,
        seed=0,
        executor=executor,
    ) as fed:
        fed.add_site("site-0", parts[0])
        fed.add_site("site-1", parts[1])
        fed.run_round()
        fed.add_site("site-2", parts[2])
        fed.run_round()
        participants = [info.participants for info in fed.rounds]
        generator_state, discriminator_state = fed.global_states()
        sample = fed.sample(60)
        fed.release_transport()
        _assert_process_plane_empty(fed.executor)
    return participants, generator_state, discriminator_state, sample


class TestSiteAddedBetweenRounds:
    @pytest.fixture(scope="class")
    def baseline(self, lab_bundle_small):
        return _late_site_run(lab_bundle_small, None)

    def test_new_site_trains_in_the_next_round(self, baseline):
        assert baseline[0] == [["site-0", "site-1"], ["site-0", "site-1", "site-2"]]

    @pytest.mark.parametrize("spec", ["thread:2", "process:2"])
    def test_pooled_runs_bit_identical(self, baseline, lab_bundle_small, spec):
        participants, generator_state, discriminator_state, sample = _late_site_run(
            lab_bundle_small, resolve_executor(spec)
        )
        assert participants == baseline[0]
        pairs = ((baseline[1], generator_state), (baseline[2], discriminator_state))
        for expected, actual in pairs:
            assert set(expected) == set(actual)
            for key in expected:
                assert np.array_equal(expected[key], actual[key]), key
        for name in baseline[3].schema.names:
            assert list(baseline[3].column(name)) == list(sample.column(name)), name


def test_server_release_frees_the_process_plane():
    model_fn = DetectorFactory(n_features=5, n_classes=2, hidden_dims=(8,), seed=0)
    rng = np.random.default_rng(0)
    clients = [
        FederatedClient(
            f"c{i}",
            rng.normal(size=(64, 5)),
            rng.integers(0, 2, size=64),
            model_fn,
            batch_size=32,
            seed=i,
        )
        for i in range(3)
    ]
    with ProcessExecutor(max_workers=2) as executor:
        server = FederatedServer(model_fn, clients, seed=0, executor=executor)
        server.run(2)
        assert executor._installed and executor._buffers
        server.release_transport()
        _assert_process_plane_empty(executor)


class TestSteadyStateRoundCodecCalls:
    """A round averages the channel's result rows where they are.

    With every codec already built, a steady-state round of either
    coordinator constructs no :class:`StateCodec` and encodes only the
    broadcasts plus one store per unit: survivors are never decoded into
    dictionaries and re-encoded for aggregation.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"construct": 0, "encode": 0}

        def counting(name, method):
            def wrapper(self, *args, **kwargs):
                counts[name] += 1
                return method(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(StateCodec, "__init__", counting("construct", StateCodec.__init__))
        monkeypatch.setattr(StateCodec, "encode", counting("encode", StateCodec.encode))
        return counts

    def test_federated_kinetgan_round(self, calls, lab_bundle_small):
        table = lab_bundle_small.table.head(400)
        parts = label_skew_partition(
            table, "label", 4, np.random.default_rng(0), skew=0.5, min_rows=20
        )
        with FederatedKiNETGAN(
            reference_table=table.head(150),
            config=CONFIG,
            catalog=lab_bundle_small.catalog,
            condition_columns=lab_bundle_small.condition_columns,
            seed=0,
        ) as fed:
            for i, part in enumerate(parts):
                fed.add_site(f"site-{i}", part)
            fed.run_round()
            calls.update(construct=0, encode=0)
            fed.run_round()
        # Two networks: one broadcast each plus one store per site.
        assert calls == {"construct": 0, "encode": 2 * (1 + 4)}

    def test_federated_server_round(self, calls):
        model_fn = DetectorFactory(n_features=5, n_classes=2, hidden_dims=(8,), seed=0)
        rng = np.random.default_rng(0)
        clients = [
            FederatedClient(
                f"c{i}",
                rng.normal(size=(64, 5)),
                rng.integers(0, 2, size=64),
                model_fn,
                batch_size=32,
                seed=i,
            )
            for i in range(4)
        ]
        with FederatedServer(model_fn, clients, seed=0) as server:
            server.run_round()
            calls.update(construct=0, encode=0)
            server.run_round()
        assert calls == {"construct": 0, "encode": 1 + 4}
