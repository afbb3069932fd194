"""Executor parity and golden digests: seeded runs are pinned, then must agree.

These tests are the acceptance gate of the execution plane.  For every
multi-node layer (FedAvg server, federated NIDS simulation, distributed
synthetic-sharing simulation, federated KiNETGAN):

* the serial run must match the committed golden digest in
  ``parity_golden.json`` -- the seeded outputs pinned to absolute values;
* the thread-pool and process-pool runs must be bit-identical to the
  serial run -- not approximately, bit for bit.

A single-site KiNETGAN fit is pinned the same way (golden digest only), so
the training step every layer runs has a golden of its own.

A digest stores a SHA-256 of every integer or categorical output
(participant and dropped lists, categorical sample columns), the value of
every float scalar and, for every float array, its sum, its sum of squares
and 8 strided values.  Floats are compared with a relative tolerance of
1e-9 (float64) or 1e-4 (float32), because seeded outputs move with the
BLAS build and platform.  After an intended change to a seeded output,
regenerate the file with::

    PYTHONPATH=src python tests/runtime/test_parity.py

The contract is *per dtype* (``docs/precision.md``): the ``*Float32``
classes rerun with float32 engines and carry their own golden digests --
float32 runs are not expected to match float64 ones, but within a dtype
every executor must agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import IndependentSampler
from repro.core import KiNETGAN
from repro.core.config import KiNETGANConfig
from repro.datasets import load_lab_iot
from repro.distributed.simulation import DistributedNIDSSimulation
from repro.engine import sampling_rng
from repro.federated.client import FederatedClient
from repro.federated.dp import DPFedAvgConfig
from repro.federated.kinetgan import FederatedKiNETGAN
from repro.federated.partition import label_skew_partition
from repro.federated.server import FederatedServer
from repro.federated.simulation import DetectorFactory, FederatedNIDSSimulation
from repro.runtime import FaultInjector, ProcessExecutor, ThreadExecutor
from repro.tabular.table import Table

GOLDEN_PATH = Path(__file__).with_name("parity_golden.json")

#: Pooled executors compared bit for bit against the serial run.
MATRIX = [
    pytest.param(lambda: ThreadExecutor(max_workers=2), id="thread-resident"),
    pytest.param(lambda: ProcessExecutor(max_workers=2), id="process-resident"),
]


def _crashing_process(task_id: int):
    """A 2-worker process pool whose worker crashes on one mid-run task."""
    executor = ProcessExecutor(max_workers=2)
    executor.install_faults(FaultInjector.crash_once(task_id=task_id))
    return executor


def _straggling_thread(task_id: int):
    """A 2-worker thread pool with one injected mid-run straggler.

    The injected delay (0.75s) exceeds the test policies' 0.25s deadline,
    so the worker abandons the attempt before the task body runs and the
    parent's replay is the only execution -- then recovery must be
    bit-identical to a fault-free run.
    """
    executor = ThreadExecutor(max_workers=2)
    executor.install_faults(FaultInjector.straggle_once(task_id=task_id, delay_seconds=0.75))
    return executor


#: Fault-injection entries of the recovery matrix: (executor factory,
#: task_timeout) pairs.  Task ids address "round r of k work units, slot s"
#: as r * k + s through the executor's global dispatch counter.
FAULT_MATRIX = [
    pytest.param(_crashing_process, None, id="process-crash-retry"),
    pytest.param(_straggling_thread, 0.25, id="thread-straggler-delay"),
]


# ---------------------------------------------------------------------- #
# Golden digests
# ---------------------------------------------------------------------- #
def _is_leaf(value) -> bool:
    return not (
        isinstance(value, (dict, list, tuple, Table, np.ndarray))
        or dataclasses.is_dataclass(value)
    )


def _digest_leaf(value) -> dict:
    array = np.asarray(value)
    if array.dtype.kind != "f" or array.size == 0:
        text = json.dumps(array.tolist(), sort_keys=True)
        return {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    if array.ndim == 0:
        return {"value": float(array)}
    flat = array.astype(np.float64).ravel()
    strided = np.linspace(0, flat.size - 1, num=min(8, flat.size)).round().astype(int)
    return {
        "shape": list(array.shape),
        "sum": float(flat.sum()),
        "sumsq": float(flat @ flat),
        "strided": flat[strided].tolist(),
    }


def fingerprint(value, path: str = "") -> dict[str, dict]:
    """Flatten a run's outputs into ``{path: digest}`` (see module docstring)."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    elif isinstance(value, Table):
        value = {name: value.column(name) for name in value.schema.names}
    if isinstance(value, dict):
        items = sorted(value.items())
    elif isinstance(value, (list, tuple)) and not all(_is_leaf(item) for item in value):
        items = list(enumerate(value))
    else:
        return {path or "/": _digest_leaf(value)}
    digests: dict[str, dict] = {}
    for key, item in items:
        digests.update(fingerprint(item, f"{path}/{key}"))
    return digests


def _assert_matches_golden(actual: dict, expected: dict, rtol: float) -> None:
    assert sorted(actual) == sorted(expected)
    for path, want in expected.items():
        got = actual[path]
        if "sha256" in want:
            assert got == want, path
            continue
        assert got.keys() == want.keys() and got.get("shape") == want.get("shape"), path
        for key in sorted(want.keys() - {"shape"}):
            np.testing.assert_allclose(
                got[key], want[key], rtol=rtol, atol=rtol, equal_nan=True, err_msg=path
            )


class _GoldenParity:
    """A class-scoped serial run (``baseline``) checked against its golden.

    Subclasses define ``_run(bundle, executor)`` and their own pooled
    bit-identity test against ``baseline``.
    """

    #: Relative (and absolute) float tolerance of the golden comparison.
    RTOL = 1e-9

    @pytest.fixture(scope="class")
    def baseline(self, lab_bundle_small):
        return self._run(lab_bundle_small, None)

    def test_serial_run_matches_golden(self, baseline):
        golden = json.loads(GOLDEN_PATH.read_text())[type(self).__name__]
        _assert_matches_golden(fingerprint(baseline), golden, self.RTOL)


# ---------------------------------------------------------------------- #
def _assert_states_equal(expected: dict, actual: dict) -> None:
    assert set(expected) == set(actual)
    for key in expected:
        assert np.array_equal(expected[key], actual[key]), key


def _make_clients(n_clients: int, model_fn: DetectorFactory) -> list[FederatedClient]:
    rng = np.random.default_rng(0)
    clients = []
    for i in range(n_clients):
        features = rng.normal(size=(96, model_fn.n_features))
        labels = rng.integers(0, model_fn.n_classes, size=96)
        clients.append(
            FederatedClient(
                client_id=f"c{i}",
                features=features,
                labels=labels,
                model_fn=model_fn,
                learning_rate=0.05,
                batch_size=32,
                local_epochs=2,
                seed=i,
            )
        )
    return clients


class TestServerParity(_GoldenParity):
    MODEL_FN = DetectorFactory(n_features=5, n_classes=2, hidden_dims=(8,), seed=0)

    @classmethod
    def _run(cls, bundle, executor):
        with FederatedServer(
            cls.MODEL_FN, _make_clients(3, cls.MODEL_FN), seed=0, executor=executor
        ) as server:
            server.run(3)
            return server.global_state, server.history.rounds

    @pytest.mark.parametrize("executor_factory", MATRIX)
    def test_global_state_and_history_bit_identical(self, baseline, executor_factory):
        state, rounds = self._run(None, executor_factory())
        _assert_states_equal(baseline[0], state)
        assert baseline[1] == rounds


class TestFederatedSimulationParity(_GoldenParity):
    @staticmethod
    def _run(bundle, executor):
        with FederatedNIDSSimulation(
            bundle,
            num_clients=3,
            skew=0.5,
            hidden_dims=(8,),
            num_rounds=2,
            local_epochs=1,
            seed=0,
            executor=executor,
        ) as simulation:
            return simulation.run()

    @pytest.mark.parametrize("executor_factory", MATRIX)
    def test_seeded_results_identical(self, baseline, lab_bundle_small, executor_factory):
        result = self._run(lab_bundle_small, executor_factory())
        assert baseline.federated == result.federated
        assert baseline.centralised == result.centralised
        assert baseline.local_only == result.local_only
        assert baseline.round_accuracies == result.round_accuracies
        assert baseline.per_client_local == result.per_client_local


class TestServerParityFloat32(TestServerParity):
    """The dtype axis of the parity contract (``docs/precision.md``).

    A float32 detector federation must match its *own* float32 golden and
    be bit-identical across executors: the per-dtype RNG streams, the
    float32 codec transport and the float32 shared buffers all have to
    agree for this to hold.
    """

    RTOL = 1e-4
    MODEL_FN = DetectorFactory(n_features=5, n_classes=2, hidden_dims=(8,), seed=0, dtype="float32")

    def test_global_state_is_float32(self, baseline):
        state, _rounds = baseline
        assert {np.asarray(value).dtype for value in state.values()} == {
            np.dtype(np.float32)
        }

    def test_evaluation_runs_in_model_dtype(self):
        """Held-out features arrive float64; a float32 federation evaluates
        and predicts on them instead of rejecting the mismatched input."""
        features = np.random.default_rng(1).normal(size=(40, 5))
        labels = (features[:, 0] > 0).astype(int)
        with FederatedServer(self.MODEL_FN, _make_clients(3, self.MODEL_FN), seed=0) as server:
            history = server.run(2, eval_features=features, eval_labels=labels)
            predictions = server.predict(features)
        assert len(history.accuracies()) == 2
        assert history.final_accuracy == float((predictions == labels).mean())


class TestServerDPParity(_GoldenParity):
    """DP-FedAvg on the detector server: clipped updates (the clip norm is
    chosen so some updates are scaled and some are not), a noised average,
    a non-unit server learning rate and the per-round epsilon.  The clip
    norms themselves are part of the pinned output."""

    MODEL_FN = TestServerParity.MODEL_FN
    DP = DPFedAvgConfig(clip_norm=0.15, noise_multiplier=0.5)

    @classmethod
    def _run(cls, bundle, executor):
        with FederatedServer(
            cls.MODEL_FN,
            _make_clients(3, cls.MODEL_FN),
            server_lr=0.8,
            dp_config=cls.DP,
            seed=0,
            executor=executor,
        ) as server:
            server.run(2)
            return server.global_state, server.history.rounds, server.dp_mechanism._clip_events

    @pytest.mark.parametrize("executor_factory", MATRIX)
    def test_global_state_and_history_bit_identical(self, baseline, executor_factory):
        state, rounds, clip_norms = self._run(None, executor_factory())
        _assert_states_equal(baseline[0], state)
        assert baseline[1] == rounds
        assert baseline[2] == clip_norms


class TestServerDPParityFloat32(TestServerDPParity):
    """DP-FedAvg with a float32 detector: the noise is drawn in float64 and
    the noised average rounds back to float32."""

    RTOL = 1e-4
    MODEL_FN = TestServerParityFloat32.MODEL_FN

    def test_global_state_is_float32(self, baseline):
        assert {np.asarray(value).dtype for value in baseline[0].values()} == {np.dtype(np.float32)}


class TestDistributedSimulationParity(_GoldenParity):
    @staticmethod
    def _run(bundle, executor):
        with DistributedNIDSSimulation(
            bundle,
            num_nodes=3,
            non_iid_skew=0.5,
            synthesizer_factory=lambda seed: IndependentSampler(seed=seed),
            seed=5,
            executor=executor,
        ) as simulation:
            return simulation.run(share_size=120)

    @pytest.mark.parametrize("executor_factory", MATRIX)
    def test_seeded_results_identical(self, baseline, lab_bundle_small, executor_factory):
        result = self._run(lab_bundle_small, executor_factory())
        assert baseline.local_only == result.local_only
        assert baseline.synthetic_sharing == result.synthetic_sharing
        assert baseline.centralised_real == result.centralised_real
        assert baseline.per_node_local == result.per_node_local
        assert baseline.share_validity == result.share_validity


class TestFederatedKiNETGANParity(_GoldenParity):
    """Two rounds, so cross-round worker state (Adam moments, the trainer
    RNG, the KG head) is exercised: a resident site whose delta round-trip
    dropped any of it would diverge from the serial baseline in round 2."""

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

    @classmethod
    def _run(cls, bundle, executor):
        table = bundle.table.head(300)
        rng = np.random.default_rng(0)
        parts = label_skew_partition(table, "label", 2, rng, skew=0.5, min_rows=20)
        with FederatedKiNETGAN(
            reference_table=table.head(150),
            config=cls.CONFIG,
            catalog=bundle.catalog,
            condition_columns=bundle.condition_columns,
            seed=0,
            executor=executor,
        ) as fed:
            handles = [fed.add_site(f"site-{i}", part) for i, part in enumerate(parts)]
            fed.run(num_rounds=2, local_epochs=1)
            # Site handles returned by add_site must keep pointing at the
            # trained state (history, weights) whichever worker trained it.
            for handle, site in zip(handles, fed.sites):
                assert handle is site
                assert handle.trainer.history.epochs >= 2
            generator_state, discriminator_state = fed.global_states()
            sample = fed.sample(60)
            return generator_state, discriminator_state, sample

    @pytest.mark.parametrize("executor_factory", MATRIX)
    def test_global_weights_and_sample_bit_identical(
        self, baseline, lab_bundle_small, executor_factory
    ):
        generator_state, discriminator_state, sample = self._run(
            lab_bundle_small, executor_factory()
        )
        _assert_states_equal(baseline[0], generator_state)
        _assert_states_equal(baseline[1], discriminator_state)
        for name in baseline[2].schema.names:
            assert list(baseline[2].column(name)) == list(sample.column(name)), name


class TestFederatedKiNETGANParityFloat32(TestFederatedKiNETGANParity):
    """The dtype axis on the full model: a float32 federated KiNETGAN fit
    must match its own float32 golden, stay bit-identical across executors,
    and its global states must actually be float32 end to end (codec,
    shared buffers, aggregation)."""

    RTOL = 1e-4
    CONFIG = dataclasses.replace(TestFederatedKiNETGANParity.CONFIG, dtype="float32")

    def test_global_states_are_float32(self, baseline):
        generator_state, discriminator_state, _sample = baseline
        for state in (generator_state, discriminator_state):
            assert {np.asarray(value).dtype for value in state.values()} == {
                np.dtype(np.float32)
            }


class TestFederatedKiNETGANDPParity(_GoldenParity):
    """DP-FedAvg on federated KiNETGAN, two rounds: each site's weight delta
    is clipped (some generator deltas exceed the clip norm, some do not),
    the averaged delta is noised per network and epsilon is accounted.  The
    clip norms of both networks are part of the pinned output."""

    CONFIG = TestFederatedKiNETGANParity.CONFIG
    DP = DPFedAvgConfig(clip_norm=1.0, noise_multiplier=0.5)

    @classmethod
    def _run(cls, bundle, executor):
        table = bundle.table.head(300)
        rng = np.random.default_rng(0)
        parts = label_skew_partition(table, "label", 2, rng, skew=0.5, min_rows=20)
        with FederatedKiNETGAN(
            reference_table=table.head(150),
            config=cls.CONFIG,
            catalog=bundle.catalog,
            condition_columns=bundle.condition_columns,
            dp_config=cls.DP,
            seed=0,
            executor=executor,
        ) as fed:
            for i, part in enumerate(parts):
                fed.add_site(f"site-{i}", part)
            rounds = fed.run(num_rounds=2, local_epochs=1)
            generator_state, discriminator_state = fed.global_states()
            clip_norms = [fed.dp_generator._clip_events, fed.dp_discriminator._clip_events]
            return generator_state, discriminator_state, fed.sample(60), rounds, clip_norms

    @pytest.mark.parametrize("executor_factory", MATRIX)
    def test_global_weights_and_sample_bit_identical(
        self, baseline, lab_bundle_small, executor_factory
    ):
        generator_state, discriminator_state, sample, rounds, clip_norms = self._run(
            lab_bundle_small, executor_factory()
        )
        _assert_states_equal(baseline[0], generator_state)
        _assert_states_equal(baseline[1], discriminator_state)
        for name in baseline[2].schema.names:
            assert list(baseline[2].column(name)) == list(sample.column(name)), name
        assert baseline[3] == rounds
        assert baseline[4] == clip_norms


class TestFederatedKiNETGANDPParityFloat32(TestFederatedKiNETGANDPParity):
    """The DP round with a float32 engine: float32 deltas, float64 norms and
    noise, a float32 noised average."""

    RTOL = 1e-4
    CONFIG = TestFederatedKiNETGANParityFloat32.CONFIG

    def test_global_states_are_float32(self, baseline):
        for state in baseline[:2]:
            assert {np.asarray(value).dtype for value in state.values()} == {np.dtype(np.float32)}


class TestSingleSiteKiNETGANParity(_GoldenParity):
    """One KiNETGAN fit on one site, shaped like the ``train`` benchmark
    workload: 64 head negatives per batch of 64 and the valid-set penalty on
    every generator step, including ``dst_port``'s wide valid sets.  The
    federated classes above use 8 negatives and 16-wide nets, so this class
    is what pins the knowledge-guided discriminator's full training path."""

    CONFIG = KiNETGANConfig(
        embedding_dim=16,
        generator_dims=(32,),
        discriminator_dims=(32,),
        epochs=3,
        batch_size=64,
        lambda_knowledge=2.0,
        knowledge_negatives_per_batch=64,
        seed=0,
    )
    LOSSES = ("generator_loss", "discriminator_loss", "condition_loss", "knowledge_loss")

    @classmethod
    def _run(cls, bundle, executor):
        model = KiNETGAN(cls.CONFIG).fit(
            bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns
        )
        history = {name: getattr(model.history, name) for name in cls.LOSSES}
        return history, model.sample(2000, rng=sampling_rng(cls.CONFIG.seed))


class TestSingleSiteKiNETGANParityFloat32(TestSingleSiteKiNETGANParity):
    """The same fit with a float32 engine (its own golden, see
    ``docs/precision.md``): the head sees real, corrupted and generated rows
    through one float32 cast at its input."""

    RTOL = 1e-4
    CONFIG = dataclasses.replace(TestSingleSiteKiNETGANParity.CONFIG, dtype="float32")


class TestServerFaultRecoveryParity:
    """Recovery must be invisible: an injected mid-run worker crash (process
    pool) or abandoned straggler (thread pool) is absorbed by the deadline /
    retry machinery, and because the replay reuses the exact per-task
    SeedSequence child, the recovered run is bit-identical to a fault-free
    one -- same global state, same round history, nothing dropped."""

    #: 3 clients x 3 rounds dispatch task ids 0..8 through the executor's
    #: global counter; id 4 is round 2, slot 1 -- a mid-run fault.
    MID_RUN_TASK = 4

    @staticmethod
    def _run(executor, task_timeout):
        model_fn = DetectorFactory(n_features=5, n_classes=2, hidden_dims=(8,), seed=0)
        with FederatedServer(
            model_fn,
            _make_clients(3, model_fn),
            seed=0,
            executor=executor,
            task_timeout=task_timeout,
            task_retries=2,
        ) as server:
            server.run(3)
            return server.global_state, server.history.rounds

    @pytest.fixture(scope="class")
    def baseline(self):
        return self._run(None, None)

    @pytest.mark.parametrize("executor_factory,task_timeout", FAULT_MATRIX)
    def test_recovered_run_bit_identical(self, baseline, executor_factory, task_timeout):
        state, rounds = self._run(executor_factory(self.MID_RUN_TASK), task_timeout)
        assert [r.dropped for r in rounds] == [[], [], []]
        _assert_states_equal(baseline[0], state)
        assert baseline[1] == rounds


class TestFederatedKiNETGANFaultRecovery:
    """The acceptance gate of the fault-tolerant plane on the full model: a
    seeded federated KiNETGAN run with an injected mid-round worker crash
    (process executor) or straggler past the deadline (thread executor)
    completes via retry / replay with final global weights and samples
    bit-identical to the fault-free run."""

    #: 2 sites x 2 rounds dispatch task ids 0..3; id 2 is round 2, slot 0.
    MID_RUN_TASK = 2

    @classmethod
    def _run(cls, bundle, executor, task_timeout):
        table = bundle.table.head(300)
        rng = np.random.default_rng(0)
        parts = label_skew_partition(table, "label", 2, rng, skew=0.5, min_rows=20)
        with FederatedKiNETGAN(
            reference_table=table.head(150),
            config=TestFederatedKiNETGANParity.CONFIG,
            catalog=bundle.catalog,
            condition_columns=bundle.condition_columns,
            seed=0,
            executor=executor,
            task_timeout=task_timeout,
            task_retries=2,
        ) as fed:
            for i, part in enumerate(parts):
                fed.add_site(f"site-{i}", part)
            rounds = fed.run(num_rounds=2, local_epochs=1)
            assert [r.dropped for r in rounds] == [[], []]
            generator_state, discriminator_state = fed.global_states()
            return generator_state, discriminator_state, fed.sample(60)

    @pytest.fixture(scope="class")
    def baseline(self, lab_bundle_small):
        return self._run(lab_bundle_small, None, None)

    @pytest.mark.parametrize("executor_factory,task_timeout", FAULT_MATRIX)
    def test_crash_and_straggler_recover_bit_identical(
        self, baseline, lab_bundle_small, executor_factory, task_timeout
    ):
        generator_state, discriminator_state, sample = self._run(
            lab_bundle_small, executor_factory(self.MID_RUN_TASK), task_timeout
        )
        _assert_states_equal(baseline[0], generator_state)
        _assert_states_equal(baseline[1], discriminator_state)
        for name in baseline[2].schema.names:
            assert list(baseline[2].column(name)) == list(sample.column(name)), name


def write_golden(path: Path = GOLDEN_PATH) -> None:
    """Re-record every golden digest from the serial runs."""
    bundle = load_lab_iot(n_records=900, seed=13)  # the ``lab_bundle_small`` fixture
    classes = [
        TestServerParity,
        TestServerParityFloat32,
        TestServerDPParity,
        TestServerDPParityFloat32,
        TestFederatedSimulationParity,
        TestDistributedSimulationParity,
        TestFederatedKiNETGANParity,
        TestFederatedKiNETGANParityFloat32,
        TestFederatedKiNETGANDPParity,
        TestFederatedKiNETGANDPParityFloat32,
        TestSingleSiteKiNETGANParity,
        TestSingleSiteKiNETGANParityFloat32,
    ]
    goldens = {cls.__name__: fingerprint(cls._run(bundle, None)) for cls in classes}
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
