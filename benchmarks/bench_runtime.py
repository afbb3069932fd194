"""Runtime benchmarks: scheduling overlap and transport bytes.

Measures the multi-node layer (:mod:`repro.runtime`) with probes that do
not depend on the machine's core count; round throughput is measured end
to end by the repository benchmark (``perfbench/run.py --workload
federated``).  Results land in ``BENCH_runtime.json`` at the repository
root; ``benchmarks/run.py``'s gate table says which keys are gated.

* ``latency_overlap`` -- the process-pool executor over work units that
  *block* (simulated device/network latency).  This measures pure
  scheduling overlap and reaches ~min(workers, tasks)x on any machine,
  which is the regime a real federated deployment (remote devices, network
  round-trips) lives in.
* ``transport_bytes_per_round`` -- pickled bytes per steady-state round
  (clients installed once, rounds ship refs + seeds, parameters ride
  shared memory) next to the one-time install bytes.  Deterministic.
* ``transport_bytes_float32`` -- shared-memory parameter bytes a round
  rewrites with a float64 detector versus a float32 one.  The round
  buffers are allocated in the model's dtype (``docs/precision.md``), so
  this is deterministically ~2x.

Run through ``python -m benchmarks.run --suite runtime``.
"""

from __future__ import annotations

import datetime
import os
import pickle
import platform
import time

import numpy as np

from repro.datasets import load_lab_iot
from repro.federated.client import FederatedClient
from repro.federated.server import FederatedServer
from repro.federated.simulation import DetectorFactory
from repro.nids.features import TabularFeaturizer
from repro.runtime import Executor, ProcessExecutor, SerialExecutor, default_worker_count

ROWS_PER_CLIENT = 600
LOCAL_EPOCHS = 4
LATENCY_TASKS = 8
LATENCY_SECONDS = 0.05
TRANSPORT_CLIENTS = 8
TRANSPORT_ROUNDS = 2

#: What the measured configurations ship per round (recorded in entries).
RESIDENT_TRANSPORT = "resident (refs + seeds; params via shared memory)"


def _sleep_task(seconds: float) -> float:
    """Module-level blocked work unit for the latency-overlap probe."""
    time.sleep(seconds)
    return seconds


class _MeteredExecutor(Executor):
    """Wraps an executor and counts the pickled bytes a round ships.

    ``map`` payloads and results are measured with ``pickle.dumps`` -- the
    same serialisation the process pool itself performs -- while
    ``install`` bytes are tallied separately (they are one-time, not
    per-round).  Shared-memory buffers are delegated untouched: bytes the
    transport moves through them never cross the task pipe, which is
    exactly what this meter exists to show.
    """

    name = "metered"

    def __init__(self, inner: Executor) -> None:
        super().__init__()
        self.inner = inner
        self.payload_bytes = 0
        self.result_bytes = 0
        self.install_bytes = 0
        self.shared_bytes = 0

    def reset(self) -> None:
        self.payload_bytes = 0
        self.result_bytes = 0

    def pipe_bytes_per_round(self, rounds: int) -> int:
        """Pickled task + result bytes per round since the last reset."""
        return int((self.payload_bytes + self.result_bytes) / rounds)

    def map(self, fn, payloads):
        payloads = list(payloads)
        self.payload_bytes += sum(
            len(pickle.dumps(p, pickle.HIGHEST_PROTOCOL)) for p in payloads
        )
        results = self.inner.map(fn, payloads)
        self.result_bytes += sum(
            len(pickle.dumps(r, pickle.HIGHEST_PROTOCOL)) for r in results
        )
        return results

    def install(self, state):
        self.install_bytes += len(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))
        return self.inner.install(state)

    def evict(self, ref):
        self.inner.evict(ref)

    def shared_array(self, shape, dtype=np.float64):
        # Tally the mapped bytes: these are the parameter bytes every round
        # rewrites through shared memory instead of the task pipe, so they
        # shrink with the model's dtype (float32 maps half of float64).
        self.shared_bytes += int(np.prod(shape)) * np.dtype(dtype).itemsize
        return self.inner.shared_array(shape, dtype)

    def close(self):
        self.inner.close()
        self._closed = True


def _make_clients(
    n_clients: int, rows_per_client: int, seed: int, dtype: str = "float64"
) -> tuple[list, DetectorFactory]:
    """Evenly sized federated clients over a featurised lab-IoT capture."""
    bundle = load_lab_iot(n_records=n_clients * rows_per_client, seed=seed)
    featurizer = TabularFeaturizer(bundle.label_column).fit(bundle.table)
    features, labels = featurizer.transform(bundle.table)
    model_fn = DetectorFactory(
        n_features=features.shape[1],
        n_classes=featurizer.n_classes,
        hidden_dims=(64, 32),
        seed=seed,
        dtype=dtype,
    )
    clients = []
    feature_parts = np.array_split(features, n_clients)
    label_parts = np.array_split(labels, n_clients)
    for i, (X, y) in enumerate(zip(feature_parts, label_parts)):
        clients.append(
            FederatedClient(
                client_id=f"bench-{i}",
                features=X,
                labels=y,
                model_fn=model_fn,
                learning_rate=0.05,
                batch_size=64,
                local_epochs=LOCAL_EPOCHS,
                seed=seed + i,
            )
        )
    return clients, model_fn


def measure_latency_overlap() -> dict:
    """Scheduling overlap, decoupled from core count: blocked work units."""
    serial_start = time.perf_counter()
    SerialExecutor().map(_sleep_task, [LATENCY_SECONDS] * LATENCY_TASKS)
    serial_seconds = time.perf_counter() - serial_start
    with ProcessExecutor(max_workers=LATENCY_TASKS) as pool:
        pool.map(_sleep_task, [LATENCY_SECONDS])  # warm-up: pool start-up
        parallel_start = time.perf_counter()
        pool.map(_sleep_task, [LATENCY_SECONDS] * LATENCY_TASKS)
        parallel_seconds = time.perf_counter() - parallel_start
    return {
        "tasks": LATENCY_TASKS,
        "task_seconds": LATENCY_SECONDS,
        "serial_seconds": round(serial_seconds, 3),
        "process_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 2),
        "cpu_count": default_worker_count(),
    }


def _metered_rounds(n_clients: int, rounds: int, dtype: str = "float64") -> _MeteredExecutor:
    """A warm-up round plus ``rounds`` metered rounds over a real process pool.

    The pool is real, so the refs measured are the shared-memory ones, not
    the in-process identity refs.  The warm-up round carries the one-time
    installs and allocates the round buffers; the pipe counters are reset
    after it, so they cover the steady-state rounds only.
    """
    clients, model_fn = _make_clients(n_clients, ROWS_PER_CLIENT, seed=11, dtype=dtype)
    meter = _MeteredExecutor(ProcessExecutor(max_workers=2))
    server = FederatedServer(model_fn, clients, seed=11, executor=meter)
    try:
        server.run_round()
        meter.reset()
        for _ in range(rounds):
            server.run_round()
    finally:
        server.close()
    return meter


def measure_transport_bytes(
    n_clients: int = TRANSPORT_CLIENTS, rounds: int = TRANSPORT_ROUNDS
) -> dict:
    """Pickled bytes per steady-state round, plus the one-time install bytes."""
    meter = _metered_rounds(n_clients, rounds)
    return {
        "clients": n_clients,
        "rows_per_client": ROWS_PER_CLIENT,
        "rounds_measured": rounds,
        "resident_delta_bytes_per_round": meter.pipe_bytes_per_round(rounds),
        "resident_install_bytes": meter.install_bytes,
        "transport": RESIDENT_TRANSPORT,
        "cpu_count": default_worker_count(),
    }


def measure_dtype_transport(
    n_clients: int = TRANSPORT_CLIENTS, rounds: int = TRANSPORT_ROUNDS
) -> dict:
    """Bytes a federated round moves at float64 vs float32.

    Runs the same detector federation twice -- once with a float64
    :class:`DetectorFactory`, once float32 -- over a metered process pool.
    The dominant per-round traffic is the broadcast vector plus the
    ``(clients, dim)`` update matrix riding shared memory; both are
    allocated in the model's dtype, so the float32 run maps (and rewrites
    each round) half the parameter bytes.  Pipe bytes (refs, seeds, metric
    floats) are dtype-independent and reported for completeness.
    """
    float64 = _metered_rounds(n_clients, rounds, "float64")
    float32 = _metered_rounds(n_clients, rounds, "float32")
    return {
        "clients": n_clients,
        "rows_per_client": ROWS_PER_CLIENT,
        "rounds_measured": rounds,
        "float64_param_bytes_per_round": float64.shared_bytes,
        "float32_param_bytes_per_round": float32.shared_bytes,
        "float64_pipe_bytes_per_round": float64.pipe_bytes_per_round(rounds),
        "float32_pipe_bytes_per_round": float32.pipe_bytes_per_round(rounds),
        "reduction": round(float64.shared_bytes / float32.shared_bytes, 2),
        "transport": RESIDENT_TRANSPORT,
        "cpu_count": default_worker_count(),
    }


def run_runtime_bench() -> dict:
    """Measure all runtime probes and return the trajectory document."""
    return {
        "benchmark": "runtime",
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "usable_cpus": default_worker_count(),
        },
        "config": {
            "dataset": "lab_iot",
            "rows_per_client": ROWS_PER_CLIENT,
            "local_epochs": LOCAL_EPOCHS,
            "batch_size": 64,
        },
        "metrics": {
            "latency_overlap": measure_latency_overlap(),
            "transport_bytes_per_round": measure_transport_bytes(),
            "transport_bytes_float32": measure_dtype_transport(),
        },
        "notes": (
            "latency_overlap isolates scheduling overlap with blocked work "
            "units and is core-count independent. transport_bytes_per_round "
            "is deterministic: a steady-state round pickles only refs + "
            "seeds + metric floats, with parameters riding shared memory "
            "instead of the task pipe; the clients' partitions cross once, "
            "as install bytes. Round throughput is measured by perfbench's "
            "federated workload."
        ),
    }
