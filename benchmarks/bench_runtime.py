"""Runtime benchmarks: round throughput, scheduling overlap, transport bytes.

Measures how fast the multi-node layer turns over synchronous FedAvg rounds
at 4 / 8 / 16 clients under the serial, process-pool and thread-pool
executors (:mod:`repro.runtime`), a latency-overlap probe that isolates the
runtime's ability to overlap blocked time from the machine's core count,
and a *transport-bytes* probe that counts what actually crosses the task
pipe per round.  Results land in ``BENCH_runtime.json`` at the repository
root so future PRs have a trajectory to compare against.

Interpreting the numbers:

* ``federated_round_Nclients`` -- wall-clock round throughput.  Client-side
  local training is CPU-bound numpy, so pool speedups are capped by
  physical cores: on a multi-core runner 8 clients over >= 4 workers
  should clear 2x, while a single-core machine can at best break even.
  Every entry records the ``cpu_count`` it was measured with; the smoke
  gate skips these core-count-sensitive comparisons on mismatched runners.
* ``latency_overlap`` -- the same executor machinery over work units that
  *block* (simulated device/network latency).  This measures pure
  scheduling overlap and reaches ~min(workers, tasks)x on any machine,
  which is the regime a real federated deployment (remote devices, network
  round-trips) lives in.
* ``transport_bytes_per_round`` -- pickled bytes per steady-state round
  (clients installed once, rounds ship refs + seeds, parameters ride
  shared memory) next to the one-time install bytes.  This is
  deterministic and core-count independent.
* ``transport_bytes_float32`` -- shared-memory parameter bytes a round
  rewrites with a float64 detector versus a float32 one.  The round
  buffers are allocated in the model's dtype (``docs/precision.md``), so
  this is deterministically ~2x and core-count independent.

Run directly (``python -m benchmarks.bench_runtime``) or through
``python -m benchmarks.run --suite runtime``.
"""

from __future__ import annotations

import datetime
import json
import os
import pickle
import platform
import time
from pathlib import Path

import numpy as np

from repro.datasets import load_lab_iot
from repro.federated.client import FederatedClient
from repro.federated.server import FederatedServer
from repro.federated.simulation import DetectorFactory
from repro.nids.features import TabularFeaturizer
from repro.runtime import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_worker_count,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

#: Client counts the round-throughput benchmark sweeps.
CLIENT_COUNTS = (4, 8, 16)
ROWS_PER_CLIENT = int(os.environ.get("REPRO_BENCH_ROWS_PER_CLIENT", "600"))
LOCAL_EPOCHS = int(os.environ.get("REPRO_BENCH_LOCAL_EPOCHS", "4"))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "3"))
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


def _rounds_per_sec(executor, n_clients: int, rounds: int, seed: int) -> float:
    """Timed FedAvg rounds on a fresh server (1 warm-up round untimed)."""
    clients, model_fn = _make_clients(n_clients, ROWS_PER_CLIENT, seed)
    server = FederatedServer(model_fn, clients, seed=seed, executor=executor)
    try:
        server.run_round()  # warm-up: spins the pool up and installs state
        start = time.perf_counter()
        for _ in range(rounds):
            server.run_round()
        elapsed = time.perf_counter() - start
    finally:
        server.release_transport()
    return rounds / elapsed


def measure_round_throughput(
    client_counts: tuple[int, ...] = CLIENT_COUNTS, rounds: int = ROUNDS
) -> dict[str, dict]:
    """Round throughput serial vs process vs thread at each client count."""
    cores = default_worker_count()
    metrics: dict[str, dict] = {}
    for n_clients in client_counts:
        workers = min(n_clients, max(2, cores))
        serial = _rounds_per_sec(SerialExecutor(), n_clients, rounds, seed=7)
        with ProcessExecutor(max_workers=workers) as pool:
            process = _rounds_per_sec(pool, n_clients, rounds, seed=7)
        with ThreadExecutor(max_workers=workers) as pool:
            thread = _rounds_per_sec(pool, n_clients, rounds, seed=7)
        metrics[f"federated_round_{n_clients}clients"] = {
            "serial_rounds_per_sec": round(serial, 3),
            "process_rounds_per_sec": round(process, 3),
            "thread_rounds_per_sec": round(thread, 3),
            "speedup": round(process / serial, 2),
            "thread_speedup": round(thread / serial, 2),
            "workers": workers,
            "rows_per_client": ROWS_PER_CLIENT,
            "transport": RESIDENT_TRANSPORT,
            "cpu_count": cores,
        }
    return metrics


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


def run_runtime_bench(
    client_counts: tuple[int, ...] = CLIENT_COUNTS, rounds: int = ROUNDS
) -> dict:
    """Measure all runtime probes and return the trajectory document."""
    cores = default_worker_count()
    metrics = measure_round_throughput(client_counts, rounds)
    metrics["latency_overlap"] = measure_latency_overlap()
    metrics["transport_bytes_per_round"] = measure_transport_bytes()
    metrics["transport_bytes_float32"] = measure_dtype_transport()

    return {
        "benchmark": "runtime",
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "usable_cpus": cores,
        },
        "config": {
            "dataset": "lab_iot",
            "client_counts": list(client_counts),
            "rounds": rounds,
            "rows_per_client": ROWS_PER_CLIENT,
            "local_epochs": LOCAL_EPOCHS,
            "batch_size": 64,
        },
        "metrics": metrics,
        "notes": (
            "Round throughput is CPU-bound: pool speedups scale with "
            "physical cores (>=2x at 8 clients needs >=4 usable cores; a "
            "1-core machine shows executor overhead instead), so every "
            "entry records its cpu_count and the smoke gate only compares "
            "them on a matching runner. latency_overlap isolates "
            "scheduling overlap with blocked work units and is core-count "
            "independent. transport_bytes_per_round is deterministic: a "
            "steady-state round pickles only refs + seeds + metric floats, "
            "with parameters riding shared memory instead of the task pipe; "
            "the clients' partitions cross once, as install bytes."
        ),
    }


def write_results(document: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def format_results(document: dict) -> str:
    machine = document["machine"]
    lines = [f"[bench:runtime] lab-IoT federated rounds ({machine['usable_cpus']} usable cpus)"]
    for name, entry in document["metrics"].items():
        if name.startswith("federated_round"):
            lines.append(
                f"  {name:28s} serial {entry['serial_rounds_per_sec']:>7.3f} rounds/s"
                f" -> process {entry['process_rounds_per_sec']:>7.3f}"
                f" / thread {entry['thread_rounds_per_sec']:>7.3f} rounds/s"
                f"  ({entry['speedup']}x / {entry['thread_speedup']}x,"
                f" {entry['workers']} workers)"
            )
        elif name == "latency_overlap":
            lines.append(
                f"  {name:28s} serial {entry['serial_seconds']:.3f}s"
                f" -> process {entry['process_seconds']:.3f}s"
                f"  ({entry['speedup']}x, {entry['tasks']} blocked tasks)"
            )
        elif name == "transport_bytes_float32":
            lines.append(
                f"  {name:28s} float64 {entry['float64_param_bytes_per_round']:,} B/round"
                f" -> float32 {entry['float32_param_bytes_per_round']:,} B/round"
                f"  ({entry['reduction']}x less, {entry['clients']} clients,"
                f" shared-memory params)"
            )
        else:
            lines.append(
                f"  {name:28s} {entry['resident_delta_bytes_per_round']:,} B/round"
                f"  ({entry['clients']} clients;"
                f" one-time install {entry['resident_install_bytes']:,} B)"
            )
    return "\n".join(lines)


def main() -> None:
    document = run_runtime_bench()
    path = write_results(document)
    print(format_results(document))
    print(f"[bench:runtime] wrote {path}")


if __name__ == "__main__":
    main()
