"""Serving benchmark: HTTP request latency under a multi-client burst.

Measures the :mod:`repro.serve` layer end to end on a small lab-IoT
KiNETGAN.  Results land in ``BENCH_serving.json`` at the repository root;
``benchmarks/run.py``'s gate table holds the bounds.  Sampling throughput
is measured end to end by the repository benchmark (``perfbench/run.py
--workload serve``), not here.

* ``latency_slo`` -- end-to-end request latency (p50/p99) of the HTTP
  front-end under a sustained multi-client burst: several client threads
  each firing seeded ``POST /sample`` requests back to back against a
  running :class:`~repro.serve.SamplingHTTPServer`.  Throughput alone
  hides queue buildup; the p99 is what an operator provisions against,
  and the admission queue must absorb the burst without rejections.

Run through ``python -m benchmarks.run --suite serving``.
"""

from __future__ import annotations

import datetime
import os
import platform
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core import KiNETGAN, KiNETGANConfig
from repro.datasets import load_lab_iot
from repro.serve import SamplingHTTPServer, ServingPool, request_samples, save_model

BENCH_ROWS = 1500
BENCH_EPOCHS = 8
ROWS_PER_REQUEST = 64
HTTP_CLIENTS = 4
HTTP_REQUESTS_PER_CLIENT = 24


def _train_model(rows: int, epochs: int) -> KiNETGAN:
    bundle = load_lab_iot(n_records=rows, seed=0)
    config = KiNETGANConfig(
        embedding_dim=32,
        generator_dims=(64, 64),
        discriminator_dims=(64, 64),
        epochs=epochs,
        batch_size=128,
        seed=0,
    )
    model = KiNETGAN(config)
    model.fit(
        bundle.table,
        catalog=bundle.catalog,
        condition_columns=bundle.condition_columns,
    )
    return model


@contextmanager
def saved_artifact(rows: int, epochs: int):
    """Train a KiNETGAN on ``rows`` lab-IoT rows and yield its saved artifact."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        artifact = Path(tmp) / "kinetgan"
        save_model(_train_model(rows, epochs), artifact, metadata={"benchmark": "serving"})
        yield artifact


def measure_http_latency(artifact: Path) -> dict:
    """p50/p99 request latency of the HTTP front-end under a client burst.

    ``HTTP_CLIENTS`` threads each fire ``HTTP_REQUESTS_PER_CLIENT`` seeded
    ``/sample`` requests back to back against a thread-pool server on
    loopback; every request's end-to-end wall time (connect -> parsed
    table) is recorded.
    """
    latencies: list[list[float]] = [[] for _ in range(HTTP_CLIENTS)]
    with ServingPool({"bench": artifact}, executor="thread:2") as pool:
        with SamplingHTTPServer(
            pool, port=0, queue_depth=HTTP_CLIENTS * HTTP_REQUESTS_PER_CLIENT
        ) as server:
            url = server.url

            def run_client(slot: int) -> None:
                for i in range(HTTP_REQUESTS_PER_CLIENT):
                    start = time.perf_counter()
                    request_samples(url, "bench", ROWS_PER_REQUEST, seed=slot * 10_000 + i)
                    latencies[slot].append(time.perf_counter() - start)

            threads = [
                threading.Thread(target=run_client, args=(slot,)) for slot in range(HTTP_CLIENTS)
            ]
            burst_start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            burst_seconds = time.perf_counter() - burst_start
            rejected = server.stats.snapshot()["rejected"]
    flat = np.sort(np.concatenate([np.asarray(times) for times in latencies]))
    total = int(flat.size)
    return {
        "clients": HTTP_CLIENTS,
        "requests_per_client": HTTP_REQUESTS_PER_CLIENT,
        "rows_per_request": ROWS_PER_REQUEST,
        "requests": total,
        "p50_ms": round(float(np.percentile(flat, 50)) * 1000, 2),
        "p99_ms": round(float(np.percentile(flat, 99)) * 1000, 2),
        "max_ms": round(float(flat[-1]) * 1000, 2),
        "requests_per_sec": round(total / burst_seconds, 1),
        "rejected": int(rejected),
    }


def measure_latency_slo(rows: int = BENCH_ROWS, epochs: int = BENCH_EPOCHS) -> dict:
    """The HTTP burst against a freshly trained ``rows`` x ``epochs`` model."""
    with saved_artifact(rows, epochs) as artifact:
        return measure_http_latency(artifact)


def run_serving_bench() -> dict:
    """Measure the serving layer and return the benchmark document."""
    return {
        "benchmark": "serving",
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "config": {
            "dataset": "lab_iot",
            "train_rows": BENCH_ROWS,
            "train_epochs": BENCH_EPOCHS,
            "rows_per_request": ROWS_PER_REQUEST,
        },
        "metrics": {"latency_slo": measure_latency_slo()},
        "notes": (
            "latency_slo is the HTTP front-end under a sustained "
            "multi-client burst (loopback, thread-pool workers, JSON wire "
            "format): p50 is the steady-state request cost, p99 the "
            "queueing tail an operator provisions against. Sampling "
            "throughput is measured by perfbench's serve workload."
        ),
    }
