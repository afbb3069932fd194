"""Serving benchmarks: artifact sampling and request-batching throughput.

Measures the :mod:`repro.serve` layer end to end on a small lab-IoT
KiNETGAN: how fast a loaded artifact produces rows through the one-shot,
streamed, and micro-batched paths, how much request coalescing buys over
serving the same burst one request at a time, and how long artifact
save / load round-trips take.  Results land in ``BENCH_serving.json`` at
the repository root so future PRs have a trajectory to compare against.

Interpreting the numbers:

* ``sample_rows_per_sec`` -- single-request sampling throughput of a
  loaded artifact (blocked generator forwards + per-block winners + decode).
* ``stream_rows_per_sec`` -- the same request streamed in bounded-memory
  chunks; the gap to one-shot is the per-chunk decode overhead.
* ``batched_requests`` -- a burst of concurrent requests served through
  ``SamplingService.sample_many`` (one coalesced share step and decode)
  versus the same burst served request-by-request; the
  ``speedup`` is what micro-batching buys.
* ``artifact_round_trip`` -- ``save_model`` + ``load_model`` wall time.
* ``sample_rows_per_sec_float32`` -- the one-shot row again for a model
  trained, saved and reloaded at ``dtype="float32"`` (half-size weight
  files, dtype recorded in the manifest; see ``docs/precision.md``).
* ``latency_slo`` -- end-to-end request latency (p50/p99) of the HTTP
  front-end under a sustained multi-client burst: several client threads
  each firing seeded ``POST /sample`` requests back to back against a
  running :class:`~repro.serve.SamplingHTTPServer`.  This is the
  latency-SLO row the CI smoke gate checks; throughput alone hides queue
  buildup, the p99 is what an operator provisions against.

Run directly (``python -m benchmarks.bench_serving``) or through
``python -m benchmarks.run --suite serving``.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import KiNETGAN, KiNETGANConfig
from repro.datasets import load_lab_iot
from repro.serve import (
    SampleRequest,
    SamplingHTTPServer,
    SamplingService,
    ServingPool,
    load_model,
    request_samples,
    save_model,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

BENCH_ROWS = int(os.environ.get("REPRO_BENCH_SERVE_ROWS", "1500"))
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_SERVE_EPOCHS", "8"))
SAMPLE_ROWS = int(os.environ.get("REPRO_BENCH_SERVE_SAMPLE_ROWS", "20000"))
BURST_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "64"))
ROWS_PER_REQUEST = int(os.environ.get("REPRO_BENCH_SERVE_ROWS_PER_REQUEST", "64"))
HTTP_CLIENTS = int(os.environ.get("REPRO_BENCH_SERVE_HTTP_CLIENTS", "4"))
HTTP_REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_BENCH_SERVE_HTTP_REQUESTS", "24"))


def _train_model(rows: int, epochs: int, dtype: str = "float64") -> KiNETGAN:
    bundle = load_lab_iot(n_records=rows, seed=0)
    config = KiNETGANConfig(
        embedding_dim=32,
        generator_dims=(64, 64),
        discriminator_dims=(64, 64),
        epochs=epochs,
        batch_size=128,
        seed=0,
        dtype=dtype,
    )
    model = KiNETGAN(config)
    model.fit(
        bundle.table,
        catalog=bundle.catalog,
        condition_columns=bundle.condition_columns,
    )
    return model


def _best_rate(measure, repeats: int = 3) -> tuple[float, float]:
    """(best rows/sec, best seconds) over ``repeats`` timed calls."""
    best_seconds = float("inf")
    rows = 0
    for _ in range(repeats):
        start = time.perf_counter()
        rows = measure()
        elapsed = time.perf_counter() - start
        best_seconds = min(best_seconds, elapsed)
    return rows / best_seconds, best_seconds


def measure_http_latency(
    artifact: Path,
    clients: int = HTTP_CLIENTS,
    requests_per_client: int = HTTP_REQUESTS_PER_CLIENT,
    rows_per_request: int = ROWS_PER_REQUEST,
) -> dict:
    """p50/p99 request latency of the HTTP front-end under a client burst.

    ``clients`` threads each fire ``requests_per_client`` seeded ``/sample``
    requests back to back against a thread-pool server on loopback; every
    request's end-to-end wall time (connect -> parsed table) is recorded.
    """
    import threading

    latencies: list[list[float]] = [[] for _ in range(clients)]
    with ServingPool({"bench": artifact}, executor="thread:2") as pool:
        with SamplingHTTPServer(
            pool, port=0, queue_depth=clients * requests_per_client
        ) as server:
            url = server.url

            def run_client(slot: int) -> None:
                for i in range(requests_per_client):
                    start = time.perf_counter()
                    request_samples(
                        url, "bench", rows_per_request, seed=slot * 10_000 + i
                    )
                    latencies[slot].append(time.perf_counter() - start)

            threads = [
                threading.Thread(target=run_client, args=(slot,)) for slot in range(clients)
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
        "clients": clients,
        "requests_per_client": requests_per_client,
        "rows_per_request": rows_per_request,
        "requests": total,
        "p50_ms": round(float(np.percentile(flat, 50)) * 1000, 2),
        "p99_ms": round(float(np.percentile(flat, 99)) * 1000, 2),
        "max_ms": round(float(flat[-1]) * 1000, 2),
        "requests_per_sec": round(total / burst_seconds, 1),
        "rejected": int(rejected),
    }


def measure_float32_sampling(rows: int, epochs: int, sample_rows: int) -> dict:
    """One-shot sampling throughput of a float32 artifact vs the float64 row.

    Trains the same small KiNETGAN with ``dtype="float32"`` (see
    ``docs/precision.md``), round-trips it through ``save_model`` /
    ``load_model`` -- the manifest records the dtype, the loaded networks
    restore in it -- and times the same one-shot sampling path as
    ``sample_rows_per_sec``.  Also records the artifact's on-disk bytes:
    float32 weight files are half the float64 ones.
    """
    model = _train_model(rows, epochs, dtype="float32")
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-f32-") as tmp:
        artifact = Path(tmp) / "kinetgan-f32"
        written = save_model(model, artifact, metadata={"benchmark": "serving"})
        loaded = load_model(artifact)
        service = SamplingService(capacity=2)
        service.registry.put(artifact, loaded)
        rate, seconds = _best_rate(
            lambda: service.sample(artifact, sample_rows, seed=1).n_rows
        )
        return {
            "rows": sample_rows,
            "rows_per_sec": int(rate),
            "seconds": round(seconds, 4),
            "artifact_bytes": sum(p.stat().st_size for p in artifact.iterdir()),
            "manifest_dtype": written.dtype,
        }


def run_serving_bench(
    rows: int = BENCH_ROWS,
    epochs: int = BENCH_EPOCHS,
    sample_rows: int = SAMPLE_ROWS,
    burst_requests: int = BURST_REQUESTS,
    rows_per_request: int = ROWS_PER_REQUEST,
) -> dict:
    """Measure the serving layer and return the benchmark document."""
    model = _train_model(rows, epochs)
    metrics: dict[str, dict] = {}

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        artifact = Path(tmp) / "kinetgan"

        save_start = time.perf_counter()
        save_model(model, artifact, metadata={"benchmark": "serving"})
        save_seconds = time.perf_counter() - save_start
        load_start = time.perf_counter()
        loaded = load_model(artifact)
        load_seconds = time.perf_counter() - load_start
        metrics["artifact_round_trip"] = {
            "save_seconds": round(save_seconds, 4),
            "load_seconds": round(load_seconds, 4),
            "artifact_bytes": sum(p.stat().st_size for p in artifact.iterdir()),
        }

        service = SamplingService(capacity=2)
        service.registry.put(artifact, loaded)

        rate, seconds = _best_rate(
            lambda: service.sample(artifact, sample_rows, seed=1).n_rows
        )
        metrics["sample_rows_per_sec"] = {
            "rows": sample_rows,
            "rows_per_sec": int(rate),
            "seconds": round(seconds, 4),
        }

        def _stream() -> int:
            total = 0
            for chunk in service.sample_stream(artifact, sample_rows, seed=1, chunk_rows=1024):
                total += chunk.n_rows
            return total

        rate, seconds = _best_rate(_stream)
        metrics["stream_rows_per_sec"] = {
            "rows": sample_rows,
            "chunk_rows": 1024,
            "rows_per_sec": int(rate),
            "seconds": round(seconds, 4),
        }

        burst = [
            SampleRequest(str(artifact), n=rows_per_request, seed=i)
            for i in range(burst_requests)
        ]

        def _one_by_one() -> int:
            return sum(
                service.sample(request.artifact, request.n, seed=request.seed).n_rows
                for request in burst
            )

        def _batched() -> int:
            return sum(table.n_rows for table in service.sample_many(burst))

        serial_rate, serial_seconds = _best_rate(_one_by_one)
        batched_rate, batched_seconds = _best_rate(_batched)
        metrics["batched_requests"] = {
            "requests": burst_requests,
            "rows_per_request": rows_per_request,
            "serial_rows_per_sec": int(serial_rate),
            "batched_rows_per_sec": int(batched_rate),
            "serial_requests_per_sec": round(burst_requests / serial_seconds, 1),
            "batched_requests_per_sec": round(burst_requests / batched_seconds, 1),
            "speedup": round(batched_rate / serial_rate, 2),
        }

        metrics["latency_slo"] = measure_http_latency(artifact)

    metrics["sample_rows_per_sec_float32"] = measure_float32_sampling(
        rows, epochs, sample_rows
    )

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
            "train_rows": rows,
            "train_epochs": epochs,
            "sample_rows": sample_rows,
            "burst_requests": burst_requests,
            "rows_per_request": rows_per_request,
        },
        "metrics": metrics,
        "notes": (
            "Single-model serving on one CPU core; rows/sec is dominated by "
            "the generator matmuls plus the batched harden/decode passes. "
            "batched_requests.speedup is the micro-batching win: one "
            "coalesced generator/harden/decode pipeline for the whole burst "
            "instead of per-request passes (per-request results stay "
            "bit-identical either way, see tests/serve). latency_slo is the "
            "HTTP front-end under a sustained multi-client burst (loopback, "
            "thread-pool workers, JSON wire format): p50 is the steady-state "
            "request cost, p99 the queueing tail an operator provisions "
            "against; the CI smoke gate fails if either regresses past its "
            "tolerance band."
        ),
    }


def write_results(document: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def format_results(document: dict) -> str:
    metrics = document["metrics"]
    round_trip = metrics["artifact_round_trip"]
    batched = metrics["batched_requests"]
    lines = [
        "[bench:serving] lab-IoT KiNETGAN artifact serving",
        f"  artifact_round_trip          save {round_trip['save_seconds']:.3f}s"
        f"  load {round_trip['load_seconds']:.3f}s"
        f"  ({round_trip['artifact_bytes']:,} bytes)",
        f"  sample_rows_per_sec          {metrics['sample_rows_per_sec']['rows_per_sec']:,}"
        f" rows/s ({metrics['sample_rows_per_sec']['rows']:,} rows one-shot)",
        f"  stream_rows_per_sec          {metrics['stream_rows_per_sec']['rows_per_sec']:,}"
        f" rows/s (chunks of {metrics['stream_rows_per_sec']['chunk_rows']})",
        f"  batched_requests             {batched['serial_rows_per_sec']:,} ->"
        f" {batched['batched_rows_per_sec']:,} rows/s"
        f"  ({batched['speedup']}x over per-request, "
        f"{batched['batched_requests_per_sec']} req/s)",
    ]
    slo = metrics.get("latency_slo")
    if slo:
        lines.append(
            f"  latency_slo (HTTP)           p50 {slo['p50_ms']}ms  p99 {slo['p99_ms']}ms"
            f"  ({slo['clients']} clients x {slo['requests_per_client']} reqs, "
            f"{slo['requests_per_sec']} req/s, {slo['rejected']} rejected)"
        )
    f32 = metrics.get("sample_rows_per_sec_float32")
    if f32:
        lines.append(
            f"  sample_rows_per_sec_float32  {f32['rows_per_sec']:,}"
            f" rows/s ({f32['rows']:,} rows one-shot,"
            f" {f32['artifact_bytes']:,} artifact bytes,"
            f" manifest dtype {f32['manifest_dtype']})"
        )
    return "\n".join(lines)


def main() -> None:
    document = run_serving_bench()
    path = write_results(document)
    print(format_results(document))
    print(f"[bench:serving] wrote {path}")


if __name__ == "__main__":
    main()
