"""The ``serve`` workload: open-loop HTTP sampling against a loopback server.

Set-up fits a small KiNETGAN, saves it as an artifact, loads it into a
``ServingPool`` on ``thread:2`` and starts a ``SamplingHTTPServer``.  Load
comes from this process over at most two connections:

* an **open loop** at each rate of the frozen ladder -- request ``i`` is due
  at ``start + i / rate`` whether or not earlier replies arrived, and its
  latency runs from that due time, so a stall also charges the requests
  queued behind it; how late the generator sent is reported separately;
* a **closed loop** capacity probe -- two clients, each sending its next
  request when the previous reply is decoded;
* a **bulk share** fetched in one request.

Every request opens its own connection, as ``repro.serve.request_samples``
does.  Every ``SERVE_CHECK_EVERY``-th ladder reply and the bulk share are
compared bit for bit with the in-process ``model.sample``.
"""

from __future__ import annotations

import bisect
import gc
import http.client
import json
import threading
import time
from dataclasses import dataclass

import numpy as np

import repro.datasets as datasets
from common import (
    Recorder,
    Run,
    counter_delta,
    counters,
    median,
    peak_rss_mb,
    percentile,
    tables_equal,
    timed_setups,
)
from layers import LayerWrappers, fold, layer_metrics, span_table
from repro.core import KiNETGAN
from repro.engine import sampling_rng
from repro.obs import span, tracing
from repro.serve import SamplingHTTPServer, ServingPool, save_model
from repro.serve.server import table_from_wire
from training import model_config

import spec

__all__ = ["ServeWorkload"]

# Request seeds are ``seed * _SEED_STRIDE + phase offset + index``.
_SEED_STRIDE = 1_000_000
_PHASE_SEEDS = {"low": 0, "high": 200_000, "capacity": 400_000, "share": 600_000}


def _share_seed(seed: int) -> int:
    return seed * _SEED_STRIDE + _PHASE_SEEDS["share"]


@dataclass
class Reply:
    seed: int
    status: int
    due: float
    sent: float
    end: float
    decode_s: float
    table: object | None

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.end - self.due)

    @property
    def service_s(self) -> float:
        return self.end - self.sent


@dataclass
class Served:
    """A running server over the prepared artifact."""

    pool: ServingPool
    server: SamplingHTTPServer

    def close(self) -> None:
        try:
            self.server.stop()
        finally:
            self.pool.close()


def _post(address: tuple[str, int], n: int, seed: int) -> tuple[int, bytes]:
    body = json.dumps({"artifact": "kinetgan", "n": n, "seed": seed}).encode("utf-8")
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        connection.request(
            "POST",
            "/sample",
            body,
            {"Content-Type": "application/json", "Connection": "close"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _request(address, n: int, seed: int, due: float) -> Reply:
    sent = time.perf_counter()
    status, data = _post(address, n, seed)
    table = None
    decode_s = 0.0
    if status == 200:
        decode_start = time.perf_counter()
        with span("serve.client_decode", tid=threading.get_ident(), seed=seed):
            table = table_from_wire(json.loads(data))
        decode_s = time.perf_counter() - decode_start
    return Reply(seed, status, due, sent, time.perf_counter(), decode_s, table)


def _clients(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(spec.SERVE_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(address, rate: float, seconds: float, first_seed: int) -> list[Reply]:
    """Send ``rate * seconds`` requests on a fixed schedule over two connections."""
    n = max(1, int(round(rate * seconds)))
    start = time.perf_counter() + 0.05
    replies: list[Reply | None] = [None] * n
    next_index = iter(range(n))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(next_index, None)
            if index is None:
                return
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            replies[index] = _request(address, spec.SERVE_REQUEST_ROWS, first_seed + index, due)

    _clients(client)
    return replies


def closed_loop(address, seconds: float, first_seed: int) -> tuple[list[Reply], list[float]]:
    """Two clients back to back for ``seconds``.

    Returns the replies and, for each run of ``CAPACITY_BLOCK`` consecutive
    replies, the rows per second the run delivered; the workload reports
    their median, which a burst of co-tenant load moves less than a mean.
    """
    replies: list[Reply] = []
    seeds = iter(range(first_seed, first_seed + 10**9))
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                seed = next(seeds)
            reply = _request(address, spec.SERVE_REQUEST_ROWS, seed, time.perf_counter())
            with lock:
                replies.append(reply)

    _clients(client)
    ends = sorted(reply.end for reply in replies)
    block = spec.CAPACITY_BLOCK
    rates = [
        block * spec.SERVE_REQUEST_ROWS / (ends[i + block] - ends[i])
        for i in range(0, len(ends) - block, block)
    ]
    return replies, rates


class ServeWorkload:
    """Open-loop HTTP sampling against a loopback server (see the module docstring)."""

    def __init__(self, work) -> None:
        self.work = work

    def prepare(self, seed: int) -> tuple[KiNETGAN, object]:
        """Fit and save the served model once per run (not part of set-up)."""
        bundle = datasets.load_lab_iot(spec.DATA_ROWS, seed)
        model = KiNETGAN(model_config(seed, spec.SERVE_FIT_EPOCHS)).fit(
            bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns
        )
        artifact = self.work / "kinetgan"
        save_model(model, artifact)
        return model, artifact

    def setup(self, artifact, seed: int) -> Served:
        """Load the artifact into a pool, start the server, send one request."""
        pool = ServingPool({"kinetgan": artifact}, executor=spec.SERVE_EXECUTOR)
        try:
            server = SamplingHTTPServer(pool, port=0).start()
        except BaseException:
            pool.close()
            raise
        served = Served(pool, server)
        try:
            # One request warms the listener, the dispatcher and the decode plans.
            status, _ = _post(server.address, spec.SERVE_REQUEST_ROWS, seed)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")
        except BaseException:
            served.close()
            raise
        return served

    # ------------------------------------------------------------------ #
    def _check_replies(self, run: Run, model, replies: list[Reply], label: str) -> None:
        failed = sum(1 for reply in replies if reply.status != 200)
        run.operations(len(replies), failed)
        bad_shape = sum(
            1
            for reply in replies
            if reply.table is not None
            and (
                reply.table.n_rows != spec.SERVE_REQUEST_ROWS
                or reply.table.schema.names != model.transformer.schema.names
            )
        )
        run.check(bad_shape == 0, f"serve {label}: {bad_shape} replies with a wrong shape")
        for index, reply in enumerate(replies):
            if index % spec.SERVE_CHECK_EVERY or reply.table is None:
                continue
            expected = model.sample(spec.SERVE_REQUEST_ROWS, rng=sampling_rng(reply.seed))
            run.check(
                tables_equal(reply.table, expected),
                f"serve {label}: reply for seed {reply.seed} matches in-process sampling",
            )

    def _check_shares(self, run: Run, model, replies: list[Reply], seed: int):
        """Every bulk share must equal the in-process sample; returns that sample."""
        run.operations(len(replies), sum(1 for reply in replies if reply.status != 200))
        expected = model.sample(spec.SERVE_SHARE_ROWS, rng=sampling_rng(_share_seed(seed)))
        for reply in replies:
            run.check(
                reply.table is not None and tables_equal(reply.table, expected),
                "serve share: bulk share matches in-process sampling",
            )
        return expected

    @staticmethod
    def _validity(model, tables) -> float:
        reasoner = model.reasoner
        valid = rows = 0
        for table in tables:
            valid += int(np.count_nonzero(reasoner.validity_mask(table)))
            rows += table.n_rows
        return valid / rows if rows else 0.0

    @staticmethod
    def _rate_line(label: str, rate: float, replies: list[Reply]) -> str:
        latency = [reply.latency_ms for reply in replies]
        lag = [1000.0 * (reply.sent - reply.due) for reply in replies]
        return (
            f"serve {label} {rate:g} req/s: n={len(latency)} p50={median(latency):.3f} ms "
            f"p95={percentile(latency, 95):.3f} ms p99={percentile(latency, 99):.3f} ms "
            f"generator lag p50={median(lag):.3f} ms p99={percentile(lag, 99):.3f} ms"
        )

    def measure(self, seed: int, seconds: float) -> Run:
        run = Run()
        model, artifact = self.prepare(seed)
        served, setup_s = timed_setups(
            lambda: self.setup(artifact, seed), Served.close, spec.SETUP_REPEATS
        )
        try:
            address = served.server.address
            before_stats = served.server.stats.snapshot()
            # The phases take turns in SERVE_ROUNDS short rounds, so a slow
            # phase of the host (they last seconds) lands on every metric
            # alike instead of on whichever phase ran through it.  Each
            # phase starts from a collected heap.
            block = seconds / spec.SERVE_ROUNDS
            ladder = {label: [] for label in spec.LADDER_RPS}
            capacity: list[Reply] = []
            capacity_rates: list[float] = []
            shares: list[Reply] = []
            for _ in range(spec.SERVE_ROUNDS):
                gc.collect()
                shares.append(
                    _request(address, spec.SERVE_SHARE_ROWS, _share_seed(seed), time.perf_counter())
                )
                for label, rate in spec.LADDER_RPS.items():
                    gc.collect()
                    ladder[label] += open_loop(
                        address,
                        rate,
                        spec.SERVE_PHASES[label] * block,
                        seed * _SEED_STRIDE + _PHASE_SEEDS[label] + len(ladder[label]),
                    )
                gc.collect()
                replies, rates = closed_loop(
                    address,
                    spec.SERVE_PHASES["capacity"] * block,
                    seed * _SEED_STRIDE + _PHASE_SEEDS["capacity"] + len(capacity),
                )
                capacity += replies
                capacity_rates += rates
            after_stats = served.server.stats.snapshot()
        finally:
            served.close()
        for label, replies in ladder.items():
            self._check_replies(run, model, replies, label)
        self._check_replies(run, model, capacity, "capacity")
        share_table = self._check_shares(run, model, shares, seed)
        capacity_rows_per_s = median(capacity_rates)
        validity = self._validity(
            model,
            [reply.table for replies in ladder.values() for reply in replies if reply.table]
            + [share_table],
        )
        for outcome in ("rejected", "timeouts", "errors"):
            grown = after_stats[outcome] - before_stats[outcome]
            run.check(grown == 0, f"serve: server counted {grown} {outcome}")
        high = [reply.latency_ms for reply in ladder["high"]]
        run.metrics.update(
            {
                "setup_s": median(setup_s),
                "op_p50_ms": median(high),
                "rows_per_s": capacity_rows_per_s,
                "share_rows_per_s": spec.SERVE_SHARE_ROWS
                / median(reply.end - reply.sent for reply in shares),
                "kg_validity": validity,
                "peak_rss_mb": peak_rss_mb(),
            }
        )
        for label, replies in ladder.items():
            run.note(self._rate_line(label, spec.LADDER_RPS[label], replies))
        meets = [
            rate
            for label, rate in spec.LADDER_RPS.items()
            if percentile([r.latency_ms for r in ladder[label]], 99) <= spec.SERVE_P99_LIMIT_MS
            and all(reply.status == 200 for reply in ladder[label])
        ]
        run.note(
            f"serve goodput: {max(meets, default=0):g} req/s meet p99 <= "
            f"{spec.SERVE_P99_LIMIT_MS:g} ms; capacity {len(capacity)} requests, median "
            f"{capacity_rows_per_s:.0f} rows/s over blocks of {spec.CAPACITY_BLOCK} replies; "
            f"set-ups {', '.join(f'{s:.3f}' for s in setup_s)} s"
        )
        return run

    # ------------------------------------------------------------------ #
    def trace(self, seed: int, seconds: float) -> Run:
        run = Run()
        duration = spec.SERVE_PHASES["high"] * seconds * 0.5
        rate = spec.LADDER_RPS["high"]
        first_seed = seed * _SEED_STRIDE + _PHASE_SEEDS["high"]
        model, artifact = self.prepare(seed)
        served = self.setup(artifact, seed)
        try:
            gc.collect()
            baseline = open_loop(served.server.address, rate, duration, first_seed)
        finally:
            served.close()
        self._check_replies(run, model, baseline, "untraced")
        baseline_validity = self._validity(model, [r.table for r in baseline if r.table])

        wrappers = LayerWrappers().install()
        sink = Recorder()
        try:
            before = counters()
            with tracing(sink):
                with span("bench.setup", tid=threading.get_ident()):
                    served = self.setup(artifact, seed)
                try:
                    window_start = time.monotonic()
                    before_stats = served.server.stats.snapshot()
                    gc.collect()
                    traced = open_loop(served.server.address, rate, duration, first_seed)
                    after_stats = served.server.stats.snapshot()
                finally:
                    served.close()
        finally:
            wrappers.uninstall()
        self._check_replies(run, model, traced, "traced")
        traced_validity = self._validity(model, [r.table for r in traced if r.table])
        run.check(
            traced_validity == baseline_validity,
            "serve: traced and untraced KG validity agree",
        )

        events = fold(sink.events)
        setup_events = [event for event in events if event["root"] == "bench.setup"]
        window = [
            event
            for event in events
            if event["root"] != "bench.setup" and event["start"] >= window_start
        ]
        metrics = layer_metrics(window, setup_events)
        metrics.update(self._attribute(window, traced))
        metrics.update(
            {
                "serve.rejected": after_stats["rejected"] - before_stats["rejected"],
                "serve.timeouts": after_stats["timeouts"] - before_stats["timeouts"],
                "serve.errors": after_stats["errors"] - before_stats["errors"],
                "runtime.tasks_failed": counter_delta(before, "repro_tasks_failed_total"),
                "runtime.task_retries": counter_delta(before, "repro_task_retries_total"),
                "runtime.respawns": counter_delta(before, "repro_pool_respawns_total"),
                "trace.overhead_s": sum(r.service_s for r in traced)
                - sum(r.service_s for r in baseline),
                "trace.spans": len(window),
            }
        )
        run.metrics.update(metrics)
        run.table = span_table(window)
        run.wall_s = sum(reply.service_s for reply in traced)
        run.note(self._rate_line("untraced", rate, baseline))
        run.note(self._rate_line("traced", rate, traced))
        run.note(
            f"serve: layers explain {metrics['trace.coverage']:.1%} of request time; the gap, "
            f"serve.http_other_ms = {metrics['serve.http_other_ms']:.3f} ms, is the stdlib HTTP "
            "server and client, TCP connect and the JSON framing of the reply"
        )
        return run

    @staticmethod
    def _attribute(window: list[dict], replies: list[Reply]) -> dict[str, float]:
        """Split each traced request's client-observed time into layers."""
        admit = {}
        enqueued = {}
        wire = {}
        awaits = {}
        batches = []
        for event in window:
            attrs = event.get("attrs", {})
            if event["name"] == "serve.admit":
                admit[attrs.get("seed")] = event["duration"]
            elif event["name"] == "serve.await":
                enqueued[attrs["seed"]] = attrs["enqueued"]
                awaits[event["span_id"]] = attrs["seed"]
            elif event["name"] == "serve.sample_batch":
                batches.append((event["start"], event["duration"], attrs.get("requests", 0)))
        for event in window:
            if event["name"] == "serve.wire_encode" and event["parent_id"] in awaits:
                wire[awaits[event["parent_id"]]] = event["duration"]
        batches.sort()
        starts = [start for start, _, _ in batches]

        parts = {name: [] for name in ("admit", "queue", "sample", "wire", "decode", "other")}
        explained = total = 0.0
        for reply in replies:
            if reply.seed not in enqueued:
                continue
            position = bisect.bisect_left(starts, enqueued[reply.seed])
            if position == len(batches):
                continue
            batch_start, batch_s, _ = batches[position]
            known = {
                "admit": admit.get(reply.seed, 0.0),
                "queue": batch_start - enqueued[reply.seed],
                "sample": batch_s,
                "wire": wire.get(reply.seed, 0.0),
                "decode": reply.decode_s,
            }
            for name, value in known.items():
                parts[name].append(value)
            parts["other"].append(reply.service_s - sum(known.values()))
            explained += sum(known.values())
            total += reply.service_s
        lag = [1000.0 * (reply.sent - reply.due) for reply in replies]
        dispatched = sum(requests for _, _, requests in batches)
        return {
            "serve.admit_ms": 1000.0 * median(parts["admit"]),
            "serve.queue_wait_ms": 1000.0 * median(parts["queue"]),
            "serve.sample_batch_ms": 1000.0 * median(parts["sample"]),
            "serve.requests_per_dispatch": dispatched / len(batches) if batches else 0.0,
            "serve.wire_encode_ms": 1000.0 * median(parts["wire"]),
            "serve.client_decode_ms": 1000.0 * median(parts["decode"]),
            "serve.http_other_ms": 1000.0 * median(parts["other"]),
            "serve.generator_lag_ms": percentile(lag, 99),
            "trace.coverage": explained / total if total else 0.0,
        }
