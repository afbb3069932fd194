"""The ``train`` and ``federated`` workloads.

Both repeat a deterministic *cycle* -- a fresh fit from the workload seed
followed by a synthetic share -- as many times as fill ``--seconds`` on
the reference host.  Every
cycle of a run must reproduce the first one bit for bit, which doubles as
the determinism check; the timings are medians over all cycles.
"""

from __future__ import annotations

import gc
import math
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro.datasets as datasets
import repro.knowledge as knowledge
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
from repro.core import KiNETGAN, KiNETGANConfig
from repro.engine import sampling_rng, seeded_rng
from repro.federated.kinetgan import FederatedKiNETGAN
from repro.federated.partition import label_skew_partition
from repro.knowledge.reasoner import KGReasoner
from repro.obs import JsonlSink, read_jsonl, span, tracing
from repro.runtime import resolve_executor
from repro.tabular.table import Table

import spec

__all__ = ["FederatedWorkload", "TrainWorkload"]

_LOSSES = ("generator_loss", "discriminator_loss", "condition_loss", "knowledge_loss")


def model_config(seed: int, epochs: int) -> KiNETGANConfig:
    return KiNETGANConfig(epochs=epochs, seed=seed, **spec.MODEL)


@dataclass
class Cycle:
    """Outputs and timings of one cycle."""

    wall_s: float
    op_s: list[float]
    rows_per_op: int
    share: Table
    share_s: float
    validity: float
    histories: list[dict[str, list[float]]] = field(default_factory=list)
    #: False when a federated round lost a site.
    complete: bool = True


def _histories(histories) -> list[dict[str, list[float]]]:
    return [{name: list(getattr(history, name)) for name in _LOSSES} for history in histories]


class CycleWorkload:
    """Measure and trace flows shared by the cycle-based workloads."""

    name = ""
    op_name = "operation"
    #: Operations (epochs, rounds) per cycle, and measured units per operation.
    ops_per_cycle = 1
    units_per_op = 1
    #: Wall time of one cycle on the reference host (sets the cycle count).
    cycle_s = 1.0
    #: Program span whose durations time one operation, or None when the
    #: workload times its operations itself.
    op_span: str | None = None

    def __init__(self, work) -> None:
        self.work = work

    def setup(self, seed: int):
        raise NotImplementedError

    def close(self, inputs) -> None:
        """Release what :meth:`setup` started (nothing by default)."""

    def cycle(self, inputs, seed: int, sink) -> Cycle:
        raise NotImplementedError

    def trace_sink(self):
        return Recorder()

    def trace_events(self, sink) -> list[dict]:
        return sink.events

    # ------------------------------------------------------------------ #
    def _clock(self) -> Recorder | None:
        return Recorder(keep={self.op_span}) if self.op_span else None

    def _run_cycle(self, inputs, seed: int, sink) -> Cycle:
        # Every cycle starts from a collected heap, so none pays for the
        # garbage of the one before.
        gc.collect()
        start = len(sink.events) if isinstance(sink, Recorder) else 0
        result = self.cycle(inputs, seed, sink)
        if self.op_span is not None:
            result.op_s = [
                event["duration"]
                for event in sink.events[start:]
                if event["name"] == self.op_span
            ]
        return result

    def _check(self, run: Run, cycle: Cycle, reference: Cycle | None, schema_names) -> None:
        ok_ops = len(cycle.op_s) == self.ops_per_cycle
        run.check(ok_ops, f"{self.name}: {len(cycle.op_s)} operations in a cycle")
        finite = all(
            len(trace) > 0 and all(math.isfinite(value) for value in trace)
            for history in cycle.histories
            for trace in history.values()
        )
        run.check(finite, f"{self.name}: finite, non-empty loss histories")
        run.check(
            cycle.share.n_rows == spec.SHARE_ROWS and cycle.share.schema.names == schema_names,
            f"{self.name}: share has {spec.SHARE_ROWS} rows and the training schema",
        )
        run.check(0.0 < cycle.validity <= 1.0, f"{self.name}: KG validity in (0, 1]")
        run.check(cycle.complete, f"{self.name}: every round completes with every site")
        if reference is not None:
            run.check(
                cycle.histories == reference.histories
                and tables_equal(cycle.share, reference.share),
                f"{self.name}: a repeated cycle reproduces the first bit for bit",
            )

    def measure(self, seed: int, seconds: float) -> Run:
        """End-to-end run: tracing off (bar the program's own op span)."""
        run = Run()
        inputs, setup_s = timed_setups(lambda: self.setup(seed), self.close, spec.SETUP_REPEATS)
        try:
            before = counters()
            clock = self._clock()
            with tracing(clock) if clock is not None else nullcontext():
                cycles = [self._run_cycle(inputs, seed, clock) for _ in range(self.cycles(seconds))]
            schema = inputs[0].table.schema.names
        finally:
            self.close(inputs)
        for index, cycle in enumerate(cycles):
            self._check(run, cycle, cycles[0] if index else None, schema)
        ops = [value for cycle in cycles for value in cycle.op_s]
        failed_tasks = counter_delta(before, "repro_tasks_failed_total")
        dropped = counter_delta(before, "repro_quorum_dropped_total")
        run.operations(len(ops) * self.units_per_op, failed_tasks + dropped)
        shares = [cycle.share_s for cycle in cycles]
        op_p50 = median(ops)
        run.metrics.update(
            {
                "setup_s": median(setup_s),
                "op_p50_ms": 1000.0 * op_p50,
                "rows_per_s": cycles[0].rows_per_op / op_p50,
                "share_rows_per_s": spec.SHARE_ROWS / median(shares),
                "kg_validity": cycles[0].validity,
                "peak_rss_mb": peak_rss_mb(),
            }
        )
        run.note(
            f"{self.name}: {len(cycles)} cycles; {self.op_name} p50 {1000 * op_p50:.2f} ms, "
            f"p90 {1000 * percentile(ops, 90):.2f} ms over {len(ops)} {self.op_name}s; "
            f"{len(shares)} shares; set-ups {', '.join(f'{s:.3f}' for s in setup_s)} s"
        )
        return run

    def cycles(self, seconds: float) -> int:
        """Cycles per run: as many as fill ``seconds`` on the reference host.

        The count depends on ``--seconds`` only, never on the clock, so a
        run does the same work however fast the host is that day; peak
        memory and the per-layer totals stay comparable between runs.
        """
        return max(2, round(seconds / self.cycle_s))

    def trace(self, seed: int, seconds: float) -> Run:
        """Traced run: one untraced cycle, then one cycle under the span wrappers."""
        run = Run()
        inputs = self.setup(seed)
        try:
            clock = self._clock()
            with tracing(clock) if clock is not None else nullcontext():
                baseline = self._run_cycle(inputs, seed, clock)
            schema = inputs[0].table.schema.names
        finally:
            self.close(inputs)

        wrappers = LayerWrappers().install()
        try:
            sink = self.trace_sink()
            before = counters()
            with tracing(sink):
                with span("bench.setup", tid=threading.get_ident()):
                    inputs = self.setup(seed)
                try:
                    traced = self._run_cycle(inputs, seed, sink)
                finally:
                    self.close(inputs)
            task_bytes = wrappers.task_bytes()
        finally:
            wrappers.uninstall()

        self._check(run, baseline, None, schema)
        self._check(run, traced, baseline, schema)
        run.check(
            traced.validity == baseline.validity,
            f"{self.name}: traced and untraced KG validity agree",
        )
        events = fold(self.trace_events(sink))
        cycle_events = [event for event in events if event["root"] == "bench.cycle"]
        setup_events = [event for event in events if event["root"] == "bench.setup"]
        metrics = layer_metrics(cycle_events, setup_events)
        rounds = sum(1 for event in cycle_events if event["name"] == "federated.round")
        shared = metrics["runtime.shared_bytes_per_round"]
        task = task_bytes / rounds if rounds else 0.0
        root = next(event for event in cycle_events if event["name"] == "bench.cycle")
        metrics.update(
            {
                "runtime.task_bytes_per_round": task,
                "federated.bytes_per_round": task + shared,
                "runtime.tasks_failed": counter_delta(before, "repro_tasks_failed_total"),
                "runtime.task_retries": counter_delta(before, "repro_task_retries_total"),
                "runtime.respawns": counter_delta(before, "repro_pool_respawns_total"),
                "federated.sites_dropped": counter_delta(before, "repro_quorum_dropped_total"),
                "trace.coverage": 1.0 - root["self"] / root["duration"],
                "trace.overhead_s": traced.wall_s - baseline.wall_s,
                "trace.spans": len(cycle_events),
            }
        )
        run.operations(len(traced.op_s) * self.units_per_op)
        run.metrics.update(metrics)
        run.table = span_table(cycle_events)
        run.wall_s = root["duration"]
        run.note(
            f"{self.name}: traced cycle {traced.wall_s:.3f} s vs untraced {baseline.wall_s:.3f} s; "
            f"unattributed (bench.cycle self) {root['self']:.4f} s"
        )
        return run


# --------------------------------------------------------------------------- #
class TrainWorkload(CycleWorkload):
    """Single-site KiNETGAN fit plus a 50k-row share (closed loop, serial)."""

    name = "train"
    op_name = "epoch"
    op_span = "engine.epoch"
    ops_per_cycle = spec.TRAIN_EPOCHS_PER_CYCLE
    cycle_s = spec.TRAIN_CYCLE_S

    def setup(self, seed: int):
        bundle = datasets.load_lab_iot(spec.DATA_ROWS, seed)
        reasoner = KGReasoner(
            knowledge.build_network_kg(bundle.catalog), field_map=bundle.catalog.field_map
        )
        # Warm-up: one epoch and a small sample fill the lazy caches
        # (workspaces, decode plans, KG lookup tables) before timing.
        warm = KiNETGAN(model_config(seed, 1)).fit(
            bundle.table, reasoner=reasoner, condition_columns=bundle.condition_columns
        )
        warm.sample(spec.SERVE_REQUEST_ROWS, rng=sampling_rng(seed))
        return bundle, reasoner

    def cycle(self, inputs, seed: int, sink) -> Cycle:
        bundle, reasoner = inputs
        with span("bench.cycle", tid=threading.get_ident()):
            start = time.perf_counter()
            model = KiNETGAN(model_config(seed, spec.TRAIN_EPOCHS_PER_CYCLE)).fit(
                bundle.table, reasoner=reasoner, condition_columns=bundle.condition_columns
            )
            share_start = time.perf_counter()
            share = model.sample(spec.SHARE_ROWS, rng=sampling_rng(seed))
            share_s = time.perf_counter() - share_start
            validity = float(np.mean(reasoner.validity_mask(share)))
            wall_s = time.perf_counter() - start
        batch = spec.MODEL["batch_size"]
        return Cycle(
            wall_s=wall_s,
            op_s=[],
            rows_per_op=max(1, bundle.table.n_rows // batch) * batch,
            share=share,
            share_s=share_s,
            validity=validity,
            histories=_histories([model.history]),
        )


# --------------------------------------------------------------------------- #
class FederatedWorkload(CycleWorkload):
    """Four label-skewed sites trained by FederatedKiNETGAN over ``process:2``."""

    name = "federated"
    op_name = "round"
    ops_per_cycle = spec.FED_ROUNDS_PER_CYCLE
    units_per_op = spec.FED_SITES
    cycle_s = spec.FED_CYCLE_S

    def setup(self, seed: int):
        bundle = datasets.load_lab_iot(spec.DATA_ROWS, seed)
        parts = label_skew_partition(
            bundle.table, spec.FED_LABEL, spec.FED_SITES, seeded_rng(seed), skew=spec.FED_SKEW
        )
        executor = resolve_executor(spec.FED_EXECUTOR)
        try:
            # Start the workers now so the first measured round pays no fork.
            executor.map(abs, range(executor.max_workers))
        except BaseException:
            executor.close()
            raise
        return bundle, parts, executor

    def close(self, inputs) -> None:
        inputs[2].close()

    def trace_sink(self):
        # Pool workers contribute their spans through the JSONL file.
        return JsonlSink(self.work / "federated-trace.jsonl")

    def trace_events(self, sink) -> list[dict]:
        return read_jsonl(sink.path)

    def cycle(self, inputs, seed: int, sink) -> Cycle:
        bundle, parts, executor = inputs
        batch = spec.MODEL["batch_size"]
        with span("bench.cycle", tid=threading.get_ident()):
            start = time.perf_counter()
            fed = FederatedKiNETGAN(
                bundle.table,
                config=model_config(seed, 1),
                catalog=bundle.catalog,
                condition_columns=bundle.condition_columns,
                seed=seed,
                executor=executor,
                task_timeout=spec.FED_TASK_TIMEOUT_S,
                task_retries=spec.FED_TASK_RETRIES,
            )
            try:
                for index, part in enumerate(parts):
                    fed.add_site(f"site-{index}", part)
                round_s = []
                for _ in range(spec.FED_ROUNDS_PER_CYCLE):
                    round_start = time.perf_counter()
                    fed.run_round(local_epochs=1)
                    round_s.append(time.perf_counter() - round_start)
                share_start = time.perf_counter()
                share = fed.sample(spec.SHARE_ROWS, rng=sampling_rng(seed))
                share_s = time.perf_counter() - share_start
                validity = float(np.mean(fed.reasoner.validity_mask(share)))
            finally:
                fed.release_transport()
            wall_s = time.perf_counter() - start
        return Cycle(
            wall_s=wall_s,
            op_s=round_s,
            rows_per_op=sum(max(1, part.n_rows // batch) * batch for part in parts),
            share=share,
            share_s=share_s,
            validity=validity,
            histories=_histories(site.trainer.history for site in fed.sites),
            complete=all(
                len(info.participants) == spec.FED_SITES and not info.dropped
                for info in fed.rounds
            ),
        )
