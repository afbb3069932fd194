"""Helpers shared by the workloads: run bookkeeping, trace sinks, counters."""

from __future__ import annotations

import math
import os
import resource
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from repro.obs import default_registry

__all__ = [
    "Recorder",
    "Run",
    "counter_delta",
    "counters",
    "median",
    "peak_rss_mb",
    "percentile",
    "tables_equal",
    "timed_setups",
    "work_dir",
]


class Run:
    """Metrics, operation counts and check outcomes of one benchmark run."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        #: Traced runs: per-span table and the wall time its shares refer to.
        self.table: dict[str, dict[str, float]] | None = None
        self.wall_s = 0.0

    def operations(self, attempted: int, failed: int = 0) -> None:
        """Count measured operations (epochs, site rounds, requests)."""
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, what: str) -> bool:
        """Count one output check; a failed one is also reported by name."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")
        return bool(ok)

    def note(self, line: str) -> None:
        self.notes.append(line)


class Recorder:
    """Trace sink keeping every span, or only spans with the given names."""

    def __init__(self, keep: set[str] | None = None) -> None:
        self.keep = keep
        self.events: list[dict] = []
        self._lock = threading.Lock()

    def write(self, event: dict) -> None:
        if self.keep is None or event["name"] in self.keep:
            with self._lock:
                self.events.append(event)

    def durations(self, name: str) -> list[float]:
        return [event["duration"] for event in self.events if event["name"] == name]


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else math.nan


def percentile(values, q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else math.nan


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


_COUNTER_FAMILIES = ("repro_task", "repro_http_requests", "repro_quorum", "repro_pool")


def counters() -> dict[str, float]:
    """Current values of the runtime, quorum and HTTP counters in the registry."""
    values: dict[str, float] = {}
    for family, data in default_registry().snapshot().items():
        if data["kind"] != "counter" or not family.startswith(_COUNTER_FAMILIES):
            continue
        for sample in data["samples"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(sample["labels"].items()))
            values[f"{family}{{{labels}}}"] = sample["value"]
    return values


def counter_delta(before: dict[str, float], family: str, **labels: str) -> int:
    """How much the counters of ``family`` matching ``labels`` grew since ``before``."""
    total = 0.0
    for key, value in counters().items():
        name, _, rest = key.partition("{")
        if name != family:
            continue
        if all(f"{k}={v}" in rest for k, v in labels.items()):
            total += value - before.get(key, 0.0)
    return int(total)


def tables_equal(left, right) -> bool:
    """Bit-for-bit equality of two tables (schema, row count, every column)."""
    if left.schema.names != right.schema.names or left.n_rows != right.n_rows:
        return False
    return all(
        np.array_equal(left.column(name), right.column(name)) for name in left.schema.names
    )


def timed_setups(build, close, repeats: int):
    """Run ``build()`` ``repeats`` times; keep the last result, close the others.

    Returns ``(inputs, seconds)`` with the wall time of every set-up.
    """
    inputs = None
    seconds = []
    for _ in range(repeats):
        if inputs is not None:
            close(inputs)
        start = time.perf_counter()
        inputs = build()
        seconds.append(time.perf_counter() - start)
    return inputs, seconds


def work_dir(root: Path) -> Path:
    """A private scratch directory for this run inside the checkout."""
    path = root / ".perfbench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path
