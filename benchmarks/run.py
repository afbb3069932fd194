"""Benchmark runner: ``python -m benchmarks.run [--suite S | --smoke] [--json] [--no-write]``.

Each ``BENCH_<suite>.json`` at the repository root is a perf trajectory:
the committed record of one suite's probes.  :data:`GATES` is the one
table of bounds over those records -- every committed entry is named by
at least one row -- and one evaluator and one printer serve both modes:

* ``--suite S`` (``runtime``, ``training``, ``faults``, ``serving``,
  ``obs`` or ``all``; default ``training``) runs the full suite, checks
  the new document against the rows' bounds, prints the rows and
  rewrites the trajectory file unless ``--no-write`` is given.
* ``--smoke`` is the CI regression gate: it re-measures every row with
  the rows' quick probes and never writes.

The exit status is 1 if any row fails.  ``--json`` prints
``{"suites": {suite: document}, "rows": [...], "ok": bool}`` instead of
the text table (``suites`` is empty in smoke mode).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

if __name__ == "__main__":
    # BLAS thread pools must be pinned before numpy loads (this package's
    # ``__init__`` imports nothing): the committed trajectories were
    # recorded single-threaded.  Only the program pins them; importing the
    # gate table leaves the importing process's environment alone.
    os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

from benchmarks import (  # noqa: E402
    bench_faults,
    bench_obs,
    bench_runtime,
    bench_serving,
    bench_training,
)

ROOT = Path(__file__).resolve().parent.parent

#: Full-suite runners, by the suite name in ``BENCH_<suite>.json``.
SUITES: dict[str, Callable[[], dict]] = {
    "runtime": bench_runtime.run_runtime_bench,
    "training": bench_training.run_training_bench,
    "faults": bench_faults.run_faults_bench,
    "serving": bench_serving.run_serving_bench,
    "obs": bench_obs.run_obs_bench,
}

CEILING, FLOOR, EXACT = "ceiling", "floor", "exact"


def trajectory_path(suite: str) -> Path:
    return ROOT / f"BENCH_{suite}.json"


def committed_metrics(suite: str) -> dict:
    """The ``metrics`` of the committed ``BENCH_<suite>.json``."""
    return json.loads(trajectory_path(suite).read_text())["metrics"]


@dataclass(frozen=True)
class Probe:
    """A measurement with its retry budget.

    Each callable is one attempt and returns ``{entry: {key: value}}``,
    shaped like a trajectory's ``metrics``.  Timing-bound probes get a
    second attempt: noise, not regressions, dominates short windows on
    shared runners.
    """

    name: str
    attempts: tuple[Callable[[], dict], ...]


@dataclass(frozen=True)
class Gate:
    """One row: a bound on ``metrics[entry][key]`` of ``BENCH_<suite>.json``.

    ``tolerance`` is the relative band around the committed value, or
    ``None`` for a bound that does not depend on it.  ``absolute`` is the
    slack a ceiling adds or the minimum a floor keeps; with
    ``tolerance=None`` it is the bound itself.  An exact row with a
    tolerance must reproduce the committed value.
    """

    suite: str
    entry: str
    key: str
    probe: Probe
    kind: str
    tolerance: float | None
    absolute: object = 0.0

    def bound(self, committed):
        if self.tolerance is None:
            return self.absolute
        if self.kind == CEILING:
            return committed * (1.0 + self.tolerance) + self.absolute
        if self.kind == FLOOR:
            return max(committed * (1.0 - self.tolerance), self.absolute)
        return committed

    def check(self, committed, measured) -> dict:
        bound = self.bound(committed)
        if self.kind == CEILING:
            ok = measured <= bound
        elif self.kind == FLOOR:
            ok = measured >= bound
        else:
            ok = measured == bound
        return {
            "suite": self.suite,
            "row": f"{self.entry}.{self.key}",
            "kind": self.kind,
            "probe": self.probe.name,
            "committed": committed,
            "measured": measured,
            "bound": bound,
            "ok": bool(ok),
        }


def evaluate(gates: Sequence[Gate], committed: dict[str, dict]) -> list[dict]:
    """Check every row against ``committed[suite]``, one probe at a time.

    A probe's rows are judged together on one attempt: the first attempt
    in which all of them hold, or else the last attempt.
    """
    results: list[dict] = []
    for probe in dict.fromkeys(gate.probe for gate in gates):
        rows = [gate for gate in gates if gate.probe is probe]
        for attempt, measure in enumerate(probe.attempts, start=1):
            measured = measure()
            checked = [
                gate.check(
                    committed[gate.suite][gate.entry][gate.key], measured[gate.entry][gate.key]
                )
                for gate in rows
            ]
            if all(row["ok"] for row in checked):
                break
        for row in checked:
            row["attempt"] = f"{attempt}/{len(probe.attempts)}"
        results.extend(checked)
    return results


# --------------------------------------------------------------------------- #
# Smoke probes.  The serving and observability probes train smaller models
# than the full suites; request latency only gets easier with a smaller
# generator, and the overhead bound is nanoseconds over an epoch measured
# in milliseconds, so the committed bounds stay valid upper bounds.
# --------------------------------------------------------------------------- #
TRANSPORT = Probe(
    "1 metered round",
    (lambda: {"transport_bytes_per_round": bench_runtime.measure_transport_bytes(rounds=1)},),
)
DTYPE_TRANSPORT = Probe(
    "1 metered round per dtype",
    (lambda: {"transport_bytes_float32": bench_runtime.measure_dtype_transport(rounds=1)},),
)
OVERLAP = Probe(
    "blocked tasks", (lambda: {"latency_overlap": bench_runtime.measure_latency_overlap()},) * 2
)
ARENA = Probe("arena step", (bench_training.measure_arena,))
PRECISION = Probe(
    "float32 vs float64 epochs",
    (
        lambda: bench_training.measure_precision(groups=2, reps=2),
        bench_training.measure_precision,
    ),
)
COMMITTED_TRAINING = Probe("committed record", (lambda: committed_metrics("training"),))
COMPLETION = Probe(
    "seeded rounds", (lambda: {"round_completion": bench_faults.measure_round_completion()},)
)
REPLAY = Probe(
    "straggler replay",
    (lambda: {"replay_determinism": bench_faults.measure_replay_determinism()},),
)
RECOVERY = Probe(
    "injected faults", (lambda: {"recovery_latency": bench_faults.measure_recovery_latency()},) * 2
)
HTTP = Probe(
    "HTTP burst, 600-row model",
    (lambda: {"latency_slo": bench_serving.measure_latency_slo(rows=600, epochs=2)},) * 2,
)
OVERHEAD = Probe(
    "400-row fits",
    (lambda: {"epoch_overhead": bench_obs.measure_epoch_overhead(rows=400, epochs=2)},),
)
TRACED_HTTP = Probe(
    "traced HTTP burst, 600-row model",
    (
        lambda: {
            "latency_slo_instrumented": bench_obs.measure_instrumented_http(rows=600, epochs=2)
        },
    )
    * 2,
)

# --------------------------------------------------------------------------- #
# The gate table.  Latency ceilings carry an absolute slack on top of the
# 30% band: process respawn, deadline abandonment and loopback HTTP are
# scheduler-bound, so a pure ratio would flake on shared runners.
# --------------------------------------------------------------------------- #
GATES: tuple[Gate, ...] = (
    Gate(
        "runtime",
        "transport_bytes_per_round",
        "resident_delta_bytes_per_round",
        TRANSPORT,
        CEILING,
        0.30,
    ),
    Gate(
        "runtime", "transport_bytes_per_round", "resident_install_bytes", TRANSPORT, CEILING, 0.30
    ),
    Gate("runtime", "transport_bytes_float32", "reduction", DTYPE_TRANSPORT, FLOOR, 0.30, 1.5),
    Gate("runtime", "latency_overlap", "speedup", OVERLAP, FLOOR, 0.30, 1.0),
    Gate("training", "step_allocations", "now_bytes", ARENA, CEILING, 0.30),
    Gate("training", "step_allocations_large_batch", "now_bytes", ARENA, CEILING, 0.30),
    Gate("training", "neural_step_allocations", "now_bytes", ARENA, CEILING, 0.30),
    Gate("training", "full_step_allocations", "now_bytes", ARENA, CEILING, 0.30),
    Gate("training", "workspace_bytes", "now_bytes", ARENA, CEILING, 0.30),
    Gate("training", "codec_roundtrip", "single_copy_fast_path", ARENA, EXACT, None, True),
    Gate("training", "float32_epoch", "speedup", PRECISION, FLOOR, 0.30, 1.0),
    Gate("training", "float32_step_allocations", "speedup", PRECISION, FLOOR, 0.30, 1.0),
    # The precision tier's acceptance bar: the recorded float32 speedup.
    Gate("training", "float32_epoch", "speedup", COMMITTED_TRAINING, FLOOR, None, 1.2),
    Gate("faults", "round_completion", "rounds_completed", COMPLETION, EXACT, 0.0),
    Gate("faults", "round_completion", "clients_dropped", COMPLETION, EXACT, 0.0),
    Gate("faults", "round_completion", "task_completion_rate", COMPLETION, EXACT, 0.0),
    Gate("faults", "round_completion", "dropped_per_round", COMPLETION, EXACT, 0.0),
    Gate("faults", "replay_determinism", "bit_identical", REPLAY, EXACT, None, True),
    Gate(
        "faults",
        "recovery_latency",
        "crash_recovery_overhead_seconds",
        RECOVERY,
        CEILING,
        0.30,
        1.0,
    ),
    Gate("faults", "recovery_latency", "crash_unrecovered_tasks", RECOVERY, EXACT, None, 0),
    Gate(
        "faults",
        "recovery_latency",
        "straggler_recovery_overhead_seconds",
        RECOVERY,
        CEILING,
        0.30,
        1.0,
    ),
    Gate("faults", "recovery_latency", "straggler_unrecovered_tasks", RECOVERY, EXACT, None, 0),
    Gate("serving", "latency_slo", "p50_ms", HTTP, CEILING, 0.30, 250.0),
    Gate("serving", "latency_slo", "p99_ms", HTTP, CEILING, 0.30, 500.0),
    Gate("serving", "latency_slo", "rejected", HTTP, EXACT, None, 0),
    Gate("obs", "epoch_overhead", "disabled_overhead_pct", OVERHEAD, CEILING, None, 1.0),
    Gate("obs", "epoch_overhead", "history_bit_identical", OVERHEAD, EXACT, None, True),
    Gate("obs", "latency_slo_instrumented", "p50_ms", TRACED_HTTP, CEILING, 0.30, 250.0),
    Gate("obs", "latency_slo_instrumented", "p99_ms", TRACED_HTTP, CEILING, 0.30, 500.0),
    Gate("obs", "latency_slo_instrumented", "rejected", TRACED_HTTP, EXACT, None, 0),
)

_OPERATORS = {CEILING: "<=", FLOOR: ">=", EXACT: "=="}


def _show(value) -> str:
    if isinstance(value, float) and abs(value) < 1.0:
        return f"{value:.4g}"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_rows(results: Sequence[dict]) -> str:
    """The text table: one line per row, grouped by suite, then a verdict."""
    lines: list[str] = []
    width = max((len(row["row"]) for row in results), default=0)
    suite = None
    for row in results:
        if row["suite"] != suite:
            suite = row["suite"]
            lines.append(f"[bench:{suite}] {trajectory_path(suite).name}")
        lines.append(
            f"  {row['row']:{width}s} {_show(row['measured']):>12} {_OPERATORS[row['kind']]}"
            f" {_show(row['bound']):<12} committed {_show(row['committed']):<12}"
            f" {'ok' if row['ok'] else 'FAILED':6s} {row['probe']}, attempt {row['attempt']}"
        )
    failed = [f"{row['suite']} {row['row']}" for row in results if not row["ok"]]
    if failed:
        lines.append(f"[bench] FAILED: {', '.join(failed)}")
    else:
        lines.append(f"[bench] ok: all {len(results)} rows hold")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.run", description=__doc__)
    parser.add_argument(
        "--json", action="store_true", help="print the rows (and documents) as JSON"
    )
    parser.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="training",
        help="which benchmark suite to run (default %(default)s)",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="do not rewrite the BENCH_*.json trajectory files"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: quick re-measure of every row; never writes",
    )
    args = parser.parse_args(argv)

    committed = {suite: committed_metrics(suite) for suite in SUITES}
    documents: dict[str, dict] = {}
    gates: list[Gate] = []
    if args.smoke:
        gates = list(GATES)
    else:
        for suite in SUITES if args.suite == "all" else (args.suite,):
            document = documents[suite] = SUITES[suite]()
            full_run = Probe(f"full {suite} run", (lambda metrics=document["metrics"]: metrics,))
            gates += [replace(gate, probe=full_run) for gate in GATES if gate.suite == suite]
    results = evaluate(gates, committed)
    ok = all(row["ok"] for row in results)

    if args.json:
        json.dump({"suites": documents, "rows": results, "ok": ok}, sys.stdout, indent=2)
        print()
    else:
        print(format_rows(results))
    if not args.no_write:
        for suite, document in documents.items():
            trajectory_path(suite).write_text(json.dumps(document, indent=2) + "\n")
            if not args.json:
                print(f"[bench:{suite}] wrote {trajectory_path(suite)}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
