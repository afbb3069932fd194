"""Benchmark-tier checks for the parallel runtime.

Runs :mod:`benchmarks.bench_runtime` and checks the *structure* and the
machine-independent invariants:

* the latency-overlap probe (blocked work units) actually overlaps -- this
  holds on any machine, single-core included, because sleeping workers
  consume no CPU;
* the transport-bytes probe shows a steady-state round shipping orders of
  magnitude fewer pipe bytes than the one-time client installs --
  deterministic on any machine.

Round throughput is measured end to end by the repository benchmark
(``perfbench/run.py --workload federated``).
"""

from __future__ import annotations

from benchmarks.bench_runtime import run_runtime_bench


def test_runtime_bench_document_structure_and_overlap():
    document = run_runtime_bench()
    metrics = document["metrics"]

    overlap = metrics["latency_overlap"]
    # Eight 50 ms blocked tasks over eight workers: even with generous
    # scheduling slack the pool must clearly beat the 400 ms serial floor.
    assert overlap["speedup"] > 1.3

    transport = metrics["transport_bytes_per_round"]
    # The copy elimination is structural, not timing-bound: a steady-state
    # round ships refs, seeds and metric floats -- at least 10x fewer bytes
    # than installing the clients' partitions once.
    delta = transport["resident_delta_bytes_per_round"]
    assert 0 < 10 * delta <= transport["resident_install_bytes"]
    assert transport["cpu_count"] >= 1

    assert document["machine"]["cpus"] >= 1
