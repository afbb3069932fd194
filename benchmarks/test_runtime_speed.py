"""Benchmark-tier checks for the parallel runtime.

Runs a reduced version of :mod:`benchmarks.bench_runtime` and checks the
*structure* and the machine-independent invariants:

* the round-throughput sweep produces serial, process and thread numbers
  for every requested client count;
* the latency-overlap probe (blocked work units) actually overlaps -- this
  holds on any machine, single-core included, because sleeping workers
  consume no CPU;
* the transport-bytes probe shows a steady-state round shipping orders of
  magnitude fewer pipe bytes than the one-time client installs --
  deterministic on any machine.

Absolute CPU-bound speedups are hardware-bound (cores), so like the rest of
the benchmark suite they are printed rather than asserted; run with ``-s``
to see them.
"""

from __future__ import annotations

from benchmarks.bench_runtime import format_results, run_runtime_bench


def test_runtime_bench_document_structure_and_overlap():
    document = run_runtime_bench(client_counts=(2,), rounds=1)
    print()
    print(format_results(document))

    metrics = document["metrics"]
    entry = metrics["federated_round_2clients"]
    assert entry["serial_rounds_per_sec"] > 0
    assert entry["process_rounds_per_sec"] > 0
    assert entry["thread_rounds_per_sec"] > 0
    assert entry["workers"] >= 2
    assert entry["cpu_count"] >= 1
    assert "transport" in entry

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
    assert document["config"]["client_counts"] == [2]
