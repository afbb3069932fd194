"""Benchmark suite for the paper reproduction.

``pytest benchmarks`` regenerates the paper's tables and figures (all marked
``slow`` + ``bench``); ``python -m benchmarks.run`` runs the runtime,
serving, training, fault and observability benchmarks and refreshes the
``BENCH_*.json`` perf-trajectory files at the repository root.
"""
