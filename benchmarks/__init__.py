"""Benchmark suite for the paper reproduction.

``pytest benchmarks`` regenerates the paper's tables and figures (all marked
``slow`` + ``bench``).  ``python -m benchmarks.run`` runs the runtime,
training, fault, serving and observability suites, checks them against the
gate table in :mod:`benchmarks.run` and refreshes the ``BENCH_*.json``
perf-trajectory files at the repository root; ``--smoke`` is the CI gate.
"""
