"""The repository benchmark: ``train``, ``federated`` and ``serve`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs one untraced and one traced cycle and reports the per-layer metrics
(self times per layer entry point, exact byte and call counts, trace
coverage and overhead).  Metric names and units come from
``BENCHMARK.json`` at the repository root.  Human-readable lines start with
``#``; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

# BLAS thread pools must be pinned before numpy loads: with one pool per
# process on a 2-core box, unpinned runs measure oversubscription.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "federated", "serve")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    threads = " ".join(f"{name}={value}" for name, value in BLAS_THREADS.items())
    return (
        f"nproc={len(os.sched_getaffinity(0))} blas={vendor} ({threads}) "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )


def _stop_resource_tracker() -> None:
    """Stop and join the helper process ``multiprocessing.shared_memory`` starts.

    The federated pool's shared memory starts the stdlib resource tracker;
    stopping it here means the run ends with no process of its own left.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _print_table(run, kind: str) -> None:
    if not run.table:
        return
    wall = run.wall_s or 1.0
    print(f"# per-layer self times ({kind}); share = self / measured wall {wall:.3f} s")
    print(f"# {'span':<40} {'calls':>8} {'total s':>10} {'self s':>10} {'share':>7}")
    rows = sorted(run.table.items(), key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        print(
            f"# {name:<40} {row['calls']:>8} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {row['self_s'] / wall:>7.1%}"
        )


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"error: {ROOT} holds no repro sources to benchmark", file=sys.stderr)
        return 2
    benchmark = json.loads(spec_path.read_text())
    wanted = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    sys.path.insert(0, str(ROOT / "src"))
    import spec
    from common import work_dir
    from serving import ServeWorkload
    from training import FederatedWorkload, TrainWorkload

    seed = spec.WORKLOAD_SEED if args.seed is None else args.seed
    seconds = float(args.seconds if args.seconds is not None else benchmark["run_seconds"])
    work = work_dir(ROOT)
    print(f"# workload={args.workload} seed={seed} seconds={seconds:g} trace={args.trace}")
    print(f"# why: {spec.WHY[args.workload]}")
    print(f"# env: {_environment()}")
    print(f"# held-out seed for confirming claims: {spec.HELD_OUT_SEED}")
    workloads = {"train": TrainWorkload, "federated": FederatedWorkload, "serve": ServeWorkload}
    try:
        workload = workloads[args.workload](work)
        run = workload.trace(seed, seconds) if args.trace else workload.measure(seed, seconds)
    finally:
        _stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for line in run.notes:
        print(f"# {line}")
    _print_table(run, args.workload)
    missing = sorted(set(units) - set(run.metrics))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 3
    metrics = {}
    for name, unit in units.items():
        value = float(run.metrics[name])
        print(f"# {name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": run.failed == 0,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
