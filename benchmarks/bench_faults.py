"""Fault-tolerance benchmarks: recovery latency and round-completion rate.

Measures what the resilient execution plane (:mod:`repro.runtime.faults`)
costs and guarantees when workers actually fail:

* ``round_completion`` -- a seeded federated run under a 25% per-task
  injected error rate with one replay per task: how many client rounds
  survive, how many are dropped, and the resulting completion rate.  The
  injector is pure in ``(seed, task_id, attempt)``, so every number in
  this entry is bit-deterministic and the smoke gate compares it exactly.
* ``replay_determinism`` -- a thread-pool run with an injected straggler
  past its deadline, replayed and compared against the fault-free serial
  run: the recovered global state must be *bit-identical* (the replay
  reuses the same parent-spawned round seed).  Deterministic; the gate
  requires identity.
* ``recovery_latency`` -- wall-clock overhead of recovering from one
  injected fault on otherwise-trivial task sets: a worker crash on the
  process pool (respawn + replay) and an abandoned straggler on the
  thread pool (deadline + replay).  Timing-bound, so the smoke gate
  allows a tolerance band plus an absolute slack and retries once.

Results land in ``BENCH_faults.json`` at the repository root;
``benchmarks/run.py``'s gate table holds the bounds.  Run through
``python -m benchmarks.run --suite faults``.
"""

from __future__ import annotations

import datetime
import os
import platform
import time

import numpy as np

from repro.federated.client import FederatedClient
from repro.federated.server import FederatedServer
from repro.federated.simulation import DetectorFactory
from repro.runtime import (
    FaultInjector,
    ProcessExecutor,
    SerialExecutor,
    TaskPolicy,
    ThreadExecutor,
)

#: Seeded error process of the completion-rate probe.
COMPLETION_ERROR_RATE = 0.25
COMPLETION_ROUNDS = 6
COMPLETION_CLIENTS = 4
COMPLETION_RETRIES = 1
INJECTOR_SEED = 11

#: Deadline / straggler parameters of the latency probes.
LATENCY_TASKS = 16
STRAGGLER_DELAY = 0.5
STRAGGLER_DEADLINE = 0.1


def _square(x: int) -> int:
    """Module-level trivial work unit for the latency probes."""
    return x * x


def _make_clients(n_clients: int, model_fn: DetectorFactory) -> list[FederatedClient]:
    clients = []
    for i in range(n_clients):
        rng = np.random.default_rng(60 + i)
        clients.append(
            FederatedClient(
                client_id=f"bench-{i}",
                features=rng.normal(size=(128, model_fn.n_features)),
                labels=rng.integers(0, model_fn.n_classes, size=128),
                model_fn=model_fn,
                learning_rate=0.05,
                batch_size=64,
                local_epochs=1,
                seed=i,
            )
        )
    return clients


def _model_fn() -> DetectorFactory:
    return DetectorFactory(n_features=6, n_classes=2, hidden_dims=(16,), seed=0)


def measure_round_completion() -> dict:
    """Seeded federated run under injected errors: completion bookkeeping.

    Serial executor + rate-mode injector + one replay per task, so the
    entire entry is a pure function of the seeds and gates exactly.
    """
    model_fn = _model_fn()
    executor = SerialExecutor()
    executor.install_faults(
        FaultInjector(seed=INJECTOR_SEED, error_rate=COMPLETION_ERROR_RATE)
    )
    server = FederatedServer(
        model_fn,
        _make_clients(COMPLETION_CLIENTS, model_fn),
        seed=0,
        executor=executor,
        task_retries=COMPLETION_RETRIES,
    )
    with server:
        history = server.run(COMPLETION_ROUNDS)
    total_tasks = COMPLETION_ROUNDS * COMPLETION_CLIENTS
    dropped = sum(len(round_info.dropped) for round_info in history.rounds)
    return {
        "rounds": COMPLETION_ROUNDS,
        "clients": COMPLETION_CLIENTS,
        "error_rate": COMPLETION_ERROR_RATE,
        "retries": COMPLETION_RETRIES,
        "injector_seed": INJECTOR_SEED,
        "rounds_completed": history.n_rounds,
        "round_completion_rate": round(history.n_rounds / COMPLETION_ROUNDS, 4),
        "client_tasks": total_tasks,
        "clients_dropped": dropped,
        "task_completion_rate": round((total_tasks - dropped) / total_tasks, 4),
        "dropped_per_round": [len(round_info.dropped) for round_info in history.rounds],
        "deterministic": True,
    }


def measure_replay_determinism() -> dict:
    """Straggler-recovered thread run vs the fault-free serial baseline.

    The injected straggler overshoots its deadline, the attempt is
    abandoned before the task body runs, and the replay reuses the same
    round seed -- so the recovered global state must match the fault-free
    one bit for bit.
    """
    model_fn = _model_fn()
    with FederatedServer(
        model_fn, _make_clients(3, model_fn), seed=0
    ) as baseline_server:
        baseline_server.run(2)
        baseline = baseline_server.global_state

    executor = ThreadExecutor(max_workers=2)
    executor.install_faults(
        FaultInjector.straggle_once(task_id=1, delay_seconds=STRAGGLER_DELAY)
    )
    with FederatedServer(
        model_fn,
        _make_clients(3, model_fn),
        seed=0,
        executor=executor,
        task_timeout=STRAGGLER_DEADLINE,
        task_retries=2,
    ) as recovered_server:
        recovered_server.run(2)
        recovered = recovered_server.global_state

    max_abs_diff = max(
        float(np.max(np.abs(np.asarray(baseline[key]) - np.asarray(recovered[key]))))
        if np.asarray(baseline[key]).size
        else 0.0
        for key in baseline
    )
    identical = set(baseline) == set(recovered) and all(
        np.array_equal(baseline[key], recovered[key]) for key in baseline
    )
    return {
        "straggler_delay_seconds": STRAGGLER_DELAY,
        "deadline_seconds": STRAGGLER_DEADLINE,
        "bit_identical": bool(identical),
        "max_abs_diff": max_abs_diff,
        "deterministic": True,
    }


def _timed_map_tasks(executor, policy: TaskPolicy) -> tuple[float, int]:
    """Elapsed seconds of one ``map_tasks`` sweep plus its failure count."""
    start = time.perf_counter()
    results = executor.map_tasks(_square, list(range(LATENCY_TASKS)), policy)
    elapsed = time.perf_counter() - start
    failures = sum(0 if result.ok else 1 for result in results)
    return elapsed, failures


def measure_recovery_latency() -> dict:
    """Wall-clock cost of recovering one injected fault per executor kind.

    Each probe warms its pool, times a clean sweep, then times the same
    sweep with one injected fault and a replay budget; the difference is
    the recovery overhead (pool respawn + replay for a crash, deadline +
    replay for a straggler).
    """
    # Process pool: one worker crash mid-sweep, pool respawn, replay.
    with ProcessExecutor(max_workers=2) as pool:
        pool.map(_square, list(range(LATENCY_TASKS)))  # warm-up: spawn workers
        clean_seconds, _ = _timed_map_tasks(pool, TaskPolicy(retries=1))
        crash_policy = TaskPolicy(
            retries=1,
            injector=FaultInjector.crash_once(task_id=pool._task_counter + 2),
        )
        crash_seconds, crash_failures = _timed_map_tasks(pool, crash_policy)
        respawns = pool.respawns

    # Thread pool: one straggler past the deadline, abandoned, replayed.
    with ThreadExecutor(max_workers=2) as pool:
        pool.map(_square, list(range(LATENCY_TASKS)))
        thread_clean_seconds, _ = _timed_map_tasks(
            pool, TaskPolicy(timeout=STRAGGLER_DEADLINE, retries=1)
        )
        straggler_policy = TaskPolicy(
            timeout=STRAGGLER_DEADLINE,
            retries=1,
            injector=FaultInjector.straggle_once(
                task_id=pool._task_counter + 2, delay_seconds=STRAGGLER_DELAY
            ),
        )
        straggler_seconds, straggler_failures = _timed_map_tasks(pool, straggler_policy)

    return {
        "tasks": LATENCY_TASKS,
        "crash_clean_seconds": round(clean_seconds, 4),
        "crash_recovered_seconds": round(crash_seconds, 4),
        "crash_recovery_overhead_seconds": round(crash_seconds - clean_seconds, 4),
        "crash_pool_respawns": respawns,
        "crash_unrecovered_tasks": crash_failures,
        "straggler_clean_seconds": round(thread_clean_seconds, 4),
        "straggler_recovered_seconds": round(straggler_seconds, 4),
        "straggler_recovery_overhead_seconds": round(
            straggler_seconds - thread_clean_seconds, 4
        ),
        "straggler_unrecovered_tasks": straggler_failures,
        "deadline_seconds": STRAGGLER_DEADLINE,
        "cpu_count": os.cpu_count(),
    }


def run_faults_bench() -> dict:
    """Measure all fault probes and return the trajectory document."""
    metrics = {
        "round_completion": measure_round_completion(),
        "replay_determinism": measure_replay_determinism(),
        "recovery_latency": measure_recovery_latency(),
    }
    return {
        "benchmark": "faults",
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "config": {
            "error_rate": COMPLETION_ERROR_RATE,
            "injector_seed": INJECTOR_SEED,
            "straggler_delay_seconds": STRAGGLER_DELAY,
            "deadline_seconds": STRAGGLER_DEADLINE,
            "latency_tasks": LATENCY_TASKS,
        },
        "metrics": metrics,
        "notes": (
            "round_completion and replay_determinism are pure functions of "
            "the seeds (the injector draws from SeedSequence(seed, task_id, "
            "attempt)) and gate exactly in CI. recovery_latency is "
            "timing-bound -- it prices a process-pool respawn and a "
            "deadline-abandoned straggler -- and gates with a tolerance "
            "band plus absolute slack."
        ),
    }
