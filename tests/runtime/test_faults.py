"""Unit tests for seeded fault injection and the resilient task driver.

Covers the faults vocabulary (FaultInjector / FaultDecision / TaskPolicy /
TaskResult), the generic ``Executor.map_tasks`` retry loop on all three
executors, crash-surviving process pools, the worker-side eviction
broadcast, and the shared ``map_with_quorum`` round-dispatch helper.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime import (
    FaultDecision,
    FaultInjector,
    InjectedFault,
    ProcessExecutor,
    QuorumError,
    SerialExecutor,
    StragglerTimeout,
    TaskDropped,
    TaskPolicy,
    ThreadExecutor,
    WorkerCrash,
    map_with_quorum,
    worker_store,
)
from repro.runtime.faults import classify_failure


def _double(x: int) -> int:
    return x * 2


def _slow_double(x: int) -> int:
    time.sleep(0.15)
    return x * 2


def _fail_on_two(x: int) -> int:
    if x == 2:
        raise ValueError("boom")
    return x


def _resolve_ref(ref):
    return dict(ref.resolve())


def _store_contains(name: str) -> bool:
    return worker_store().contains(name)


# Runs in a fresh interpreter: the bug needs a parent whose resource tracker
# has not started yet, which no longer holds once any earlier test in this
# process has created a segment.  Task 0 attaches the segment in the single
# worker, task 1 crashes that worker, and the pause gives a private tracker
# of the dead worker time to unlink the segment before task 2's replay has
# to attach it again in a fresh worker.
_WARM_POOL_CRASH = """
import time
from repro.runtime import FaultInjector, ProcessExecutor, TaskPolicy

def resolve(ref):
    return dict(ref.resolve())

with ProcessExecutor(max_workers=1) as executor:
    executor.map(abs, [-1])
    ref = executor.install({"answer": 42})
    executor.install_faults(FaultInjector.crash_once(task_id=1))
    results = executor.map_tasks(resolve, [ref, ref], TaskPolicy(retries=1))
    time.sleep(0.5)
    executor.install_faults(FaultInjector.crash_once(task_id=2))
    results += executor.map_tasks(resolve, [ref], TaskPolicy(retries=1))
    print([r.value if r.ok else r.failure.message for r in results], executor.respawns)
"""


class TestFaultInjector:
    def test_no_rates_no_schedule_is_always_clean(self):
        injector = FaultInjector(seed=0)
        assert all(injector.decide(t, a).kind == "none" for t in range(20) for a in range(3))

    def test_decisions_are_pure_in_seed_task_attempt(self):
        a = FaultInjector(seed=7, crash_rate=0.2, error_rate=0.2, delay_rate=0.2, drop_rate=0.2)
        b = FaultInjector(seed=7, crash_rate=0.2, error_rate=0.2, delay_rate=0.2, drop_rate=0.2)
        decisions = [a.decide(t, 0) for t in range(50)]
        assert decisions == [b.decide(t, 0) for t in range(50)]
        # Different seed -> a different (deterministic) pattern.
        c = FaultInjector(seed=8, crash_rate=0.2, error_rate=0.2, delay_rate=0.2, drop_rate=0.2)
        assert decisions != [c.decide(t, 0) for t in range(50)]

    def test_rates_partition_the_draw(self):
        always_crash = FaultInjector(seed=0, crash_rate=1.0)
        assert always_crash.decide(3, 1).kind == "crash"
        always_drop = FaultInjector(seed=0, drop_rate=1.0)
        assert always_drop.decide(3, 1).kind == "drop"

    def test_schedule_overrides_and_classmethods(self):
        injector = FaultInjector.crash_once(task_id=4)
        assert injector.decide(4, 0).kind == "crash"
        assert injector.decide(4, 1).kind == "none"  # the retry runs clean
        assert injector.decide(5, 0).kind == "none"
        straggler = FaultInjector.straggle_once(task_id=2, delay_seconds=0.5)
        decision = straggler.decide(2, 0)
        assert (decision.kind, decision.delay_seconds) == ("delay", 0.5)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(crash_rate=-0.1)
        with pytest.raises(ValueError):
            FaultInjector(crash_rate=0.6, error_rate=0.6)

    def test_invalid_schedule_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(schedule={(0, 0): "explode"})

    def test_invalid_decision_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultDecision(kind="explode")

    def test_injector_is_picklable(self):
        import pickle

        injector = FaultInjector(seed=3, schedule={(1, 0): "error"})
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.decide(1, 0).kind == "error"


class TestTaskPolicy:
    def test_backoff_schedule_is_exponential(self):
        policy = TaskPolicy(backoff=0.1, backoff_factor=2.0)
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(3) == pytest.approx(0.4)
        assert TaskPolicy().backoff_seconds(2) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"retries": -1},
            {"backoff": -0.1},
            {"backoff_factor": 0.5},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TaskPolicy(**kwargs)


class TestClassifyFailure:
    def test_known_causes(self):
        import concurrent.futures

        assert classify_failure(WorkerCrash("x")) == "crash"
        assert classify_failure(concurrent.futures.BrokenExecutor()) == "crash"
        assert classify_failure(StragglerTimeout("x")) == "timeout"
        assert classify_failure(TaskDropped("x")) == "drop"
        assert classify_failure(InjectedFault("x")) == "error"
        assert classify_failure(ValueError("x")) == "error"


class TestMapTasksSerial:
    def test_clean_run_matches_map(self):
        executor = SerialExecutor()
        results = executor.map_tasks(_double, [1, 2, 3])
        assert [r.value for r in results] == [2, 4, 6]
        assert all(r.ok and r.attempts == 1 and not r.retried for r in results)
        assert [r.task_id for r in results] == [0, 1, 2]
        # The dispatch counter is global across calls, so schedules can
        # address "round r, slot s" as task_id = r * k + s.
        assert [r.task_id for r in executor.map_tasks(_double, [4])] == [3]

    def test_unwrap_returns_value_or_raises(self):
        executor = SerialExecutor()
        ok, bad = executor.map_tasks(_fail_on_two, [1, 2])
        assert ok.unwrap() == 1
        with pytest.raises(RuntimeError, match="error"):
            bad.unwrap()

    def test_injected_error_is_retried_to_success(self):
        executor = SerialExecutor()
        executor.install_faults(FaultInjector(schedule={(1, 0): "error"}))
        results = executor.map_tasks(_double, [1, 2, 3], TaskPolicy(retries=1))
        assert [r.value for r in results] == [2, 4, 6]
        assert [(r.attempts, r.retried) for r in results] == [(1, False), (2, True), (1, False)]

    def test_exhausted_retries_return_structured_failure(self):
        executor = SerialExecutor()
        executor.install_faults(
            FaultInjector(schedule={(0, 0): "error", (0, 1): "error"})
        )
        result = executor.map_tasks(_double, [5], TaskPolicy(retries=1))[0]
        assert not result.ok
        assert result.failure.cause == "error"
        assert result.failure.attempts == 2
        assert "InjectedFault" in result.failure.message

    def test_drop_and_crash_causes(self):
        executor = SerialExecutor()
        executor.install_faults(
            FaultInjector(schedule={(0, 0): "drop", (1, 0): "crash"})
        )
        dropped, crashed = executor.map_tasks(_double, [1, 2])
        assert dropped.failure.cause == "drop"
        assert crashed.failure.cause == "crash"

    def test_posthoc_deadline_discards_and_replays(self):
        # The serial executor cannot interrupt inline work; an overrunning
        # task is discarded post-hoc and counted as a timeout.
        executor = SerialExecutor()
        result = executor.map_tasks(_slow_double, [4], TaskPolicy(timeout=0.05))[0]
        assert not result.ok and result.failure.cause == "timeout"
        # With a generous deadline the same task succeeds.
        result = executor.map_tasks(_slow_double, [4], TaskPolicy(timeout=5.0))[0]
        assert result.ok and result.value == 8

    def test_per_call_injector_overrides_installed_one(self):
        executor = SerialExecutor()
        executor.install_faults(FaultInjector(error_rate=1.0))
        clean = TaskPolicy(injector=FaultInjector())
        assert all(r.ok for r in executor.map_tasks(_double, [1, 2], clean))

    def test_policy_rejected_on_closed_executor(self):
        executor = ThreadExecutor(max_workers=1)
        executor.close()
        with pytest.raises(RuntimeError):
            executor.map_tasks(_double, [1])


class TestMapTasksThread:
    def test_injected_straggler_times_out_and_recovers(self):
        with ThreadExecutor(max_workers=2) as executor:
            executor.install_faults(
                FaultInjector(schedule={(0, 0): FaultDecision("delay", 0.4)})
            )
            results = executor.map_tasks(
                _double, [1, 2, 3], TaskPolicy(timeout=0.1, retries=2)
            )
            assert [r.value for r in results] == [2, 4, 6]
            assert results[0].retried and results[0].attempts == 2

    def test_real_exception_fails_only_that_task(self):
        with ThreadExecutor(max_workers=2) as executor:
            results = executor.map_tasks(_fail_on_two, [1, 2, 3], TaskPolicy())
            assert [r.ok for r in results] == [True, False, True]
            assert results[1].failure.cause == "error"


class TestMapTasksProcess:
    def test_worker_crash_respawns_pool_and_replays(self):
        with ProcessExecutor(max_workers=2) as executor:
            executor.install_faults(FaultInjector.crash_once(task_id=1))
            results = executor.map_tasks(_double, [1, 2, 3], TaskPolicy(retries=2))
            assert [r.value for r in results] == [2, 4, 6]
            assert executor.respawns == 1
            # The executor stays healthy for subsequent rounds.
            assert executor.map(_double, [5]) == [10]

    def test_resident_state_survives_the_respawn(self):
        # The parent owns the shared-memory segments, so a ref installed
        # before the crash re-resolves in the fresh workers.
        with ProcessExecutor(max_workers=2) as executor:
            ref = executor.install({"answer": 42})
            executor.install_faults(FaultInjector.crash_once(task_id=0))
            results = executor.map_tasks(_resolve_ref, [ref, ref], TaskPolicy(retries=1))
            assert [r.value for r in results] == [{"answer": 42}, {"answer": 42}]
            assert executor.respawns == 1

    def test_resident_state_survives_a_crash_in_a_pool_warmed_before_install(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", _WARM_POOL_CRASH],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == str([{"answer": 42}] * 3) + " 2"
        assert "resource_tracker" not in completed.stderr

    def test_crash_without_retries_is_a_structured_failure(self):
        with ProcessExecutor(max_workers=2) as executor:
            executor.install_faults(FaultInjector.crash_once(task_id=0))
            results = executor.map_tasks(_double, [1, 2], TaskPolicy())
            assert not results[0].ok and results[0].failure.cause == "crash"
            # A fresh pool serves the next call.
            assert [r.ok for r in executor.map_tasks(_double, [3, 4])] == [True, True]


class TestEvictionBroadcast:
    def test_worker_store_purges_evicted_state(self):
        with ProcessExecutor(max_workers=1) as executor:
            ref = executor.install({"x": 1})
            assert executor.map(_resolve_ref, [ref]) == [{"x": 1}]
            assert executor.map(_store_contains, [ref.name]) == [True]
            executor.evict(ref)
            # The next dispatch piggybacks the eviction; the long-lived
            # worker drops its materialised copy before running the task.
            assert executor.map(_store_contains, [ref.name]) == [False]

    def test_eviction_rides_map_tasks_dispatches_too(self):
        with ProcessExecutor(max_workers=1) as executor:
            ref = executor.install({"x": 2})
            executor.map_tasks(_resolve_ref, [ref])
            executor.evict(ref)
            result = executor.map_tasks(_store_contains, [ref.name])[0]
            assert result.ok and result.value is False

    def test_evict_before_any_dispatch_needs_no_broadcast(self):
        with ProcessExecutor(max_workers=1) as executor:
            ref = executor.install({"x": 3})
            executor.evict(ref)
            assert executor._evicted_names == []


class TestMapWithQuorum:
    def test_fast_path_without_resilience(self):
        survivors, dropped = map_with_quorum(
            SerialExecutor(), _double, [1, 2], ["a", "b"], min_survivors=2
        )
        assert survivors == [(0, 2), (1, 4)] and dropped == []

    def test_fast_path_enforces_quorum_on_round_size(self):
        with pytest.raises(QuorumError):
            map_with_quorum(SerialExecutor(), _double, [1], ["a"], min_survivors=2)

    def test_survivors_and_dropped_ids(self):
        executor = SerialExecutor()
        executor.install_faults(FaultInjector(schedule={(1, 0): "error"}))
        survivors, dropped = map_with_quorum(
            executor, _double, [1, 2, 3], ["a", "b", "c"], min_survivors=1
        )
        assert survivors == [(0, 2), (2, 6)]
        assert dropped == ["b"]

    def test_quorum_error_carries_counts(self):
        executor = SerialExecutor()
        executor.install_faults(FaultInjector(error_rate=1.0))
        with pytest.raises(QuorumError) as excinfo:
            map_with_quorum(executor, _double, [1, 2], ["a", "b"], min_survivors=1)
        assert excinfo.value.survivors == 0
        assert excinfo.value.required == 1
