"""Pluggable executors: serial, thread-pool and process-pool execution.

Three contracts make up the execution plane:

* the stateless one -- :meth:`Executor.map` over picklable payloads with a
  module-level function, returning results in submission order;
* the resident one -- :meth:`Executor.install` places a one-time
  :mod:`resident state <repro.runtime.state>` in the plane and returns a
  small ref, :meth:`Executor.shared_array` allocates a parameter buffer
  every worker can address, and per-round tasks carry only refs plus the
  delta that actually changed; and
* the resilient one -- :meth:`Executor.map_tasks` runs the same payloads
  under a :class:`~repro.runtime.faults.TaskPolicy` (per-task deadlines,
  bounded retries with exponential backoff, seeded fault injection) and
  returns structured :class:`~repro.runtime.faults.TaskResult` s instead of
  raising.  :class:`ProcessExecutor` additionally survives worker crashes:
  a broken pool is respawned, resident :class:`StateRef` s re-resolve
  lazily in the fresh workers (the parent owns the shared-memory segments,
  which outlive the pool), and only the failed seeded tasks are replayed --
  payloads are pure functions of their parent-spawned seeds, so a
  recovered round is bit-identical to a fault-free one.

All three are deliberately tiny: they are exactly what the federated
server, the federated/distributed simulations and the runtime benchmark
need, and anything richer (futures, streaming completion) would make the
serial/parallel parity guarantee harder to reason about.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Any, Callable, Iterable, TypeVar

import numpy as np

from repro.obs import TraceContext, activate, default_registry, propagation_context
from repro.runtime.faults import (
    NO_FAULT,
    FaultDecision,
    FaultInjector,
    QuorumError,
    StragglerTimeout,
    TaskPolicy,
    TaskResult,
    _TaskState,
    classify_failure,
    execute_fault,
)
from repro.runtime.state import (
    DirectStateRef,
    LocalBuffer,
    SharedBuffer,
    SharedMemoryBuffer,
    SharedStateRef,
    StateRef,
    dumps_resident,
    worker_store,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "map_with_quorum",
]

T = TypeVar("T")
R = TypeVar("R")

#: Spec strings accepted by :func:`resolve_executor` for the serial path.
_SERIAL_NAMES = ("serial", "none", "sync")


def default_worker_count() -> int:
    """Worker count used when a pooled executor is requested without one."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


#: Set in each worker process of a :class:`ProcessExecutor` pool.
_in_pool_worker = False


def _mark_pool_worker() -> None:
    global _in_pool_worker
    _in_pool_worker = True


def in_pool_worker() -> bool:
    """Whether this process is a worker of a :class:`ProcessExecutor` pool,
    whose sibling workers already occupy the CPUs it may run on."""
    return _in_pool_worker


@dataclass(frozen=True)
class _TracedTask:
    """Picklable envelope carrying the dispatching span's trace context.

    Wrapping the mapped function (rather than the payloads) keeps every
    payload bit-identical to the untraced run; the worker re-enters the
    coordinator's context before the task body, so spans opened inside
    the work unit parent to the dispatching span -- across thread pools
    and, via the context's JSONL sink path, across process pools too.
    """

    fn: Callable[[Any], Any]
    context: TraceContext

    def __call__(self, payload: Any) -> Any:
        with activate(self.context):
            return self.fn(payload)


def _traced(fn: Callable[[T], R]) -> Callable[[T], R]:
    """Wrap ``fn`` with the current trace context; identity when inert."""
    context = propagation_context()
    if context is None:
        return fn
    return _TracedTask(fn, context)


def _record_task_metrics(executor_name: str, results: list[TaskResult]) -> None:
    """Fold one map_tasks round into the process-wide metrics registry."""
    registry = default_registry()
    labels = {"executor": executor_name}
    registry.counter(
        "repro_tasks_dispatched_total",
        help="Tasks submitted through Executor.map_tasks.",
        labels=labels,
    ).inc(len(results))
    completed = registry.counter(
        "repro_tasks_completed_total",
        help="Tasks that returned a value (possibly after retries).",
        labels=labels,
    )
    elapsed = registry.histogram(
        "repro_task_seconds",
        help="Per-task elapsed seconds summed across attempts.",
        labels=labels,
    )
    retries = 0
    for result in results:
        elapsed.observe(result.elapsed)
        retries += max(0, result.attempts - 1)
        if result.ok:
            completed.inc()
        else:
            registry.counter(
                "repro_tasks_failed_total",
                help="Tasks that exhausted their retries, by failure cause.",
                labels={**labels, "cause": result.failure.cause},
            ).inc()
    if retries:
        registry.counter(
            "repro_task_retries_total",
            help="Extra attempts beyond the first, across all tasks.",
            labels=labels,
        ).inc(retries)


class Executor:
    """Maps a module-level function over payloads, preserving input order."""

    #: Human-readable executor kind ("serial", "thread" or "process").
    name: str = "abstract"

    def __init__(self) -> None:
        self._closed = False
        #: Executor-wide fault source consulted by :meth:`map_tasks` when
        #: the policy does not carry its own (see :meth:`install_faults`).
        self.fault_injector: FaultInjector | None = None
        # Global dispatch counter: tasks are numbered in submission order
        # across successive map_tasks calls, so a FaultInjector schedule
        # addresses "round r, slot s" deterministically.
        self._task_counter = 0

    @property
    def closed(self) -> bool:
        """True once :meth:`close` released the executor's resources."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def map(self, fn: Callable[[T], R], payloads: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every payload and return results in input order."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Resilient execution (see repro.runtime.faults).
    # ------------------------------------------------------------------ #
    def install_faults(self, injector: FaultInjector | None) -> None:
        """Install (or clear) the executor-wide seeded fault injector.

        Every subsequent :meth:`map_tasks` call consults it per dispatch --
        a pure function of ``(seed, task_id, attempt)`` -- unless the call's
        policy carries its own injector.  ``None`` uninstalls.
        """
        self.fault_injector = injector

    def map_tasks(
        self,
        fn: Callable[[T], R],
        payloads: Iterable[T],
        policy: TaskPolicy | None = None,
    ) -> list[TaskResult]:
        """Run every payload under ``policy`` and return structured results.

        Unlike :meth:`map`, a failing task never raises: its
        :class:`~repro.runtime.faults.TaskResult` carries a
        :class:`~repro.runtime.faults.TaskFailure` (cause, attempts,
        elapsed) and every other task still completes.  Failed tasks are
        replayed up to ``policy.retries`` times with exponential backoff;
        because payloads are pure functions of their parent-spawned seeds,
        a successful replay is bit-identical to a fault-free first attempt.
        Results come back in submission order, exactly like :meth:`map`.
        """
        self._check_open()
        fn = _traced(fn)
        policy = policy if policy is not None else TaskPolicy()
        injector = policy.injector if policy.injector is not None else self.fault_injector
        entries: list[_TaskState] = []
        for payload in payloads:
            entries.append(_TaskState(task_id=self._task_counter, payload=payload))
            self._task_counter += 1
        pending = entries
        replay = 0
        while pending:
            if replay > 0:
                backoff = policy.backoff_seconds(replay)
                if backoff > 0:
                    time.sleep(backoff)
            decisions = [
                injector.decide(entry.task_id, entry.attempts)
                if injector is not None
                else NO_FAULT
                for entry in pending
            ]
            self._attempt(fn, pending, decisions, policy)
            pending = [
                entry
                for entry in pending
                if not entry.done and entry.attempts <= policy.retries
            ]
            replay += 1
        results = [entry.to_result(policy) for entry in entries]
        _record_task_metrics(self.name, results)
        return results

    def _attempt(
        self,
        fn: Callable[[T], R],
        entries: list[_TaskState],
        decisions: list[FaultDecision],
        policy: TaskPolicy,
    ) -> None:
        """Run one attempt of every entry, recording outcomes in place."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Resident state (see repro.runtime.state).  The in-process default
    # stores objects and buffers directly -- resolving a ref is free and
    # nothing is ever pickled; ProcessExecutor overrides with the
    # shared-memory transport.
    # ------------------------------------------------------------------ #
    def install(self, state: object) -> StateRef:
        """Install ``state`` into the execution plane once; returns its ref."""
        self._check_open()
        return DirectStateRef(state)

    def evict(self, ref: StateRef) -> None:
        """Release an installed resident state (idempotent)."""

    def shared_array(
        self, shape: tuple[int, ...], dtype: np.dtype | type = np.float64
    ) -> SharedBuffer:
        """Allocate a parameter buffer in ``dtype`` addressable from every worker.

        ``dtype`` defaults to float64; float32 models pass their own dtype so
        the transport carries (and shared-memory maps) half the bytes.
        """
        self._check_open()
        return LocalBuffer(shape, dtype)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release worker resources (idempotent; a no-op for serial)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _run_guarded(
    fn: Callable[[T], R], payload: T, decision: FaultDecision, timeout: float | None
) -> R:
    """Worker body of an in-process attempt: apply the fault, then run.

    Module-level so the thread pool can submit it; the injected fault runs
    *before* the task body, so an abandoned straggler (injected delay >=
    deadline) raises without ever touching resident state -- in-process
    executors share it with the parent, and running an abandoned attempt
    concurrently with its replay would race.
    """
    execute_fault(decision, timeout, in_process=True)
    return fn(payload)


class SerialExecutor(Executor):
    """In-process execution: a plain ordered loop over the payloads.

    This is the default everywhere.  Because the parallel paths feed the
    *same* payloads to the *same* module-level functions, a seeded run under
    :class:`SerialExecutor` is bit-identical to one under
    :class:`ThreadExecutor` or :class:`ProcessExecutor`.
    """

    name = "serial"

    def map(self, fn: Callable[[T], R], payloads: Iterable[T]) -> list[R]:
        fn = _traced(fn)
        return [fn(payload) for payload in payloads]

    def _attempt(
        self,
        fn: Callable[[T], R],
        entries: list[_TaskState],
        decisions: list[FaultDecision],
        policy: TaskPolicy,
    ) -> None:
        # Inline execution cannot be interrupted, so the deadline is
        # enforced post-hoc: an overrunning task's result is discarded and
        # the task replayed -- value-preserving, because payloads are pure
        # functions of their seeds (the replay recomputes the same bits).
        for entry, decision in zip(entries, decisions):
            entry.attempts += 1
            start = time.perf_counter()
            try:
                value = _run_guarded(fn, entry.payload, decision, policy.timeout)
                elapsed = time.perf_counter() - start
                if policy.timeout is not None and elapsed > policy.timeout:
                    raise StragglerTimeout(
                        f"task ran {elapsed:.3f}s past its {policy.timeout}s deadline"
                    )
                entry.value = value
                entry.done = True
            except Exception as error:
                entry.last_cause = classify_failure(error)
                entry.last_error = f"{type(error).__name__}: {error}"
            finally:
                entry.elapsed += time.perf_counter() - start


class ThreadExecutor(Executor):
    """A persistent thread pool: zero pickling, shared address space.

    The numpy-heavy work units of this repository (batched generator /
    discriminator passes, stacked aggregation) spend their time inside BLAS
    kernels that release the GIL, so threads overlap them on multi-core
    machines without any of the pickling a process pool pays.  Resident
    state is the parent's own objects (install/resolve are identity), and
    shared arrays are plain ndarrays -- the zero-copy limit of the
    execution plane.

    Work units must therefore not mutate state they share with other
    concurrently running units; every runtime consumer touches only its own
    client/site/node plus its private row of a shared buffer.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers or default_worker_count()
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        self._check_open()
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-runtime"
            )
        return self._pool

    def map(self, fn: Callable[[T], R], payloads: Iterable[T]) -> list[R]:
        # Executor.map yields results in submission order even when tasks
        # complete out of order (tested in tests/runtime/test_executor.py).
        return list(self._ensure_pool().map(_traced(fn), payloads))

    def _attempt(
        self,
        fn: Callable[[T], R],
        entries: list[_TaskState],
        decisions: list[FaultDecision],
        policy: TaskPolicy,
    ) -> None:
        # A timed-out future cannot be interrupted, but injected stragglers
        # raise StragglerTimeout in the worker before the body runs, so the
        # abandoned attempt never mutates shared state; the replay is the
        # only execution.  Genuinely hung (non-injected) work units should
        # be idempotent: an abandoned attempt may still complete later.
        pool = self._ensure_pool()
        futures = [
            pool.submit(_run_guarded, fn, entry.payload, decision, policy.timeout)
            for entry, decision in zip(entries, decisions)
        ]
        _collect_futures(entries, futures, policy)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadExecutor(max_workers={self.max_workers})"


def _collect_futures(
    entries: list[_TaskState],
    futures: list["concurrent.futures.Future"],
    policy: TaskPolicy,
) -> bool:
    """Harvest one attempt's futures in submission order; True if pool broke.

    Each future gets the policy's full deadline measured from the moment
    the parent starts waiting on it (earlier waits overlap later tasks'
    execution, so the effective per-task budget is at least the deadline).
    """
    broken = False
    for entry, future in zip(entries, futures):
        entry.attempts += 1
        start = time.perf_counter()
        try:
            entry.value = future.result(timeout=policy.timeout)
            entry.done = True
        except concurrent.futures.TimeoutError:
            future.cancel()
            entry.last_cause = "timeout"
            entry.last_error = f"no result within the {policy.timeout}s deadline"
        except concurrent.futures.BrokenExecutor as error:
            broken = True
            entry.last_cause = "crash"
            entry.last_error = f"{type(error).__name__}: worker died mid-task"
        except Exception as error:
            future.cancel()
            entry.last_cause = classify_failure(error)
            entry.last_error = f"{type(error).__name__}: {error}"
        finally:
            entry.elapsed += time.perf_counter() - start
    return broken


@dataclass(frozen=True)
class _WorkerItem:
    """One process-pool dispatch: payload + fault decision + housekeeping.

    ``evictions`` piggybacks the names of every shared-memory segment the
    parent has evicted so far; the worker purges its process-local
    :class:`~repro.runtime.state.StateStore` before running the task, so
    long-lived pools actually release the memory of evicted resident
    states instead of holding their materialised copies until pool close.
    """

    payload: Any
    decision: FaultDecision
    timeout: float | None
    evictions: tuple[str, ...]


def _apply_evictions(names: tuple[str, ...]) -> None:
    """Purge evicted resident states from this worker's StateStore."""
    if names:
        worker_store().purge(names)


def _run_worker_item(fn: Callable[[T], R], item: _WorkerItem) -> R:
    """Module-level process-pool work unit: evict, inject, run."""
    _apply_evictions(item.evictions)
    execute_fault(item.decision, item.timeout, in_process=False)
    return fn(item.payload)


def _run_plain_item(fn: Callable[[T], R], evictions: tuple[str, ...], payload: T) -> R:
    """Module-level wrapper for plain ``map`` with pending evictions."""
    _apply_evictions(evictions)
    return fn(payload)


class ProcessExecutor(Executor):
    """A persistent process pool shared across successive ``map`` calls.

    The underlying :class:`concurrent.futures.ProcessPoolExecutor` is
    created lazily on first use and reused for every subsequent round, so
    per-round overhead is pickling only, not process start-up.  Payloads and
    the mapped function must be picklable (module-level functions, dataclass
    payloads of arrays/config/seeds/refs).

    Resident state uses the shared-memory transport of
    :mod:`repro.runtime.state`: :meth:`install` pickles the state *once*
    into a segment that every worker attaches and caches on first use, and
    :meth:`shared_array` maps a buffer of the caller's dtype that all
    processes address directly, so steady-state rounds ship refs and deltas
    only.  Segments are unlinked by :meth:`evict` / :meth:`close`.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None, start_method: str | None = None) -> None:
        super().__init__()
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers or default_worker_count()
        self.start_method = start_method
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._installed: dict[str, Any] = {}
        self._buffers: list[SharedMemoryBuffer] = []
        #: Names of evicted shared-memory segments, broadcast to workers on
        #: every subsequent dispatch (see _WorkerItem).  Cleared whenever
        #: the pool is (re)created: fresh workers hold no stale copies.
        self._evicted_names: list[str] = []
        #: How many times a broken pool was respawned (observability).
        self.respawns = 0

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        self._check_open()
        if self._pool is None:
            context = None
            if self.start_method is not None:
                context = multiprocessing.get_context(self.start_method)
            # Workers must inherit the parent's resource tracker.  A worker
            # forked before it runs starts a private tracker on its first
            # attach, and that tracker unlinks the parent's live segments
            # when the worker dies.
            resource_tracker.ensure_running()
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=context, initializer=_mark_pool_worker
            )
            self._evicted_names.clear()
        return self._pool

    def _respawn_pool(self) -> None:
        """Replace a broken pool; resident state survives in shared memory.

        The parent owns every installed segment and shared buffer, so a
        worker crash costs only the workers' process-local caches: fresh
        workers re-resolve the same :class:`SharedStateRef` s lazily on
        first use, and the caller replays just the failed seeded tasks.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
            self.respawns += 1
            default_registry().counter(
                "repro_pool_respawns_total",
                help="Broken process pools replaced with fresh workers.",
                labels={"executor": self.name},
            ).inc()

    def map(self, fn: Callable[[T], R], payloads: Iterable[T]) -> list[R]:
        # ProcessPoolExecutor.map already yields results in submission order.
        pool = self._ensure_pool()
        fn = _traced(fn)
        evictions = tuple(self._evicted_names)
        try:
            if evictions:
                payloads = list(payloads)
                return list(
                    pool.map(
                        _run_plain_item,
                        [fn] * len(payloads),
                        [evictions] * len(payloads),
                        payloads,
                    )
                )
            return list(pool.map(fn, payloads))
        except concurrent.futures.BrokenExecutor:
            # Surface the raw error (map has no retry semantics; use
            # map_tasks for resilience) but leave the executor usable.
            self._respawn_pool()
            raise

    def _attempt(
        self,
        fn: Callable[[T], R],
        entries: list[_TaskState],
        decisions: list[FaultDecision],
        policy: TaskPolicy,
    ) -> None:
        pool = self._ensure_pool()
        evictions = tuple(self._evicted_names)
        try:
            futures = [
                pool.submit(
                    _run_worker_item,
                    fn,
                    _WorkerItem(
                        payload=entry.payload,
                        decision=decision,
                        timeout=policy.timeout,
                        evictions=evictions,
                    ),
                )
                for entry, decision in zip(entries, decisions)
            ]
        except concurrent.futures.BrokenExecutor as error:
            # The pool broke before this attempt could submit (e.g. during
            # an earlier plain map); count the attempt and let the retry
            # loop replay against a fresh pool.
            for entry in entries:
                entry.attempts += 1
                entry.last_cause = "crash"
                entry.last_error = f"{type(error).__name__}: pool broken at submit"
            self._respawn_pool()
            return
        if _collect_futures(entries, futures, policy):
            self._respawn_pool()

    # ------------------------------------------------------------------ #
    def install(self, state: object) -> SharedStateRef:
        from multiprocessing import shared_memory

        self._check_open()
        payload = dumps_resident(state)
        segment = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
        segment.buf[: len(payload)] = payload
        self._installed[segment.name] = segment
        return SharedStateRef(name=segment.name, nbytes=len(payload))

    def evict(self, ref: StateRef) -> None:
        if not isinstance(ref, SharedStateRef):
            return
        segment = self._installed.pop(ref.name, None)
        if segment is not None:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._broadcast_eviction(ref.name)
            default_registry().counter(
                "repro_state_evictions_total",
                help="Resident states evicted from the execution plane.",
                labels={"executor": self.name},
            ).inc()

    def _broadcast_eviction(self, name: str) -> None:
        # A live pool's workers may hold a resolved copy or an attachment of
        # the segment; every subsequent dispatch carries the name so they
        # purge it (a no-op for workers that never touched it).
        if self._pool is not None:
            self._evicted_names.append(name)

    def _release_buffer(self, buffer: SharedMemoryBuffer) -> None:
        self._buffers.remove(buffer)
        self._broadcast_eviction(buffer.name)

    def shared_array(
        self, shape: tuple[int, ...], dtype: np.dtype | type = np.float64
    ) -> SharedMemoryBuffer:
        self._check_open()
        buffer = SharedMemoryBuffer(shape, np.dtype(dtype).name)
        buffer._on_close = self._release_buffer
        self._buffers.append(buffer)
        return buffer

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for segment in self._installed.values():
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._installed.clear()
        for buffer in list(self._buffers):
            buffer.close()  # each close removes itself from the list
        self._evicted_names.clear()
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessExecutor(max_workers={self.max_workers})"


def map_with_quorum(
    executor: Executor,
    fn: Callable[[T], R],
    payloads: list[T],
    ids: list[str],
    *,
    min_survivors: int = 0,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.0,
    unit: str = "task",
) -> tuple[list[tuple[int, R]], list[str]]:
    """Fan a round out resiliently; keep the survivors, enforce a quorum.

    The shared round-dispatch pattern of every degrading consumer (the
    federated server, the KiNETGAN coordinator, the distributed
    simulation): run ``payloads`` through :meth:`Executor.map_tasks` under
    the given deadline/retry policy and return ``(survivors, dropped)``,
    where survivors are ``(slot, value)`` pairs in submission order (the
    slot indexes the round's shared result buffers) and ``dropped`` lists
    the ids -- parallel to ``payloads`` -- whose tasks still failed after
    every retry.  Raises :class:`~repro.runtime.faults.QuorumError` before
    the caller touches any state when fewer than ``min_survivors`` remain.

    When no resilience is requested (no deadline, no retries, no installed
    fault injector) this degrades to a plain :meth:`Executor.map`: zero
    overhead and an exception propagates raw, exactly like the
    pre-resilience consumers.
    """
    if timeout is None and retries == 0 and executor.fault_injector is None:
        if len(payloads) < min_survivors:
            default_registry().counter(
                "repro_quorum_failures_total",
                help="Rounds aborted because survivors fell below the quorum.",
                labels={"unit": unit},
            ).inc()
            raise QuorumError(
                f"round dispatches only {len(payloads)} {unit}(s); "
                f"quorum requires {min_survivors}",
                survivors=len(payloads),
                required=min_survivors,
            )
        return list(enumerate(executor.map(fn, payloads))), []
    policy = TaskPolicy(timeout=timeout, retries=retries, backoff=backoff)
    results = executor.map_tasks(fn, payloads, policy)
    survivors = [(slot, result.value) for slot, result in enumerate(results) if result.ok]
    dropped = [ids[slot] for slot, result in enumerate(results) if not result.ok]
    if dropped:
        default_registry().counter(
            "repro_quorum_dropped_total",
            help="Round participants dropped after exhausting retries.",
            labels={"unit": unit},
        ).inc(len(dropped))
    if len(survivors) < min_survivors:
        default_registry().counter(
            "repro_quorum_failures_total",
            help="Rounds aborted because survivors fell below the quorum.",
            labels={"unit": unit},
        ).inc()
        raise QuorumError(
            f"round finished with {len(survivors)} surviving {unit}(s); "
            f"quorum requires {min_survivors}",
            survivors=len(survivors),
            required=min_survivors,
        )
    return survivors, dropped


def _pool_spec(text: str, cls: type[Executor]) -> Executor:
    """Parse the ``N`` of a ``"<kind>:N"`` spec into a pool of ``cls``."""
    raw = text.split(":", 1)[1]
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(
            f"invalid worker count {raw!r} in executor spec {text!r}"
        ) from None
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    return SerialExecutor() if workers == 1 else cls(max_workers=workers)


def resolve_executor(spec: "Executor | str | int | None") -> Executor:
    """Normalise an executor spec into an :class:`Executor` instance.

    Accepted specs:

    * ``None``, ``0``, ``1``, ``"serial"`` -- the in-process serial executor;
    * an ``int N > 1`` -- a process pool with ``N`` workers;
    * ``"process"`` / ``"process:N"`` -- a process pool (CPU-count sized /
      ``N`` workers);
    * ``"thread"`` / ``"thread:N"`` -- a thread pool (CPU-count sized /
      ``N`` workers), zero pickling, best when work units spend their time
      in GIL-releasing BLAS kernels;
    * an open :class:`Executor` instance -- returned unchanged (a closed
      one is rejected).

    This is the single point where the CLI / example ``--workers`` knob and
    the simulation ``executor=`` parameters meet the runtime.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, Executor):
        if spec.closed:
            raise ValueError(f"executor spec is a closed {type(spec).__name__}")
        return spec
    if isinstance(spec, bool):
        raise TypeError("executor spec must be an Executor, str, int or None")
    if isinstance(spec, int):
        if spec < 0:
            raise ValueError("worker count must be non-negative")
        return SerialExecutor() if spec <= 1 else ProcessExecutor(max_workers=spec)
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in _SERIAL_NAMES:
            return SerialExecutor()
        if text == "process":
            return ProcessExecutor()
        if text == "thread":
            return ThreadExecutor()
        if text.startswith("process:"):
            return _pool_spec(text, ProcessExecutor)
        if text.startswith("thread:"):
            return _pool_spec(text, ThreadExecutor)
        if text.isdigit():
            return resolve_executor(int(text))
        raise ValueError(
            f"unknown executor spec {spec!r}; expected 'serial', 'process[:N]', 'thread[:N]' or N"
        )
    raise TypeError("executor spec must be an Executor, str, int or None")
