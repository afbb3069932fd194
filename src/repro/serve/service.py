"""The batched sampling service over model artifacts.

Two pieces:

* :class:`ModelRegistry` -- a thread-safe LRU cache of loaded artifacts.
  ``preload()`` fans the (CPU-heavy) artifact loads out over a
  :mod:`repro.runtime` executor, so warming a many-model registry scales
  with workers.
* :class:`SamplingService` -- the request front-end.  ``sample_many()``
  micro-batches a burst of ``(artifact, n, conditions, seed)`` requests:
  all requests against the same conditional-GAN artifact are stacked
  through the trainer's blocked share step (conditions and noise drawn
  per request from that request's seeded stream, as ``model.sample(n,
  seed)`` draws them), decoded once from the per-block winners, then
  split back per request.  ``sample_stream()`` yields fixed-size chunks
  so arbitrarily large requests run in bounded memory.  ``submit()`` is
  the concurrent front-end: requests land on a queue and a background
  batcher drains bursts into ``sample_many``.

Determinism contract: a request's rows depend only on (artifact, n,
conditions, seed) -- never on the chunk size or the thread that served it,
and not on which requests it was batched with as long as the BLAS rounds a
row alike in the stacked and the per-request generator products (see
:func:`repro.core.trainer.share_blocks`).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.synthesizer import KiNETGAN
from repro.core.trainer import share_blocks
from repro.engine import sampling_rng
from repro.runtime import Executor, resolve_executor
from repro.serve.artifact import load_model
from repro.tabular.table import Table

__all__ = ["SampleRequest", "ModelRegistry", "SamplingService"]


@dataclass(frozen=True)
class SampleRequest:
    """One sampling request against a saved artifact.

    ``seed=None`` uses the model's own sampling seed, exactly like calling
    ``model.sample(n)`` with no rng.  ``conditions`` fixes conditional
    attribute values for every generated row (conditional models only).
    """

    artifact: str
    n: int
    conditions: dict | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")


def _load_artifact_task(task: tuple):
    """Module-level executor work unit: apply an installed loader to a path.

    The loader rides as a :class:`repro.runtime.StateRef` installed once for
    the whole preload batch, so only the ref and the artifact key are
    pickled per task.
    """
    loader_ref, key = task
    return loader_ref.resolve()(key)


class ModelRegistry:
    """Thread-safe LRU cache mapping artifact directories to loaded models."""

    def __init__(
        self,
        capacity: int = 4,
        loader: Callable[[str], object] = load_model,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._loader = loader
        self._models: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.RLock()
        self._loading: dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(artifact: str | Path) -> str:
        return str(Path(artifact).resolve())

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._models)

    def get(self, artifact: str | Path):
        """The loaded model for ``artifact``, loading (and caching) on miss.

        The (potentially slow) artifact load runs *outside* the registry
        lock, so a cold load never stalls concurrent hits on other models;
        concurrent misses on the same key wait for the first loader instead
        of loading twice.
        """
        key = self._key(artifact)
        while True:
            with self._lock:
                if key in self._models:
                    self.hits += 1
                    self._models.move_to_end(key)
                    return self._models[key]
                pending = self._loading.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._loading[key] = pending
                    break
            pending.wait()
        try:
            model = self._loader(key)
        except BaseException:
            with self._lock:
                self._loading.pop(key, None)
            pending.set()
            raise
        with self._lock:
            self.misses += 1
            self._insert(key, model)
            self._loading.pop(key, None)
        pending.set()
        return model

    def put(self, artifact: str | Path, model) -> None:
        """Insert an already-loaded model (used by ``preload``)."""
        with self._lock:
            self._insert(self._key(artifact), model)

    def _insert(self, key: str, model) -> None:
        self._models[key] = model
        self._models.move_to_end(key)
        while len(self._models) > self.capacity:
            self._models.popitem(last=False)
            self.evictions += 1

    def preload(
        self, artifacts: Sequence[str | Path], executor: Executor | str | int | None = None
    ) -> list:
        """Load many artifacts, optionally fanning out over an executor.

        ``executor`` accepts the usual :func:`repro.runtime.resolve_executor`
        specs; executors created here from a spec are closed afterwards,
        caller-supplied :class:`Executor` instances are left running.  The
        loader is installed into the execution plane once (resident state),
        so each task ships only a ref and its artifact key.
        """
        keys = [self._key(path) for path in artifacts]
        owns_executor = not isinstance(executor, Executor)
        resolved = resolve_executor(executor)
        loader_ref = resolved.install(self._loader)
        try:
            models = resolved.map(_load_artifact_task, [(loader_ref, key) for key in keys])
        finally:
            if owns_executor:
                resolved.close()
            else:
                resolved.evict(loader_ref)
        for key, model in zip(keys, models):
            self.put(key, model)
        return models


@dataclass
class ServiceStats:
    """Running counters of the service's work (monotonic, thread-safe)."""

    requests: int = 0
    rows: int = 0
    generator_passes: int = 0
    batches: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, requests: int, rows: int, passes: int) -> None:
        with self._lock:
            self.requests += requests
            self.rows += rows
            self.generator_passes += passes
            self.batches += 1


class SamplingService:
    """Micro-batching sampling front-end over a :class:`ModelRegistry`."""

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        capacity: int = 4,
        chunk_rows: int = 1024,
        max_pending: int = 64,
        request_timeout: float | None = None,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive (or None)")
        self.registry = registry if registry is not None else ModelRegistry(capacity=capacity)
        self.chunk_rows = chunk_rows
        self.max_pending = max_pending
        #: Per-request deadline of the concurrent front-end: a submitted
        #: request that waited longer than this in the queue fails with
        #: ``TimeoutError`` on *its own* future when the batcher reaches it
        #: (every other request of the batch is served normally).
        self.request_timeout = request_timeout
        self.stats = ServiceStats()
        self._queue: queue.Queue = queue.Queue()
        self._worker: threading.Thread | None = None
        self._worker_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Synchronous API
    # ------------------------------------------------------------------ #
    def sample(
        self,
        artifact: str | Path,
        n: int,
        conditions: dict | None = None,
        seed: int | None = None,
    ) -> Table:
        """Serve a single request (one-element micro-batch)."""
        request = SampleRequest(artifact=str(artifact), n=n, conditions=conditions, seed=seed)
        return self.sample_many([request])[0]

    def sample_many(self, requests: Sequence[SampleRequest]) -> list[Table]:
        """Serve a burst of requests, coalescing per artifact.

        Results come back in request order.  Requests against the same
        conditional-GAN artifact share generator forwards and one decode;
        other model types are served per request.
        """
        if not requests:
            return []
        groups: OrderedDict[str, list[int]] = OrderedDict()
        for index, request in enumerate(requests):
            groups.setdefault(ModelRegistry._key(request.artifact), []).append(index)
        results: list[Table | None] = [None] * len(requests)
        for key, indices in groups.items():
            model = self.registry.get(key)
            group = [requests[i] for i in indices]
            if isinstance(model, KiNETGAN):
                tables, passes = self._serve_conditional_gan(model, group)
            else:
                tables = [
                    model.sample(
                        request.n,
                        conditions=request.conditions,
                        rng=self._request_rng(model, request),
                    )
                    for request in group
                ]
                passes = len(group)
            for i, table in zip(indices, tables):
                results[i] = table
            self.stats.record(requests=len(group), rows=sum(r.n for r in group), passes=passes)
        return results  # type: ignore[return-value]

    @staticmethod
    def _default_seed(model) -> int:
        """The seed ``model.sample()`` would fall back to with no rng."""
        config = getattr(model, "config", None)
        if config is not None:
            return config.seed
        return getattr(model, "seed", 0)

    @classmethod
    def _request_rng(cls, model, request: SampleRequest) -> np.random.Generator:
        seed = request.seed if request.seed is not None else cls._default_seed(model)
        return sampling_rng(seed)

    def _serve_conditional_gan(
        self, model: KiNETGAN, group: list[SampleRequest]
    ) -> tuple[list[Table], int]:
        """One blocked share step and one decode for all requests on ``model``.

        Each request's conditions and noise come from its own seeded stream,
        as in ``model.sample``; rows match it bit for bit wherever the BLAS
        rounds a row alike in the stacked and the per-request forwards (see
        :func:`repro.core.trainer.share_blocks`).
        """
        parts = []
        for request in group:
            rng = self._request_rng(model, request)
            parts.append((model.sample_conditions(request.n, request.conditions, rng), rng))
        table = model.transformer.decode(*model.trainer.share_codes(parts))
        tables: list[Table] = []
        cursor = 0
        for request in group:
            tables.append(table.select_rows(np.arange(cursor, cursor + request.n)))
            cursor += request.n
        return tables, len(share_blocks(cursor))

    # ------------------------------------------------------------------ #
    # Streaming API
    # ------------------------------------------------------------------ #
    def sample_stream(
        self,
        artifact: str | Path,
        n: int,
        conditions: dict | None = None,
        seed: int | None = None,
        chunk_rows: int | None = None,
    ) -> Iterator[Table]:
        """Yield a request's rows in chunks of ``chunk_rows``.

        For conditional-GAN artifacts the request runs ``model.sample``'s own
        blocked share step and each chunk is decoded once its blocks are
        done, so memory beyond the condition matrix is bounded by the chunk
        size, and the chunks concatenate to ``sample(artifact, n,
        conditions, seed)`` bit-for-bit for any ``chunk_rows``.  Other
        model types sample once and stream row slices.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        chunk_rows = chunk_rows if chunk_rows is not None else self.chunk_rows
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        model = self.registry.get(artifact)
        rng = sampling_rng(seed if seed is not None else self._default_seed(model))
        if not isinstance(model, KiNETGAN):
            table = model.sample(n, conditions=conditions, rng=rng)
            for start in range(0, n, chunk_rows):
                yield table.select_rows(np.arange(start, min(start + chunk_rows, n)))
            return
        condition = model.sample_conditions(n, conditions, rng)
        transformer = model.transformer
        winners = np.empty((0, transformer.softmax_layout().n_blocks), dtype=np.intp)
        scalars = np.empty((0, transformer.tanh_columns().size))
        passes = 0
        for _, stop, block_winners, block_scalars in model.trainer.iter_share_blocks(
            [(condition, rng)]
        ):
            winners = np.concatenate([winners, block_winners])
            scalars = np.concatenate([scalars, block_scalars])
            passes += 1
            # Full chunks as they complete; the last block flushes the rest.
            while len(winners) >= chunk_rows or (stop == n and len(winners)):
                rows = min(chunk_rows, len(winners))
                self.stats.record(requests=0, rows=rows, passes=passes)
                passes = 0
                yield transformer.decode(winners[:rows], scalars[:rows])
                winners, scalars = winners[rows:], scalars[rows:]

    # ------------------------------------------------------------------ #
    # Concurrent front-end
    # ------------------------------------------------------------------ #
    def submit(self, request: SampleRequest) -> "Future[Table]":
        """Enqueue a request; the background batcher resolves the future.

        Concurrent submissions that are in the queue together are served as
        one micro-batch through :meth:`sample_many`.  Failure isolation: a
        request that raises (bad conditions, missing artifact) or overruns
        ``request_timeout`` fails only its *own* future -- the batcher
        thread survives and every other request of the batch is served.
        """
        future: "Future[Table]" = Future()
        self._ensure_worker()
        self._queue.put((request, future, time.monotonic()))
        return future

    def _ensure_worker(self) -> None:
        with self._worker_lock:
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._batch_loop, name="sampling-service", daemon=True
                )
                self._worker.start()

    def _batch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            batch = [item]
            while len(batch) < self.max_pending:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    self._serve_batch(batch)
                    return
                batch.append(extra)
            self._serve_batch(batch)

    def _serve_batch(self, batch: list) -> None:
        # Claim every future first: a future cancelled while queued reports
        # False here and is dropped, and a claimed future can no longer be
        # cancelled, so the set_result/set_exception calls below cannot
        # raise InvalidStateError and kill the batcher thread.
        live = []
        for request, future, enqueued in batch:
            if not future.set_running_or_notify_cancel():
                continue
            waited = time.monotonic() - enqueued
            if self.request_timeout is not None and waited > self.request_timeout:
                future.set_exception(
                    TimeoutError(
                        f"request queued {waited:.3f}s, past its "
                        f"{self.request_timeout}s deadline"
                    )
                )
                continue
            live.append((request, future))
        if not live:
            return
        try:
            tables = self.sample_many([request for request, _future in live])
        except Exception:
            # One poisoned request must not take the batch (or the batcher)
            # down with it: re-serve each request individually so only the
            # offending request's future carries the exception.
            for request, future in live:
                try:
                    table = self.sample_many([request])[0]
                except Exception as error:
                    future.set_exception(error)
                else:
                    future.set_result(table)
            return
        for (_request, future), table in zip(live, tables):
            future.set_result(table)

    def close(self) -> None:
        """Stop the background batcher (idempotent; restartable)."""
        with self._worker_lock:
            worker = self._worker
            self._worker = None
        if worker is not None and worker.is_alive():
            self._queue.put(None)
            worker.join(timeout=10.0)

    def __enter__(self) -> "SamplingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def warm(
        self,
        artifacts: Iterable[str | Path],
        executor: Executor | str | int | None = None,
    ) -> None:
        """Preload artifacts into the registry (see ``ModelRegistry.preload``)."""
        self.registry.preload(list(artifacts), executor=executor)
