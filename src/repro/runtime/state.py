"""Worker-resident state and shared-memory parameter transport.

The stateless ``map(fn, payloads)`` contract of :mod:`repro.runtime.executor`
re-pickles everything a work unit needs on every call.  For round-based
workloads (federated rounds, repeated simulations) most of that payload never
changes: the client's feature partition, a whole KiNETGAN site, a node
pipeline.  This module splits a payload into

* a **resident state** -- installed into the execution plane *once* via
  :meth:`repro.runtime.Executor.install` and addressed afterwards by a small
  picklable :class:`StateRef`; and
* a **per-round delta** -- whatever actually changed (a spawned round seed, a
  flattened parameter buffer), shipped through the ordinary task payload or
  through a :class:`SharedBuffer`.

Transport is executor-specific but the worker-facing API is uniform: a task
carries refs, the worker function calls ``ref.resolve()``.

* In-process executors (serial, thread) hand out :class:`DirectStateRef` /
  :class:`DirectBufferRef`, which hold the object / array itself -- resolving
  is free and nothing is ever copied.
* :class:`~repro.runtime.ProcessExecutor` pickles a resident state **once**
  (:func:`dumps_resident`, which keeps views of flat parameter buffers as
  views) into a :class:`multiprocessing.shared_memory.SharedMemory` segment
  and hands out :class:`SharedStateRef`.  Every worker process unpickles the
  segment the first time it resolves the ref, detaches it, and caches the
  object in its process-local :class:`StateStore`, so successive rounds ship
  only the ref (a name and a byte count).  :class:`SharedBuffer` maps a
  numeric array of a caller-chosen dtype -- float64 by default, float32 for
  float32 models, which halves the mapped bytes (for example the
  ``(clients, total_params)`` round matrices of
  :mod:`repro.federated.parameters`) -- into shared memory: the parent
  writes parameters in place, workers read -- or write their result rows --
  without any bytes crossing the task pipe.  Writes
  through :meth:`SharedBuffer.write` are dtype-checked and raise
  :class:`BufferDtypeError` on mismatch instead of silently casting.

Synchronisation contract: rounds are synchronous (``Executor.map`` returns
only after every task finished), so the parent may rewrite a shared buffer
between rounds but never during one, and workers must copy anything they
want to keep past the end of their task.

Release contract: evicting a state or closing a buffer in the parent puts
its segment name on the executor's eviction broadcast, and each worker
frees its copy before its next task (:meth:`StateStore.purge`).
"""

from __future__ import annotations

import gc
import io
import pickle
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

from repro.neural.arena import reduce_flat_view

__all__ = [
    "StateStore",
    "StateRef",
    "DirectStateRef",
    "SharedStateRef",
    "BufferRef",
    "BufferDtypeError",
    "DirectBufferRef",
    "SharedBufferRef",
    "SharedBuffer",
    "LocalBuffer",
    "SharedMemoryBuffer",
    "dumps_resident",
    "worker_store",
]


class BufferDtypeError(TypeError):
    """A value's dtype does not match the shared buffer it is written into.

    Raised instead of silently casting: a float64 write into a float32
    transport buffer (or vice versa) would change bits mid-flight and break
    the bit-exact broadcast/update contract of the federated runtime.
    """


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting cleanup responsibility.

    The parent process that created a segment owns its lifetime (it unlinks
    on ``evict``/``close``).  Python 3.13 lets an attaching worker opt out
    of resource tracking with ``track=False``; on older versions the worker
    attaches normally.  That is harmless only because
    ``ProcessExecutor`` starts the parent's resource tracker before it
    creates a pool: every worker then shares it, and its registry is a set,
    so the extra registration dedupes away.  A worker with a private
    tracker would unlink the parent's live segment when it dies.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - Python < 3.13
        return shared_memory.SharedMemory(name=name)


class _ResidentPickler(pickle.Pickler):
    """Pickles views of parameter arenas and optimizer moments as views.

    The default reduction copies every view into a standalone array, so a
    network would cross with each value twice and arrive with a detached
    arena; see :func:`repro.neural.arena.reduce_flat_view`.
    """

    def reducer_override(self, obj: Any) -> Any:
        if type(obj) is np.ndarray:
            reduced = reduce_flat_view(obj)
            if reduced is not None:
                return reduced
        return NotImplemented


def dumps_resident(state: Any) -> bytes:
    """``pickle.dumps`` keeping flat-buffer views; load with ``pickle.loads``."""
    stream = io.BytesIO()
    _ResidentPickler(stream, protocol=pickle.HIGHEST_PROTOCOL).dump(state)
    return stream.getvalue()


class StateStore:
    """Process-local cache of resolved resident states and attached buffer segments.

    One instance lives at module level in every process (parent and workers
    alike).  ``resolve`` is keyed by segment name, which is unique per
    ``install`` call, so re-installing a state under a new segment never
    collides with a stale cache entry.
    """

    def __init__(self) -> None:
        self._objects: dict[str, Any] = {}
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def __len__(self) -> int:
        return len(self._objects)

    def attach(self, name: str) -> shared_memory.SharedMemory:
        """The (cached) attachment to the shared-memory segment ``name``."""
        segment = self._segments.get(name)
        if segment is None:
            segment = _attach_segment(name)
            self._segments[name] = segment
        return segment

    def resolve(self, name: str, nbytes: int) -> Any:
        """Unpickle (once) and return the resident state stored in ``name``.

        The segment is detached right after unpickling: the copy owns its
        bytes, and the parent owns the segment, so a respawned worker
        re-attaches and re-resolves it the same way.  Keeping it mapped
        would only count its shared pages in this process's RSS again.
        """
        if name not in self._objects:
            segment = _attach_segment(name)
            try:
                with segment.buf[:nbytes] as payload:
                    self._objects[name] = pickle.loads(payload)
            finally:
                segment.close()
        return self._objects[name]

    def contains(self, name: str) -> bool:
        """True when a resolved copy of ``name`` is cached here."""
        return name in self._objects

    def purge(self, names) -> None:
        """Drop every cached copy named in ``names`` (eviction broadcast).

        Called by the process-pool work-unit wrapper before a task body
        runs: the parent piggybacks the names of evicted states and closed
        buffers on each dispatch, so a long-lived worker releases their
        memory instead of holding it until the pool closes.  Dropping
        anything runs one ``gc.collect()``: a resident state is usually a
        cyclic graph (a site's trainer, engine and step refer to each
        other) that reference counting never frees.  Buffer segments are
        detached after that collection, once no garbage view maps them
        (state segments were detached when they were resolved).
        """
        names = [name for name in names if name in self._objects or name in self._segments]
        if not names:
            return
        for name in names:
            self._objects.pop(name, None)
        gc.collect()
        for name in names:
            segment = self._segments.pop(name, None)
            if segment is not None:
                segment.close()


#: The one store of the current process.  Workers populate it lazily the
#: first time a task resolves a shared ref.
_STORE = StateStore()


def worker_store() -> StateStore:
    """The calling process's :class:`StateStore` (parent or worker)."""
    return _STORE


# --------------------------------------------------------------------------- #
# Resident-state refs
# --------------------------------------------------------------------------- #
class StateRef:
    """Small picklable address of an installed resident state."""

    def resolve(self) -> Any:
        """The resident state, materialised in the calling process."""
        raise NotImplementedError


@dataclass(eq=False)
class DirectStateRef(StateRef):
    """In-process ref: holds the object itself (serial / thread executors)."""

    state: Any

    def resolve(self) -> Any:
        return self.state


@dataclass(frozen=True)
class SharedStateRef(StateRef):
    """Cross-process ref: the state was pickled once into shared memory."""

    name: str
    nbytes: int

    def resolve(self) -> Any:
        return _STORE.resolve(self.name, self.nbytes)


# --------------------------------------------------------------------------- #
# Shared parameter buffers
# --------------------------------------------------------------------------- #
class BufferRef:
    """Picklable address of (a row of) a shared numeric buffer.

    The buffer's dtype travels with the ref, so a worker resolving it maps
    the segment with the exact dtype the parent allocated.
    """

    def resolve(self) -> np.ndarray:
        """The addressed array (a view -- copy anything kept past the task)."""
        raise NotImplementedError


@dataclass(eq=False)
class DirectBufferRef(BufferRef):
    """In-process ref: a view of the parent's own array."""

    array: np.ndarray
    row: int | None = None

    def resolve(self) -> np.ndarray:
        return self.array if self.row is None else self.array[self.row]


@dataclass(frozen=True)
class SharedBufferRef(BufferRef):
    """Cross-process ref: maps the segment and returns an ndarray view.

    ``dtype`` is carried as a dtype name string so the frozen dataclass
    stays hashable and cheaply picklable.
    """

    name: str
    shape: tuple[int, ...]
    row: int | None = None
    dtype: str = "float64"

    def resolve(self) -> np.ndarray:
        segment = _STORE.attach(self.name)
        array: np.ndarray = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=segment.buf)
        return array if self.row is None else array[self.row]


class SharedBuffer:
    """Parent-side handle to a numeric array every worker can address.

    Created with :meth:`repro.runtime.Executor.shared_array` in a caller-
    chosen dtype (float64 by default); ``array`` is the parent's read/write
    view and ``ref(row)`` produces the picklable address a task carries.
    """

    @property
    def array(self) -> np.ndarray:
        raise NotImplementedError

    def ref(self, row: int | None = None) -> BufferRef:
        raise NotImplementedError

    def write(self, value: np.ndarray, row: int | None = None) -> None:
        """Copy ``value`` into the buffer (or into one row), dtype-checked.

        Raises :class:`BufferDtypeError` when ``value``'s dtype differs
        from the buffer's: transport buffers carry bit-exact parameter
        vectors, so a silent cast here would corrupt them mid-flight.
        """
        value = np.asarray(value)
        target = self.array if row is None else self.array[row]
        if value.dtype != target.dtype:
            raise BufferDtypeError(
                f"cannot write {value.dtype} data into a {target.dtype} shared buffer"
            )
        np.copyto(target, value)

    def close(self) -> None:
        """Release the buffer (idempotent)."""


class LocalBuffer(SharedBuffer):
    """Plain in-process array: shared trivially by serial/thread executors."""

    def __init__(self, shape: tuple[int, ...], dtype: np.dtype | type = np.float64) -> None:
        self._array = np.zeros(shape, dtype=dtype)

    @property
    def array(self) -> np.ndarray:
        return self._array

    def ref(self, row: int | None = None) -> DirectBufferRef:
        return DirectBufferRef(self._array, row)


@dataclass(eq=False)
class SharedMemoryBuffer(SharedBuffer):
    """Shared-memory array: one mapping, zero per-round transport bytes."""

    shape: tuple[int, ...]
    dtype: str = "float64"
    _segment: shared_memory.SharedMemory = field(init=False)
    _view: np.ndarray | None = field(init=False, default=None)
    #: Called once from :meth:`close`; the owning executor sets it to drop
    #: the buffer and broadcast its name to the workers.
    _on_close: Callable[["SharedMemoryBuffer"], None] | None = field(
        init=False, default=None, repr=False
    )

    def __post_init__(self) -> None:
        dt = np.dtype(self.dtype)
        self.dtype = dt.name  # normalise np.float32 / dtype objects to the name
        nbytes = int(np.prod(self.shape)) * dt.itemsize
        self._segment = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self._view = np.ndarray(self.shape, dtype=dt, buffer=self._segment.buf)
        self._view.fill(0.0)

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def array(self) -> np.ndarray:
        if self._view is None:
            raise RuntimeError("shared buffer is closed")
        return self._view

    def ref(self, row: int | None = None) -> SharedBufferRef:
        return SharedBufferRef(self.name, self.shape, row, dtype=self.dtype)

    def close(self) -> None:
        if self._view is None:
            return
        # The numpy view exports the segment's memory; drop it before the
        # mmap is closed or BufferError is raised.
        self._view = None
        self._segment.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        if self._on_close is not None:
            self._on_close(self)
