"""Parameter-vector utilities for federated training.

Federated averaging operates on model *state dictionaries* (the
``name -> ndarray`` mapping produced by
:meth:`repro.neural.network.Sequential.state_dict`) laid out as flat
vectors.  The workhorse here is :class:`StateCodec`, a fixed
flattened-buffer layout derived from a template state: it encodes any
compatible state into one contiguous vector and back.  The transport dtype
follows the template: an all-float32 state encodes into float32 vectors --
half the bytes per federated round -- while anything else keeps the
historical float64 layout.

:class:`FlatChannel` is the one round transport built on the codec: a
parent-owned broadcast vector plus a ``(units, total_params)`` result
matrix in the execution plane, addressed by workers through picklable
:class:`FlatSlot` s.  A round aggregates the surviving rows of that matrix
where they are: :func:`weighted_average` (FedAvg) reduces them in one
stacked pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.runtime import Executor
    from repro.runtime.state import BufferRef, SharedBuffer, StateRef

__all__ = [
    "StateDict",
    "StateCodec",
    "FlatChannel",
    "FlatSlot",
    "copy_state",
    "state_subtract",
    "weighted_average",
]

#: A model state: parameter (and buffer) name to array.
StateDict = dict[str, np.ndarray]


class StateCodec:
    """Fixed layout between state dictionaries and flat vectors.

    The layout is taken from a template state with keys sorted, so two
    states with the same keys and shapes always encode to the same vector
    positions -- the invariant the round transport's result matrix and
    FedAvg over its rows rely on.

    The transport dtype (:attr:`dtype`) is float32 when every floating
    entry of the template is float32, float64 otherwise -- so float32
    models ship float32 vectors end to end.
    """

    def __init__(self, template: StateDict) -> None:
        self.keys: tuple[str, ...] = tuple(sorted(template))
        self.shapes: dict[str, tuple[int, ...]] = {}
        self.dtypes: dict[str, np.dtype] = {}
        self._spans: dict[str, tuple[int, int]] = {}
        cursor = 0
        for key in self.keys:
            value = np.asarray(template[key])
            self.shapes[key] = value.shape
            self.dtypes[key] = value.dtype
            size = int(value.size)
            self._spans[key] = (cursor, cursor + size)
            cursor += size
        self.dim = cursor
        floating = {dt for dt in self.dtypes.values() if np.issubdtype(dt, np.floating)}
        self.dtype: np.dtype = (
            np.dtype(np.float32) if floating == {np.dtype(np.float32)} else np.dtype(np.float64)
        )
        # Last verified flat view: the exact arrays of an arena-backed state
        # plus the contiguous view covering them.  Holding the arrays pins
        # their identities, so an all-``is`` match on a later call proves the
        # walk's conclusion still holds without re-reading data pointers.
        self._fast_cache: tuple[tuple[np.ndarray, ...], np.ndarray] | None = None

    def __getstate__(self) -> dict:
        # The cached arrays are live model parameters; pickled codecs must
        # not drag a whole network's state along.
        state = self.__dict__.copy()
        state["_fast_cache"] = None
        return state

    # ------------------------------------------------------------------ #
    def _validate(self, state: StateDict) -> None:
        if set(state) != set(self.keys):
            raise ValueError("state dictionaries have different keys")
        for key in self.keys:
            shape = np.asarray(state[key]).shape
            if shape != self.shapes[key]:
                raise ValueError(
                    f"shape mismatch for {key!r}: {self.shapes[key]} vs {shape}"
                )

    # ------------------------------------------------------------------ #
    def _flat_view(self, state: StateDict) -> np.ndarray | None:
        """One contiguous view covering ``state`` in layout order, or ``None``.

        The states of arena-consolidated networks (see
        :mod:`repro.neural.arena`) are views in the codec's transport dtype
        laid out back-to-back in sorted-key order inside one flat buffer;
        detecting that turns :meth:`encode` / :meth:`decode_into` into a
        single ``memcpy``.
        The check walks the entries once (O(keys) pointer arithmetic) and
        caches its verdict against the exact array objects, so the steady
        state -- a resident site encoding the same live network every round
        -- pays only an identity sweep before the copy.
        """
        if not self.keys:
            return None
        cached = getattr(self, "_fast_cache", None)
        if cached is not None and len(state) == len(self.keys):
            values, flat = cached
            for key, value in zip(self.keys, values):
                if state.get(key) is not value:
                    break
            else:
                return flat
        first = state.get(self.keys[0])
        if not isinstance(first, np.ndarray):
            return None
        dtype = self.dtype
        itemsize = dtype.itemsize
        expected = first.__array_interface__["data"][0]
        begin = expected
        root = first
        while isinstance(root.base, np.ndarray):
            root = root.base
        # The root may still sit on foreign memory (a resident state unpickled
        # in a pool worker sits on a pickle buffer); its own data pointer and
        # size bound the offset arithmetic below either way.
        if root.dtype != dtype or not root.flags.c_contiguous:
            return None
        for key in self.keys:
            value = state.get(key)
            if (
                not isinstance(value, np.ndarray)
                or value.dtype != dtype
                or not value.flags.c_contiguous
                or value.shape != self.shapes[key]
            ):
                return None
            if value.__array_interface__["data"][0] != expected:
                return None
            expected += value.nbytes
        if len(state) != len(self.keys) or expected - begin != self.dim * itemsize:
            return None
        root_begin = root.__array_interface__["data"][0]
        offset, remainder = divmod(begin - root_begin, itemsize)
        if remainder or offset < 0 or offset + self.dim > root.size:
            return None
        view = root.reshape(-1)[offset : offset + self.dim]
        self._fast_cache = (tuple(state[key] for key in self.keys), view)
        return view

    def encode(self, state: StateDict, out: np.ndarray | None = None) -> np.ndarray:
        """Flatten ``state`` into a ``(dim,)`` vector in the transport dtype.

        Arena-backed states (contiguous views in layout order) are encoded
        with one ``np.copyto``; anything else takes the per-key path.
        """
        vector = out if out is not None else np.empty(self.dim, dtype=self.dtype)
        flat = self._flat_view(state)
        if flat is not None:
            np.copyto(vector, flat)
            return vector
        self._validate(state)
        for key in self.keys:
            start, end = self._spans[key]
            vector[start:end] = np.asarray(state[key], dtype=self.dtype).ravel()
        return vector

    def decode(self, vector: np.ndarray) -> StateDict:
        """Inverse of :meth:`encode`.

        Floating template dtypes are restored; any non-float entry stays
        in the transport dtype, because decoded vectors are usually
        *aggregates* (weighted means, DP-noised averages) and casting those
        back to an integer dtype would silently truncate them.  The entries
        are views of ``vector`` wherever no cast is needed.
        """
        vector = np.asarray(vector, dtype=self.dtype)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected a ({self.dim},) vector, got shape {vector.shape}")
        state: StateDict = {}
        for key in self.keys:
            start, end = self._spans[key]
            chunk = vector[start:end].reshape(self.shapes[key])
            dtype = self.dtypes[key]
            if np.issubdtype(dtype, np.floating):
                chunk = chunk.astype(dtype, copy=False)
            state[key] = chunk
        return state

    def decode_into(self, vector: np.ndarray, state: StateDict) -> StateDict:
        """Copy a flat ``vector`` into an existing state's arrays in place.

        The in-place inverse of :meth:`encode`: where :meth:`decode` builds a
        dictionary over the vector (a new global state), this fills the live
        arrays of an already-built model -- the broadcast path of a resident
        federated site and the parent mirroring a trained row onto its own
        site.  Arena-backed states take a single ``np.copyto``.
        """
        vector = np.asarray(vector, dtype=self.dtype)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected a ({self.dim},) vector, got shape {vector.shape}")
        flat = self._flat_view(state)
        if flat is not None:
            np.copyto(flat, vector)
            return state
        self._validate(state)
        for key in self.keys:
            start, end = self._spans[key]
            state[key][...] = vector[start:end].reshape(self.shapes[key])
        return state

    def l2_norm(self, vector: np.ndarray) -> float:
        """Global L2 norm of a flat vector, in float64.

        The squares are summed per key span in layout order, so the norm of
        an encoded state is the one a per-tensor loop over its entries gives,
        bit for bit (the DP clipping factor depends on it).
        """
        total = 0.0
        for start, end in self._spans.values():
            total += float((np.asarray(vector[start:end], dtype=np.float64) ** 2).sum())
        return float(np.sqrt(total))


@dataclass
class FlatSlot:
    """A worker's view of one :class:`FlatChannel` row (picklable).

    Three refs: the installed codec, the broadcast vector and this unit's
    row of the result matrix.  The broadcast is only valid for the round,
    so everything a worker keeps past its task is a copy.
    """

    codec: StateRef
    broadcast: BufferRef
    row: BufferRef

    def global_state(self) -> StateDict:
        """A standalone state decoded from (a copy of) the broadcast vector."""
        codec: StateCodec = self.codec.resolve()
        return codec.decode(np.array(self.broadcast.resolve(), copy=True))

    def load_into(self, live_state: StateDict) -> StateDict:
        """Copy the broadcast vector straight into a live network's arrays."""
        codec: StateCodec = self.codec.resolve()
        return codec.decode_into(self.broadcast.resolve(), live_state)

    def store(self, state: StateDict) -> None:
        """Encode ``state`` into this unit's row of the result matrix."""
        codec: StateCodec = self.codec.resolve()
        codec.encode(state, out=self.row.resolve())

    def store_delta(self, state: StateDict) -> None:
        """Write ``state - broadcast`` into this unit's row, with no dict between."""
        self.store(state)
        row = self.row.resolve()
        row -= self.broadcast.resolve()


class FlatChannel:
    """One flat-parameter stream of a round-based workload (parent side).

    Installs its :class:`StateCodec` into the executor once and holds, in
    the codec's transport dtype, the broadcast vector and a
    ``(units, total_params)`` result matrix that grows when a round has
    more units than rows.  Under the process executor both live in shared
    memory, so a round's parameters never touch the task pipe; under
    serial/thread executors the slots resolve to the parent's own arrays.
    """

    def __init__(self, executor: Executor, template: StateDict) -> None:
        self.executor = executor
        self.codec = StateCodec(template)
        self._codec_ref = executor.install(self.codec)
        self._broadcast = executor.shared_array((self.codec.dim,), dtype=self.codec.dtype)
        self._results: SharedBuffer | None = None
        self._rows = 0

    def publish(self, state: StateDict, units: int) -> None:
        """Broadcast ``state`` for a round of ``units`` result rows."""
        if units > self._rows:
            if self._results is not None:
                self._results.close()
            self._results = self.executor.shared_array(
                (units, self.codec.dim), dtype=self.codec.dtype
            )
            self._rows = units
        self.codec.encode(state, out=self._broadcast.array)

    def slot(self, row: int) -> FlatSlot:
        """The picklable slot a round task carries for result row ``row``."""
        assert self._results is not None, "publish before handing out slots"
        return FlatSlot(self._codec_ref, self._broadcast.ref(), self._results.ref(row))

    @property
    def broadcast(self) -> np.ndarray:
        """The round's broadcast vector (read-only by convention)."""
        return self._broadcast.array

    def rows(self, slots: list[int]) -> np.ndarray:
        """A ``(len(slots), dim)`` copy of the result rows ``slots``, in order."""
        assert self._results is not None, "publish before reading results"
        return self._results.array[slots]

    def load_into(self, state: StateDict) -> StateDict:
        """Copy the round's broadcast vector into ``state`` (parent side)."""
        return self.codec.decode_into(self.broadcast, state)

    def close(self) -> None:
        """Evict the codec and release both buffers."""
        self.executor.evict(self._codec_ref)
        self._broadcast.close()
        if self._results is not None:
            self._results.close()


def _check_compatible(a: StateDict, b: StateDict) -> None:
    if set(a) != set(b):
        raise ValueError("state dictionaries have different keys")
    for key in a:
        if a[key].shape != b[key].shape:
            raise ValueError(f"shape mismatch for {key!r}: {a[key].shape} vs {b[key].shape}")


def copy_state(state: StateDict) -> StateDict:
    """A deep copy of a state dictionary."""
    return {key: np.array(value, copy=True) for key, value in state.items()}


def state_subtract(a: StateDict, b: StateDict) -> StateDict:
    """Element-wise ``a - b`` (e.g. the client update ``local - global``)."""
    _check_compatible(a, b)
    return {key: a[key] - b[key] for key in a}


def weighted_average(rows: np.ndarray, weights: list[float] | None = None) -> np.ndarray:
    """Weighted mean of a ``(units, dim)`` matrix of flat states (FedAvg).

    ``rows`` are encoded states -- a round's surviving rows of a
    :class:`FlatChannel` result matrix.  ``weights`` default to uniform;
    they are normalised internally, so per-client example counts give the
    canonical FedAvg weighting.  The mean is taken in float64 and rounded
    back to the rows' transport dtype.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or not len(rows):
        raise ValueError("need a non-empty (units, dim) matrix to average")
    if weights is None:
        weights = [1.0] * len(rows)
    if len(weights) != len(rows):
        raise ValueError("weights and rows must have the same length")
    weight_array = np.asarray(weights, dtype=np.float64)
    if np.any(weight_array < 0):
        raise ValueError("weights must be non-negative")
    if float(weight_array.sum()) <= 0:
        raise ValueError("weights must not all be zero")
    average = np.average(rows, axis=0, weights=weight_array)
    return average.astype(rows.dtype, copy=False)
