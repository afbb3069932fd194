"""Contiguous parameter/gradient arenas for :class:`~repro.neural.network.Sequential`.

A :class:`ParamArena` re-houses every parameter *and* persistent buffer of a
network in one flat buffer (``data``) with an aligned flat gradient buffer
(``grads``), both in the network's floating dtype (float64 by default,
float32 for a float32-built network).  Layer attributes (``weight``,
``grad_weight``, ...) are rebound to views into those buffers, so

* optimizers can update the whole network with a handful of vectorized
  in-place passes over ``data``/``grads`` instead of a Python loop over
  tensors (see :mod:`repro.neural.optimizers`),
* ``Sequential.zero_grad`` becomes a single ``fill(0.0)``, and
* the federated :class:`~repro.federated.parameters.StateCodec` can encode /
  decode an arena-backed state with one ``np.copyto`` because entries are
  laid out in the codec's sorted-key order.

Layout
------
Entries are sorted by their full state-dict key (``layers.3.weight`` ...),
exactly matching ``StateCodec``'s ``sorted(template)`` layout.  Non-trainable
buffers (BatchNorm running statistics) live in ``data`` between trainable
spans; the corresponding *gap* regions of ``grads`` and of any optimizer
moment buffer are never written and stay zero, which keeps fused full-buffer
optimizer updates bit-identical to the per-tensor path (``x - 0.0 * anything``
is a bitwise no-op).  Fused updates that would touch the gaps with non-zero
values (weight decay) fall back to the per-tensor path unless
:attr:`ParamArena.exact_cover` holds.

Opting out
----------
A layer participates by implementing ``Layer.arena_entries()`` (see
:mod:`repro.neural.layers`).  Returning ``None`` is the documented opt-out
for layers whose parameters cannot be view-rebound (e.g. parameters that are
themselves views, non-floating or mixed-dtype state, or storage shared with
another object); one opted-out layer disables consolidation for the whole
network, which then keeps the ordinary per-tensor representation.  All
entries must share one floating dtype (float32 or float64): a mixed-dtype
network cannot be packed into a single flat buffer and stays per-tensor.

Pickling
--------
A plain ``pickle.dumps`` does not keep numpy views as views: each one
unpickles as its own standalone array, and the arena arrives detached.
Every fast path therefore re-checks :attr:`ParamArena.intact` (an O(1)
base-chain test) and falls back to the per-tensor code, which stays correct
on the detached buffers.

``data``, ``grads`` and the optimizers' flat moment buffers are registered
as *flat buffers* (:func:`register_flat`).  A pickler that routes ndarrays
through :func:`reduce_flat_view` -- the resident-state install of
:class:`~repro.runtime.ProcessExecutor` does -- writes every contiguous
view of a registered buffer as ``(buffer, offset, shape)``.  The pickle memo
keeps object identity, so the layer attribute, :attr:`ParamArena.pairs` and
an optimizer's parameter list all unpickle as one view of one buffer: the
arena stays intact, every value crosses once, and the fused kernels keep
running in the receiving process.
"""

from __future__ import annotations

import contextlib
import math
import weakref
from collections.abc import Iterator

import numpy as np

__all__ = [
    "ParamArena",
    "find_arena",
    "register_flat",
    "reduce_flat_view",
    "consolidation_enabled",
    "disable_consolidation",
]

#: Live arenas keyed by ``id(_root(arena.data))`` so optimizers can recover
#: the arena behind a parameter list without holding a reference themselves.
_ARENAS: "weakref.WeakValueDictionary[int, ParamArena]" = weakref.WeakValueDictionary()

#: Roots of the flat buffers registered with :func:`register_flat`, by ``id``
#: (weak: a freed buffer leaves the registry).
_FLAT_ROOTS: "weakref.WeakValueDictionary[int, np.ndarray]" = weakref.WeakValueDictionary()

_ENABLED = True


def consolidation_enabled() -> bool:
    """Whether :meth:`Sequential.consolidate` currently builds arenas."""
    return _ENABLED


@contextlib.contextmanager
def disable_consolidation() -> Iterator[None]:
    """Context manager forcing the legacy per-tensor representation.

    Inside the context, ``Sequential.consolidate()`` is a no-op that leaves
    the network on ordinary per-tensor storage -- the reference path the
    arena must stay bit-identical to.  Used by the arena parity tests.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def _root(array: np.ndarray) -> np.ndarray:
    """The owning ndarray at the bottom of a view's ``base`` chain.

    Stops at the last ndarray: un-pickled arrays can be backed by a foreign
    buffer object (memoryview, mmap) that has no ``base`` of its own.
    """
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def register_flat(flat: np.ndarray) -> None:
    """Let views of ``flat`` pickle as views (see :func:`reduce_flat_view`)."""
    root = _root(flat)
    _FLAT_ROOTS[id(root)] = root


def _flat_view(root: np.ndarray, offset: int, shape: tuple[int, ...]) -> np.ndarray:
    """Unpickle helper: the view ``reduce_flat_view`` took apart."""
    return root[offset : offset + math.prod(shape)].reshape(shape)


def reduce_flat_view(array: np.ndarray):
    """A pickle reduction keeping ``array`` a view of its flat buffer.

    Returns ``(_flat_view, (root, offset, shape))`` when ``array`` is a
    C-contiguous view, in the root's dtype, of a buffer registered with
    :func:`register_flat`; otherwise ``None`` (pickle it as usual).  The
    root itself pickles once through the memo, however many views share it.
    Meant for ``pickle.Pickler.reducer_override``.
    """
    root = _root(array)
    if root is array or _FLAT_ROOTS.get(id(root)) is not root:
        return None
    if array.dtype != root.dtype or not array.flags.c_contiguous:
        return None
    offset = (
        array.__array_interface__["data"][0] - root.__array_interface__["data"][0]
    ) // root.itemsize
    return _flat_view, (root, offset, array.shape)


class ParamArena:
    """Flat parameter/gradient storage backing one ``Sequential``.

    Build with :meth:`ParamArena.build`; the constructor only records an
    already-computed layout.
    """

    def __init__(
        self,
        data: np.ndarray,
        grads: np.ndarray,
        spans: dict[str, tuple[int, int, tuple[int, ...], bool]],
        pairs: list[tuple[np.ndarray, np.ndarray]],
        pair_spans: list[tuple[int, int, tuple[int, ...]]],
    ) -> None:
        self.data = data
        self.grads = grads
        #: ``key -> (start, end, shape, trainable)`` in sorted-key order.
        self.spans = spans
        #: The network's ``(param_view, grad_view)`` pairs in parameter order.
        self.pairs = pairs
        #: ``(start, end, shape)`` aligned with :attr:`pairs`.
        self.pair_spans = pair_spans
        self.size = int(data.size)
        trainable = sum(end - start for start, end, _shape, is_param in spans.values() if is_param)
        #: True when trainable spans cover the whole buffer (no gap regions),
        #: i.e. fused updates may touch every element with non-zero values.
        self.exact_cover = trainable == self.size
        self._register()

    def _register(self) -> None:
        _ARENAS[id(_root(self.data))] = self
        register_flat(self.data)
        register_flat(self.grads)

    def __setstate__(self, state: dict) -> None:
        # An unpickled arena registers again, so find_arena and the install
        # pickler see it in the receiving process too.
        self.__dict__.update(state)
        self._register()

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, network) -> "ParamArena | None":
        """Consolidate ``network`` (a ``Sequential``) into a fresh arena.

        Returns ``None`` -- leaving the network untouched -- when any layer
        opts out, exposes non-floating or mixed-dtype state, or reports
        entries inconsistent with its ``params``/``state_dict`` contract.
        """
        entries: list[tuple[str, object, str, str | None]] = []
        for i, layer in enumerate(network.layers):
            sub = layer.arena_entries()
            if sub is None:
                return None
            entries.extend(
                (f"layers.{i}.{key}", owner, attr, grad_attr)
                for key, owner, attr, grad_attr in sub
            )
        if not entries:
            return None

        values: dict[str, np.ndarray] = {}
        dtype: np.dtype | None = None
        for key, owner, attr, _grad_attr in entries:
            value = getattr(owner, attr)
            if not isinstance(value, np.ndarray) or value.dtype not in (
                np.float64,
                np.float32,
            ):
                return None
            if dtype is None:
                dtype = value.dtype
            elif value.dtype != dtype:
                return None  # mixed dtypes cannot share one flat buffer
            values[key] = value
        state = network.state_dict()
        if sorted(values) != sorted(state):
            return None
        # The trainable entries must be exactly the network's parameter list
        # (same arrays), otherwise the rebinding below would desynchronise
        # ``parameters()`` from the arena.
        entry_params = sorted(
            id(values[key]) for key, _owner, _attr, grad_attr in entries if grad_attr is not None
        )
        if entry_params != sorted(id(p) for p, _g in network.parameters()):
            return None

        entries.sort(key=lambda entry: entry[0])  # StateCodec's sorted-key order
        total = sum(values[key].size for key, _owner, _attr, _grad_attr in entries)
        data = np.empty(total, dtype=dtype)
        grads = np.zeros(total, dtype=dtype)
        spans: dict[str, tuple[int, int, tuple[int, ...], bool]] = {}
        span_by_param: dict[int, tuple[int, int, tuple[int, ...]]] = {}
        cursor = 0
        for key, owner, attr, grad_attr in entries:
            value = values[key]
            start, end = cursor, cursor + value.size
            cursor = end
            view = data[start:end].reshape(value.shape)
            np.copyto(view, value)
            setattr(owner, attr, view)
            spans[key] = (start, end, value.shape, grad_attr is not None)
            if grad_attr is not None:
                grad_view = grads[start:end].reshape(value.shape)
                np.copyto(grad_view, getattr(owner, grad_attr))
                setattr(owner, grad_attr, grad_view)
                span_by_param[id(view)] = (start, end, value.shape)

        pairs = network.parameters()
        pair_spans = [span_by_param[id(param)] for param, _grad in pairs]
        return cls(data, grads, spans, pairs, pair_spans)

    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> np.dtype:
        """The shared floating dtype of ``data``/``grads``."""
        return self.data.dtype

    @property
    def intact(self) -> bool:
        """Whether the rebound views still alias this arena's buffers.

        A plain pickle detaches every view into a standalone array; this
        check is what gates all fused fast paths.  It compares roots, not
        ``data`` itself: pickle protocol 5 loads ``data`` as a view over a
        ``frombuffer`` base, which the views of a view-keeping pickle share.
        """
        if not self.pairs:
            return False
        param, grad = self.pairs[0]
        return _root(param) is _root(self.data) and _root(grad) is _root(self.grads)

    def views_into(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of ``flat`` aligned with :attr:`pairs`.

        Used by optimizers to keep moment buffers flat while still exposing
        the positional per-tensor lists that ``state_dict`` round-trips.
        """
        if flat.shape != (self.size,):
            raise ValueError(f"expected a ({self.size},) buffer, got shape {flat.shape}")
        return [flat[start:end].reshape(shape) for start, end, shape in self.pair_spans]


def find_arena(parameters: list[tuple[np.ndarray, np.ndarray]]) -> ParamArena | None:
    """The arena whose pairs are exactly ``parameters``, if any.

    Requires identity (``is``) agreement pair by pair, so a concatenation of
    two networks' parameter lists -- or a stale list from before a
    re-consolidation -- never matches.
    """
    if not parameters:
        return None
    arena = _ARENAS.get(id(_root(parameters[0][0])))
    if arena is None or len(arena.pairs) != len(parameters):
        return None
    for (param, grad), (arena_param, arena_grad) in zip(parameters, arena.pairs):
        if param is not arena_param or grad is not arena_grad:
            return None
    return arena
