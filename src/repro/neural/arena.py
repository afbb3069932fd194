"""Contiguous parameter/gradient arenas for :class:`~repro.neural.network.Sequential`.

A :class:`ParamArena` re-houses every parameter *and* persistent buffer of a
network in one flat buffer (``data``) with an aligned flat gradient buffer
(``grads``), both in the network's floating dtype (float64 by default,
float32 for a float32-built network).  Layer attributes (``weight``,
``grad_weight``, ...) are rebound to views into those buffers, so

* optimizers update the whole network with a handful of vectorized
  in-place passes over ``data``/``grads`` (see :mod:`repro.neural.optimizers`),
* ``Sequential.zero_grad`` becomes a single ``fill(0.0)``, and
* the federated :class:`~repro.federated.parameters.StateCodec` can encode /
  decode an arena-backed state with one ``np.copyto`` because entries are
  laid out in the codec's sorted-key order.

This is the only parameter representation an optimizer steps: every
trained network is consolidated before its optimizer is built.

Layout
------
Entries are sorted by their full state-dict key (``layers.3.weight`` ...),
exactly matching ``StateCodec``'s ``sorted(template)`` layout.  Non-trainable
buffers (BatchNorm running statistics) live in ``data`` between trainable
spans; the corresponding *gap* regions of ``grads`` and of any optimizer
moment buffer are never written and stay zero, so full-buffer optimizer
updates leave them bitwise unchanged (``x - 0.0 * anything`` is a bitwise
no-op).

Layer contract
--------------
A layer with state describes it through ``Layer.arena_entries()`` (see
:mod:`repro.neural.layers`); a stateful layer that does not, or a network
whose entries are not all one floating dtype (float32 or float64), makes
:meth:`ParamArena.build` raise ``TypeError`` naming the entry.

Pickling
--------
A plain ``pickle.dumps`` does not keep numpy views as views: each one
unpickles as its own standalone array, and the arena arrives detached
(:attr:`ParamArena.intact` is false).  ``Sequential.__setstate__`` checks
that once and re-packs the network into a fresh arena, so every network a
caller sees has an intact arena.

``data`` and ``grads`` are registered as *flat buffers*
(:func:`register_flat`).  A pickler that routes ndarrays through
:func:`reduce_flat_view` -- the resident-state install of
:class:`~repro.runtime.ProcessExecutor` does -- writes every contiguous
view of a registered buffer as ``(buffer, offset, shape)``.  The pickle memo
keeps object identity, so the layer attribute and :attr:`ParamArena.pairs`
unpickle as one view of one buffer: the arena stays intact, every value
crosses once, and nothing is re-packed in the receiving process.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

__all__ = ["ParamArena", "register_flat", "reduce_flat_view"]

#: Roots of the flat buffers registered with :func:`register_flat`, by ``id``
#: (weak: a freed buffer leaves the registry).
_FLAT_ROOTS: "weakref.WeakValueDictionary[int, np.ndarray]" = weakref.WeakValueDictionary()


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
        self._register()

    def _register(self) -> None:
        register_flat(self.data)
        register_flat(self.grads)

    def __setstate__(self, state: dict) -> None:
        # An unpickled arena registers again, so the install pickler keeps
        # its views from the receiving process too.
        self.__dict__.update(state)
        self._register()

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, network) -> "ParamArena | None":
        """Consolidate ``network`` (a ``Sequential``) into a fresh arena.

        Returns ``None`` for a network without state (pure activations).
        Raises ``TypeError`` naming the offending entry when a stateful
        layer does not describe its state (``Layer.arena_entries``), when
        the entries are not all one floating dtype, or when they disagree
        with the network's ``params``/``state_dict``.
        """
        entries: list[tuple[str, object, str, str | None]] = []
        for i, layer in enumerate(network.layers):
            entries.extend(
                (f"layers.{i}.{key}", owner, attr, grad_attr)
                for key, owner, attr, grad_attr in layer.arena_entries()
            )
        if not entries:
            return None

        values: dict[str, np.ndarray] = {}
        dtype = np.asarray(getattr(entries[0][1], entries[0][2])).dtype
        for key, owner, attr, grad_attr in entries:
            value = getattr(owner, attr)
            where = f"{key} ({type(owner).__name__}.{attr})"
            if not isinstance(value, np.ndarray) or value.dtype not in (np.float64, np.float32):
                raise TypeError(f"{where} is not a float32 or float64 array")
            if value.dtype != dtype:
                raise TypeError(f"{where} is {value.dtype}, but the arena holds {dtype}")
            if grad_attr is not None and getattr(owner, grad_attr).shape != value.shape:
                raise TypeError(f"{where} and its gradient {grad_attr} differ in shape")
            values[key] = value
        state = network.state_dict()
        if sorted(values) != sorted(state):
            mismatch = sorted(set(values) ^ set(state))
            raise TypeError(f"arena entries and state_dict() disagree on {mismatch}")
        # The trainable entries must be exactly the network's parameter list
        # (same arrays), otherwise the rebinding below would desynchronise
        # ``parameters()`` from the arena.
        entry_params = sorted(
            id(values[key]) for key, _owner, _attr, grad_attr in entries if grad_attr is not None
        )
        if entry_params != sorted(id(p) for p, _g in network.parameters()):
            raise TypeError("the trainable arena entries are not the network's parameters()")

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

        A plain pickle detaches every view into a standalone array;
        ``Sequential.__setstate__`` checks this and re-packs the network.
        It compares roots, not
        ``data`` itself: pickle protocol 5 loads ``data`` as a view over a
        ``frombuffer`` base, which the views of a view-keeping pickle share.
        """
        if not self.pairs:
            return False
        param, grad = self.pairs[0]
        return _root(param) is _root(self.data) and _root(grad) is _root(self.grads)

    def views_into(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of ``flat`` aligned with :attr:`pairs`.

        Optimizers keep their moment buffers flat and take these views for
        the positional per-tensor lists that ``state_dict`` round-trips.
        """
        if flat.shape != (self.size,):
            raise ValueError(f"expected a ({self.size},) buffer, got shape {flat.shape}")
        return [flat[start:end].reshape(shape) for start, end, shape in self.pair_spans]

