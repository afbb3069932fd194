"""Reusable step buffers for the neural hot path.

A :class:`Workspace` is attached to every layer of a ``Sequential`` by
``Sequential.consolidate()`` and holds the scratch arrays of the network's
*training* passes.  Layers use it to run their training forward/backward
passes with ``out=`` ufunc calls into recycled buffers instead of
allocating fresh batch-sized arrays on every step, which is where most of
the training-loop allocation churn comes from.  Eval forwards
(``training=False``) never touch it: they run the allocating code path and
keep no backward cache, so sampling, scoring and predict paths leave
nothing behind on the network and never write shared scratch.

Rules for layers using a workspace buffer:

* a buffer's contents are only valid between the ``forward`` that fills it
  and the matching ``backward`` -- the next forward pass through the layer
  reuses it;
* arrays that escape the training step must not stay workspace-backed:
  ``Sequential.forward`` copies a workspace-owned final output before
  returning it (see :meth:`Workspace.owns`), so callers -- losses and
  attack scorers -- always receive an array the next forward cannot
  overwrite;
* every buffered computation must replay the exact elementwise operations of
  the allocating code path so results stay bit-identical.

**One buffer per family.**  A family is ``(layer, tag, trailing dims,
dtype)``: every batch height a layer asks for under one tag is served from
one base array, grown to the tallest height requested so far, as the base
itself or its leading-rows view ``base[:rows]`` (C-contiguous, same start
address).  A fit with a ragged final batch, or the knowledge head's
variable-height training batches next to its 64-row generator pass, thus
holds one set of buffers at the tallest height rather than one set per
height.

**Aliasing rule.**  Different heights of one family share memory, so no
step may still hold a buffer of one height when it asks the same layer for
another height.  Training passes through one network run one after
another (forward, backward, optimizer step), and anything kept past a
pass is copied out first (``Sequential.forward``'s output copy, the
knowledge head's gradient scatter), which keeps that rule.

**Lifetime: one fit.**  Buffers grow during a fit's first steps and are
reused by every later step of it; when the fit returns,
``Sequential.release_scratch`` swaps each trained network's workspace for
an empty one (``KiNETGANTrainer.fit`` calls it, with the optimizers'
``release_scratch``).  Nothing is read across steps, so the next fit grows
the same buffers again with the same results.

Workspaces pickle empty: buffer contents are scratch and the ``id(layer)``
keys would be stale in the receiving process anyway.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Step scratch arrays, one base array per ``(layer, tag, trailing dims, dtype)``.

    ``default_dtype`` is the dtype a layer gets when it asks for a buffer
    without one -- ``Sequential.consolidate()`` sets it to the network's
    parameter dtype, so float32 networks get float32 scratch without each
    layer having to thread a dtype through every ``buffer()`` call.
    Explicit dtypes (bool masks, uint64 bit-select scratch) still win.
    """

    def __init__(self, default_dtype: np.dtype | type = np.float64) -> None:
        # Exact request key -> the base or its leading-rows view (the hit path).
        self._buffers: dict[tuple[int, str, tuple[int, ...], str], np.ndarray] = {}
        # Family key -> base array at the tallest height served so far.
        self._bases: dict[tuple[int, str, tuple[int, ...], str], np.ndarray] = {}
        self._buffer_ids: set[int] = set()
        self.default_dtype = np.dtype(default_dtype)

    def buffer(
        self,
        owner: object,
        tag: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type | None = None,
    ) -> np.ndarray:
        """The buffer for ``(owner, tag, shape)``: its family's base or a
        leading-rows view of it, allocated or grown on first use.

        ``shape`` has at least one dimension; its first is the height.
        Contents are undefined on return; callers must fully overwrite it.
        """
        # The network dtype dominates the training hot path; skip the
        # np.dtype() construction for it (buffer() runs hundreds of times
        # per step, so per-call overhead is the budget here).
        if dtype is None:
            dtype = self.default_dtype
            char = dtype.char
        else:
            char = "d" if dtype is np.float64 else np.dtype(dtype).char
        key = (id(owner), tag, shape, char)
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._serve(key, dtype)
        return buf

    def _serve(self, key: tuple[int, str, tuple[int, ...], str], dtype) -> np.ndarray:
        """Miss path: view ``key``'s rows of its family base, growing the base first
        when it is shorter (a grown family drops its views of the old base)."""
        owner_id, tag, shape, char = key
        family = (owner_id, tag, shape[1:], char)
        rows = shape[0]
        base = self._bases.get(family)
        if base is None or base.shape[0] < rows:
            if base is not None:
                self._buffer_ids.discard(id(base))
                for stale in [k for k in self._buffers if (k[0], k[1], k[2][1:], k[3]) == family]:
                    del self._buffers[stale]
            base = self._bases[family] = np.empty(shape, dtype=dtype)
            self._buffer_ids.add(id(base))
        view = base if base.shape[0] == rows else base[:rows]
        self._buffers[key] = view
        return view

    def owns(self, array: np.ndarray) -> bool:
        """Whether ``array`` is (a view of) one of this workspace's buffers.

        ``Sequential.forward`` uses this to hand callers an owned copy of any
        workspace-backed training output: network outputs escape the step
        (losses and attack scorers hold them across later forwards), so they
        must never alias a buffer the next forward will overwrite.
        """
        return id(array) in self._buffer_ids or id(array.base) in self._buffer_ids

    def nbytes(self) -> int:
        """Total bytes currently held (introspection / tests)."""
        return sum(base.nbytes for base in self._bases.values())

    # Scratch contents never travel: a pickled workspace arrives empty and
    # refills on first use in the receiving process.
    def __getstate__(self) -> dict:
        return {"default_dtype": self.default_dtype.str}

    def __setstate__(self, state: dict) -> None:
        self._buffers = {}
        self._bases = {}
        self._buffer_ids = set()
        self.default_dtype = np.dtype(state.get("default_dtype", np.float64))
