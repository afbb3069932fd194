"""Batched operations over variable-width column blocks.

The transformed matrix produced by :class:`~repro.tabular.transformer.
DataTransformer` is a concatenation of per-column blocks: one-hot blocks for
categorical columns, (alpha, one-hot mode) pairs for mode-normalised
continuous columns.  Every hot path of the data plane -- hardening, inverse
transformation, output activation -- needs the same primitive: "apply an
argmax / softmax independently to each block".  Doing that with a Python
loop over blocks costs one strided numpy call per block per batch.

:class:`BlockLayout` precomputes the segment structure once and groups
blocks of equal width together, so each operation becomes one fancy-index
gather per width group followed by a single contiguous ``(rows, blocks,
width)`` reduction -- a handful of C passes total, independent of how many
columns the table has.  (``np.ufunc.reduceat`` was measured ~4x slower than
the reshaped contiguous reductions used here.)

Two winner extractors skip work the general path does: :meth:`BlockLayout.
winners` certifies exactly-one-hot input with one BLAS pass, and
:meth:`BlockLayout.softmax_argmax` takes the softmax's per-block argmax from
the scores themselves wherever a ``2**10``-ulp margin proves it exact,
running the softmax only on the rows it cannot prove.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BlockLayout"]


class BlockLayout:
    """Precomputed segment structure over a set of contiguous column blocks.

    ``bounds`` is a list of ``(start, end)`` column ranges of the full
    matrix (they need not be adjacent to each other).  The layout gathers
    those columns into one contiguous region, with per-width groups exposing
    segmented argmax / softmax as contiguous 3-D reductions.
    """

    def __init__(self, bounds: list[tuple[int, int]]) -> None:
        self.bounds = [(int(s), int(e)) for s, e in bounds]
        if any(e <= s for s, e in self.bounds):
            raise ValueError("every block must have positive width")
        self.n_blocks = len(self.bounds)
        self.widths = np.asarray([e - s for s, e in self.bounds], dtype=np.intp)
        #: Columns of the full matrix covered by the blocks, block by block.
        self.columns = (
            np.concatenate([np.arange(s, e) for s, e in self.bounds])
            if self.bounds
            else np.zeros(0, dtype=np.intp)
        )
        self.total = int(self.widths.sum()) if self.n_blocks else 0
        #: Start of each block inside the gathered (contiguous) region.
        self.starts = np.zeros(self.n_blocks, dtype=np.intp)
        if self.n_blocks:
            np.cumsum(self.widths[:-1], out=self.starts[1:])
        # Blocks grouped by width: (width, block ids, gathered-region cols).
        by_width: dict[int, list[int]] = {}
        for block, width in enumerate(self.widths):
            by_width.setdefault(int(width), []).append(block)
        self._groups: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._matrix_groups: list[tuple[int, np.ndarray, np.ndarray]] = []
        for width, blocks in by_width.items():
            ids = np.asarray(blocks, dtype=np.intp)
            gcols = np.concatenate(
                [np.arange(self.starts[b], self.starts[b] + width) for b in blocks]
            )
            self._groups.append((width, ids, gcols))
            self._matrix_groups.append((width, ids, self.columns[gcols]))

    # ------------------------------------------------------------------ #
    def gather(self, matrix: np.ndarray) -> np.ndarray:
        """The blocks' columns as one contiguous ``(rows, total)`` array."""
        return matrix[:, self.columns]

    def scatter(self, matrix: np.ndarray, gathered: np.ndarray) -> None:
        """Write a gathered region back into the full matrix, in place."""
        matrix[:, self.columns] = gathered

    # ------------------------------------------------------------------ #
    def argmax(self, gathered: np.ndarray) -> np.ndarray:
        """Per-block argmax as ``(rows, n_blocks)`` block-local indices.

        Ties resolve to the lowest index, matching ``np.argmax`` on each
        block individually.
        """
        rows = gathered.shape[0]
        out = np.empty((rows, self.n_blocks), dtype=np.intp)
        for width, ids, gcols in self._groups:
            sub = gathered[:, gcols].reshape(rows, len(ids), width)
            out[:, ids] = sub.argmax(axis=2)
        return out

    def argmax_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Per-block argmax straight from the full matrix (no intermediate
        gather of the whole softmax region -- one fancy index per width
        group)."""
        rows = matrix.shape[0]
        out = np.empty((rows, self.n_blocks), dtype=np.intp)
        for width, ids, fcols in self._matrix_groups:
            sub = matrix[:, fcols].reshape(rows, len(ids), width)
            out[:, ids] = sub.argmax(axis=2)
        return out

    def _probe(self, full_width: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(probe, starts)`` for :meth:`winners`.

        ``probe`` is a ``(full_width, 2 * n_blocks)`` matrix whose left half
        holds each block's local column indices and right half a 0/1 block
        indicator, so one BLAS matmul yields both the index-weighted mass
        and the total mass of every block.
        """
        cached = getattr(self, "_probe_cache", None)
        if cached is None or cached[0] != full_width:
            probe = np.zeros((full_width, 2 * self.n_blocks), dtype=np.float64)
            block_starts = np.empty(self.n_blocks, dtype=np.intp)
            for block, (start, end) in enumerate(self.bounds):
                probe[start:end, block] = np.arange(end - start)
                probe[start:end, self.n_blocks + block] = 1.0
                block_starts[block] = start
            self._probe_cache = (full_width, probe, block_starts)
            cached = self._probe_cache
        return cached[1], cached[2]

    def winners(self, matrix: np.ndarray) -> np.ndarray:
        """Per-block argmax of the full matrix, fast-pathing one-hot input.

        When every block is *exactly* one-hot (the dominant case: encoded
        real data and hardened generator output), the winner index equals
        the block's index-weighted mass, which one BLAS matmul over the
        squared matrix computes for all blocks at once.  The certificate is
        exact: squares are non-negative, so a squared block mass of 1 with a
        literal ``1.0`` at the candidate column implies every other entry is
        zero -- the block is one-hot and the candidate is the true argmax.
        Any row failing the check sends the whole call down the general
        segmented-argmax path instead.
        """
        if self.n_blocks == 0:
            return np.zeros((matrix.shape[0], 0), dtype=np.intp)
        probe, block_starts = self._probe(matrix.shape[1])
        projected = (matrix * matrix) @ probe
        weighted = projected[:, : self.n_blocks]
        mass = projected[:, self.n_blocks :]
        candidates = np.rint(weighted).astype(np.intp)
        if (
            (mass == 1.0).all()
            and (candidates >= 0).all()
            and (candidates < self.widths[None, :]).all()
        ):
            rows = np.arange(matrix.shape[0])[:, None]
            if (matrix[rows, block_starts[None, :] + candidates] == 1.0).all():
                return candidates
        return self.argmax_matrix(matrix)

    @staticmethod
    def _scratch_buffer(
        scratch: dict | None,
        key,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """A reusable ``dtype`` buffer from ``scratch``, or a fresh array.

        ``scratch`` is a caller-owned dict (one per consumer, so sharing
        follows the consumer's own thread story); ``None`` keeps the
        allocate-per-call behaviour.
        """
        if scratch is None:
            return np.empty(shape, dtype=dtype)
        buf = scratch.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            scratch[key] = buf
        return buf

    def softmax(
        self, gathered: np.ndarray, tau: float = 1.0, scratch: dict | None = None
    ) -> np.ndarray:
        """Per-block temperature softmax over the gathered region.

        With ``scratch``, every intermediate (including the returned region)
        comes from reusable buffers; the elementwise op sequence is the same,
        so results are bit-identical, and the return value is only valid
        until the next call with the same ``scratch``.
        """
        dtype = gathered.dtype
        out = self._scratch_buffer(scratch, "softmax_out", gathered.shape, dtype)
        rows = gathered.shape[0]
        for width, ids, gcols in self._groups:
            flat = self._scratch_buffer(
                scratch, ("softmax_sub", width), (rows, len(ids) * width), dtype
            )
            np.take(gathered, gcols, axis=1, out=flat)
            sub = flat.reshape(rows, len(ids), width)
            peak = self._scratch_buffer(scratch, ("softmax_peak", width), (rows, len(ids), 1), dtype)
            sub.max(axis=2, keepdims=True, out=peak)
            np.subtract(sub, peak, out=sub)
            np.divide(sub, tau, out=sub)
            np.exp(sub, out=sub)
            sub.sum(axis=2, keepdims=True, out=peak)
            sub /= peak
            out[:, gcols] = flat
        return out

    def softmax_argmax(
        self, matrix: np.ndarray, tau: float = 1.0, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``argmax(softmax(gather(matrix), tau))`` without the full softmax.

        The winner of each block is taken from the scores themselves and
        proved exact row by row.  A row is *unsure* when some block has a
        non-finite maximum or an entry other than its first argmax within
        ``2**10 * eps * tau`` of the maximum (exact ties included); unsure
        rows, and only they, go through :meth:`softmax` + :meth:`argmax`.
        The softmax treats rows independently, so that subset gets the bits
        it would get in a full-matrix pass.

        Why the sure rows are exact: the softmax subtracts the same block
        maximum (the very differences checked here), divides by ``tau`` and
        exponentiates, so the maximum maps to ``exp(0) == 1`` and every
        other entry to ``exp(t)`` with ``t < -2**10 * eps``, which lies
        over a thousand ulps below 1.  ``exp`` and the shared division by
        the block sum each round by under a few ulps and never invert an
        order, so the soft maximum is strict and sits at the scores' first
        argmax.  The method keeps no state on the layout (shared layouts
        are used from several threads) and allocates its buffers; ``out``,
        an ``intp`` array of shape ``(rows, n_blocks)``, receives the
        winners when given.
        """
        rows = matrix.shape[0]
        if out is None:
            out = np.empty((rows, self.n_blocks), dtype=np.intp)
        unsure = np.zeros(rows, dtype=bool)
        margin = -(2**10) * float(np.finfo(matrix.dtype).eps) * tau
        with np.errstate(invalid="ignore"):
            for width, ids, fcols in self._matrix_groups:
                sub = matrix[:, fcols].reshape(rows, len(ids), width)
                out[:, ids] = sub.argmax(axis=2)
                sub -= sub.max(axis=2, keepdims=True)
                # Exactly one entry (the maximum, at 0) clears the margin in
                # a sure block; NaN differences clear it nowhere.
                unsure |= (np.count_nonzero(sub >= margin, axis=2) != 1).any(axis=1)
            if unsure.any():
                picked = np.flatnonzero(unsure)
                out[picked] = self.argmax(self.softmax(self.gather(matrix[picked]), tau))
        return out

    def softmax_backward(
        self,
        softmax_out: np.ndarray,
        grad_output: np.ndarray,
        tau: float = 1.0,
        scratch: dict | None = None,
    ) -> np.ndarray:
        """Gradient of a per-block softmax given its output and upstream grad.

        ``scratch`` has the same contract as in :meth:`softmax`.
        """
        dtype = grad_output.dtype
        out = self._scratch_buffer(scratch, "bwd_out", grad_output.shape, dtype)
        rows = grad_output.shape[0]
        for width, ids, gcols in self._groups:
            s_flat = self._scratch_buffer(scratch, ("bwd_s", width), (rows, len(ids) * width), dtype)
            np.take(softmax_out, gcols, axis=1, out=s_flat)
            g_flat = self._scratch_buffer(scratch, ("bwd_g", width), (rows, len(ids) * width), dtype)
            np.take(grad_output, gcols, axis=1, out=g_flat)
            s = s_flat.reshape(rows, len(ids), width)
            g = g_flat.reshape(rows, len(ids), width)
            prod = self._scratch_buffer(
                scratch, ("bwd_prod", width), (rows, len(ids) * width), dtype
            )
            np.multiply(g, s, out=prod.reshape(rows, len(ids), width))
            dots = self._scratch_buffer(scratch, ("bwd_dots", width), (rows, len(ids), 1), dtype)
            prod.reshape(rows, len(ids), width).sum(axis=2, keepdims=True, out=dots)
            np.subtract(g, dots, out=g)
            np.multiply(s, g, out=g)
            np.divide(g, tau, out=g)
            out[:, gcols] = g_flat
        return out
