"""In-process streaming: a large sample in bounded-memory chunks.

:func:`sample_stream` takes a loaded model (see
:func:`repro.serve.load_model`) and yields its rows ``chunk_rows`` at a
time.  Request traffic -- one or many artifacts, in-process or over HTTP
-- goes through :class:`repro.serve.ServingPool` instead.

Determinism contract: the chunks concatenate to ``model.sample(n,
conditions, rng)`` bit for bit, whatever the chunk size.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.synthesizer import KiNETGAN
from repro.engine import sampling_rng
from repro.tabular.table import Table

__all__ = ["sample_stream"]


def sample_stream(
    model,
    n: int,
    conditions: dict | None = None,
    seed: int | None = None,
    chunk_rows: int = 1024,
) -> Iterator[Table]:
    """Yield ``model``'s ``n`` sampled rows in chunks of ``chunk_rows``.

    For the KiNETGAN family the request runs ``model.sample``'s own blocked
    share step and each chunk is decoded once its blocks are done, so
    memory beyond the condition matrix is bounded by the chunk size.  Other
    model types sample once and stream row slices.  ``seed=None`` uses the
    model's own sampling seed, exactly like ``model.sample(n)``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be positive")
    if not isinstance(model, KiNETGAN):
        rng = sampling_rng(seed) if seed is not None else None
        table = model.sample(n, conditions=conditions, rng=rng)
        for start in range(0, n, chunk_rows):
            yield table.select_rows(np.arange(start, min(start + chunk_rows, n)))
        return
    rng = sampling_rng(seed if seed is not None else model.config.seed)
    condition = model.sample_conditions(n, conditions, rng)
    transformer = model.transformer
    n_blocks, n_scalars = transformer.softmax_layout().n_blocks, transformer.tanh_columns().size
    # Each block's rows are copied once into the chunk buffers they fall in;
    # a chunk is decoded as soon as its last row is written.
    blocks = model.trainer.iter_share_blocks(condition, rng)
    chunk_start, winners, scalars = 0, None, None
    for start, stop, block_winners, block_scalars in blocks:
        row = start
        while row < stop:
            if winners is None:
                size = min(chunk_rows, n - chunk_start)
                winners = np.empty((size, n_blocks), dtype=np.intp)
                scalars = np.empty((size, n_scalars))
            end = min(stop, chunk_start + len(winners))
            into = slice(row - chunk_start, end - chunk_start)
            out_of = slice(row - start, end - start)
            winners[into] = block_winners[out_of]
            scalars[into] = block_scalars[out_of]
            row = end
            if end - chunk_start == len(winners):
                yield transformer.decode(winners, scalars)
                chunk_start, winners = end, None
