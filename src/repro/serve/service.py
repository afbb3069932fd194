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
    share step: the conditions stay integer codes, each block builds its
    own one-hot rows, and each block's rows are decoded straight into the
    chunk they fall in, which is yielded once full.  Memory is therefore
    bounded by the chunk size plus a few share blocks, whatever ``n``.
    Other model types sample once and stream row slices.  ``seed=None``
    uses the model's own sampling seed, exactly like ``model.sample(n)``.
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
    codes = model.condition_codes(n, conditions, rng)
    transformer = model.transformer
    chunk_start, chunk = 0, None
    for start, stop, winners, scalars in model.trainer.iter_share_blocks(codes, rng):
        row = start
        while row < stop:
            if chunk is None:
                chunk = transformer.decoded_rows(min(chunk_rows, n - chunk_start))
            end = min(stop, chunk_start + chunk.n)
            part = slice(row - start, end - start)
            chunk.write(row - chunk_start, winners[part], scalars[part])
            row = end
            if end - chunk_start == chunk.n:
                yield chunk.table()
                chunk_start, chunk = end, None
