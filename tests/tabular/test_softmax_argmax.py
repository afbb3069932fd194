"""``BlockLayout.softmax_argmax`` picks exactly the soft output's winners.

The share step takes each one-hot block's winner from the generator's
logits and sends only the rows it cannot prove to the softmax.  These tests
feed it adversarial logits -- exact ties, 1-ulp neighbours of the maximum,
gaps just inside and just outside the ``2**10 * eps * tau`` margin, NaN and
infinite entries, all ``-inf`` blocks -- and require the winners of
``argmax(softmax(gather(matrix)))`` on every row, in float64 and float32.
A plain argmax over the logits gets many of these rows wrong, so the
checks can tell a naive implementation apart.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.tabular.segments import BlockLayout

# Column 6 lies outside every block (a tanh column); one block has width 1.
BOUNDS = [(0, 4), (4, 6), (7, 12), (12, 13), (13, 16)]
WIDTH = BOUNDS[-1][1]
TAU = 0.2
KINDS = (
    "random",
    "tie",
    "ulp_below",
    "ulp_above",
    "inside",
    "edge_inside",
    "edge_outside",
    "outside",
    "nan",
    "posinf",
    "neginf",
    "all_neginf",
)


def soft_winners(layout: BlockLayout, matrix: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return layout.argmax(layout.softmax(layout.gather(matrix), TAU))


def adversarial_logits(dtype, rows: int = 4000, seed: int = 0) -> np.ndarray:
    """Random logits with one adversarial edit per row, in a random block.

    Maxima span magnitudes from 1e-6 to 1e4, so some ulp-sized gaps vanish
    in ``exp`` (the soft output ties), others survive it, and at the top
    magnitude a 1-ulp gap already clears the margin.
    """
    rng = np.random.default_rng(seed)
    scale = rng.choice([1e-6, 1e-3, 1.0, 30.0, 1e4], size=(rows, 1))
    matrix = (rng.normal(size=(rows, WIDTH)) * scale).astype(dtype)
    threshold = dtype(2**10 * np.finfo(dtype).eps * TAU)
    kinds = rng.integers(len(KINDS), size=rows)
    blocks = rng.integers(len(BOUNDS), size=rows)
    for row, kind, block_id in zip(range(rows), kinds, blocks):
        start, end = BOUNDS[block_id]
        block = matrix[row, start:end]
        top = int(block.argmax())
        peak = block[top]
        others = [i for i in range(end - start) if i != top] or [top]
        rival = others[int(rng.integers(len(others)))]
        kind = KINDS[kind]
        if kind == "tie":
            block[rival] = peak
        elif kind == "ulp_below":
            block[rival] = np.nextafter(peak, dtype(-np.inf))
        elif kind == "ulp_above":
            block[rival] = np.nextafter(peak, dtype(np.inf))
        elif kind == "inside":
            block[rival] = peak - threshold * dtype(rng.uniform())
        elif kind == "edge_inside":
            block[rival] = peak - threshold * dtype(1 - 2**-6)
        elif kind == "edge_outside":
            block[rival] = peak - threshold * dtype(1 + 2**-6)
        elif kind == "outside":
            block[rival] = peak - threshold * dtype(rng.uniform(1.1, 8.0))
        elif kind == "nan":
            block[rival] = np.nan
        elif kind == "posinf":
            block[rival] = np.inf
        elif kind == "neginf":
            block[rival] = -np.inf
        elif kind == "all_neginf":
            block[:] = -np.inf
    return matrix


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_winners_match_soft_output_on_adversarial_logits(dtype):
    layout = BlockLayout(BOUNDS)
    matrix = adversarial_logits(dtype)
    expected = soft_winners(layout, matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = layout.softmax_argmax(matrix, TAU)
    np.testing.assert_array_equal(got, expected)
    # The rows are hard: a plain argmax over the logits misses many of them.
    naive_wrong = (layout.argmax_matrix(matrix) != expected).any(axis=1)
    assert naive_wrong.sum() >= 200


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_only_unsure_rows_reach_the_softmax(dtype, monkeypatch):
    layout = BlockLayout(BOUNDS)
    seen: list[int] = []
    softmax = layout.softmax

    def spy(gathered, tau=1.0):
        seen.append(len(gathered))
        return softmax(gathered, tau)

    monkeypatch.setattr(layout, "softmax", spy)
    # Entries of a row sit at least 0.2 apart: every block is sure.
    rng = np.random.default_rng(1)
    ranks = rng.permuted(np.tile(np.arange(WIDTH), (500, 1)), axis=1)
    clean = (ranks * 0.25 + rng.uniform(0, 0.05, size=ranks.shape)).astype(dtype)
    np.testing.assert_array_equal(layout.softmax_argmax(clean, TAU), soft_winners(layout, clean))
    assert seen == [len(clean)]  # the oracle's own call; the fast path made none
    seen.clear()
    matrix = adversarial_logits(dtype, rows=600, seed=2)
    layout.softmax_argmax(matrix, TAU)
    assert len(seen) == 1 and 0 < seen[0] < len(matrix)


EDITS = (
    "three_way_tie",
    "tie",
    "inside",
    "nan",
    "posinf",
    "neginf",
    "row_nan",
    "row_posinf",
    "row_neginf",
)


def edited_rows(dtype, kind: str, rows: int = 300, seed: int = 3) -> np.ndarray:
    """Logits whose every block carries the edit ``kind``, or whole rows of
    one non-finite value (``row_nan``, ``row_posinf``, ``row_neginf``)."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([1e-3, 1.0, 30.0], size=(rows, 1))
    matrix = (rng.normal(size=(rows, WIDTH)) * scale).astype(dtype)
    if kind.startswith("row_"):
        value = {"row_nan": np.nan, "row_posinf": np.inf, "row_neginf": -np.inf}[kind]
        matrix[::2] = value
        return matrix
    threshold = dtype(2**10 * np.finfo(dtype).eps * TAU)
    for row in range(rows):
        for start, end in BOUNDS:
            block = matrix[row, start:end]
            top = int(block.argmax())
            peak = block[top]
            others = [i for i in range(end - start) if i != top] or [top]
            if kind == "three_way_tie":
                block[others[:2]] = peak
            elif kind == "tie":
                block[others[-1]] = peak
            elif kind == "inside":
                block[others[0]] = peak - threshold * dtype(rng.uniform())
            elif kind == "nan":
                block[others[0]] = np.nan
            elif kind == "posinf":
                block[others[0]] = np.inf
            elif kind == "neginf":
                block[others[0]] = -np.inf
    return matrix


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", EDITS)
def test_every_block_edited(dtype, kind):
    """Rows whose every block is a tie, a near-tie inside the margin or
    non-finite still get the soft output's winners."""
    layout = BlockLayout(BOUNDS)
    matrix = edited_rows(dtype, kind)
    expected = soft_winners(layout, matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = layout.softmax_argmax(matrix, TAU)
    np.testing.assert_array_equal(got, expected)


def test_empty_inputs():
    layout = BlockLayout(BOUNDS)
    assert layout.softmax_argmax(np.zeros((0, WIDTH)), TAU).shape == (0, len(BOUNDS))
    assert BlockLayout([]).softmax_argmax(np.zeros((3, 2)), TAU).shape == (3, 0)
