"""Micro-benchmarks for the shared training engine's hot paths.

Two wall-clock measurements ride with the benchmark suite:

* vectorized :meth:`DataTransformer.harden` against the pre-engine
  per-block reference loop, and
* one full KiNETGAN training epoch driven through
  :class:`repro.engine.TrainingEngine`.

Numbers are printed (run with ``-s`` to see them); the only hard assertion
is correctness, so timing noise on shared CI machines cannot flake.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import KiNETGAN, KiNETGANConfig
from repro.tabular.transformer import DataTransformer


def _naive_harden(transformer: DataTransformer, matrix: np.ndarray) -> np.ndarray:
    """The per-block hardening loop every synthesizer used to hand-roll."""
    hardened = matrix.copy()
    for start, end, activation in transformer.activation_spans():
        if activation != "softmax":
            continue
        block = hardened[:, start:end]
        one_hot = np.zeros_like(block)
        one_hot[np.arange(len(block)), block.argmax(axis=1)] = 1.0
        hardened[:, start:end] = one_hot
    return hardened


def test_harden_vectorized_vs_reference(lab_bundle):
    transformer = DataTransformer(max_modes=6, seed=0).fit(lab_bundle.table)
    rng = np.random.default_rng(0)
    soft = rng.uniform(size=(20_000, transformer.output_dim))

    start = time.perf_counter()
    expected = _naive_harden(transformer, soft)
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    got = transformer.harden(soft)
    fast_s = time.perf_counter() - start

    np.testing.assert_array_equal(got, expected)
    print(
        f"\n[engine-speed] harden {soft.shape[0]}x{soft.shape[1]}: "
        f"reference {naive_s * 1e3:.1f} ms, vectorized {fast_s * 1e3:.1f} ms "
        f"({naive_s / max(fast_s, 1e-9):.2f}x)"
    )


def test_one_training_epoch_wall_clock(lab_bundle):
    config = KiNETGANConfig(
        embedding_dim=16,
        generator_dims=(48,),
        discriminator_dims=(48,),
        epochs=1,
        batch_size=128,
        knowledge_negatives_per_batch=32,
        seed=0,
    )
    model = KiNETGAN(config)
    start = time.perf_counter()
    model.fit(
        lab_bundle.table,
        catalog=lab_bundle.catalog,
        condition_columns=lab_bundle.condition_columns,
    )
    elapsed = time.perf_counter() - start

    assert len(model.history.generator_loss) == 1  # one engine epoch ran
    steps = max(1, lab_bundle.table.n_rows // config.batch_size)
    print(
        f"\n[engine-speed] 1 KiNETGAN epoch via TrainingEngine "
        f"({lab_bundle.table.n_rows} rows, {steps} steps): {elapsed:.2f} s"
    )
