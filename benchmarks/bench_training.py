"""Training-loop benchmarks: step allocations, float32 speedup, codec fast path.

Measures the flat-arena neural runtime in one process on the lab-IoT data.
Results land in ``BENCH_training.json`` at the repository root;
``benchmarks/run.py``'s gate table says which keys are gated.  Epoch speed
is measured end to end by the repository benchmark (``perfbench/run.py
--workload train``), not here.

Metrics:

* ``step_allocations`` / ``step_allocations_large_batch`` -- steady-state
  tracemalloc peak of the *network-core* step the arena subsystem owns:
  ``Sequential.forward`` / ``backward``, the fused optimizer step and
  ``zero_grad`` on the discriminator network, at the training batch size
  and at batch 1024.  Every allocation inside that boundary is one the
  arena/workspace runtime is meant to avoid.
* ``neural_step_allocations`` -- the wider generator + discriminator +
  BCE + both optimizers peak; it is set by the generated batch and its
  gradient, which must escape the step and so stay freshly allocated.
* ``full_step_allocations`` -- the complete ``KiNETGANStep``, which adds
  KG scoring and sampler work.
* ``workspace_bytes`` -- bytes the generator, discriminator and
  knowledge-head step workspaces hold when the bench's seeded one-epoch
  fit has run its last step, just before the fit releases them: one buffer
  per layer and tag at its tallest training height.
* ``codec_roundtrip`` -- whether ``StateCodec`` takes the single-copy fast
  path (``flat_view`` detected) on the fitted generator's arena-backed
  state.
* ``float32_*`` -- the float32 compute tier against the float64 default:
  epoch seconds and the network-core peak at batch 1024.

All peaks are deterministic.  Run through ``python -m benchmarks.run
--suite training``.
"""

from __future__ import annotations

import datetime
import os
import platform
import time
import tracemalloc
from unittest import mock

import numpy as np

from repro.core import KiNETGAN, KiNETGANConfig
from repro.core.trainer import KiNETGANStep, KiNETGANTrainer
from repro.datasets import load_lab_iot
from repro.engine import seeded_rng
from repro.federated.parameters import StateCodec

BENCH_ROWS = 1500
BENCH_BATCH = 64
EPOCH_GROUPS = 6
EPOCH_REPS = 5
LARGE_BATCH = 1024


def bench_config(epochs: int = 1, seed: int = 0, dtype: str = "float64") -> KiNETGANConfig:
    """The benchmark's training configuration.

    Batch 64 keeps the knowledge-discriminator share of the step close to
    what the paper's experiments run (the default 64 corruption negatives
    per batch), so the measurement exercises the whole hot path rather
    than just the dense kernels.
    """
    return KiNETGANConfig(
        embedding_dim=32,
        generator_dims=(64, 64),
        discriminator_dims=(64, 64),
        epochs=epochs,
        batch_size=BENCH_BATCH,
        lambda_knowledge=2.0,
        seed=seed,
        dtype=dtype,
    )


# --------------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------------- #
def _fit(bundle, dtype: str = "float64") -> KiNETGAN:
    """The bench's seeded one-epoch fit (it builds all the step machinery)."""
    model = KiNETGAN(bench_config(epochs=1, dtype=dtype))
    model.fit(bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns)
    return model


def _build_step(bundle, model: KiNETGAN) -> KiNETGANStep:
    """A ready-to-step trainer on a :func:`_fit` model of ``bundle``."""
    trainer = model.trainer
    real_matrix = trainer.transformer.transform(bundle.table, rng=seeded_rng(123))
    return KiNETGANStep(trainer, real_matrix, table=bundle.table)


def _time_epochs(step: KiNETGANStep, n_rows: int, reps: int) -> float:
    """Min seconds over ``reps`` epochs' worth of consecutive steps."""
    steps_per_epoch = max(n_rows // BENCH_BATCH, 1)
    rng = seeded_rng(7)
    for i in range(steps_per_epoch):  # warm-up epoch
        step.step(rng, i)
    best = np.inf
    for _ in range(reps):
        start = time.perf_counter()
        for i in range(steps_per_epoch):
            step.step(rng, i)
        best = min(best, time.perf_counter() - start)
    return best


def _network_step_peak(trainer, batch: int) -> int:
    """Steady-state tracemalloc peak of one network-core step.

    Forward, backward, fused optimizer step and ``zero_grad`` on the
    discriminator ``Sequential`` -- the exact boundary the arena and the
    layer workspaces own, with no escaping outputs.
    """
    net = trainer.discriminator.network
    rng = np.random.default_rng(5)
    dim = trainer.transformer.output_dim + trainer.generator.condition_dim
    # The bare Sequential expects inputs in its own dtype (the model
    # wrappers cast at their boundary); a float64 network sees the same
    # bits as before.
    x = rng.normal(size=(batch, dim)).astype(net.dtype)
    grad = np.full((batch, 1), 1.0 / batch, dtype=net.dtype)

    def once() -> None:
        net.forward(x, training=True)
        net.backward(grad)
        trainer._opt_d.step()
        net.zero_grad()

    for _ in range(5):  # settle workspaces and rng-draw shapes
        once()
    best: int | None = None
    for _ in range(6):
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        once()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        delta = peak - base
        best = delta if best is None else min(best, delta)
    return int(best)


def _neural_step_peak(trainer, batch: int) -> int:
    """Steady-state tracemalloc peak of one neural training step."""
    rng = np.random.default_rng(5)
    noise = rng.normal(size=(batch, trainer.config.embedding_dim))
    cond = np.zeros((batch, trainer.generator.condition_dim))
    ones = np.ones((batch, 1))

    def once() -> None:
        fake = trainer.generator.forward(noise, cond, training=True)
        logits = trainer.discriminator.forward(fake, cond, training=True)
        trainer._bce.forward(logits, ones)
        grad_fake = trainer.discriminator.backward(trainer._bce.backward())
        trainer.discriminator.zero_grad()
        trainer.generator.zero_grad()
        trainer.generator.backward(grad_fake)
        trainer._opt_g.step()
        trainer._opt_d.step()

    for _ in range(5):  # settle workspaces and rng-draw shapes
        once()
    best: int | None = None
    for _ in range(6):
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        once()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        delta = peak - base
        best = delta if best is None else min(best, delta)
    return int(best)


def _full_step_peak(step: KiNETGANStep) -> int:
    """Steady-state tracemalloc peak of one complete training step."""
    rng = seeded_rng(7)
    for i in range(10):
        step.step(rng, i)
    best: int | None = None
    for i in range(10, 16):
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        step.step(rng, i)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        delta = peak - base
        best = delta if best is None else min(best, delta)
    return int(best)


def _workspace_bytes(trainer: KiNETGANTrainer) -> int:
    """Bytes held by the generator, discriminator and knowledge-head workspaces."""
    networks = [trainer.generator.network, trainer.discriminator.network]
    if trainer.kg_discriminator is not None and trainer.kg_discriminator.head is not None:
        networks.append(trainer.kg_discriminator.head)
    return sum(net.workspace.nbytes() for net in networks if net.workspace is not None)


def _fit_holding_scratch(bundle) -> tuple[KiNETGAN, int]:
    """A :func:`_fit` model and the workspace bytes its fit held at the end
    of its last step, read just before the fit releases its scratch."""
    held: list[int] = []
    release = KiNETGANTrainer.release_scratch

    def probe(trainer: KiNETGANTrainer) -> None:
        held.append(_workspace_bytes(trainer))
        release(trainer)

    with mock.patch.object(KiNETGANTrainer, "release_scratch", probe):
        model = _fit(bundle)
    return model, held[-1]


def measure_arena() -> dict[str, dict]:
    """Steady-state step peaks, the codec fast path and the fit's step
    scratch on one fitted model."""
    bundle = load_lab_iot(n_records=BENCH_ROWS, seed=0)
    model, held = _fit_holding_scratch(bundle)
    workspace = {"fit_epochs": 1, "now_bytes": held}
    step = _build_step(bundle, model)
    trainer = step.trainer
    peaks = {
        "step_allocations": (BENCH_BATCH, _network_step_peak(trainer, BENCH_BATCH)),
        "step_allocations_large_batch": (LARGE_BATCH, _network_step_peak(trainer, LARGE_BATCH)),
        "neural_step_allocations": (BENCH_BATCH, _neural_step_peak(trainer, BENCH_BATCH)),
        "full_step_allocations": (BENCH_BATCH, _full_step_peak(step)),
    }
    metrics = {name: {"batch_size": b, "now_bytes": peak} for name, (b, peak) in peaks.items()}
    metrics["workspace_bytes"] = workspace
    state = trainer.generator.network.state_dict()
    metrics["codec_roundtrip"] = {
        "single_copy_fast_path": StateCodec(state)._flat_view(state) is not None
    }
    return metrics


def measure_precision(groups: int = EPOCH_GROUPS, reps: int = EPOCH_REPS) -> dict[str, dict]:
    """The float32 compute tier against the float64 default, interleaved.

    Both engines run the *current* runtime (arena + fused optimizers); the
    only difference is ``KiNETGANConfig.dtype``, so the comparison isolates
    what halving the element width buys on this machine: narrower BLAS
    kernels, half the memory traffic through the workspace buffers, and
    half the bytes in the network-core step's surviving temporaries.
    """
    bundle = load_lab_iot(n_records=BENCH_ROWS, seed=0)
    step_f64 = _build_step(bundle, _fit(bundle))
    step_f32 = _build_step(bundle, _fit(bundle, dtype="float32"))
    f64_times: list[float] = []
    f32_times: list[float] = []
    for _ in range(groups):  # interleave so load spikes hit both variants
        f64_times.append(_time_epochs(step_f64, BENCH_ROWS, reps))
        f32_times.append(_time_epochs(step_f32, BENCH_ROWS, reps))
    f64_s, f32_s = min(f64_times), min(f32_times)
    steps_per_epoch = max(BENCH_ROWS // BENCH_BATCH, 1)
    alloc_f64 = _network_step_peak(step_f64.trainer, LARGE_BATCH)
    alloc_f32 = _network_step_peak(step_f32.trainer, LARGE_BATCH)
    return {
        "float32_epoch": {
            "rows": BENCH_ROWS,
            "batch_size": BENCH_BATCH,
            "steps_per_epoch": steps_per_epoch,
            "float64_seconds": round(f64_s, 4),
            "float32_seconds": round(f32_s, 4),
            "speedup": round(f64_s / f32_s, 2),
        },
        "float32_step_allocations": {
            "batch_size": LARGE_BATCH,
            "float64_bytes": alloc_f64,
            "float32_bytes": alloc_f32,
            "speedup": round(alloc_f64 / alloc_f32, 2),
        },
    }


# --------------------------------------------------------------------------- #
# Document assembly
# --------------------------------------------------------------------------- #
def run_training_bench() -> dict:
    """Measure all training probes and return the trajectory document."""
    metrics = measure_arena()
    metrics.update(measure_precision())
    return {
        "benchmark": "training",
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "config": {
            "dataset": "lab_iot",
            "rows": BENCH_ROWS,
            "batch_size": BENCH_BATCH,
            "embedding_dim": 32,
            "hidden_dims": [64, 64],
            "epoch_groups": EPOCH_GROUPS,
            "epoch_reps": EPOCH_REPS,
        },
        "metrics": metrics,
        "notes": NOTES,
    }


NOTES = (
    "All probes run the arena runtime in one process over the same data. "
    "step_allocations covers the network-core step the arena subsystem owns "
    "(Sequential forward/backward, fused optimizer, zero_grad); the wider "
    "neural_step_allocations peak is set by the generated batch and its "
    "gradient, which escape the step by design, and full_step_allocations "
    "adds KG scoring and sampler work. workspace_bytes is the step scratch "
    "the three networks hold when the fit's last step has run, before the "
    "fit releases it. Every "
    "peak and byte count is deterministic and gated as a byte ceiling; "
    "perfbench's train workload measures epoch speed end to end."
)
