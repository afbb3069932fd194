"""Training-loop benchmarks: epoch wall-clock, step allocations, codec copies.

Measures the flat-arena neural runtime in one process on the lab-IoT data.
Results land in ``BENCH_training.json`` at the repository root so future
PRs have a trajectory to compare against.

Metrics:

* ``kinetgan_epoch`` -- seconds per KiNETGAN training epoch (step-level:
  an epoch's worth of consecutive ``KiNETGANStep.step`` calls), min over
  interleaved repeat groups, plus the same figure as ms per step.  Not
  gated; the repository benchmark (``perfbench/run.py --workload train``)
  measures epoch speed end to end.
* ``step_allocations`` / ``step_allocations_large_batch`` -- steady-state
  tracemalloc peak of the *network-core* step the arena subsystem owns:
  ``Sequential.forward`` / ``backward``, the fused optimizer step and
  ``zero_grad`` on the discriminator network, at the training batch size
  and at batch 1024.  Every allocation inside that boundary is one the
  arena/workspace runtime is meant to avoid, so the batch-64 peak is gated
  as a byte ceiling.  Two wider peaks are recorded for context but not
  gated: ``neural_step_allocations`` (generator + discriminator + BCE +
  both optimizers -- its peak is set by the generated batch and its
  gradient, which must escape the step and so stay freshly allocated) and
  ``full_step_allocations`` (the complete ``KiNETGANStep``, which adds KG
  scoring and sampler work).
* ``float32_*`` -- the float32 compute tier against the float64 default:
  epoch seconds, ms per step and the network-core peak at batch 1024.
* ``codec_roundtrip`` -- ``StateCodec.encode`` / ``decode_into`` on the
  fitted generator's arena-backed state: asserts the single-copy fast path
  engages (``flat_view`` detected) and compares per-op time against the
  per-key path on an equivalent non-contiguous state.

Run directly (``python -m benchmarks.bench_training``) or through
``python -m benchmarks.run --suite training``.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core import KiNETGAN, KiNETGANConfig
from repro.core.trainer import KiNETGANStep
from repro.datasets import load_lab_iot
from repro.engine import seeded_rng
from repro.federated.parameters import StateCodec

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_training.json"

BENCH_ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "1500"))
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
def _build_step(bundle, dtype: str = "float64") -> KiNETGANStep:
    """A ready-to-step trainer (one warm-up epoch fits all the machinery)."""
    model = KiNETGAN(bench_config(epochs=1, dtype=dtype))
    model.fit(bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns)
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


def measure_epoch(rows: int = BENCH_ROWS, groups: int = EPOCH_GROUPS,
                  reps: int = EPOCH_REPS) -> dict:
    """Epoch wall-clock of the arena runtime, min over ``groups`` x ``reps``."""
    step = _build_step(load_lab_iot(n_records=rows, seed=0))
    now = min(_time_epochs(step, rows, reps) for _ in range(groups))
    steps_per_epoch = max(rows // BENCH_BATCH, 1)
    return {
        "rows": rows,
        "batch_size": BENCH_BATCH,
        "steps_per_epoch": steps_per_epoch,
        "now_seconds": round(now, 4),
        "now_step_ms": round(now / steps_per_epoch * 1000, 3),
    }


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


def measure_allocations(rows: int = BENCH_ROWS) -> dict[str, dict]:
    """Steady-state tracemalloc peaks per step of the arena runtime."""
    step = _build_step(load_lab_iot(n_records=rows, seed=0))
    trainer = step.trainer
    peaks = {
        "step_allocations": (BENCH_BATCH, _network_step_peak(trainer, BENCH_BATCH)),
        "step_allocations_large_batch": (LARGE_BATCH, _network_step_peak(trainer, LARGE_BATCH)),
        "neural_step_allocations": (BENCH_BATCH, _neural_step_peak(trainer, BENCH_BATCH)),
        "full_step_allocations": (BENCH_BATCH, _full_step_peak(step)),
    }
    return {name: {"batch_size": b, "now_bytes": peak} for name, (b, peak) in peaks.items()}


def measure_step_allocations(rows: int = BENCH_ROWS, batch: int = BENCH_BATCH) -> dict:
    """The gated network-core allocation probe alone (for the smoke gate)."""
    step = _build_step(load_lab_iot(n_records=rows, seed=0))
    return {"batch_size": batch, "now_bytes": _network_step_peak(step.trainer, batch)}


def measure_precision(rows: int = BENCH_ROWS, groups: int = EPOCH_GROUPS,
                      reps: int = EPOCH_REPS) -> dict[str, dict]:
    """The float32 compute tier against the float64 default, interleaved.

    Both engines run the *current* runtime (arena + fused optimizers); the
    only difference is ``KiNETGANConfig.dtype``, so the comparison isolates
    what halving the element width buys on this machine: narrower BLAS
    kernels, half the memory traffic through the workspace buffers, and
    half the bytes in the network-core step's surviving temporaries.
    """
    bundle = load_lab_iot(n_records=rows, seed=0)
    step_f64 = _build_step(bundle)
    step_f32 = _build_step(bundle, dtype="float32")
    f64_times: list[float] = []
    f32_times: list[float] = []
    for _ in range(groups):  # interleave so load spikes hit both variants
        f64_times.append(_time_epochs(step_f64, rows, reps))
        f32_times.append(_time_epochs(step_f32, rows, reps))
    f64_s, f32_s = min(f64_times), min(f32_times)
    steps_per_epoch = max(rows // BENCH_BATCH, 1)
    alloc_f64 = _network_step_peak(step_f64.trainer, LARGE_BATCH)
    alloc_f32 = _network_step_peak(step_f32.trainer, LARGE_BATCH)
    return {
        "float32_epoch": {
            "rows": rows,
            "batch_size": BENCH_BATCH,
            "steps_per_epoch": steps_per_epoch,
            "float64_seconds": round(f64_s, 4),
            "float32_seconds": round(f32_s, 4),
            "speedup": round(f64_s / f32_s, 2),
        },
        "float32_step_latency": {
            "batch_size": BENCH_BATCH,
            "float64_ms": round(f64_s / steps_per_epoch * 1000, 3),
            "float32_ms": round(f32_s / steps_per_epoch * 1000, 3),
            "speedup": round(f64_s / f32_s, 2),
        },
        "float32_step_allocations": {
            "batch_size": LARGE_BATCH,
            "float64_bytes": alloc_f64,
            "float32_bytes": alloc_f32,
            "speedup": round(alloc_f64 / alloc_f32, 2),
        },
    }


def measure_codec(rows: int = BENCH_ROWS) -> dict:
    """StateCodec round-trip on an arena-backed network state.

    The contiguous state must take the single-copy fast path
    (``_flat_view`` detected); the per-key path is measured on the same
    values copied into standalone arrays, as a decoded broadcast payload
    would look without the arena.
    """
    bundle = load_lab_iot(n_records=min(rows, 600), seed=0)
    model = KiNETGAN(bench_config(epochs=1))
    model.fit(bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns)
    network = model.trainer.generator.network
    state = network.state_dict()
    codec = StateCodec(state)
    fast_path = codec._flat_view(state) is not None
    scattered = {key: np.array(value) for key, value in state.items()}
    vector = codec.encode(state)
    out = np.empty_like(vector)

    def best_of(fn, loops: int = 200) -> float:
        best = np.inf
        for _ in range(loops):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    contiguous_encode = best_of(lambda: codec.encode(state, out=out))
    scattered_encode = best_of(lambda: codec.encode(scattered, out=out))
    contiguous_decode = best_of(lambda: codec.decode_into(vector, state))
    scattered_decode = best_of(lambda: codec.decode_into(vector, scattered))
    return {
        "parameters": codec.dim,
        "keys": len(codec.keys),
        "single_copy_fast_path": fast_path,
        "encode_us": round(contiguous_encode * 1e6, 1),
        "encode_per_key_us": round(scattered_encode * 1e6, 1),
        "decode_us": round(contiguous_decode * 1e6, 1),
        "decode_per_key_us": round(scattered_decode * 1e6, 1),
        "speedup": round(
            (scattered_encode + scattered_decode)
            / (contiguous_encode + contiguous_decode),
            2,
        ),
    }


# --------------------------------------------------------------------------- #
# Document assembly
# --------------------------------------------------------------------------- #
def run_training_bench(rows: int = BENCH_ROWS, groups: int = EPOCH_GROUPS,
                       reps: int = EPOCH_REPS) -> dict:
    """Measure all training probes and return the trajectory document."""
    metrics: dict[str, dict] = {"kinetgan_epoch": measure_epoch(rows, groups, reps)}
    metrics.update(measure_allocations(rows))
    metrics.update(measure_precision(rows, groups, reps))
    metrics["codec_roundtrip"] = measure_codec(rows)
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
            "rows": rows,
            "batch_size": BENCH_BATCH,
            "embedding_dim": 32,
            "hidden_dims": [64, 64],
            "epoch_groups": groups,
            "epoch_reps": reps,
        },
        "metrics": metrics,
        "notes": NOTES,
    }


NOTES = (
    "All probes run the arena runtime in one process over the same data. "
    "kinetgan_epoch is context, not gated; perfbench's train workload "
    "measures epoch speed end to end. step_allocations covers the "
    "network-core step the arena subsystem owns (Sequential "
    "forward/backward, fused optimizer, zero_grad) and is gated as a byte "
    "ceiling; the wider neural_step_allocations peak is set by the "
    "generated batch and its gradient, which escape the step by design, "
    "and full_step_allocations adds KG scoring and sampler work -- both "
    "are context, not gated."
)


def write_results(document: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def format_results(document: dict) -> str:
    metrics = document["metrics"]
    epoch = metrics["kinetgan_epoch"]
    alloc = metrics["step_allocations"]
    alloc_large = metrics["step_allocations_large_batch"]
    neural = metrics["neural_step_allocations"]
    full = metrics["full_step_allocations"]
    codec = metrics["codec_roundtrip"]
    f32_epoch = metrics["float32_epoch"]
    f32_alloc = metrics["float32_step_allocations"]
    lines = [
        f"[bench:training] lab-IoT KiNETGAN, {epoch['rows']} rows, batch {epoch['batch_size']}",
        (
            f"  kinetgan_epoch           {epoch['now_seconds']:.3f}s"
            f"  ({epoch['now_step_ms']:.2f} ms/step, {epoch['steps_per_epoch']} steps/epoch)"
        ),
        (
            f"  step_allocations         {alloc['now_bytes']:,} B (batch {alloc['batch_size']});"
            f" {alloc_large['now_bytes']:,} B at batch {alloc_large['batch_size']}"
        ),
        f"  neural_step_allocations  {neural['now_bytes']:,} B  (not gated)",
        f"  full_step_allocations    {full['now_bytes']:,} B  (not gated)",
        (
            f"  float32_epoch            f64 {f32_epoch['float64_seconds']:.3f}s"
            f" -> f32 {f32_epoch['float32_seconds']:.3f}s  ({f32_epoch['speedup']}x)"
        ),
        (
            f"  float32_step_allocations f64 {f32_alloc['float64_bytes']:,} B"
            f" -> f32 {f32_alloc['float32_bytes']:,} B  ({f32_alloc['speedup']}x less,"
            f" batch {f32_alloc['batch_size']})"
        ),
        (
            "  codec_roundtrip          fast path"
            f" {'on' if codec['single_copy_fast_path'] else 'OFF'};"
            f" encode {codec['encode_per_key_us']:.0f} -> {codec['encode_us']:.0f} us,"
            f" decode {codec['decode_per_key_us']:.0f} -> {codec['decode_us']:.0f} us"
            f"  ({codec['speedup']}x, {codec['parameters']:,} params / {codec['keys']} keys)"
        ),
    ]
    return "\n".join(lines)


def main() -> None:
    document = run_training_bench()
    path = write_results(document)
    print(format_results(document))
    print(f"[bench:training] wrote {path}")


if __name__ == "__main__":
    main()
