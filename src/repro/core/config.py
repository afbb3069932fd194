"""Hyper-parameter configuration for KiNETGAN."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["KiNETGANConfig"]


@dataclass
class KiNETGANConfig:
    """All tunable knobs of the KiNETGAN trainer.

    The defaults are sized for the CPU-only numpy backend: small residual
    generators and a few hundred epochs over mini-batches are enough for the
    low-dimensional flow-record tables used in the paper's evaluation.

    Attributes
    ----------
    embedding_dim:
        Dimension of the Gaussian noise vector ``z``.
    generator_dims / discriminator_dims:
        Hidden layer widths of the generator residual stack and of the
        real/fake discriminator ``D_M``.
    epochs / batch_size / discriminator_steps:
        Standard GAN loop controls; ``discriminator_steps`` is the number of
        ``D_M`` updates per generator update.
    generator_lr / discriminator_lr:
        Adam learning rates (betas are fixed at the GAN-standard (0.5, 0.9)).
    lambda_condition:
        Weight of the condition cross-entropy penalty (section III-A-2).
    lambda_knowledge:
        Weight of the knowledge-guided discriminator term in the generator
        loss (equation 3 adds ``D_KG`` to ``D_M``; this weight lets the
        ablation switch it off).
    uniform_probability:
        Probability of drawing the pivot conditional attribute uniformly over
        its range rather than by log-frequency (section III-A-3).
    use_knowledge_discriminator:
        Master switch for ``D_KG`` (ablation A1,
        ``benchmarks/test_ablation_knowledge.py``).
    use_valid_set_loss:
        When true (default) the knowledge graph is queried with the sampled
        condition values and the generator is additionally penalised for
        probability mass on categories outside the returned valid sets
        (section III-B-1: "the discriminator's input consists of all valid
        sets of attributes for the conditional vector C").  Weighted by
        ``lambda_knowledge`` like the learned-head term.
    knowledge_head_dims:
        Hidden widths of the learned refinement head of ``D_KG``.
    knowledge_negatives_per_batch:
        Number of invalid attribute combinations synthesised per batch to
        train the learned head.
    gumbel_tau:
        Temperature of the Gumbel-softmax applied to discrete output blocks.
    max_modes:
        Maximum number of Gaussian-mixture modes per continuous column.
    continuous_encoding:
        ``"mode"`` (CTGAN-style mode-specific normalisation) or ``"minmax"``.
    dtype:
        Floating dtype of the networks and the training hot path:
        ``"float64"`` (the default, bit-compatible with every existing
        seeded history) or ``"float32"`` (half the memory bandwidth,
        transport bytes and artifact size -- see ``docs/precision.md``).
    dropout:
        Discriminator dropout rate.
    seed:
        Seed for all random draws (model init, sampling, noise).
    verbose:
        When true the trainer prints one line per ``log_every`` epochs.
    log_every:
        Epoch period of the engine's :class:`~repro.engine.PeriodicLogger`
        (only active when ``verbose``).
    patience:
        Early-stopping patience in epochs for the engine's loss-plateau
        monitor; 0 (the default) disables early stopping so training always
        runs the full ``epochs``.
    min_delta:
        Minimum loss improvement that resets the early-stopping counter.
    checkpoint_dir:
        When set, the engine's :class:`~repro.engine.Checkpointer` persists
        the model networks into this directory (always at the end of
        training, plus every ``checkpoint_every`` epochs when positive).
    checkpoint_every:
        Epoch period of intermediate checkpoints; 0 writes only the final
        checkpoint.
    metrics:
        When true the engine publishes epoch counters/durations and the
        live loss gauges into the process metrics registry
        (:class:`~repro.engine.MetricsCallback`); attaching it never
        touches an RNG stream.  The CLI enables it automatically when
        ``--metrics-dump`` is passed.
    """

    embedding_dim: int = 64
    generator_dims: tuple[int, ...] = (128, 128)
    discriminator_dims: tuple[int, ...] = (128, 128)
    epochs: int = 120
    batch_size: int = 128
    discriminator_steps: int = 1
    generator_lr: float = 2e-3
    discriminator_lr: float = 2e-3
    lambda_condition: float = 1.0
    lambda_knowledge: float = 1.0
    uniform_probability: float = 0.3
    use_knowledge_discriminator: bool = True
    use_valid_set_loss: bool = True
    knowledge_head_dims: tuple[int, ...] = (64,)
    knowledge_negatives_per_batch: int = 64
    gumbel_tau: float = 0.2
    max_modes: int = 10
    continuous_encoding: str = "mode"
    dtype: str = "float64"
    dropout: float = 0.25
    seed: int = 0
    verbose: bool = False
    log_every: int = 20
    patience: int = 0
    min_delta: float = 0.0
    checkpoint_dir: str | None = None
    checkpoint_every: int = 0
    metrics: bool = False
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.discriminator_steps < 1:
            raise ValueError("discriminator_steps must be at least 1")
        if not 0.0 <= self.uniform_probability <= 1.0:
            raise ValueError("uniform_probability must be in [0, 1]")
        if self.lambda_condition < 0 or self.lambda_knowledge < 0:
            raise ValueError("loss weights must be non-negative")
        if self.continuous_encoding not in ("mode", "minmax"):
            raise ValueError("continuous_encoding must be 'mode' or 'minmax'")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be 'float64' or 'float32'")
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")
        if self.patience < 0 or self.checkpoint_every < 0:
            raise ValueError("patience and checkpoint_every must be non-negative")
        if self.min_delta < 0:
            raise ValueError("min_delta must be non-negative")

    @property
    def np_dtype(self) -> np.dtype:
        """The configured dtype as a numpy dtype object."""
        return np.dtype(self.dtype)

    def require_float64(self, model_name: str) -> None:
        """Reject a non-float64 ``dtype`` for a model that ignores the knob.

        Some baselines always build float64 networks; they call this in
        their constructors so a float32 config fails loudly instead of
        silently training in float64.
        """
        if self.dtype != "float64":
            raise ValueError(
                f"{model_name} builds float64 networks only; dtype={self.dtype!r} is not "
                "supported (KiNETGAN and CTGAN honour float32)"
            )

    def engine_callbacks(self, **overrides) -> list:
        """The standard engine callback stack implied by this config.

        Thin wrapper over :func:`repro.engine.standard_callbacks` so every
        synthesizer derives logging / early stopping / checkpointing from
        the same knobs; ``overrides`` customises the display (prefix,
        labels, extra metrics) or the monitored loss key.
        """
        from repro.engine.callbacks import standard_callbacks

        options = dict(
            verbose=self.verbose,
            log_every=self.log_every,
            patience=self.patience,
            min_delta=self.min_delta,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            metrics=self.metrics,
        )
        options.update(overrides)
        return standard_callbacks(**options)

    def with_overrides(self, **kwargs) -> "KiNETGANConfig":
        """A copy of this config with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)
