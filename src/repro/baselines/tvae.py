"""TVAE baseline (Xu et al. 2019): a variational autoencoder for tabular data.

The encoder maps a transformed row to the mean and log-variance of a
Gaussian latent; the decoder maps a latent sample back to the transformed
representation (tanh scalars + softmax one-hot blocks).  Training minimises
the usual ELBO: per-span reconstruction loss (MSE for continuous scalars,
cross-entropy for one-hot blocks) plus the closed-form Gaussian KL.

The epoch/batch loop runs through :class:`repro.engine.TrainingEngine`;
this module contributes only the ELBO step.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Synthesizer
from repro.core.config import KiNETGANConfig
from repro.core.generator import TabularOutputActivation
from repro.engine import RecordMetric, TrainingEngine, TrainStep, sampling_rng, seeded_rng
from repro.neural.layers import Dense, ReLU
from repro.neural.losses import GaussianKLDivergence
from repro.neural.network import Sequential
from repro.neural.optimizers import Adam
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer

__all__ = ["TVAE"]

_EPS = 1e-6


def _reconstruction_loss_and_grad(
    x_hat: np.ndarray, x: np.ndarray, spans: list[tuple[int, int, str]]
) -> tuple[float, np.ndarray]:
    """Span-aware reconstruction loss and gradient w.r.t. ``x_hat``."""
    grad = np.zeros_like(x_hat)
    total = 0.0
    batch = x_hat.shape[0]
    for start, end, activation in spans:
        prediction = x_hat[:, start:end]
        target = x[:, start:end]
        if activation == "tanh":
            diff = prediction - target
            total += float((diff**2).sum())
            grad[:, start:end] = 2.0 * diff
        else:
            p = np.clip(prediction, _EPS, 1.0 - _EPS)
            total += float(-(target * np.log(p)).sum())
            grad[:, start:end] = -target / p
    return total / batch, grad / batch


class _TVAEStep(TrainStep):
    """One ELBO descent step over a random mini-batch."""

    def __init__(self, model: "TVAE", data: np.ndarray) -> None:
        self.model = model
        self.data = data
        self.spans = model.transformer.activation_spans()
        self.kl_loss = GaussianKLDivergence()
        self.optimizer = Adam(
            model.encoder.parameters() + model.decoder.parameters(),
            lr=model.config.generator_lr,
        )

    def step(self, rng: np.random.Generator, batch_index: int) -> dict[str, float]:
        model = self.model
        latent_dim = model.latent_dim
        batch_idx = rng.integers(0, len(self.data), size=model.config.batch_size)
        x = self.data[batch_idx]

        stats = model.encoder.forward(x, training=True)
        mu = stats[:, :latent_dim]
        log_var = np.clip(stats[:, latent_dim:], -8.0, 8.0)
        eps = rng.normal(size=mu.shape)
        z = mu + eps * np.exp(0.5 * log_var)

        x_hat = model.decoder.forward(z, training=True)
        recon, grad_x_hat = _reconstruction_loss_and_grad(x_hat, x, self.spans)
        kl = self.kl_loss.forward(np.concatenate([mu, log_var], axis=1))
        grad_kl = self.kl_loss.backward()

        model.encoder.zero_grad()
        model.decoder.zero_grad()
        grad_z = model.decoder.backward(grad_x_hat)
        grad_mu = grad_z + model.kl_weight * grad_kl[:, :latent_dim]
        grad_log_var = (
            grad_z * eps * 0.5 * np.exp(0.5 * log_var)
            + model.kl_weight * grad_kl[:, latent_dim:]
        )
        model.encoder.backward(np.concatenate([grad_mu, grad_log_var], axis=1))
        self.optimizer.step()
        return {
            "loss": recon + model.kl_weight * kl,
            "reconstruction_loss": recon,
            "kl_loss": kl,
        }

    def checkpoint_targets(self) -> dict[str, Sequential]:
        return {"encoder": self.model.encoder, "decoder": self.model.decoder}


class TVAE(Synthesizer):
    """Tabular variational autoencoder."""

    name = "TVAE"

    def __init__(
        self,
        config: KiNETGANConfig | None = None,
        latent_dim: int = 32,
        kl_weight: float = 1.0,
    ) -> None:
        self.config = config if config is not None else KiNETGANConfig()
        self.config.require_float64(type(self).__name__)
        self.latent_dim = latent_dim
        self.kl_weight = kl_weight
        self.transformer: DataTransformer | None = None
        self.encoder: Sequential | None = None
        self.decoder: Sequential | None = None
        self.loss_history: list[float] = []
        self._fitted = False

    # ------------------------------------------------------------------ #
    def fit(self, table: Table, **kwargs) -> "TVAE":
        config = self.config
        rng = seeded_rng(config.seed)
        self._rng = rng
        self.transformer = DataTransformer(
            max_modes=config.max_modes,
            continuous_encoding=config.continuous_encoding,
            seed=config.seed,
        ).fit(table)
        data = self.transformer.transform(table, rng=rng)
        self._build_networks(rng)

        step = _TVAEStep(self, data)
        engine = TrainingEngine(
            step,
            epochs=config.epochs,
            batch_size=config.batch_size,
            n_rows=len(data),
            rng=rng,
            callbacks=[RecordMetric(self.loss_history, "loss")]
            + config.engine_callbacks(prefix="[TVAE]"),
        )
        engine.run()
        self._fitted = True
        return self

    def _build_networks(self, rng: np.random.Generator) -> None:
        """Construct the encoder / decoder stacks over the fitted transformer."""
        assert self.transformer is not None
        config = self.config
        data_dim = self.transformer.output_dim
        hidden = config.generator_dims[0] if config.generator_dims else 128
        self.encoder = Sequential(
            [
                Dense(data_dim, hidden, rng=rng, init="he"),
                ReLU(),
                Dense(hidden, 2 * self.latent_dim, rng=rng, init="glorot"),
            ]
        )
        self.decoder = Sequential(
            [
                Dense(self.latent_dim, hidden, rng=rng, init="he"),
                ReLU(),
                Dense(hidden, data_dim, rng=rng, init="glorot"),
                TabularOutputActivation(self.transformer.activation_spans(), tau=1.0, rng=rng),
            ]
        )
        self.encoder.consolidate()
        self.decoder.consolidate()

    # ------------------------------------------------------------------ #
    # Artifact-state protocol (repro.serve)
    # ------------------------------------------------------------------ #
    def artifact_state(self) -> dict:
        self._require_fitted(self._fitted)
        assert self.transformer is not None
        return {
            "config": self.config,
            "latent_dim": self.latent_dim,
            "kl_weight": self.kl_weight,
            "transformer": self.transformer.artifact_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.config = state["config"]
        self.latent_dim = int(state["latent_dim"])
        self.kl_weight = float(state["kl_weight"])
        self.transformer = DataTransformer.from_artifact_state(state["transformer"])
        self._build_networks(seeded_rng(self.config.seed))
        self._fitted = True

    def artifact_networks(self) -> dict[str, Sequential]:
        self._require_fitted(self._fitted)
        assert self.encoder is not None and self.decoder is not None
        return {"encoder": self.encoder, "decoder": self.decoder}

    # ------------------------------------------------------------------ #
    def sample(
        self, n: int, conditions: dict | None = None, rng: np.random.Generator | None = None
    ) -> Table:
        self._require_fitted(self._fitted)
        if conditions:
            raise ValueError("TVAE is unconditional and does not support conditions")
        if n <= 0:
            raise ValueError("n must be positive")
        assert self.decoder is not None and self.transformer is not None
        rng = rng if rng is not None else sampling_rng(self.config.seed)
        outputs: list[np.ndarray] = []
        batch_size = self.config.batch_size
        for start in range(0, n, batch_size):
            end = min(start + batch_size, n)
            z = rng.normal(size=(end - start, self.latent_dim))
            outputs.append(self.decoder.forward(z, training=False))
        matrix = self.transformer.harden(np.concatenate(outputs, axis=0), inplace=True)
        return self.transformer.inverse_transform(matrix)
