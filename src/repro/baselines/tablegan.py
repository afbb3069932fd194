"""TableGAN baseline (Park et al., VLDB 2018).

TableGAN is an *unconditional* GAN over min-max scaled features with two
auxiliary losses on top of the adversarial game:

* an **information loss** matching the first and second moments of the
  generated batch to those of the real batch, and
* a **classification loss**: an auxiliary classifier is trained on real data
  to predict the label column from the remaining features, and the generator
  is penalised when the classifier disagrees with the label its own sample
  carries (semantic-integrity constraint).

We keep the convolution-free MLP formulation appropriate for flow records.
The epoch/batch loop runs through :class:`repro.engine.TrainingEngine`;
this module contributes only the adversarial + auxiliary-loss step.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Synthesizer
from repro.core.config import KiNETGANConfig
from repro.core.discriminator import DataDiscriminator
from repro.core.generator import ConditionalGenerator
from repro.engine import RecordMetric, TrainingEngine, TrainStep, sampling_rng, seeded_rng
from repro.neural.losses import BinaryCrossEntropy
from repro.neural.network import Sequential
from repro.neural.optimizers import Adam
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer

__all__ = ["TableGAN"]

_EPS = 1e-6


class _TableGANStep(TrainStep):
    """One TableGAN round: discriminator, classifier, then generator."""

    def __init__(self, model: "TableGAN", data: np.ndarray, opt_c: Adam | None) -> None:
        config = model.config
        self.model = model
        self.data = data
        self.bce = BinaryCrossEntropy(from_logits=True)
        self.opt_g = Adam(model.generator.parameters(), lr=config.generator_lr, betas=(0.5, 0.9))
        self.opt_d = Adam(
            model.discriminator.parameters(), lr=config.discriminator_lr, betas=(0.5, 0.9)
        )
        self.opt_c = opt_c

    def step(self, rng: np.random.Generator, batch_index: int) -> dict[str, float]:
        model = self.model
        config = model.config
        bce = self.bce
        real = self.data[rng.integers(0, len(self.data), size=config.batch_size)]
        noise = rng.normal(size=(config.batch_size, config.embedding_dim))
        fake = model.generator.forward(noise, None, training=True)

        # Discriminator update.
        model.discriminator.zero_grad()
        logits_real = model.discriminator.forward(real, None, training=True)
        loss_d = bce.forward(logits_real, np.ones_like(logits_real))
        model.discriminator.backward(bce.backward())
        logits_fake = model.discriminator.forward(fake, None, training=True)
        loss_d += bce.forward(logits_fake, np.zeros_like(logits_fake))
        model.discriminator.backward(bce.backward())
        self.opt_d.step()

        # Classifier update (real data only).
        if model.classifier is not None and self.opt_c is not None:
            features, _label_target = model._split_label(real)
            model.classifier.zero_grad()
            logits = model.classifier.forward(features, None, training=True)
            target = model._binary_label_target(real)
            class_loss = bce.forward(logits, target)
            model.classifier.backward(bce.backward())
            self.opt_c.step()
        else:
            class_loss = 0.0

        # Generator update: adversarial + information + classification.
        noise = rng.normal(size=(config.batch_size, config.embedding_dim))
        fake = model.generator.forward(noise, None, training=True)
        logits_fake = model.discriminator.forward(fake, None, training=True)
        loss_g = bce.forward(logits_fake, np.ones_like(logits_fake))
        grad_fake = model.discriminator.backward(bce.backward())
        model.discriminator.zero_grad()

        info_loss, grad_info = model._information_loss(real, fake)
        grad_total = grad_fake + model.info_weight * grad_info

        if model.classifier is not None:
            class_g_loss, grad_class = model._classification_loss(fake, bce)
            grad_total = grad_total + model.class_weight * grad_class
        else:
            class_g_loss = 0.0

        model.generator.zero_grad()
        model.generator.backward(grad_total)
        self.opt_g.step()
        return {"loss": loss_d + loss_g + info_loss + class_loss + class_g_loss}

    def checkpoint_targets(self) -> dict[str, Sequential]:
        targets = {
            "generator": self.model.generator.network,
            "discriminator": self.model.discriminator.network,
        }
        if self.model.classifier is not None:
            targets["classifier"] = self.model.classifier.network
        return targets


class TableGAN(Synthesizer):
    """Unconditional GAN with information and classification losses."""

    name = "TABLEGAN"

    def __init__(
        self,
        config: KiNETGANConfig | None = None,
        label_column: str | None = None,
        info_weight: float = 1.0,
        class_weight: float = 1.0,
    ) -> None:
        base = config if config is not None else KiNETGANConfig()
        base.require_float64(type(self).__name__)
        # TableGAN scales continuous features to [-1, 1] rather than using
        # mode-specific normalisation.
        self.config = base.with_overrides(continuous_encoding="minmax")
        self.label_column = label_column
        self.info_weight = info_weight
        self.class_weight = class_weight
        self.transformer: DataTransformer | None = None
        self.generator: ConditionalGenerator | None = None
        self.discriminator: DataDiscriminator | None = None
        self.classifier: DataDiscriminator | None = None
        self._label_slice: slice | None = None
        self.loss_history: list[float] = []
        self._fitted = False

    # ------------------------------------------------------------------ #
    def fit(self, table: Table, label_column: str | None = None, **kwargs) -> "TableGAN":
        config = self.config
        rng = seeded_rng(config.seed)
        self._rng = rng
        if label_column is not None:
            self.label_column = label_column
        if self.label_column is None:
            # Fall back to the last categorical column, which is the label in
            # both bundled datasets.
            categorical = table.schema.categorical_names
            self.label_column = categorical[-1] if categorical else None

        self.transformer = DataTransformer(
            max_modes=config.max_modes,
            continuous_encoding="minmax",
            seed=config.seed,
        ).fit(table)
        data = self.transformer.transform(table, rng=rng)
        if self.label_column is not None and self.label_column in table.schema.names:
            info = self.transformer.column_info(self.label_column)
            self._label_slice = slice(info.start, info.end)
        self._build_networks(rng)

        # Auxiliary classifier over the non-label features.
        opt_c = None
        if self.classifier is not None:
            opt_c = Adam(self.classifier.parameters(), lr=config.discriminator_lr)

        step = _TableGANStep(self, data, opt_c)
        engine = TrainingEngine(
            step,
            epochs=config.epochs,
            batch_size=config.batch_size,
            n_rows=len(data),
            rng=rng,
            callbacks=[RecordMetric(self.loss_history, "loss")]
            + config.engine_callbacks(prefix="[TableGAN]"),
        )
        engine.run()
        self._fitted = True
        return self

    def _build_networks(self, rng: np.random.Generator) -> None:
        """Construct generator / discriminator / classifier over the
        fitted transformer (``_label_slice`` must already be resolved)."""
        assert self.transformer is not None
        config = self.config
        data_dim = self.transformer.output_dim
        self.generator = ConditionalGenerator(
            noise_dim=config.embedding_dim,
            condition_dim=0,
            transformer=self.transformer,
            hidden_dims=config.generator_dims,
            gumbel_tau=config.gumbel_tau,
            rng=rng,
        )
        self.discriminator = DataDiscriminator(
            data_dim=data_dim,
            condition_dim=0,
            hidden_dims=config.discriminator_dims,
            dropout=config.dropout,
            rng=rng,
        )
        if self._label_slice is not None:
            feature_dim = data_dim - (self._label_slice.stop - self._label_slice.start)
            self.classifier = DataDiscriminator(
                data_dim=feature_dim,
                condition_dim=0,
                hidden_dims=(64,),
                dropout=0.0,
                rng=rng,
            )

    # ------------------------------------------------------------------ #
    # Artifact-state protocol (repro.serve)
    # ------------------------------------------------------------------ #
    def artifact_state(self) -> dict:
        self._require_fitted(self._fitted)
        assert self.transformer is not None
        label_slice = self._label_slice
        return {
            "config": self.config,
            "label_column": self.label_column,
            "info_weight": self.info_weight,
            "class_weight": self.class_weight,
            "label_slice": (
                (label_slice.start, label_slice.stop) if label_slice is not None else None
            ),
            "transformer": self.transformer.artifact_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.config = state["config"]
        self.label_column = state["label_column"]
        self.info_weight = float(state["info_weight"])
        self.class_weight = float(state["class_weight"])
        bounds = state["label_slice"]
        self._label_slice = slice(bounds[0], bounds[1]) if bounds is not None else None
        self.transformer = DataTransformer.from_artifact_state(state["transformer"])
        self._build_networks(seeded_rng(self.config.seed))
        self._fitted = True

    def artifact_networks(self) -> dict[str, Sequential]:
        self._require_fitted(self._fitted)
        assert self.generator is not None and self.discriminator is not None
        networks = {
            "generator": self.generator.network,
            "discriminator": self.discriminator.network,
        }
        if self.classifier is not None:
            networks["classifier"] = self.classifier.network
        return networks

    # ------------------------------------------------------------------ #
    def _split_label(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        assert self._label_slice is not None
        label = matrix[:, self._label_slice]
        features = np.concatenate(
            [matrix[:, : self._label_slice.start], matrix[:, self._label_slice.stop :]], axis=1
        )
        return features, label

    def _binary_label_target(self, matrix: np.ndarray) -> np.ndarray:
        """Binary target: is the row's label the majority (first) category?"""
        assert self._label_slice is not None
        label_block = matrix[:, self._label_slice]
        return (label_block.argmax(axis=1) == 0).astype(np.float64)[:, None]

    def _information_loss(
        self, real: np.ndarray, fake: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Moment-matching loss and its gradient with respect to ``fake``."""
        batch = fake.shape[0]
        mean_diff = fake.mean(axis=0) - real.mean(axis=0)
        std_diff = fake.std(axis=0) - real.std(axis=0)
        loss = float((mean_diff**2).sum() + (std_diff**2).sum())
        fake_std = fake.std(axis=0) + _EPS
        grad_mean = 2.0 * mean_diff / batch
        grad_std = 2.0 * std_diff * (fake - fake.mean(axis=0)) / (batch * fake_std)
        return loss, grad_mean[None, :] + grad_std

    def _classification_loss(
        self, fake: np.ndarray, bce: BinaryCrossEntropy
    ) -> tuple[float, np.ndarray]:
        """Semantic-integrity loss: classifier(features) should match the label."""
        assert self.classifier is not None and self._label_slice is not None
        features, _ = self._split_label(fake)
        target = self._binary_label_target(fake)
        logits = self.classifier.forward(features, None, training=True)
        loss = bce.forward(logits, target)
        grad_features = self.classifier.backward(bce.backward())
        self.classifier.zero_grad()
        grad = np.zeros_like(fake)
        grad[:, : self._label_slice.start] = grad_features[:, : self._label_slice.start]
        grad[:, self._label_slice.stop :] = grad_features[:, self._label_slice.start :]
        return loss, grad

    # ------------------------------------------------------------------ #
    def sample(
        self, n: int, conditions: dict | None = None, rng: np.random.Generator | None = None
    ) -> Table:
        self._require_fitted(self._fitted)
        if conditions:
            raise ValueError("TableGAN is unconditional and does not support conditions")
        if n <= 0:
            raise ValueError("n must be positive")
        assert self.generator is not None and self.transformer is not None
        rng = rng if rng is not None else sampling_rng(self.config.seed)
        outputs: list[np.ndarray] = []
        for start in range(0, n, self.config.batch_size):
            end = min(start + self.config.batch_size, n)
            noise = rng.normal(size=(end - start, self.config.embedding_dim))
            outputs.append(self.generator.forward(noise, None, training=False))
        hardened = self.transformer.harden(np.concatenate(outputs, axis=0), inplace=True)
        return self.transformer.inverse_transform(hardened)
