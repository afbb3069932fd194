"""PATE-GAN baseline (Jordon et al., ICLR 2019).

PATE-GAN trains ``k`` teacher discriminators on disjoint partitions of the
real data; the student discriminator never touches real data -- it is
trained on generated samples labelled by a *noisy majority vote* over the
teachers (the PATE mechanism, which is what provides the differential-privacy
guarantee); the generator plays against the student.  Every noisy vote
consumes privacy budget, which we track with simple (eps, 0)-composition of
the Laplace mechanism so the model can report a conservative epsilon.

The epoch/batch loop runs through :class:`repro.engine.TrainingEngine`;
this module contributes only the teachers/student/generator step.
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

__all__ = ["PATEGAN"]


class _PATEGANStep(TrainStep):
    """One PATE round: teacher updates, noisy-vote student update, generator."""

    def __init__(self, model: "PATEGAN", data: np.ndarray, partitions: list[np.ndarray]) -> None:
        config = model.config
        self.model = model
        self.data = data
        self.partitions = partitions
        self.teacher_batch = max(8, config.batch_size // model.num_teachers)
        self.bce = BinaryCrossEntropy(from_logits=True)
        self.opt_g = Adam(model.generator.network, lr=config.generator_lr, betas=(0.5, 0.9))
        self.opt_s = Adam(model.student.network, lr=config.discriminator_lr, betas=(0.5, 0.9))
        self.opt_teachers = [
            Adam(teacher.network, lr=config.discriminator_lr, betas=(0.5, 0.9))
            for teacher in model.teachers
        ]

    def step(self, rng: np.random.Generator, batch_index: int) -> dict[str, float]:
        model = self.model
        config = model.config
        bce = self.bce
        loss = 0.0

        # --- teachers: real (own partition) vs generated ----------
        noise = rng.normal(size=(self.teacher_batch, config.embedding_dim))
        fake = model.generator.forward(noise, None, training=True)
        for teacher, optimizer, part in zip(model.teachers, self.opt_teachers, self.partitions):
            real = self.data[rng.choice(part, size=min(self.teacher_batch, len(part)))]
            teacher.zero_grad()
            logits_real = teacher.forward(real, None, training=True)
            teacher_loss = bce.forward(logits_real, np.ones_like(logits_real))
            teacher.backward(bce.backward())
            logits_fake = teacher.forward(fake, None, training=True)
            teacher_loss += bce.forward(logits_fake, np.zeros_like(logits_fake))
            teacher.backward(bce.backward())
            optimizer.step()
            loss += teacher_loss / model.num_teachers

        # --- student: generated samples with noisy teacher labels --
        noise = rng.normal(size=(config.batch_size, config.embedding_dim))
        fake = model.generator.forward(noise, None, training=True)
        labels = model._noisy_vote(fake, rng)
        model.student.zero_grad()
        logits = model.student.forward(fake, None, training=True)
        student_loss = bce.forward(logits, labels)
        model.student.backward(bce.backward())
        self.opt_s.step()

        # --- generator: fool the student ---------------------------
        noise = rng.normal(size=(config.batch_size, config.embedding_dim))
        fake = model.generator.forward(noise, None, training=True)
        logits = model.student.forward(fake, None, training=True)
        gen_loss = bce.forward(logits, np.ones_like(logits))
        grad_fake = model.student.backward(bce.backward())
        model.student.zero_grad()
        model.generator.zero_grad()
        model.generator.backward(grad_fake)
        self.opt_g.step()

        return {"loss": loss + student_loss + gen_loss}

    def checkpoint_targets(self) -> dict[str, Sequential]:
        return {
            "generator": self.model.generator.network,
            "student": self.model.student.network,
        }


class PATEGAN(Synthesizer):
    """GAN with PATE-style differentially private teacher aggregation."""

    name = "PATEGAN"

    def __init__(
        self,
        config: KiNETGANConfig | None = None,
        num_teachers: int = 5,
        laplace_scale: float = 1.0,
    ) -> None:
        if num_teachers < 2:
            raise ValueError("num_teachers must be at least 2")
        if laplace_scale <= 0:
            raise ValueError("laplace_scale must be positive")
        self.config = config if config is not None else KiNETGANConfig()
        self.config.require_float64(type(self).__name__)
        self.num_teachers = num_teachers
        self.laplace_scale = laplace_scale
        self.transformer: DataTransformer | None = None
        self.generator: ConditionalGenerator | None = None
        self.student: DataDiscriminator | None = None
        self.teachers: list[DataDiscriminator] = []
        self.epsilon_spent = 0.0
        self.loss_history: list[float] = []
        self._fitted = False

    # ------------------------------------------------------------------ #
    def fit(self, table: Table, **kwargs) -> "PATEGAN":
        config = self.config
        rng = seeded_rng(config.seed)
        self._rng = rng
        self.transformer = DataTransformer(
            max_modes=config.max_modes,
            continuous_encoding=config.continuous_encoding,
            seed=config.seed,
        ).fit(table)
        data = self.transformer.transform(table, rng=rng)

        # Disjoint teacher partitions.
        permutation = rng.permutation(len(data))
        partitions = np.array_split(permutation, self.num_teachers)

        self._build_networks(rng, with_teachers=True)

        step = _PATEGANStep(self, data, partitions)
        engine = TrainingEngine(
            step,
            epochs=config.epochs,
            batch_size=config.batch_size,
            n_rows=len(data),
            rng=rng,
            callbacks=[RecordMetric(self.loss_history, "loss")]
            + config.engine_callbacks(prefix="[PATEGAN]"),
        )
        engine.run()
        self._fitted = True
        return self

    def _build_networks(self, rng: np.random.Generator, with_teachers: bool) -> None:
        """Construct the generator / teachers / student stacks.

        ``with_teachers=False`` (the artifact-restore path) skips the teacher
        ensemble: teachers are a training-time construct and are not part of
        the persisted model, matching ``checkpoint_targets()``.
        """
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
        if with_teachers:
            self.teachers = [
                DataDiscriminator(
                    data_dim=data_dim,
                    condition_dim=0,
                    hidden_dims=(64,),
                    dropout=config.dropout,
                    rng=rng,
                )
                for _ in range(self.num_teachers)
            ]
        else:
            self.teachers = []
        self.student = DataDiscriminator(
            data_dim=data_dim,
            condition_dim=0,
            hidden_dims=config.discriminator_dims,
            dropout=config.dropout,
            rng=rng,
        )

    # ------------------------------------------------------------------ #
    # Artifact-state protocol (repro.serve)
    # ------------------------------------------------------------------ #
    def artifact_state(self) -> dict:
        self._require_fitted(self._fitted)
        assert self.transformer is not None
        return {
            "config": self.config,
            "num_teachers": self.num_teachers,
            "laplace_scale": self.laplace_scale,
            "epsilon_spent": self.epsilon_spent,
            "transformer": self.transformer.artifact_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.config = state["config"]
        self.num_teachers = int(state["num_teachers"])
        self.laplace_scale = float(state["laplace_scale"])
        self.epsilon_spent = float(state["epsilon_spent"])
        self.transformer = DataTransformer.from_artifact_state(state["transformer"])
        self._build_networks(seeded_rng(self.config.seed), with_teachers=False)
        self._fitted = True

    def artifact_networks(self) -> dict[str, Sequential]:
        self._require_fitted(self._fitted)
        assert self.generator is not None and self.student is not None
        return {"generator": self.generator.network, "student": self.student.network}

    def _noisy_vote(self, fake: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """PATE noisy-majority labels for a generated batch.

        Each teacher votes "looks real" when its logit is positive; Laplace
        noise of scale ``laplace_scale`` is added to the count before the
        majority threshold.  Each aggregation step costs
        ``2 / laplace_scale`` epsilon under naive composition.
        """
        votes = np.zeros((fake.shape[0], 1))
        for teacher in self.teachers:
            votes += (teacher.forward(fake, None, training=False) > 0).astype(np.float64)
        noisy = votes + rng.laplace(0.0, self.laplace_scale, size=votes.shape)
        self.epsilon_spent += 2.0 / self.laplace_scale
        return (noisy > self.num_teachers / 2.0).astype(np.float64)

    # ------------------------------------------------------------------ #
    def sample(
        self, n: int, conditions: dict | None = None, rng: np.random.Generator | None = None
    ) -> Table:
        self._require_fitted(self._fitted)
        if conditions:
            raise ValueError("PATEGAN is unconditional and does not support conditions")
        if n <= 0:
            raise ValueError("n must be positive")
        assert self.generator is not None and self.transformer is not None
        rng = rng if rng is not None else sampling_rng(self.config.seed)
        outputs: list[np.ndarray] = []
        for start in range(0, n, self.config.batch_size):
            end = min(start + self.config.batch_size, n)
            noise = rng.normal(size=(end - start, self.config.embedding_dim))
            outputs.append(self.generator.forward(noise, None, training=False))
        matrix = self.transformer.harden(np.concatenate(outputs, axis=0), inplace=True)
        return self.transformer.inverse_transform(matrix)
