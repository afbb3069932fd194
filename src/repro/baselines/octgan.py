"""OCT-GAN baseline (Kim et al., "OCT-GAN: Neural ODE-based Conditional
Tabular GANs", WWW 2021).

OCT-GAN keeps the CTGAN data pipeline but inserts neural-ODE blocks into the
generator and the discriminator.  We reproduce that structure with the
fixed-step :class:`repro.neural.ode.ODEBlock`: the generator integrates its
hidden state through a learned vector field before the output projection,
and the discriminator integrates its first hidden layer before classifying.
"""

from __future__ import annotations

from repro.core.config import KiNETGANConfig
from repro.core.discriminator import DataDiscriminator
from repro.core.generator import ConditionalGenerator, TabularOutputActivation
from repro.core.synthesizer import KiNETGAN
from repro.core.trainer import KiNETGANTrainer
from repro.engine import seeded_rng
from repro.neural.layers import BatchNorm, Dense, Dropout, LeakyReLU, ReLU
from repro.neural.network import Sequential
from repro.neural.ode import ODEBlock

__all__ = ["OCTGAN"]


class _ODEGenerator(ConditionalGenerator):
    """CTGAN-style generator with an ODE block before the output projection."""

    def __init__(
        self, noise_dim, condition_dim, transformer, hidden_dims, gumbel_tau, ode_steps, rng
    ) -> None:
        # Build the base object first, then replace its network with the
        # ODE-augmented stack (same public interface; ``activation`` reads
        # the live output layer).  The discarded base build still consumes
        # initialisation draws, which seeded OCTGAN outputs depend on.
        super().__init__(
            noise_dim,
            condition_dim,
            transformer,
            hidden_dims=hidden_dims,
            gumbel_tau=gumbel_tau,
            rng=rng,
        )
        width = noise_dim + condition_dim
        hidden = hidden_dims[0] if hidden_dims else 128
        layers = [
            Dense(width, hidden, rng=rng, init="he"),
            BatchNorm(hidden),
            ReLU(),
            ODEBlock(hidden, hidden_dim=hidden, num_steps=ode_steps, rng=rng),
            Dense(hidden, self.output_dim, rng=rng, init="glorot"),
            TabularOutputActivation(transformer.activation_spans(), tau=gumbel_tau, rng=rng),
        ]
        self.network = Sequential(layers)
        self.network.consolidate()


class _ODEDiscriminator(DataDiscriminator):
    """Discriminator whose hidden representation is integrated through an ODE."""

    def __init__(self, data_dim, condition_dim, hidden_dims, dropout, ode_steps, rng) -> None:
        super().__init__(
            data_dim, condition_dim, hidden_dims=hidden_dims, dropout=dropout, rng=rng
        )
        hidden = hidden_dims[0] if hidden_dims else 128
        layers = [
            Dense(data_dim + condition_dim, hidden, rng=rng, init="he"),
            LeakyReLU(0.2),
            Dropout(dropout, rng=rng),
            ODEBlock(hidden, hidden_dim=hidden, num_steps=ode_steps, rng=rng),
            LeakyReLU(0.2),
            Dense(hidden, 1, rng=rng, init="glorot"),
        ]
        self.network = Sequential(layers)
        self.network.consolidate()


class OCTGAN(KiNETGAN):
    """Neural-ODE conditional tabular GAN (no knowledge guidance)."""

    name = "OCTGAN"
    knowledge_free = True

    def __init__(self, config: KiNETGANConfig | None = None, ode_steps: int = 3) -> None:
        config = config if config is not None else KiNETGANConfig()
        config.require_float64(type(self).__name__)
        config = config.with_overrides(
            use_knowledge_discriminator=False,
            lambda_knowledge=0.0,
            uniform_probability=0.0,
        )
        super().__init__(config)
        self.ode_steps = ode_steps

    def _extra_artifact_state(self) -> dict:
        return {"ode_steps": self.ode_steps}

    def _apply_extra_artifact_state(self, state: dict) -> None:
        self.ode_steps = int(state["ode_steps"])

    def _build_trainer(self) -> KiNETGANTrainer:
        assert self.transformer is not None and self.sampler is not None
        rng = seeded_rng(self.config.seed)
        generator = _ODEGenerator(
            noise_dim=self.config.embedding_dim,
            condition_dim=self.sampler.condition_dim,
            transformer=self.transformer,
            hidden_dims=self.config.generator_dims,
            gumbel_tau=self.config.gumbel_tau,
            ode_steps=self.ode_steps,
            rng=rng,
        )
        discriminator = _ODEDiscriminator(
            data_dim=self.transformer.output_dim,
            condition_dim=self.sampler.condition_dim,
            hidden_dims=self.config.discriminator_dims,
            dropout=self.config.dropout,
            ode_steps=self.ode_steps,
            rng=rng,
        )
        return KiNETGANTrainer(
            config=self.config,
            transformer=self.transformer,
            sampler=self.sampler,
            reasoner=None,
            generator=generator,
            discriminator=discriminator,
        )
