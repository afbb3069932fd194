"""CTGAN baseline (Xu et al., "Modeling Tabular Data using Conditional GAN").

KiNETGAN builds directly on the CTGAN recipe -- mode-specific normalisation,
a conditional generator, training-by-sampling and a condition cross-entropy
penalty -- and adds the knowledge-guided discriminator and uniform minority
boosting on top.  The CTGAN baseline is therefore expressed as KiNETGAN with
those two additions switched off, which both matches the lineage described
in the paper (section II) and makes the knowledge ablation exact.
"""

from __future__ import annotations

from repro.core.config import KiNETGANConfig
from repro.core.synthesizer import KiNETGAN

__all__ = ["CTGAN"]


class CTGAN(KiNETGAN):
    """Conditional tabular GAN without knowledge guidance."""

    name = "CTGAN"
    knowledge_free = True

    def __init__(self, config: KiNETGANConfig | None = None) -> None:
        config = config if config is not None else KiNETGANConfig()
        config = config.with_overrides(
            use_knowledge_discriminator=False,
            lambda_knowledge=0.0,
            # CTGAN samples conditions by log-frequency only; the paper's
            # uniform minority boosting is a KiNETGAN addition.
            uniform_probability=0.0,
        )
        super().__init__(config)
