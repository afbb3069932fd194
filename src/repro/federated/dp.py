"""Differentially-private federated averaging (DP-FedAvg).

The paper's future-work section proposes "developing secure aggregation
protocols and differential privacy mechanisms to protect individual data
contributions" when federating KiNETGAN.  This module implements the
client-level DP-FedAvg recipe of McMahan et al.:

1. every selected client's update (``local - global``, one flat row of the
   round's result matrix) is clipped to a fixed L2 norm,
2. the server adds Gaussian noise calibrated to that clipping norm to the
   *average* update,
3. the privacy loss is tracked with the Renyi-DP accountant
   (:mod:`repro.privacy.accountant`), with the client sampling fraction as
   the subsampling rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.federated.parameters import StateCodec
from repro.privacy.accountant import RDPAccountant

__all__ = ["DPFedAvgConfig", "DPFedAvgMechanism"]


@dataclass(frozen=True)
class DPFedAvgConfig:
    """Knobs of client-level DP-FedAvg.

    Attributes
    ----------
    clip_norm:
        Maximum L2 norm of a single client update (the sensitivity of the
        per-client contribution).
    noise_multiplier:
        Ratio of the Gaussian noise standard deviation to ``clip_norm``;
        larger means more privacy and more distortion.
    delta:
        Target delta of the reported ``(epsilon, delta)`` guarantee.
    """

    clip_norm: float = 1.0
    noise_multiplier: float = 1.0
    delta: float = 1e-5

    def __post_init__(self) -> None:
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")


class DPFedAvgMechanism:
    """Stateful clip-and-noise mechanism used by the federated server."""

    def __init__(self, config: DPFedAvgConfig, rng: np.random.Generator | None = None) -> None:
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng()
        self.accountant = RDPAccountant()
        self._clip_events: list[float] = []

    # ------------------------------------------------------------------ #
    def clip_rows(self, rows: np.ndarray, codec: StateCodec) -> None:
        """Clip each flat client update in ``rows`` to the configured norm.

        Rows are scaled in place and every pre-clipping norm is recorded;
        ``codec`` supplies the layout the norm is summed over
        (:meth:`StateCodec.l2_norm`).
        """
        for row in rows:
            norm = codec.l2_norm(row)
            self._clip_events.append(norm)
            if norm > self.config.clip_norm:
                row *= self.config.clip_norm / norm

    def noise_average(self, average: np.ndarray, n_clients: int) -> np.ndarray:
        """Add calibrated Gaussian noise to the flat averaged update.

        The averaged update of ``n_clients`` clipped contributions has
        per-client sensitivity ``clip_norm / n_clients``, so the noise
        standard deviation is ``noise_multiplier * clip_norm / n_clients``.
        """
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if self.config.noise_multiplier == 0:
            return average
        std = self.config.noise_multiplier * self.config.clip_norm / n_clients
        # Noise is drawn in float64 (one seeded stream regardless of model
        # dtype) and the sum rounds back to the update's own dtype, so a
        # float32 model's noised average stays float32.
        noise = self.rng.normal(0.0, std, size=average.shape)
        return (average + noise).astype(average.dtype, copy=False)

    def record_round(self, sample_rate: float) -> None:
        """Account one federated round at the given client-sampling rate."""
        if self.config.noise_multiplier > 0:
            self.accountant.step(
                noise_multiplier=self.config.noise_multiplier,
                sample_rate=sample_rate,
                steps=1,
            )

    # ------------------------------------------------------------------ #
    @property
    def clipped_fraction(self) -> float:
        """Fraction of observed client updates whose norm exceeded the clip."""
        if not self._clip_events:
            return 0.0
        clipped = sum(1 for norm in self._clip_events if norm > self.config.clip_norm)
        return clipped / len(self._clip_events)

    def epsilon(self) -> float:
        """The (epsilon, delta)-DP guarantee spent so far."""
        if self.config.noise_multiplier == 0:
            return float("inf")
        return self.accountant.get_epsilon(self.config.delta)
