"""Renyi differential-privacy accounting for (subsampled) Gaussian mechanisms.

Adding epsilons linearly (the standalone :class:`CompositionAccountant` in
:mod:`repro.privacy.dp`) is far too loose for iterative training, where a
subsampled Gaussian mechanism repeats every step or round (DP-SGD,
DP-FedAvg in :mod:`repro.federated.dp`).  This module implements the
standard Renyi-DP (moments) accountant:

* :func:`rdp_gaussian` -- RDP curve of the plain Gaussian mechanism.
* :func:`rdp_subsampled_gaussian` -- the Mironov et al. upper bound for the
  Poisson-subsampled Gaussian mechanism (the DP-SGD setting).
* :func:`rdp_to_epsilon` -- conversion from an RDP curve to an
  ``(epsilon, delta)`` guarantee.
* :class:`RDPAccountant` -- tracks many heterogeneous mechanism invocations
  and reports the total budget; :class:`MomentsAccountant` is an alias using
  the historical name from Abadi et al.

Only ``numpy`` / ``scipy`` are required; the computation follows the widely
used reference implementations (TensorFlow Privacy / Opacus) restricted to
integer Renyi orders, which is accurate enough for the training regimes this
package runs.  ``scipy.special`` (about 18 MB resident) is imported on the
first subsampled-Gaussian evaluation rather than with this module, so
processes that load the federated layers but never run a DP round do not
pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_ORDERS",
    "rdp_gaussian",
    "rdp_subsampled_gaussian",
    "rdp_to_epsilon",
    "dp_sgd_epsilon",
    "RDPAccountant",
    "MomentsAccountant",
]

#: Integer Renyi orders the accountant evaluates.  The optimum order for the
#: usual (sigma, q, steps, delta) regimes of this package lies well inside
#: this list.
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 64)) + (72, 96, 128, 256, 512)


def _validate_sigma(noise_multiplier: float) -> None:
    if noise_multiplier <= 0:
        raise ValueError("noise_multiplier must be positive")


def rdp_gaussian(noise_multiplier: float, orders: tuple[int, ...] = DEFAULT_ORDERS) -> np.ndarray:
    """RDP of the Gaussian mechanism with standard deviation ``sigma * sensitivity``.

    For the Gaussian mechanism, ``RDP(alpha) = alpha / (2 sigma^2)`` exactly.
    """
    _validate_sigma(noise_multiplier)
    alphas = np.asarray(orders, dtype=np.float64)
    return alphas / (2.0 * noise_multiplier**2)


def _log_add(a: float, b: float) -> float:
    """Numerically stable ``log(exp(a) + exp(b))``."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    high, low = (a, b) if a > b else (b, a)
    return high + math.log1p(math.exp(low - high))


def _rdp_subsampled_gaussian_one(q: float, sigma: float, alpha: int) -> float:
    """RDP upper bound of the Poisson-subsampled Gaussian at integer order ``alpha``.

    Implements the binomial-expansion bound of Mironov, Talwar & Zhang
    (2019), eq. (3): the log of
    ``sum_k C(alpha, k) (1-q)^(alpha-k) q^k exp(k(k-1)/(2 sigma^2))``
    divided by ``alpha - 1``.
    """
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return alpha / (2.0 * sigma**2)
    from scipy import special

    log_sum = -math.inf
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    for k in range(alpha + 1):
        log_term = (
            float(
                special.gammaln(alpha + 1)
                - special.gammaln(k + 1)
                - special.gammaln(alpha - k + 1)
            )
            + k * log_q
            + (alpha - k) * log_1mq
            + (k * (k - 1)) / (2.0 * sigma**2)
        )
        log_sum = _log_add(log_sum, log_term)
    return log_sum / (alpha - 1)


def rdp_subsampled_gaussian(
    noise_multiplier: float,
    sample_rate: float,
    steps: int = 1,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
) -> np.ndarray:
    """RDP curve of ``steps`` compositions of the subsampled Gaussian mechanism.

    Parameters
    ----------
    noise_multiplier:
        Ratio of the noise standard deviation to the clipping norm (the
        ``sigma`` of DP-SGD).
    sample_rate:
        Poisson sampling probability ``q`` (batch size / dataset size).
    steps:
        Number of mechanism invocations (RDP composes additively).
    """
    _validate_sigma(noise_multiplier)
    if not 0.0 <= sample_rate <= 1.0:
        raise ValueError("sample_rate must be in [0, 1]")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    per_step = np.asarray(
        [
            _rdp_subsampled_gaussian_one(sample_rate, noise_multiplier, int(alpha))
            for alpha in orders
        ],
        dtype=np.float64,
    )
    return per_step * steps


def rdp_to_epsilon(
    rdp: np.ndarray, delta: float, orders: tuple[int, ...] = DEFAULT_ORDERS
) -> tuple[float, int]:
    """Convert an RDP curve to an ``(epsilon, delta)`` guarantee.

    Uses the standard conversion ``eps = rdp(alpha) + log(1/delta)/(alpha-1)``
    minimised over the evaluated orders.  Returns ``(epsilon, best_order)``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    rdp = np.asarray(rdp, dtype=np.float64)
    alphas = np.asarray(orders, dtype=np.float64)
    if rdp.shape != alphas.shape:
        raise ValueError("rdp and orders must have the same length")
    epsilons = rdp + math.log(1.0 / delta) / (alphas - 1.0)
    best = int(np.argmin(epsilons))
    return float(epsilons[best]), int(alphas[best])


def dp_sgd_epsilon(
    noise_multiplier: float,
    sample_rate: float,
    steps: int,
    delta: float,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
) -> float:
    """Epsilon spent by ``steps`` DP-SGD updates (the usual one-call helper)."""
    rdp = rdp_subsampled_gaussian(noise_multiplier, sample_rate, steps, orders)
    epsilon, _ = rdp_to_epsilon(rdp, delta, orders)
    return epsilon


@dataclass
class _MechanismRecord:
    """One recorded mechanism family: (sigma, q) composed ``steps`` times."""

    noise_multiplier: float
    sample_rate: float
    steps: int


class RDPAccountant:
    """Tracks Gaussian-mechanism invocations and reports the RDP budget.

    Typical DP-SGD / DP-FedAvg use::

        accountant = RDPAccountant()
        for _ in range(steps):
            accountant.step(noise_multiplier=1.1, sample_rate=256 / 60_000)
        epsilon = accountant.get_epsilon(delta=1e-5)
    """

    def __init__(self, orders: tuple[int, ...] = DEFAULT_ORDERS) -> None:
        if len(orders) < 2 or any(int(o) != o or o < 2 for o in orders):
            raise ValueError("orders must be integers >= 2")
        self.orders = tuple(int(o) for o in orders)
        self._records: list[_MechanismRecord] = []

    # ------------------------------------------------------------------ #
    def step(
        self, noise_multiplier: float, sample_rate: float = 1.0, steps: int = 1
    ) -> None:
        """Record ``steps`` invocations of a (subsampled) Gaussian mechanism."""
        _validate_sigma(noise_multiplier)
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if steps <= 0:
            raise ValueError("steps must be positive")
        # Merge with an existing record of the same mechanism when possible.
        for record in self._records:
            if (
                record.noise_multiplier == noise_multiplier
                and record.sample_rate == sample_rate
            ):
                record.steps += steps
                return
        self._records.append(_MechanismRecord(noise_multiplier, sample_rate, steps))

    @property
    def total_steps(self) -> int:
        return sum(record.steps for record in self._records)

    def total_rdp(self) -> np.ndarray:
        """The composed RDP curve over all recorded mechanisms."""
        total = np.zeros(len(self.orders), dtype=np.float64)
        for record in self._records:
            total += rdp_subsampled_gaussian(
                record.noise_multiplier, record.sample_rate, record.steps, self.orders
            )
        return total

    def get_epsilon(self, delta: float) -> float:
        """The (epsilon, delta)-DP guarantee implied by everything recorded."""
        if not self._records:
            return 0.0
        epsilon, _ = rdp_to_epsilon(self.total_rdp(), delta, self.orders)
        return epsilon

    def get_epsilon_and_order(self, delta: float) -> tuple[float, int]:
        """Epsilon plus the Renyi order at which the conversion is tightest."""
        if not self._records:
            return 0.0, self.orders[0]
        return rdp_to_epsilon(self.total_rdp(), delta, self.orders)

    def reset(self) -> None:
        self._records = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RDPAccountant(mechanisms={len(self._records)}, "
            f"total_steps={self.total_steps})"
        )


#: Historical name from Abadi et al. (2016); the moments accountant and the
#: RDP accountant are the same object up to a change of variables.
MomentsAccountant = RDPAccountant
