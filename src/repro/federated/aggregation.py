"""Round-summary aggregation: :func:`safe_mean` averages per-client metrics.

The parameter aggregation rule itself -- the example-count-weighted FedAvg
mean of McMahan et al. -- is :func:`repro.federated.parameters.weighted_average`,
which reduces the rows of a round's flat result matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = ["safe_mean"]


def safe_mean(values: list[float]) -> float:
    """Mean of the finite entries; quiet NaN when none are usable.

    Round summaries average per-client metrics that may be missing or NaN
    (clients that report nothing usable); plain ``np.mean``/``np.nanmean``
    would emit a ``RuntimeWarning`` on an all-NaN or empty round, so this
    filters first and degrades to NaN silently.
    """
    finite = [value for value in values if np.isfinite(value)]
    if not finite:
        return float("nan")
    return float(np.mean(finite))

