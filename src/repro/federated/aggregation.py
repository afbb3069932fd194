"""Server-side aggregation of client updates.

The aggregation rule operates on client *updates* (state dictionaries, see
:mod:`repro.federated.parameters`): :func:`fedavg_aggregate` is the
example-count-weighted mean of McMahan et al.  :func:`safe_mean` averages
the per-client round metrics.
"""

from __future__ import annotations

import numpy as np

from repro.federated.parameters import StateDict, weighted_average

__all__ = ["fedavg_aggregate", "safe_mean"]


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


def fedavg_aggregate(updates: list[StateDict], weights: list[float] | None = None) -> StateDict:
    """Example-count-weighted average of client updates (FedAvg)."""
    return weighted_average(updates, weights)
