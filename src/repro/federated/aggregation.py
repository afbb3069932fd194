"""Server-side aggregation rules and simulated secure aggregation.

The aggregation rules operate on client *updates* (state dictionaries, see
:mod:`repro.federated.parameters`):

* :func:`fedavg_aggregate` -- example-count-weighted mean (McMahan et al.).
* :func:`trimmed_mean_aggregate` -- coordinate-wise trimmed mean, robust to a
  bounded fraction of byzantine clients.
* :func:`median_aggregate` -- coordinate-wise median.

:class:`SecureAggregationSession` simulates the pairwise-masking protocol of
Bonawitz et al.: every pair of clients derives a shared mask from a common
seed, one adds it and the other subtracts it, so individual masked updates
look random to the server while their *sum* equals the sum of the true
updates.  The paper's future-work section calls for exactly this kind of
secure aggregation when federating KiNETGAN training.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.federated.parameters import StateCodec, StateDict, weighted_average

__all__ = [
    "fedavg_aggregate",
    "trimmed_mean_aggregate",
    "median_aggregate",
    "safe_mean",
    "SecureAggregationSession",
]


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


def _stack_updates(updates: list[StateDict]) -> tuple[np.ndarray, StateCodec]:
    """Pack updates into a ``(clients, total_params)`` matrix via the codec."""
    if not updates:
        raise ValueError("need at least one update")
    codec = StateCodec(updates[0])
    return codec.encode_many(updates), codec


def trimmed_mean_aggregate(updates: list[StateDict], trim_fraction: float = 0.1) -> StateDict:
    """Coordinate-wise trimmed mean over client updates.

    ``trim_fraction`` of the highest and of the lowest values are discarded
    per coordinate before averaging; with ``trim_fraction = 0`` this is the
    unweighted mean.
    """
    if not 0.0 <= trim_fraction < 0.5:
        raise ValueError("trim_fraction must be in [0, 0.5)")
    stacked, codec = _stack_updates(updates)
    n_clients = stacked.shape[0]
    trim = int(np.floor(trim_fraction * n_clients))
    if 2 * trim >= n_clients:
        trim = max(0, (n_clients - 1) // 2)
    ordered = np.sort(stacked, axis=0)
    kept = ordered[trim : n_clients - trim] if trim else ordered
    return codec.decode(kept.mean(axis=0))


def median_aggregate(updates: list[StateDict]) -> StateDict:
    """Coordinate-wise median over client updates (robust, unweighted)."""
    stacked, codec = _stack_updates(updates)
    return codec.decode(np.median(stacked, axis=0))


class SecureAggregationSession:
    """Simulated pairwise-masking secure aggregation.

    The session is created for a fixed set of participants and a parameter
    layout (taken from a template state).  Each client masks its update with
    the sum of pairwise masks it shares with every other participant; the
    server can only recover the *sum* of updates, provided every participant
    submits.  This is an in-process simulation of the cryptographic protocol
    -- the point is to exercise the data flow (the server never handles a
    raw update) and the cancellation property, not to provide real
    cryptography.
    """

    def __init__(self, client_ids: list[str], template: StateDict, seed: int = 0) -> None:
        if len(client_ids) < 2:
            raise ValueError("secure aggregation needs at least two participants")
        if len(set(client_ids)) != len(client_ids):
            raise ValueError("client ids must be unique")
        self.client_ids = list(client_ids)
        self._codec = StateCodec(template)
        self._dim = self._codec.dim
        self._seed = seed
        self._masked: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    def _pair_mask(self, first: str, second: str) -> np.ndarray:
        """The mask shared by an (ordered) pair of clients."""
        low, high = sorted((first, second))
        digest = hashlib.sha256(f"{low}|{high}|{self._seed}".encode()).digest()
        pair_seed = int.from_bytes(digest[:8], "big")
        rng = np.random.default_rng(pair_seed)
        return rng.normal(0.0, 1.0, size=self._dim)

    def mask_update(self, client_id: str, update: StateDict) -> np.ndarray:
        """The masked flat vector ``client_id`` would send to the server."""
        if client_id not in self.client_ids:
            raise KeyError(f"unknown client {client_id!r}")
        try:
            masked = self._codec.encode(update)
        except ValueError as error:
            raise ValueError("update layout does not match the session template") from error
        for other in self.client_ids:
            if other == client_id:
                continue
            mask = self._pair_mask(client_id, other)
            if client_id < other:
                masked += mask
            else:
                masked -= mask
        return masked

    def submit(self, client_id: str, update: StateDict) -> None:
        """Mask and record a client's update."""
        self._masked[client_id] = self.mask_update(client_id, update)

    def aggregate(self) -> StateDict:
        """Sum of all submitted updates (masks cancel); requires all clients."""
        missing = [cid for cid in self.client_ids if cid not in self._masked]
        if missing:
            raise RuntimeError(
                "secure aggregation cannot complete: missing submissions from "
                + ", ".join(missing)
            )
        total = np.zeros(self._dim, dtype=np.float64)
        for masked in self._masked.values():
            total += masked
        return self._codec.decode(total)

    def aggregate_mean(self) -> StateDict:
        """The unweighted mean of all submitted updates."""
        total = self.aggregate()
        return self._codec.decode(self._codec.encode(total) / len(self.client_ids))
