"""The synthesizer interface shared by KiNETGAN and every baseline."""

from __future__ import annotations

import numpy as np

from repro.tabular.table import Table

__all__ = ["Synthesizer", "require_row_count"]


def require_row_count(n) -> int:
    """``n`` as a positive ``int``: bools and non-integers (``3.0``) raise
    ``TypeError`` -- the HTTP parser's rule, plus numpy integers."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer row count, got {type(n).__name__} {n!r}")
    if n <= 0:
        raise ValueError("n must be positive")
    return int(n)


class Synthesizer:
    """Base class for tabular synthesizers.

    Subclasses implement :meth:`fit` and :meth:`sample`.  The evaluation
    harness (fidelity, utility, privacy) only depends on this interface, so
    KiNETGAN and the five baselines are interchangeable there.
    """

    #: Human-readable model name used in result tables.
    name: str = "synthesizer"

    def fit(self, table: Table, **kwargs) -> "Synthesizer":
        """Fit the synthesizer on a real table and return ``self``."""
        raise NotImplementedError

    def sample(self, n: int, conditions: dict | None = None,
               rng: np.random.Generator | None = None) -> Table:
        """Draw ``n`` synthetic rows.

        ``conditions`` optionally fixes values of conditional attributes
        (only supported by conditional models; unconditional baselines raise
        ``ValueError`` when conditions are passed).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Artifact-state protocol (repro.serve)
    # ------------------------------------------------------------------ #
    def artifact_state(self) -> dict:
        """Picklable non-network state of a fitted model.

        Together with :meth:`artifact_networks` this is the contract behind
        :func:`repro.serve.save_model` / :func:`repro.serve.load_model`: the
        state dict must contain everything (config, transformer / sampler /
        knowledge state) needed so that ``restore_state(state)`` followed by
        loading the network weights reproduces ``sample()`` bit-for-bit.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the artifact-state protocol"
        )

    def restore_state(self, state: dict) -> None:
        """Rebuild a fitted model (minus network weights) from ``state``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the artifact-state protocol"
        )

    def artifact_networks(self) -> dict[str, object]:
        """Named :class:`~repro.neural.network.Sequential` networks to persist.

        Valid on a fitted *or* restored model; may be empty for models whose
        whole state lives in :meth:`artifact_state` (e.g. the independent
        marginal sampler).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the artifact-state protocol"
        )

    def _require_fitted(self, flag: bool) -> None:
        if not flag:
            raise RuntimeError(f"{type(self).__name__}.sample() called before fit()")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
