"""Tests for the FedAvg aggregation rule and the round-metric mean."""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated.aggregation import safe_mean
from repro.federated.parameters import StateCodec, weighted_average


def make_state(seed: int = 0, scale: float = 1.0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "layers.0.weight": scale * rng.normal(size=(3, 2)),
        "layers.0.bias": scale * rng.normal(size=(2,)),
    }


class TestAggregationRules:
    def test_fedavg_matches_weighted_average(self):
        updates = [make_state(i) for i in range(3)]
        codec = StateCodec(updates[0])
        rows = np.stack([codec.encode(update) for update in updates])
        aggregated = codec.decode(weighted_average(rows, [10.0, 20.0, 70.0]))
        for key in aggregated:
            expected = 0.1 * updates[0][key] + 0.2 * updates[1][key] + 0.7 * updates[2][key]
            np.testing.assert_allclose(aggregated[key], expected)

    def test_incompatible_layouts_rejected(self):
        """A state laid out differently from the round's codec never reaches
        the result matrix FedAvg reduces: the codec rejects it on both the
        store (encode) and the load (decode_into) side."""
        good = make_state()
        bad = {"other": np.zeros(3)}
        codec = StateCodec(good)
        with pytest.raises(ValueError):
            codec.encode(bad)
        with pytest.raises(ValueError):
            codec.decode_into(codec.encode(good), bad)


class TestSafeMean:
    def test_mean_of_finite_values(self):
        assert safe_mean([1.0, 3.0]) == pytest.approx(2.0)

    def test_nans_are_ignored(self):
        assert safe_mean([float("nan"), 4.0]) == pytest.approx(4.0)

    def test_all_nan_or_empty_degrade_quietly_to_nan(self):
        import math
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert math.isnan(safe_mean([]))
            assert math.isnan(safe_mean([float("nan"), float("nan")]))
            assert math.isnan(safe_mean([float("inf")]))
