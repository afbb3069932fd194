"""The simulators' weighted draw is numpy's ``Generator.choice(p=)``, exactly.

:func:`repro.datasets.base.mixture` resolves a weight mapping to a CDF once,
and the simulators draw with ``cdf.searchsorted(rng.random(), side="right")``.
That is the algorithm ``Generator.choice(len(p), p=p)`` runs after validating
``p``, so both must return the same index and leave the generator in the same
state.  The dataset goldens pin this on one numpy; these cases pin it on any.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.base import mixture


def _random_weights(rng: np.random.Generator) -> dict:
    """A seeded ``{key: weight}`` mapping: 1 to 40 keys, some weights tiny or zero."""
    size = int(rng.integers(1, 41))
    weights = rng.random(size) ** rng.choice([1.0, 4.0, 12.0])
    weights[rng.random(size) < 0.1] = 0.0
    if not weights.any():
        weights[rng.integers(size)] = 1.0
    return {f"k{i}": float(w) for i, w in enumerate(weights)}


@pytest.mark.parametrize("case", range(40))
def test_scalar_draws_match_generator_choice(case):
    weights = _random_weights(np.random.default_rng(case))
    keys, cdf = mixture(weights)
    values = np.asarray(list(weights.values()))
    p = values / values.sum()
    ours, numpy_own = np.random.default_rng(1000 + case), np.random.default_rng(1000 + case)
    for _ in range(200):
        drawn = cdf.searchsorted(ours.random(), side="right")
        assert drawn == numpy_own.choice(len(keys), p=p)
        assert keys[drawn] in weights
    assert ours.bit_generator.state == numpy_own.bit_generator.state


@pytest.mark.parametrize("case", range(20))
def test_sized_draws_match_generator_choice(case):
    weights = _random_weights(np.random.default_rng(500 + case))
    keys, cdf = mixture(weights)
    values = np.asarray(list(weights.values()))
    p = values / values.sum()
    ours, numpy_own = np.random.default_rng(case), np.random.default_rng(case)
    for size in (1, 7, 256):
        np.testing.assert_array_equal(
            cdf.searchsorted(ours.random(size), side="right"),
            numpy_own.choice(len(keys), size=size, p=p),
        )
    assert ours.bit_generator.state == numpy_own.bit_generator.state


def test_zero_weight_keys_are_never_drawn():
    keys, cdf = mixture({"a": 0.0, "b": 1.0, "c": 0.0, "d": 3.0, "e": 0.0})
    drawn = cdf.searchsorted(np.random.default_rng(0).random(10_000), side="right")
    assert {keys[i] for i in drawn} == {"b", "d"}
