"""Tests for the learning-rate schedulers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.neural.layers import Dense
from repro.neural.network import Sequential
from repro.neural.optimizers import SGD
from repro.neural.schedulers import CosineAnnealing, ExponentialDecay, LinearWarmup, StepDecay


def make_optimizer(lr: float = 0.1) -> SGD:
    network = Sequential([Dense(2, 1)])
    network.consolidate()
    return SGD(network, lr=lr)


class TestStepDecay:
    def test_rate_halves_at_each_boundary(self):
        optimizer = make_optimizer(0.1)
        scheduler = StepDecay(optimizer, step_size=2, gamma=0.5)
        rates = [scheduler.step() for _ in range(6)]
        assert rates[0] == pytest.approx(0.1)   # step 1
        assert rates[1] == pytest.approx(0.05)  # step 2 -> one decay
        assert rates[3] == pytest.approx(0.025)
        assert rates[5] == pytest.approx(0.0125)
        assert optimizer.lr == pytest.approx(rates[-1])

    def test_validation(self):
        with pytest.raises(ValueError):
            StepDecay(make_optimizer(), step_size=0)
        with pytest.raises(ValueError):
            StepDecay(make_optimizer(), gamma=0.0)


class TestExponentialDecay:
    def test_geometric_sequence(self):
        scheduler = ExponentialDecay(make_optimizer(1.0), gamma=0.9)
        rates = [scheduler.step() for _ in range(3)]
        np.testing.assert_allclose(rates, [0.9, 0.81, 0.729])

    def test_gamma_one_keeps_rate_constant(self):
        scheduler = ExponentialDecay(make_optimizer(0.05), gamma=1.0)
        for _ in range(5):
            assert scheduler.step() == pytest.approx(0.05)


class TestCosineAnnealing:
    def test_decays_monotonically_to_min_lr(self):
        optimizer = make_optimizer(0.2)
        scheduler = CosineAnnealing(optimizer, total_steps=10, min_lr=1e-4)
        rates = [scheduler.step() for _ in range(10)]
        assert all(earlier >= later for earlier, later in zip(rates, rates[1:]))
        assert rates[-1] == pytest.approx(1e-4, rel=1e-6)

    def test_rate_stays_at_floor_after_schedule_ends(self):
        scheduler = CosineAnnealing(make_optimizer(0.2), total_steps=4, min_lr=1e-3)
        for _ in range(8):
            rate = scheduler.step()
        assert rate == pytest.approx(1e-3, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineAnnealing(make_optimizer(), total_steps=0)
        with pytest.raises(ValueError):
            CosineAnnealing(make_optimizer(0.01), total_steps=5, min_lr=0.1)


class TestLinearWarmup:
    def test_ramps_from_factor_to_full_rate(self):
        scheduler = LinearWarmup(make_optimizer(0.1), warmup_steps=5, warmup_factor=0.1)
        rates = [scheduler.step() for _ in range(5)]
        assert rates[0] < rates[-1]
        assert rates[-1] == pytest.approx(0.1)

    def test_holds_rate_after_warmup_without_inner_schedule(self):
        scheduler = LinearWarmup(make_optimizer(0.1), warmup_steps=3)
        for _ in range(6):
            rate = scheduler.step()
        assert rate == pytest.approx(0.1)

    def test_delegates_to_inner_schedule_after_warmup(self):
        optimizer = make_optimizer(0.1)
        inner = ExponentialDecay(optimizer, gamma=0.5)
        scheduler = LinearWarmup(optimizer, warmup_steps=2, warmup_factor=0.5, after=inner)
        rates = [scheduler.step() for _ in range(4)]
        assert rates[1] == pytest.approx(0.1)   # end of warm-up
        assert rates[2] == pytest.approx(0.05)  # first decayed step
        assert rates[3] == pytest.approx(0.025)

    def test_inner_scheduler_must_share_the_optimizer(self):
        with pytest.raises(ValueError):
            LinearWarmup(make_optimizer(), after=ExponentialDecay(make_optimizer()))


@given(
    lr=st.floats(min_value=1e-4, max_value=1.0),
    gamma=st.floats(min_value=0.5, max_value=1.0),
    steps=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=30, deadline=None)
def test_rates_remain_positive_and_bounded_by_initial(lr, gamma, steps):
    """Property: decaying schedulers never exceed the initial rate or reach zero."""
    scheduler = ExponentialDecay(make_optimizer(lr), gamma=gamma)
    for _ in range(steps):
        rate = scheduler.step()
        assert 0.0 < rate <= lr + 1e-12
