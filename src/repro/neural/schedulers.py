"""Learning-rate schedulers for the optimizers in :mod:`repro.neural`.

GAN training on small tabular datasets is sensitive to the learning rate:
too high and the discriminator oscillates, too low and the knowledge signal
takes hundreds of epochs to bite.  These schedulers wrap an
:class:`~repro.neural.optimizers.Optimizer` and update its ``lr`` attribute
in place once per :meth:`step` (conventionally called once per epoch):

* :class:`StepDecay` -- multiply the rate by ``gamma`` every ``step_size`` steps.
* :class:`ExponentialDecay` -- multiply by ``gamma`` every step.
* :class:`CosineAnnealing` -- cosine curve from the initial rate down to
  ``min_lr`` over ``total_steps``.
* :class:`LinearWarmup` -- linear ramp from ``warmup_factor * lr`` to the
  initial rate over ``warmup_steps``, then delegate to an optional inner
  scheduler.
"""

from __future__ import annotations

import math

from repro.neural.optimizers import Optimizer

__all__ = ["Scheduler", "StepDecay", "ExponentialDecay", "CosineAnnealing", "LinearWarmup"]


class Scheduler:
    """Base class: tracks the step count and the optimizer's initial rate."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.initial_lr = float(optimizer.lr)
        self.step_count = 0

    def step(self) -> float:
        """Advance one step and return the new learning rate."""
        self.step_count += 1
        new_lr = self.compute_lr(self.step_count)
        if new_lr <= 0:
            raise ValueError("scheduler produced a non-positive learning rate")
        self.optimizer.lr = new_lr
        return new_lr

    def compute_lr(self, step: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class StepDecay(Scheduler):
    """Multiply the learning rate by ``gamma`` every ``step_size`` steps."""

    def __init__(self, optimizer: Optimizer, step_size: int = 30, gamma: float = 0.5) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        super().__init__(optimizer)
        self.step_size = step_size
        self.gamma = gamma

    def compute_lr(self, step: int) -> float:
        return self.initial_lr * self.gamma ** (step // self.step_size)


class ExponentialDecay(Scheduler):
    """Multiply the learning rate by ``gamma`` on every step."""

    def __init__(self, optimizer: Optimizer, gamma: float = 0.97) -> None:
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        super().__init__(optimizer)
        self.gamma = gamma

    def compute_lr(self, step: int) -> float:
        return self.initial_lr * self.gamma**step


class CosineAnnealing(Scheduler):
    """Cosine decay from the initial rate to ``min_lr`` over ``total_steps``."""

    def __init__(self, optimizer: Optimizer, total_steps: int, min_lr: float = 1e-6) -> None:
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if min_lr <= 0:
            raise ValueError("min_lr must be positive")
        super().__init__(optimizer)
        if min_lr > self.initial_lr:
            raise ValueError("min_lr must not exceed the optimizer's initial rate")
        self.total_steps = total_steps
        self.min_lr = min_lr

    def compute_lr(self, step: int) -> float:
        progress = min(step, self.total_steps) / self.total_steps
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.initial_lr - self.min_lr) * cosine


class LinearWarmup(Scheduler):
    """Linear warm-up for ``warmup_steps`` steps, then an optional inner schedule.

    The inner scheduler (if any) is stepped only after the warm-up completes,
    so its own step counter starts from the end of the warm-up.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        warmup_steps: int = 10,
        warmup_factor: float = 0.1,
        after: Scheduler | None = None,
    ) -> None:
        if warmup_steps <= 0:
            raise ValueError("warmup_steps must be positive")
        if not 0.0 < warmup_factor <= 1.0:
            raise ValueError("warmup_factor must be in (0, 1]")
        super().__init__(optimizer)
        if after is not None and after.optimizer is not optimizer:
            raise ValueError("inner scheduler must wrap the same optimizer")
        self.warmup_steps = warmup_steps
        self.warmup_factor = warmup_factor
        self.after = after

    def compute_lr(self, step: int) -> float:
        if step <= self.warmup_steps:
            start = self.initial_lr * self.warmup_factor
            return start + (self.initial_lr - start) * (step / self.warmup_steps)
        if self.after is None:
            return self.initial_lr
        return self.after.compute_lr(step - self.warmup_steps)
