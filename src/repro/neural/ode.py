"""A fixed-step neural ODE block.

The OCTGAN baseline (Kim et al., WWW 2021) replaces parts of the CTGAN
generator / discriminator with neural-ODE layers.  This module provides a
small, explicit-Euler ODE block: the hidden state is integrated through a
learned vector field ``f(h, t)`` for a fixed number of steps, and the
backward pass simply back-propagates through the unrolled steps (discretise-
then-optimise), which is exact for the discretisation we use.
"""

from __future__ import annotations

import numpy as np

from repro.neural.layers import Dense, Layer, Tanh
from repro.neural.network import Sequential

__all__ = ["ODEBlock"]


class ODEBlock(Layer):
    """Explicit-Euler neural ODE layer ``h(1) = h(0) + sum_k dt * f([h_k, t_k])``.

    The vector field is a two-layer tanh MLP over the concatenation of the
    current state and the scalar time, matching the lightweight ODE functions
    used in OCT-GAN.
    """

    def __init__(
        self,
        dim: int,
        hidden_dim: int = 64,
        num_steps: int = 4,
        rng: np.random.Generator | None = None,
    ) -> None:
        if dim <= 0 or hidden_dim <= 0:
            raise ValueError("dim and hidden_dim must be positive")
        if num_steps < 1:
            raise ValueError("num_steps must be at least 1")
        rng = rng if rng is not None else np.random.default_rng()
        self.dim = dim
        self.num_steps = num_steps
        self.dt = 1.0 / num_steps
        self.field = Sequential(
            [
                Dense(dim + 1, hidden_dim, rng=rng, init="he"),
                Tanh(),
                Dense(hidden_dim, dim, rng=rng, init="glorot"),
            ]
        )
        self._trajectory: list[np.ndarray] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.shape[1] != self.dim:
            raise ValueError(f"ODEBlock expected {self.dim} features, got {x.shape[1]}")
        h = x
        trajectory = [h]
        for step in range(self.num_steps):
            t = np.full((h.shape[0], 1), step * self.dt)
            dh = self.field.forward(np.concatenate([h, t], axis=1), training=training)
            h = h + self.dt * dh
            trajectory.append(h)
        # Only training passes are differentiated; an eval forward keeps no state.
        self._trajectory = trajectory if training else None
        return h

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._trajectory is None:
            raise RuntimeError("backward called before forward")
        grad_h = grad_output
        # Walk the unrolled Euler steps in reverse.  Each step needs its own
        # forward re-evaluation of the field so that cached activations match
        # the step being differentiated (the Sequential only caches the most
        # recent forward pass).
        for step in reversed(range(self.num_steps)):
            h_prev = self._trajectory[step]
            t = np.full((h_prev.shape[0], 1), step * self.dt)
            self.field.forward(np.concatenate([h_prev, t], axis=1), training=True)
            grad_field_out = self.dt * grad_h
            grad_field_in = self.field.backward(grad_field_out)
            grad_h = grad_h + grad_field_in[:, : self.dim]
        self._trajectory = None
        return grad_h

    @property
    def params(self) -> list[np.ndarray]:
        return [p for p, _ in self.field.parameters()]

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for _, g in self.field.parameters()]

    def zero_grad(self) -> None:
        self.field.zero_grad()

    def bind_workspace(self, workspace) -> None:
        self._ws = workspace
        for layer in self.field.layers:
            layer.bind_workspace(workspace)

    def arena_entries(self) -> list[tuple[str, object, str, str | None]]:
        return [
            (f"field.layers.{i}.{key}", owner, attr, grad_attr)
            for i, layer in enumerate(self.field.layers)
            for key, owner, attr, grad_attr in layer.arena_entries()
        ]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"field.{key}": value for key, value in self.field.state_dict().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.field.load_state_dict(
            {
                key[len("field.") :]: value
                for key, value in state.items()
                if key.startswith("field.")
            }
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ODEBlock(dim={self.dim}, steps={self.num_steps})"
