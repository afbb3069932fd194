"""Gradient-descent optimizers.

An optimizer is bound to one consolidated
:class:`~repro.neural.network.Sequential` -- ``Adam(network, lr=...)`` --
and updates its :class:`~repro.neural.arena.ParamArena` *in place* on every
:meth:`Optimizer.step`.  Building one on a network without an arena raises
``ValueError``; call ``network.consolidate()`` first.

Each step is a *fused* kernel: one vectorized in-place pass over the flat
parameter/gradient/moment buffers through a scratch pair grown on the first
step (and dropped by :meth:`Optimizer.release_scratch` when a fit returns),
so the update costs O(1) numpy dispatches and zero temporaries regardless
of how many tensors the network has.  Arena gap regions (non-trainable
buffers such as BatchNorm running statistics) always carry zero gradients
and zero moments, so the full-buffer updates leave them bitwise unchanged.

State (momentum buffers, Adam moments) is one flat buffer per kind, the
size of the arena.  ``state_dict`` exposes it as positional per-tensor
lists (views from :meth:`ParamArena.views_into`, copied), the layout the
federated runtime round-trips.

The step reads ``network.arena`` each time, so an optimizer pickled with
its network -- plainly, which re-packs the network's arena on load, or by
the view-keeping install of :class:`~repro.runtime.ProcessExecutor` --
keeps stepping the network it came with.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "SGD", "RMSprop", "Adam"]


class Optimizer:
    """Base optimizer bound to one consolidated network."""

    #: Names of the per-parameter state buffers, one flat buffer each.
    STATE: tuple[str, ...] = ()

    def __init__(self, network, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        arena = getattr(network, "arena", None)
        if arena is None:
            raise ValueError(
                "an optimizer binds a consolidated Sequential; call network.consolidate() first"
            )
        self.network = network
        self.lr = lr
        self._state = {name: np.zeros(arena.size, dtype=arena.dtype) for name in self.STATE}
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Reset the network's gradient buffer to zero."""
        self.network.arena.grads.fill(0.0)

    def _scratch_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        if self._scratch is None:
            arena = self.network.arena
            self._scratch = (
                np.empty(arena.size, dtype=arena.dtype),
                np.empty(arena.size, dtype=arena.dtype),
            )
        return self._scratch

    def release_scratch(self) -> None:
        """Drop the step's scratch pair; the next step regrows it.

        The pair holds nothing between steps, so a fit releases it when it
        returns (see ``KiNETGANTrainer.fit``).  Moments are state and stay.
        """
        self._scratch = None

    # ------------------------------------------------------------------ #
    # Optimizer state is positionally keyed (like the parameters), so it
    # can be shipped across processes and restored onto another optimizer
    # bound to the same architecture -- the federated runtime round-trips
    # it as part of a site's per-round delta.
    # ------------------------------------------------------------------ #
    def _state_buffers(self) -> dict[str, list[np.ndarray]]:
        """The per-parameter state views, keyed by buffer name."""
        arena = self.network.arena
        return {name: arena.views_into(flat) for name, flat in self._state.items()}

    def state_dict(self) -> dict:
        """A picklable snapshot of the optimizer's mutable state."""
        return {
            name: [np.array(buffer, copy=True) for buffer in buffers]
            for name, buffers in self._state_buffers().items()
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        for name, buffers in self._state_buffers().items():
            if name not in state:
                raise KeyError(f"missing optimizer state {name!r}")
            if len(state[name]) != len(buffers):
                raise ValueError(f"optimizer state {name!r} has the wrong length")
            for buffer, value in zip(buffers, state[name]):
                np.copyto(buffer, value)


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    STATE = ("velocity",)

    def __init__(self, network, lr: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(network, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum

    def step(self) -> None:
        arena = self.network.arena
        param = arena.data
        scratch, _ = self._scratch_buffers()
        update = arena.grads
        if self.momentum:
            vel = self._state["velocity"]
            np.multiply(vel, self.momentum, out=vel)
            np.add(vel, update, out=vel)
            update = vel
        np.multiply(update, self.lr, out=scratch)
        np.subtract(param, scratch, out=param)


class RMSprop(Optimizer):
    """RMSprop with an exponentially decayed squared-gradient average."""

    STATE = ("square_avg",)

    def __init__(self, network, lr: float = 0.001, rho: float = 0.9, eps: float = 1e-8) -> None:
        super().__init__(network, lr)
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        self.rho = rho
        self.eps = eps

    def step(self) -> None:
        arena = self.network.arena
        param, grad = arena.data, arena.grads
        s1, s2 = self._scratch_buffers()
        avg = self._state["square_avg"]
        np.multiply(avg, self.rho, out=avg)
        np.multiply(grad, grad, out=s1)
        np.multiply(s1, 1.0 - self.rho, out=s1)
        np.add(avg, s1, out=avg)
        np.multiply(grad, self.lr, out=s1)
        np.sqrt(avg, out=s2)
        np.add(s2, self.eps, out=s2)
        np.divide(s1, s2, out=s1)
        np.subtract(param, s1, out=param)


class Adam(Optimizer):
    """Adam with bias-corrected first and second moments.

    The GAN-standard betas ``(0.5, 0.9)`` are used by the synthesizers in
    this package; the defaults here follow the original Adam paper.
    """

    STATE = ("m", "v")

    def __init__(
        self,
        network,
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(network, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._t = 0

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["t"] = self._t
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        if "t" not in state:
            raise KeyError("missing optimizer state 't'")
        self._t = int(state["t"])

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        arena = self.network.arena
        param, g = arena.data, arena.grads
        m, v = self._state["m"], self._state["v"]
        s1, s2 = self._scratch_buffers()
        np.multiply(m, self.beta1, out=m)
        np.multiply(g, 1.0 - self.beta1, out=s2)
        np.add(m, s2, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(g, g, out=s2)
        np.multiply(s2, 1.0 - self.beta2, out=s2)
        np.add(v, s2, out=v)
        np.divide(m, bias1, out=s2)
        np.multiply(s2, self.lr, out=s2)
        np.divide(v, bias2, out=s1)
        np.sqrt(s1, out=s1)
        np.add(s1, self.eps, out=s1)
        np.divide(s2, s1, out=s2)
        np.subtract(param, s2, out=param)
