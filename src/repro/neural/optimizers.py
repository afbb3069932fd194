"""Gradient-descent optimizers.

An optimizer is bound to a list of ``(param, grad)`` array pairs (typically
``Sequential.parameters()``) and updates the parameter arrays *in place* on
every :meth:`Optimizer.step`.  State (momentum buffers, Adam moments) is
keyed by position, so the bound parameter list must not change between steps.

When the bound parameters are exactly the views of one
:class:`~repro.neural.arena.ParamArena` (i.e. the network was consolidated
before the optimizer was built), ``step`` runs a *fused* kernel: one
vectorized in-place pass over the flat parameter/gradient/moment buffers
through a scratch pair grown on the first fused step (and dropped by
:meth:`Optimizer.release_scratch` when a fit returns), so the update costs
O(1) numpy dispatches and zero temporaries regardless of how many tensors
the network has.  The fused kernels replay the per-tensor element ops in
the same order and dtype, so results are bit-identical; the per-tensor
loop remains for unbound optimizers and as the fallback whenever the arena
views were detached.

Pickling: the flat moment buffers are registered with
:func:`~repro.neural.arena.register_flat`, like the arena's own buffers.
A view-keeping pickle (the resident-state install of
:class:`~repro.runtime.ProcessExecutor`) therefore carries an optimizer
across processes with its parameter list, per-tensor moment views and flat
moments still aliasing one another, and the fused kernels keep running
there.  A plain ``pickle.dumps`` detaches those views; the optimizer then
drops its arena binding and steps on the per-tensor loop.

Arena gap regions (non-trainable buffers such as BatchNorm running
statistics) always carry zero gradients and zero moments, so full-buffer
fused updates leave them bitwise unchanged -- except under weight decay,
which would inject ``wd * buffer`` there; those configurations fall back to
the per-tensor loop unless the arena has no gaps (``exact_cover``).
"""

from __future__ import annotations

import numpy as np

from repro.neural.arena import find_arena, register_flat

__all__ = ["Optimizer", "SGD", "RMSprop", "Adam"]


class Optimizer:
    """Base optimizer bound to parameter/gradient pairs."""

    def __init__(self, parameters: list[tuple[np.ndarray, np.ndarray]], lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        self.lr = lr
        for param, grad in self.parameters:
            if param.shape != grad.shape:
                raise ValueError("parameter and gradient shapes must match")
        self._arena = find_arena(self.parameters)
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None
        #: The flat state buffers, registered with ``register_flat``.
        self._flats: list[np.ndarray] = []

    def __setstate__(self, state: dict) -> None:
        # Unpickled flat buffers register again, so the optimizer pickles
        # with its views intact from the receiving process too.
        self.__dict__.update(state)
        for flat in self._flats:
            register_flat(flat)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Reset all bound gradient buffers to zero."""
        if self._fused_ready():
            self._arena.grads.fill(0.0)
            return
        for _param, grad in self.parameters:
            grad.fill(0.0)

    # ------------------------------------------------------------------ #
    # Fused (arena) machinery
    # ------------------------------------------------------------------ #
    def _fused_ready(self) -> bool:
        """Whether the fused flat-buffer kernels may run this step."""
        arena = self._arena
        if arena is None:
            return False
        if arena.intact:
            return True
        # A plain pickle detached the views from the arena buffers; the
        # per-tensor path stays correct on the detached arrays, so drop the
        # binding.
        self._arena = None
        return False

    def _zeros_like_params(self) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Per-parameter zero buffers for optimizer state.

        Arena-bound optimizers allocate one flat buffer and return views of
        it (second element), so fused kernels can update all moments in one
        pass while ``state_dict`` keeps its positional per-tensor layout.
        """
        arena = self._arena
        if arena is not None:
            flat = np.zeros(arena.size, dtype=arena.data.dtype)
            register_flat(flat)
            self._flats.append(flat)
            return arena.views_into(flat), flat
        return [np.zeros_like(p) for p, _ in self.parameters], None

    def _scratch_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        if self._scratch is None:
            size = self._arena.size
            dtype = self._arena.data.dtype
            self._scratch = (
                np.empty(size, dtype=dtype),
                np.empty(size, dtype=dtype),
            )
        return self._scratch

    def release_scratch(self) -> None:
        """Drop the fused kernels' scratch pair; the next fused step regrows it.

        The pair holds nothing between steps, so a fit releases it when it
        returns (see ``KiNETGANTrainer.fit``).  Moments are state and stay.
        """
        self._scratch = None

    # ------------------------------------------------------------------ #
    # Optimizer state is positionally keyed (like the buffers themselves),
    # so it can be shipped across processes and restored onto another
    # optimizer bound to the same parameter list -- the federated runtime
    # round-trips it as part of a site's per-round delta.
    # ------------------------------------------------------------------ #
    def _state_buffers(self) -> dict[str, list[np.ndarray]]:
        """The per-parameter state buffer lists, keyed by buffer name."""
        return {}

    def state_dict(self) -> dict:
        """A picklable snapshot of the optimizer's mutable state."""
        return {
            name: [np.array(buffer, copy=True) for buffer in buffers]
            for name, buffers in self._state_buffers().items()
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Buffers are copied into the existing arrays, so the binding to the
        optimizer's parameter list is preserved.
        """
        for name, buffers in self._state_buffers().items():
            if name not in state:
                raise KeyError(f"missing optimizer state {name!r}")
            if len(state[name]) != len(buffers):
                raise ValueError(f"optimizer state {name!r} has the wrong length")
            for buffer, value in zip(buffers, state[name]):
                np.copyto(buffer, value)


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self,
        parameters: list[tuple[np.ndarray, np.ndarray]],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity, self._velocity_flat = self._zeros_like_params()

    def _state_buffers(self) -> dict[str, list[np.ndarray]]:
        return {"velocity": self._velocity}

    def step(self) -> None:
        if self._fused_ready() and (not self.weight_decay or self._arena.exact_cover):
            self._fused_step()
            return
        for (param, grad), vel in zip(self.parameters, self._velocity):
            update = grad
            if self.weight_decay:
                update = update + self.weight_decay * param
            if self.momentum:
                vel *= self.momentum
                vel += update
                update = vel
            param -= self.lr * update

    def _fused_step(self) -> None:
        arena = self._arena
        param, grad = arena.data, arena.grads
        scratch, _ = self._scratch_buffers()
        update = grad
        if self.weight_decay:
            np.multiply(param, self.weight_decay, out=scratch)
            np.add(grad, scratch, out=scratch)
            update = scratch
        if self.momentum:
            vel = self._velocity_flat
            np.multiply(vel, self.momentum, out=vel)
            np.add(vel, update, out=vel)
            update = vel
        np.multiply(update, self.lr, out=scratch)
        np.subtract(param, scratch, out=param)


class RMSprop(Optimizer):
    """RMSprop with an exponentially decayed squared-gradient average."""

    def __init__(
        self,
        parameters: list[tuple[np.ndarray, np.ndarray]],
        lr: float = 0.001,
        rho: float = 0.9,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        self.rho = rho
        self.eps = eps
        self._square_avg, self._square_avg_flat = self._zeros_like_params()

    def _state_buffers(self) -> dict[str, list[np.ndarray]]:
        return {"square_avg": self._square_avg}

    def step(self) -> None:
        if self._fused_ready():
            self._fused_step()
            return
        for (param, grad), avg in zip(self.parameters, self._square_avg):
            avg *= self.rho
            avg += (1.0 - self.rho) * grad**2
            param -= self.lr * grad / (np.sqrt(avg) + self.eps)

    def _fused_step(self) -> None:
        arena = self._arena
        param, grad = arena.data, arena.grads
        s1, s2 = self._scratch_buffers()
        avg = self._square_avg_flat
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

    def __init__(
        self,
        parameters: list[tuple[np.ndarray, np.ndarray]],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m, self._m_flat = self._zeros_like_params()
        self._v, self._v_flat = self._zeros_like_params()
        self._t = 0

    def _state_buffers(self) -> dict[str, list[np.ndarray]]:
        return {"m": self._m, "v": self._v}

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
        if self._fused_ready() and (not self.weight_decay or self._arena.exact_cover):
            self._fused_step(bias1, bias2)
            return
        for (param, grad), m, v in zip(self.parameters, self._m, self._v):
            g = grad
            if self.weight_decay:
                g = g + self.weight_decay * param
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g**2
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _fused_step(self, bias1: float, bias2: float) -> None:
        arena = self._arena
        param = arena.data
        m, v = self._m_flat, self._v_flat
        s1, s2 = self._scratch_buffers()
        g = arena.grads
        if self.weight_decay:
            np.multiply(param, self.weight_decay, out=s1)
            np.add(arena.grads, s1, out=s1)
            g = s1
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
