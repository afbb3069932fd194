"""The :class:`Sequential` network container."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.neural.arena import ParamArena
from repro.neural.layers import Layer
from repro.neural.workspace import Workspace

__all__ = ["Sequential"]


class Sequential:
    """A plain feed-forward stack of layers with manual backprop.

    The container exposes the same forward / backward / parameters contract
    as individual layers so that sub-networks (e.g. the inner function of an
    ODE block) can be nested.

    Call :meth:`consolidate` once the layer list is final to move parameters
    and gradients into a flat :class:`~repro.neural.arena.ParamArena` and
    attach a shared step :class:`~repro.neural.workspace.Workspace`.  The
    arena is what optimizers step, so a network is consolidated before its
    optimizer is built; the workspace is a bit-identical buffer-reuse path
    for the training hot loop.  A plain ``pickle.loads`` re-packs the arena
    (see :meth:`__setstate__`), so an unpickled network trains like the
    original.
    """

    #: Class-level defaults so legacy pickles and plain containers read None.
    arena: ParamArena | None = None
    workspace: Workspace | None = None

    def __init__(self, layers: list[Layer] | None = None) -> None:
        self.layers: list[Layer] = list(layers) if layers else []

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer and return ``self`` for chaining."""
        self.layers.append(layer)
        return self

    def __setstate__(self, state: dict) -> None:
        # A plain pickle unpickles every arena view as its own array; re-pack
        # them into a fresh arena.  A view-keeping pickle (the resident-state
        # install) arrives intact and is kept as it is.
        self.__dict__.update(state)
        arena = self.arena
        if arena is not None and not arena.intact:
            self.arena = ParamArena.build(self)

    def consolidate(self) -> ParamArena | None:
        """Re-house parameters in a flat arena and bind a step workspace.

        Must be called after the layer list is final: layers added later are
        not in the arena, so no optimizer updates them.  Safe to call
        repeatedly; the arena is reused.  Returns the arena, or ``None`` for
        a network without state.  Raises ``TypeError`` when a layer does not
        describe its state (see ``Layer.arena_entries``).  Optimizers are
        built *after* this call: they step the arena.
        """
        if self.arena is None:
            self.arena = ParamArena.build(self)
        if self.workspace is None:
            self.workspace = Workspace(default_dtype=self.dtype)
        for layer in self.layers:
            layer.bind_workspace(self.workspace)
        return self.arena

    @property
    def dtype(self) -> np.dtype:
        """The network's floating dtype.

        Derived from the arena when there is one, otherwise from the first
        parameter; a parameter-less stack (pure activations) reports
        float64, the package default.
        """
        arena = self.arena
        if arena is not None:
            return arena.dtype
        for layer in self.layers:
            for param in layer.params:
                return param.dtype
        return np.dtype(np.float64)

    def unbind_workspace(self) -> None:
        """Detach the shared step workspace from this network and its layers.

        A bound :class:`~repro.neural.workspace.Workspace` is single-stream
        scratch for *training* passes: two concurrent training passes
        through the same network would overwrite each other's buffers.
        Eval forwards never use it, so sampling a bound network from
        several threads at once is already safe.  Unbinding drops every
        layer's training passes back to the allocating code paths --
        bit-identical by the workspace contract, just without buffer reuse
        -- and frees the scratch the network held.  The parameter arena is
        untouched; call :meth:`consolidate` to re-bind a workspace.
        """
        self.workspace = None
        for layer in self.layers:
            layer.bind_workspace(None)

    def release_scratch(self) -> None:
        """Free the training scratch and stay bound for the next fit.

        The network gets a fresh, empty workspace -- what unpickling gives
        it -- and every layer is re-bound to it, which also drops scratch a
        layer keeps beside the workspace (the generator head's
        gather/Gumbel/softmax dict).  The next training pass grows the
        buffers again; scratch is never read across passes, so results are
        unchanged.  A fit calls this when it returns (see
        ``KiNETGANTrainer.fit``).
        """
        if self.workspace is None:
            return
        self.workspace = Workspace(default_dtype=self.workspace.default_dtype)
        for layer in self.layers:
            layer.bind_workspace(self.workspace)

    def forward(self, x: np.ndarray, training: bool = True, stop: int | None = None) -> np.ndarray:
        """Run the stack, or only ``layers[:stop]`` when ``stop`` is given."""
        for layer in self.layers if stop is None else self.layers[:stop]:
            x = layer.forward(x, training=training)
        ws = self.workspace
        if ws is not None and ws.owns(x):
            # A training output escapes the step (losses and attack scorers
            # may hold it across later forwards), so it must not alias a
            # scratch buffer the next forward overwrites.
            # Final outputs are the *small* arrays of the stack (logits,
            # class scores), so this copy costs far less than the per-layer
            # allocations the workspace removes.
            x = x.copy()
        return x

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate through all layers, accumulating parameter grads."""
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Aligned (parameter, gradient) pairs for optimizer binding."""
        pairs: list[tuple[np.ndarray, np.ndarray]] = []
        for layer in self.layers:
            pairs.extend(zip(layer.params, layer.grads))
        return pairs

    def zero_grad(self) -> None:
        arena = self.arena
        if arena is not None:
            arena.grads.fill(0.0)
            return
        for layer in self.layers:
            layer.zero_grad()

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for p, _ in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for key, value in layer.state_dict().items():
                state[f"layers.{i}.{key}"] = value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            prefix = f"layers.{i}."
            sub = {
                key[len(prefix) :]: value
                for key, value in state.items()
                if key.startswith(prefix)
            }
            layer.load_state_dict(sub)

    def save(self, path: str | Path) -> None:
        """Serialise parameters and buffers to a ``.npz`` file."""
        np.savez(Path(path), **self.state_dict())

    def load(self, path: str | Path) -> None:
        """Restore parameters and buffers from a ``.npz`` file."""
        with np.load(Path(path)) as data:
            self.load_state_dict({key: data[key] for key in data.files})

    def summary(self) -> str:
        """Human-readable layer listing with the total parameter count."""
        lines = [f"Sequential with {len(self.layers)} layers:"]
        for i, layer in enumerate(self.layers):
            count = sum(p.size for p in layer.params)
            lines.append(f"  [{i}] {layer!r} ({count} params)")
        lines.append(f"Total parameters: {self.num_parameters()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sequential({self.layers!r})"
