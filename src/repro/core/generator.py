"""The conditional generator ``G_C`` (paper section III-A).

The generator consumes a Gaussian noise vector ``z`` concatenated with the
one-hot condition vector ``C`` and produces one transformed table row.  Its
architecture follows the CTGAN family: a stack of concatenating residual
blocks followed by a linear projection to the transformed width, with a
per-block output activation (tanh for continuous scalars, Gumbel-softmax for
one-hot blocks) supplied by :class:`TabularOutputActivation` so that
discrete outputs stay differentiable during training.
"""

from __future__ import annotations

import numpy as np

from repro.neural.layers import BatchNorm, Dense, Layer, ReLU, Residual
from repro.neural.network import Sequential
from repro.tabular.segments import BlockLayout
from repro.tabular.transformer import DataTransformer

__all__ = ["TabularOutputActivation", "ConditionalGenerator"]


class TabularOutputActivation(Layer):
    """Applies per-span output activations to the generator's raw scores.

    ``spans`` is the ``(start, end, activation)`` list produced by
    :meth:`repro.tabular.transformer.DataTransformer.activation_spans`.
    ``tanh`` spans get a plain tanh; ``softmax`` spans get a Gumbel-softmax
    with temperature ``tau`` during training (noise-free softmax at
    evaluation time), matching how CTGAN-style generators emit one-hot
    blocks while remaining differentiable.

    All softmax spans are handled together through a precomputed
    :class:`~repro.tabular.segments.BlockLayout`: one gather, one Gumbel
    noise draw for the whole region, segmented softmax, one scatter -- both
    forward and backward run in a handful of C passes regardless of how many
    one-hot blocks the table has.

    The eval forward (``training=False``) stays the reference sampling
    path: the TableGAN / PATEGAN samplers and TVAE's decoder harden its
    output.  The KiNETGAN share step stops at
    :meth:`ConditionalGenerator.logits`, takes its winners through
    ``BlockLayout.softmax_argmax`` and reproduces that hardened output bit
    for bit.
    """

    def __init__(
        self,
        spans: list[tuple[int, int, str]],
        tau: float = 0.2,
        rng: np.random.Generator | None = None,
    ) -> None:
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.spans = list(spans)
        self.tau = tau
        self.rng = rng if rng is not None else np.random.default_rng()
        self._layout = BlockLayout(
            [(start, end) for start, end, activation in self.spans if activation == "softmax"]
        )
        tanh_cols: list[int] = []
        for start, end, activation in self.spans:
            if activation == "tanh":
                tanh_cols.extend(range(start, end))
        self._tanh_columns = np.asarray(tanh_cols, dtype=np.intp)
        self._cache: np.ndarray | None = None
        # Reusable scratch for the training passes' gather / Gumbel /
        # softmax intermediates (keyed by shape inside
        # BlockLayout._scratch_buffer).  The output matrix itself stays
        # freshly allocated: it escapes as the generated batch and is held
        # across the whole training step.
        self._scratch: dict | None = {}

    def bind_workspace(self, workspace) -> None:
        # The scratch dict follows the step workspace: training passes
        # reuse it, eval forwards never touch it (so sampling from several
        # threads at once is safe either way), and an unbound layer
        # (Sequential.unbind_workspace) allocates in training too; the
        # allocating path is bit-identical.
        self._ws = workspace
        self._scratch = {} if workspace is not None else None

    def __getstate__(self) -> dict:
        # Scratch buffers are a pure cache; drop them from pickles so saved
        # models do not carry the last batch's intermediates (an unbound
        # layer stays unbound on the other side).
        state = self.__dict__.copy()
        state["_scratch"] = None if self._scratch is None else {}
        return state

    def _buffer(
        self, key: str, shape: tuple[int, ...], dtype: np.dtype | type = np.float64
    ) -> np.ndarray:
        return BlockLayout._scratch_buffer(self._scratch, key, shape, dtype)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        # Eval forwards allocate their intermediates, like every layer's.
        scratch = self._scratch if training else None
        out = np.empty_like(x)
        tanh_cols = self._tanh_columns
        if tanh_cols.size:
            # take -> tanh-in-place replays ``np.tanh(x[:, tanh_cols])``
            # without the two per-call temporaries.
            span = BlockLayout._scratch_buffer(
                scratch, "tanh", (x.shape[0], tanh_cols.size), x.dtype
            )
            np.take(x, tanh_cols, axis=1, out=span)
            np.tanh(span, out=span)
            out[:, tanh_cols] = span
        layout = self._layout
        if layout.n_blocks:
            gathered = BlockLayout._scratch_buffer(
                scratch, "gather", (x.shape[0], layout.total), x.dtype
            )
            np.take(x, layout.columns, axis=1, out=gathered)
            if training:
                # ``gathered - log(-log(u)) * tau`` staged in place through
                # a recycled buffer: ``random(out=...)`` consumes the stream
                # identically to ``uniform(lo, hi, size=...)`` (float64) and
                # to ``random(size=..., dtype=float32)`` (float32), and
                # ``u * (hi - lo) + lo`` in place returns the same bits.
                lo, hi = 1e-12, 1.0 - 1e-12
                uniform = BlockLayout._scratch_buffer(scratch, "gumbel", gathered.shape, x.dtype)
                self.rng.random(out=uniform, dtype=uniform.dtype)
                np.multiply(uniform, hi - lo, out=uniform)
                np.add(uniform, lo, out=uniform)
                np.log(uniform, out=uniform)
                np.negative(uniform, out=uniform)
                np.log(uniform, out=uniform)
                np.multiply(uniform, self.tau, out=uniform)
                np.subtract(gathered, uniform, out=gathered)
            layout.scatter(out, layout.softmax(gathered, tau=self.tau, scratch=scratch))
        # Only training passes are differentiated; caching inference outputs
        # would pin the last sampled batch in warm serving registries.
        self._cache = out if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        out = self._cache
        grad_input = np.empty_like(grad_output)
        tanh_cols = self._tanh_columns
        if tanh_cols.size:
            # Replays ``grad_output[:, cols] * (1.0 - out[:, cols] ** 2)``
            # through two reused spans (power(, 2) hits the same squared
            # special case as ``**``), writing the product into the first.
            span = self._buffer("tanh_bwd", (grad_output.shape[0], tanh_cols.size), grad_output.dtype)
            np.take(out, tanh_cols, axis=1, out=span)
            np.power(span, 2, out=span)
            np.subtract(1.0, span, out=span)
            gspan = self._buffer(
                "tanh_bwd_g", (grad_output.shape[0], tanh_cols.size), grad_output.dtype
            )
            np.take(grad_output, tanh_cols, axis=1, out=gspan)
            np.multiply(gspan, span, out=span)
            grad_input[:, tanh_cols] = span
        layout = self._layout
        if layout.n_blocks:
            region = self._buffer("bwd_region_out", (out.shape[0], layout.total), grad_output.dtype)
            np.take(out, layout.columns, axis=1, out=region)
            gregion = self._buffer(
                "bwd_region_grad", (out.shape[0], layout.total), grad_output.dtype
            )
            np.take(grad_output, layout.columns, axis=1, out=gregion)
            grad_soft = layout.softmax_backward(
                region, gregion, tau=self.tau, scratch=self._scratch
            )
            layout.scatter(grad_input, grad_soft)
        self._cache = None
        return grad_input


class ConditionalGenerator:
    """Residual MLP generator conditioned on the one-hot condition vector."""

    def __init__(
        self,
        noise_dim: int,
        condition_dim: int,
        transformer: DataTransformer,
        hidden_dims: tuple[int, ...] = (128, 128),
        gumbel_tau: float = 0.2,
        rng: np.random.Generator | None = None,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if noise_dim <= 0:
            raise ValueError("noise_dim must be positive")
        if condition_dim < 0:
            raise ValueError("condition_dim must be non-negative")
        rng = rng if rng is not None else np.random.default_rng()
        self.noise_dim = noise_dim
        self.condition_dim = condition_dim
        self.output_dim = transformer.output_dim
        self.transformer = transformer

        layers: list[Layer] = []
        width = noise_dim + condition_dim
        for hidden in hidden_dims:
            layers.append(
                Residual(
                    [
                        Dense(width, hidden, rng=rng, init="he", dtype=dtype),
                        BatchNorm(hidden, dtype=dtype),
                        ReLU(),
                    ]
                )
            )
            width += hidden  # residual blocks concatenate
        layers.append(Dense(width, self.output_dim, rng=rng, init="glorot", dtype=dtype))
        layers.append(
            TabularOutputActivation(transformer.activation_spans(), tau=gumbel_tau, rng=rng)
        )
        self.network = Sequential(layers)
        self.network.consolidate()

    @property
    def activation(self) -> TabularOutputActivation:
        """The live output layer (subclasses may rebuild ``network``)."""
        return self.network.layers[-1]

    # ------------------------------------------------------------------ #
    def forward(
        self, noise: np.ndarray, condition: np.ndarray | None, training: bool = True
    ) -> np.ndarray:
        """Generate a batch of transformed rows from noise and conditions."""
        return self.network.forward(self._input(noise, condition), training=training)

    def logits(self, noise: np.ndarray, condition: np.ndarray | None) -> np.ndarray:
        """Eval-mode scores before the output activation.

        Runs :meth:`forward`'s input checks and every layer but the last;
        ``activation.forward(logits, training=False)`` is the eval forward.
        """
        return self.network.forward(self._input(noise, condition), training=False, stop=-1)

    def _input(self, noise: np.ndarray, condition: np.ndarray | None) -> np.ndarray:
        """``[noise, condition]`` in the network's dtype, widths checked."""
        dtype = self.network.dtype
        if condition is None:
            condition = np.zeros((noise.shape[0], self.condition_dim), dtype=dtype)
        if noise.shape[1] != self.noise_dim:
            raise ValueError(f"expected noise of width {self.noise_dim}, got {noise.shape[1]}")
        if condition.shape[1] != self.condition_dim:
            raise ValueError(
                f"expected condition of width {self.condition_dim}, got {condition.shape[1]}"
            )
        x = np.concatenate([noise, condition], axis=1)
        if x.dtype != dtype:
            # Float64 inputs to a float32 network round once at the boundary.
            x = x.astype(dtype)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate into the generator; returns grad w.r.t. [z, C]."""
        return self.network.backward(grad_output)

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self.network.parameters()

    def zero_grad(self) -> None:
        self.network.zero_grad()

    def num_parameters(self) -> int:
        return self.network.num_parameters()

    def state_dict(self) -> dict[str, np.ndarray]:
        return self.network.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.network.load_state_dict(state)
