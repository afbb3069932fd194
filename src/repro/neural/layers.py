"""Neural-network layers with hand-written forward and backward passes.

Every layer follows the same contract:

* ``forward(x, training=True)`` consumes a ``(batch, features)`` array and
  returns the layer output, caching whatever is needed for the backward pass.
  An eval forward (``training=False``) caches nothing: it cannot be
  differentiated, and it leaves no state on the layer.
* ``backward(grad_output)`` consumes the gradient of the loss with respect to
  the layer output, accumulates parameter gradients into ``layer.grads``,
  returns the gradient with respect to the layer input, and releases the
  cached forward activations (so the final batch of a fit is not pinned in
  memory by resident federated sites or warm serving registries).
* ``params`` / ``grads`` expose aligned lists of parameter and gradient
  arrays so optimizers can update them in place.

Gradients *accumulate* across backward calls until :meth:`Layer.zero_grad`
is invoked; this mirrors the PyTorch convention and makes multi-term GAN
losses (e.g. the KiNETGAN condition penalty) straightforward.

Two optional fast paths, both bit-identical to the plain code:

* **Arena consolidation** (:mod:`repro.neural.arena`): a layer describes its
  state entries through :meth:`Layer.arena_entries` so ``Sequential`` can
  re-house parameters and gradients as views into one flat buffer.
* **Workspace buffers** (:mod:`repro.neural.workspace`): once a workspace is
  bound via :meth:`Layer.bind_workspace`, training forward/backward passes
  run through recycled ``out=`` buffers instead of allocating fresh
  batch-sized arrays.  Eval forwards always take the allocating path.
"""

from __future__ import annotations

import numpy as np

from repro.neural.initializers import glorot_uniform, he_normal, normal_init, zeros_init

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Softmax",
    "GumbelSoftmax",
    "Dropout",
    "BatchNorm",
    "Residual",
]

_INITIALIZERS = {
    "glorot": glorot_uniform,
    "he": he_normal,
    "normal": normal_init,
}

#: All-ones float64 bit pattern; ``bool_mask * _U64_ALL`` builds the word
#: mask the bit-select activation backward passes use.
_U64_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: The float32 analogue for float32 networks.
_U32_ALL = np.uint32(0xFFFFFFFF)


class Layer:
    """Base class for all layers."""

    #: Shared step workspace, bound by ``Sequential.consolidate()``.  A class
    #: attribute so unbound (and un-pickled legacy) instances read ``None``.
    _ws = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def params(self) -> list[np.ndarray]:
        """Trainable parameter arrays (possibly empty)."""
        return []

    @property
    def grads(self) -> list[np.ndarray]:
        """Gradient arrays aligned with :attr:`params`."""
        return []

    def zero_grad(self) -> None:
        for g in self.grads:
            g.fill(0.0)

    def bind_workspace(self, workspace) -> None:
        """Attach a shared step workspace (see :mod:`repro.neural.workspace`)."""
        self._ws = workspace

    def arena_entries(self) -> list[tuple[str, object, str, str | None]] | None:
        """Arena consolidation spec: ``(state_key, owner, attr, grad_attr)``.

        One tuple per :meth:`state_dict` entry; ``grad_attr`` is ``None``
        for non-trainable buffers.  Returning ``None`` is the documented
        opt-out for layers whose state cannot be rebound to arena views --
        it disables consolidation for the enclosing network, which then
        stays on per-tensor storage.  This base implementation opts
        stateless layers in and any stateful layer that has not described
        its attribute bindings out.
        """
        if self.params or self.state_dict():
            return None
        return []

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable layer state (parameters plus buffers)."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`.

        Values are copied into the existing arrays, which keeps arena views
        (and optimizer bindings) intact.
        """
        for key, value in self.state_dict().items():
            if key not in state:
                raise KeyError(f"missing key {key!r} in state dict")
            value[...] = state[key]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        init: str = "glorot",
        bias: bool = True,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        if init not in _INITIALIZERS:
            raise ValueError(f"unknown init {init!r}; choose from {sorted(_INITIALIZERS)}")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = bias
        self.weight = _INITIALIZERS[init](in_features, out_features, rng, dtype=dtype)
        self.bias = zeros_init((out_features,), dtype=dtype) if bias else None
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias) if bias else None
        self._cache_input: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._cache_input = x if training else None
        ws = self._ws if training else None
        if ws is None:
            out = x @ self.weight
        else:
            out = ws.buffer(self, "fwd", (x.shape[0], self.out_features))
            np.dot(x, self.weight, out=out)
        if self.use_bias:
            # In-place add: the matmul result is scratch either way, so this
            # avoids a second full-batch array per layer per step.
            out += self.bias
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError("backward called before forward")
        x = self._cache_input
        ws = self._ws
        if ws is None:
            self.grad_weight += x.T @ grad_output
            if self.use_bias:
                self.grad_bias += grad_output.sum(axis=0)
            grad_input = grad_output @ self.weight.T
        else:
            # np.dot hands BLAS the transposed operands via gemm flags where
            # np.matmul would materialise ``x.T`` / ``weight.T`` copies first;
            # the results are bit-identical (same dgemm call).  add.reduce is
            # what np.sum delegates to, minus the Python dispatch wrapper.
            gw = ws.buffer(self, "gw", self.weight.shape)
            np.dot(x.T, grad_output, out=gw)
            self.grad_weight += gw
            if self.use_bias:
                gb = ws.buffer(self, "gb", self.bias.shape)
                np.add.reduce(grad_output, axis=0, out=gb)
                self.grad_bias += gb
            grad_input = ws.buffer(self, "bwd", (grad_output.shape[0], self.in_features))
            np.dot(grad_output, self.weight.T, out=grad_input)
        self._cache_input = None
        return grad_input

    @property
    def params(self) -> list[np.ndarray]:
        if self.use_bias:
            return [self.weight, self.bias]
        return [self.weight]

    @property
    def grads(self) -> list[np.ndarray]:
        if self.use_bias:
            return [self.grad_weight, self.grad_bias]
        return [self.grad_weight]

    def arena_entries(self) -> list[tuple[str, object, str, str | None]]:
        entries = [("weight", self, "weight", "grad_weight")]
        if self.use_bias:
            entries.append(("bias", self, "bias", "grad_bias"))
        return entries

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {"weight": self.weight}
        if self.use_bias:
            state["bias"] = self.bias
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features}, {self.out_features}, bias={self.use_bias})"


class ReLU(Layer):
    """Rectified linear unit.

    ``maximum(x, 0.0)`` is bit-identical to ``where(x > 0, x, 0.0)`` for all
    non-NaN inputs (numpy's maximum resolves the ``-0.0`` tie to ``+0.0``,
    matching the ``where`` form); branchless, it runs several times faster
    than the masked select.  NaN inputs propagate instead of being zeroed --
    by then training is already broken.
    """

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        ws = self._ws if training else None
        if ws is None:
            self._mask = x > 0.0 if training else None
            return np.maximum(x, 0.0)
        mask = ws.buffer(self, "mask", x.shape, dtype=bool)
        np.greater(x, 0.0, out=mask)
        self._mask = mask
        out = ws.buffer(self, "fwd", x.shape)
        np.maximum(x, 0.0, out=out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        ws = self._ws
        if ws is None:
            grad_input = grad_output * self._mask
        else:
            grad_input = ws.buffer(self, "bwd", grad_output.shape)
            np.multiply(grad_output, self._mask, out=grad_input)
        self._mask = None
        return grad_input


class LeakyReLU(Layer):
    """Leaky ReLU with configurable negative slope (GAN discriminator default).

    For ``0 < slope <= 1`` the forward pass uses the branchless
    ``maximum(slope * x, x)``, which is bit-identical to
    ``where(x > 0, x, slope * x)`` for every input (including ``+-0.0``,
    infinities, denormals and NaN: both operands carry the sign of ``x`` and
    NaN propagates through both forms) while avoiding the much slower masked
    select.  Slopes outside that range keep the ``where`` form: at
    ``slope == 0`` the ``slope * x`` operand turns infinities into NaN that
    ``where`` would have discarded, and ``slope > 1`` flips the comparison.
    """

    def __init__(self, negative_slope: float = 0.2) -> None:
        if negative_slope < 0:
            raise ValueError("negative_slope must be non-negative")
        self.negative_slope = negative_slope
        self._branchless = 0.0 < negative_slope <= 1.0
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        ws = self._ws if training else None
        if ws is None:
            if self._branchless:
                self._mask = x > 0.0 if training else None
                return np.maximum(self.negative_slope * x, x)
            mask = x > 0.0
            self._mask = mask if training else None
            return np.where(mask, x, self.negative_slope * x)
        mask = ws.buffer(self, "mask", x.shape, dtype=bool)
        np.greater(x, 0.0, out=mask)
        self._mask = mask
        out = ws.buffer(self, "fwd", x.shape)
        if self._branchless:
            np.multiply(x, self.negative_slope, out=out)
            np.maximum(out, x, out=out)
        else:
            np.multiply(x, self.negative_slope, out=out)
            np.copyto(out, x, where=mask)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        ws = self._ws
        if ws is None:
            # Typed scalars keep the select in the input dtype: python
            # floats would build a float64 factor and upcast float32 grads.
            one = grad_output.dtype.type(1.0)
            slope = grad_output.dtype.type(self.negative_slope)
            grad_input = grad_output * np.where(self._mask, one, slope)
        else:
            grad_input = ws.buffer(self, "bwd", grad_output.shape)
            np.multiply(grad_output, self.negative_slope, out=grad_input)
            if grad_output.flags.c_contiguous and grad_output.dtype.itemsize in (4, 8):
                # IEEE bit-select ``out = b ^ ((a ^ b) & m)`` replaying
                # ``where(mask, grad, slope * grad)`` exactly: ``1.0 * g``
                # is bitwise ``g``, so selecting grad's bits over the
                # positive positions matches the reference for every value
                # (signed zeros and NaN included), while the vectorized
                # integer ops replace copyto's masked scalar loop, which is
                # ~5x slower on this hot path.  Word width follows the
                # floating dtype: uint64 lanes for float64, uint32 for
                # float32.
                wide = grad_output.dtype.itemsize == 8
                utype = np.uint64 if wide else np.uint32
                m_all = _U64_ALL if wide else _U32_ALL
                mbits = ws.buffer(self, "mbits", grad_output.shape, dtype=utype)
                np.multiply(self._mask, m_all, out=mbits)
                sel = ws.buffer(self, "sel", grad_output.shape, dtype=utype)
                bits = grad_input.view(utype)
                np.bitwise_xor(grad_output.view(utype), bits, out=sel)
                sel &= mbits
                bits ^= sel
            else:
                np.copyto(grad_input, grad_output, where=self._mask)
        self._mask = None
        return grad_input

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LeakyReLU({self.negative_slope})"


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        ws = self._ws if training else None
        if ws is None:
            out = np.tanh(x)
        else:
            out = ws.buffer(self, "fwd", x.shape)
            np.tanh(x, out=out)
        self._out = out if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        ws = self._ws
        if ws is None:
            grad_input = grad_output * (1.0 - self._out**2)
        else:
            grad_input = ws.buffer(self, "bwd", grad_output.shape)
            np.multiply(self._out, self._out, out=grad_input)
            np.subtract(1.0, grad_input, out=grad_input)
            np.multiply(grad_output, grad_input, out=grad_input)
        self._out = None
        return grad_input


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        ws = self._ws if training else None
        if ws is None:
            out = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        else:
            out = ws.buffer(self, "fwd", x.shape)
            np.clip(x, -60.0, 60.0, out=out)
            np.negative(out, out=out)
            np.exp(out, out=out)
            np.add(out, 1.0, out=out)
            np.divide(1.0, out, out=out)
        self._out = out if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        ws = self._ws
        if ws is None:
            grad_input = grad_output * self._out * (1.0 - self._out)
        else:
            grad_input = ws.buffer(self, "bwd", grad_output.shape)
            np.multiply(grad_output, self._out, out=grad_input)
            one_minus = ws.buffer(self, "bwd2", grad_output.shape)
            np.subtract(1.0, self._out, out=one_minus)
            np.multiply(grad_input, one_minus, out=grad_input)
        self._out = None
        return grad_input


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


class Softmax(Layer):
    """Row-wise softmax with an exact Jacobian-vector-product backward pass."""

    def __init__(self, temperature: float = 1.0) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = _softmax(x / self.temperature, axis=-1)
        self._out = out if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        s = self._out
        dot = (grad_output * s).sum(axis=-1, keepdims=True)
        self._out = None
        return s * (grad_output - dot) / self.temperature


class GumbelSoftmax(Layer):
    """Gumbel-softmax relaxation for discrete outputs.

    During training the layer adds Gumbel noise and applies a temperature
    softmax, which is what CTGAN-style tabular generators use for one-hot
    column blocks.  The backward pass differentiates through the softmax
    (noise is treated as constant, as in the original straight-through
    estimator's soft variant).  At inference time (``training=False``) noise
    is omitted so sampling is controlled solely by downstream ``argmax`` /
    categorical sampling over the probabilities.
    """

    def __init__(self, temperature: float = 0.2, rng: np.random.Generator | None = None) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature
        self.rng = rng if rng is not None else np.random.default_rng()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            uniform = self.rng.uniform(1e-12, 1.0 - 1e-12, size=x.shape)
            gumbel = -np.log(-np.log(uniform))
            if x.dtype != np.float64:
                # The noise draw stays float64 (one shared rng stream), then
                # rounds once so the logits keep the network dtype.
                gumbel = gumbel.astype(x.dtype)
            logits = (x + gumbel) / self.temperature
        else:
            logits = x / self.temperature
        out = _softmax(logits, axis=-1)
        self._out = out if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        s = self._out
        dot = (grad_output * s).sum(axis=-1, keepdims=True)
        self._out = None
        return s * (grad_output - dot) / self.temperature


class Dropout(Layer):
    """Inverted dropout; a no-op at evaluation time."""

    def __init__(self, rate: float = 0.5, rng: np.random.Generator | None = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        # The typed ``keep`` scalar keeps the threshold comparison and the
        # inverted-mask division in the input dtype: a python float would
        # promote ``bool / keep`` to float64 and upcast float32 batches.
        # For float64 inputs it is bit-identical to the python-float form.
        keep = x.dtype.type(1.0 - self.rate)
        ws = self._ws
        if ws is None:
            if x.dtype == np.float64:
                uniform = self.rng.uniform(size=x.shape)
            else:
                # Per-dtype stream: float32 draws consume the rng stream
                # differently from float64 ones, so each dtype has its own
                # (internally consistent) seeded history.
                uniform = self.rng.random(size=x.shape, dtype=x.dtype)
            self._mask = (uniform < keep) / keep
            return x * self._mask
        # Same rng draw and elementwise ops as the reference, staged through
        # recycled buffers.  ``Generator.random(out=...)`` consumes the
        # stream identically to ``uniform(size=...)`` (float64) and to
        # ``random(size=..., dtype=float32)`` (float32) and returns the
        # same bits, so the draw itself recycles a buffer too.
        uniform = ws.buffer(self, "uniform", x.shape, dtype=x.dtype)
        self.rng.random(out=uniform, dtype=uniform.dtype)
        kept = ws.buffer(self, "kept", x.shape, dtype=bool)
        np.less(uniform, keep, out=kept)
        mask = ws.buffer(self, "mask", x.shape, dtype=x.dtype)
        np.divide(kept, keep, out=mask)
        self._mask = mask
        out = ws.buffer(self, "fwd", x.shape, dtype=x.dtype)
        np.multiply(x, mask, out=out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        ws = self._ws
        if ws is None:
            grad_input = grad_output * self._mask
        else:
            grad_input = ws.buffer(self, "bwd", grad_output.shape)
            np.multiply(grad_output, self._mask, out=grad_input)
        self._mask = None
        return grad_input

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dropout({self.rate})"


class BatchNorm(Layer):
    """Batch normalisation over the feature dimension.

    Keeps running statistics for inference, exactly like the standard
    formulation; the backward pass implements the full batch-norm gradient.
    The running statistics are updated *in place* so they can live inside a
    parameter arena as non-trainable buffer spans.
    """

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.9,
        eps: float = 1e-5,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(num_features, dtype=dtype)
        self.beta = np.zeros(num_features, dtype=dtype)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def _update_running(self, buffer: np.ndarray, batch_stat: np.ndarray) -> None:
        # In-place form of ``m * buffer + (1 - m) * stat``, same op order.
        np.multiply(buffer, self.momentum, out=buffer)
        np.add(buffer, (1 - self.momentum) * batch_stat, out=buffer)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.shape[1] != self.num_features:
            raise ValueError(f"BatchNorm expected {self.num_features} features, got {x.shape[1]}")
        ws = self._ws if training else None
        if training:
            if ws is None:
                mean = x.mean(axis=0)
                var = x.var(axis=0)
            else:
                # np.mean / np.var replayed through recycled buffers: both
                # reduce with the same pairwise ``add.reduce`` and divide by
                # the row count, so the values are bit-identical while the
                # two full-batch temporaries ``x.var`` materialises are
                # replaced by one persistent scratch buffer.
                batch = x.shape[0]
                mean = ws.buffer(self, "mean", (self.num_features,))
                np.add.reduce(x, axis=0, out=mean)
                np.divide(mean, batch, out=mean)
                centered = ws.buffer(self, "center", x.shape)
                np.subtract(x, mean, out=centered)
                np.multiply(centered, centered, out=centered)
                var = ws.buffer(self, "var", (self.num_features,))
                np.add.reduce(centered, axis=0, out=var)
                np.divide(var, batch, out=var)
            self._update_running(self.running_mean, mean)
            self._update_running(self.running_var, var)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        if ws is None:
            x_hat = (x - mean) * inv_std
            out = self.gamma * x_hat + self.beta
        else:
            x_hat = ws.buffer(self, "xhat", x.shape)
            np.subtract(x, mean, out=x_hat)
            np.multiply(x_hat, inv_std, out=x_hat)
            out = ws.buffer(self, "fwd", x.shape)
            np.multiply(self.gamma, x_hat, out=out)
            np.add(out, self.beta, out=out)
        self._cache = (x_hat, inv_std) if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std = self._cache
        batch = grad_output.shape[0]
        ws = self._ws
        if ws is None:
            self.grad_gamma += (grad_output * x_hat).sum(axis=0)
            self.grad_beta += grad_output.sum(axis=0)
            dx_hat = grad_output * self.gamma
            # Full batch-norm gradient with respect to the input.
            grad_input = (
                inv_std
                / batch
                * (batch * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0))
            )
        else:
            scratch = ws.buffer(self, "bwd_a", grad_output.shape)
            np.multiply(grad_output, x_hat, out=scratch)
            self.grad_gamma += scratch.sum(axis=0)
            self.grad_beta += grad_output.sum(axis=0)
            dx_hat = ws.buffer(self, "bwd_b", grad_output.shape)
            np.multiply(grad_output, self.gamma, out=dx_hat)
            # Same expression as above, evaluated into the two buffers in the
            # original operand order.
            scale = inv_std / batch
            dx_hat_sum = dx_hat.sum(axis=0)
            np.multiply(dx_hat, x_hat, out=scratch)
            dot = scratch.sum(axis=0)
            np.multiply(dx_hat, batch, out=dx_hat)
            np.subtract(dx_hat, dx_hat_sum, out=dx_hat)
            np.multiply(x_hat, dot, out=scratch)
            np.subtract(dx_hat, scratch, out=dx_hat)
            np.multiply(scale, dx_hat, out=dx_hat)
            grad_input = dx_hat
        self._cache = None
        return grad_input

    @property
    def params(self) -> list[np.ndarray]:
        return [self.gamma, self.beta]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.grad_gamma, self.grad_beta]

    def arena_entries(self) -> list[tuple[str, object, str, str | None]]:
        return [
            ("gamma", self, "gamma", "grad_gamma"),
            ("beta", self, "beta", "grad_beta"),
            ("running_mean", self, "running_mean", None),
            ("running_var", self, "running_var", None),
        ]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {
            "gamma": self.gamma,
            "beta": self.beta,
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchNorm({self.num_features})"


class Residual(Layer):
    """Residual block ``y = concat(x, f(x))`` in the CTGAN style.

    CTGAN's generator uses residual blocks that *concatenate* rather than add,
    growing the representation; the same block is reused by the KiNETGAN
    generator.  ``inner`` is a list of layers applied in order.
    """

    def __init__(self, inner: list[Layer]) -> None:
        if not inner:
            raise ValueError("Residual block needs at least one inner layer")
        self.inner = inner
        self._input_dim: int | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._input_dim = x.shape[1]
        h = x
        for layer in self.inner:
            h = layer.forward(h, training=training)
        ws = self._ws if training else None
        if ws is None:
            return np.concatenate([x, h], axis=1)
        out = ws.buffer(self, "fwd", (x.shape[0], x.shape[1] + h.shape[1]))
        np.concatenate([x, h], axis=1, out=out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_dim is None:
            raise RuntimeError("backward called before forward")
        grad_x = grad_output[:, : self._input_dim]
        grad_h = grad_output[:, self._input_dim :]
        for layer in reversed(self.inner):
            grad_h = layer.backward(grad_h)
        ws = self._ws
        if ws is None:
            return grad_x + grad_h
        grad_input = ws.buffer(self, "bwd", grad_x.shape)
        np.add(grad_x, grad_h, out=grad_input)
        return grad_input

    @property
    def params(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.inner:
            out.extend(layer.params)
        return out

    @property
    def grads(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.inner:
            out.extend(layer.grads)
        return out

    def zero_grad(self) -> None:
        for layer in self.inner:
            layer.zero_grad()

    def bind_workspace(self, workspace) -> None:
        self._ws = workspace
        for layer in self.inner:
            layer.bind_workspace(workspace)

    def arena_entries(self) -> list[tuple[str, object, str, str | None]] | None:
        entries: list[tuple[str, object, str, str | None]] = []
        for i, layer in enumerate(self.inner):
            sub = layer.arena_entries()
            if sub is None:
                return None
            entries.extend(
                (f"inner.{i}.{key}", owner, attr, grad_attr) for key, owner, attr, grad_attr in sub
            )
        return entries

    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.inner):
            for key, value in layer.state_dict().items():
                state[f"inner.{i}.{key}"] = value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.inner):
            prefix = f"inner.{i}."
            sub = {
                key[len(prefix) :]: value for key, value in state.items() if key.startswith(prefix)
            }
            layer.load_state_dict(sub)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Residual({self.inner!r})"
