"""Loss functions for the generative models and classifiers.

Each loss exposes

* ``forward(prediction, target)`` returning a scalar mean loss, and
* ``backward()`` returning the gradient of that mean loss with respect to
  the prediction array passed to the last ``forward`` call.

The GAN criteria (:class:`BinaryCrossEntropy` on logits,
:class:`WassersteinLoss`, :class:`HingeGANLoss`) follow the standard
formulations; :class:`GaussianKLDivergence` implements the closed-form KL
term of the TVAE baseline.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Loss",
    "BinaryCrossEntropy",
    "CrossEntropy",
    "MeanSquaredError",
    "WassersteinLoss",
    "HingeGANLoss",
    "GaussianKLDivergence",
]

_EPS = 1e-12


class Loss:
    """Base class for losses."""

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)


class BinaryCrossEntropy(Loss):
    """Binary cross entropy.

    With ``from_logits=True`` (the default, and what the GAN discriminators
    use) the prediction is a raw score and the numerically stable
    log-sum-exp formulation is applied.  With ``from_logits=False`` the
    prediction is interpreted as a probability, which is what the KiNETGAN
    condition-vector penalty uses on the generator's softmax outputs.

    The logits path recycles internal scratch buffers keyed by batch shape
    (same elementwise ops via ``out=``, so values are bit-identical): this
    loss runs three times per KiNETGAN step, and without reuse it is one of
    the larger per-step allocators.  The returned gradient aliases such a
    buffer and is only valid until the next ``backward`` call with the same
    shape -- the trainer consumes it immediately.
    """

    def __init__(self, from_logits: bool = True) -> None:
        self.from_logits = from_logits
        self._cache: tuple[np.ndarray, np.ndarray] | None = None
        self._scratch: dict[tuple[str, tuple[int, ...], str], np.ndarray] = {}

    def _buffer(self, tag: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        key = (tag, shape, dtype.char)
        buf = self._scratch.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[key] = buf
        return buf

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        # The loss follows the network dtype so its gradient feeds straight
        # back into a float32 backward pass without an upcast; anything that
        # is not a supported floating dtype is coerced to float64 as before.
        prediction = np.asarray(prediction)
        if prediction.dtype not in (np.float64, np.float32):
            prediction = prediction.astype(np.float64)
        target = np.asarray(target, dtype=prediction.dtype)
        if prediction.shape != target.shape:
            raise ValueError(
                f"prediction shape {prediction.shape} != target shape {target.shape}"
            )
        self._cache = (prediction, target)
        if self.from_logits:
            # log(1 + exp(-|x|)) + max(x, 0) - x*t  (stable BCE-with-logits),
            # evaluated term by term into two recycled buffers.
            loss = self._buffer("loss", prediction.shape, prediction.dtype)
            np.maximum(prediction, 0, out=loss)
            term = self._buffer("term", prediction.shape, prediction.dtype)
            np.multiply(prediction, target, out=term)
            np.subtract(loss, term, out=loss)
            np.abs(prediction, out=term)
            np.negative(term, out=term)
            np.exp(term, out=term)
            np.log1p(term, out=term)
            np.add(loss, term, out=loss)
        else:
            p = np.clip(prediction, _EPS, 1.0 - _EPS)
            loss = -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
        return float(loss.mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        prediction, target = self._cache
        n = prediction.size
        if self.from_logits:
            # (stable_sigmoid(prediction) - target) / n via the shared buffer.
            grad = self._buffer("grad", prediction.shape, prediction.dtype)
            np.clip(prediction, -60.0, 60.0, out=grad)
            np.negative(grad, out=grad)
            np.exp(grad, out=grad)
            np.add(grad, 1.0, out=grad)
            np.divide(1.0, grad, out=grad)
            np.subtract(grad, target, out=grad)
            np.divide(grad, n, out=grad)
        else:
            p = np.clip(prediction, _EPS, 1.0 - _EPS)
            grad = (p - target) / (p * (1.0 - p)) / n
        self._cache = None
        return grad


class CrossEntropy(Loss):
    """Softmax cross entropy over logits with integer or one-hot targets.

    The log-sum-exp runs in float64 regardless of the logits' dtype (the
    scalar loss is an accuracy-sensitive reduction); the gradient is handed
    back in the logits' own dtype so float32 networks keep a float32
    backward pass.
    """

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None
        self._grad_dtype: np.dtype = np.dtype(np.float64)

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        logits_dtype = np.asarray(prediction).dtype
        self._grad_dtype = (
            logits_dtype if logits_dtype.kind == "f" else np.dtype(np.float64)
        )
        prediction = np.asarray(prediction, dtype=np.float64)
        if prediction.ndim != 2:
            raise ValueError("CrossEntropy expects (batch, classes) logits")
        target = np.asarray(target)
        if target.ndim == 1:
            one_hot = np.zeros_like(prediction)
            one_hot[np.arange(len(target)), target.astype(int)] = 1.0
            target = one_hot
        if target.shape != prediction.shape:
            raise ValueError("target shape does not match logits shape")
        shifted = prediction - prediction.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        self._cache = (np.exp(log_probs), target)
        return float(-(target * log_probs).sum(axis=1).mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, target = self._cache
        batch = probs.shape[0]
        return ((probs - target) / batch).astype(self._grad_dtype, copy=False)


class MeanSquaredError(Loss):
    """Mean squared error over all elements."""

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction = np.asarray(prediction, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if prediction.shape != target.shape:
            raise ValueError("prediction and target shapes differ")
        self._cache = (prediction, target)
        return float(((prediction - target) ** 2).mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        prediction, target = self._cache
        return 2.0 * (prediction - target) / prediction.size


class WassersteinLoss(Loss):
    """Wasserstein critic loss.

    ``target`` is +1 for samples whose score should be maximised (real for
    the critic, fake for the generator step) and -1 for samples whose score
    should be minimised.  The loss is ``mean(-target * prediction)``.
    """

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction = np.asarray(prediction, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if prediction.shape != target.shape:
            raise ValueError("prediction and target shapes differ")
        self._cache = (prediction, target)
        return float((-target * prediction).mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        prediction, target = self._cache
        return -target / prediction.size


class HingeGANLoss(Loss):
    """Hinge GAN loss for the discriminator, ``mean(relu(1 - target*score))``."""

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction = np.asarray(prediction, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if prediction.shape != target.shape:
            raise ValueError("prediction and target shapes differ")
        margin = 1.0 - target * prediction
        self._cache = (prediction, target)
        self._active = margin > 0
        return float(np.maximum(margin, 0.0).mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        prediction, target = self._cache
        grad = np.where(self._active, -target, 0.0)
        return grad / prediction.size


class GaussianKLDivergence(Loss):
    """KL( N(mu, sigma^2) || N(0, 1) ) summed over latent dims, averaged over batch.

    ``forward`` takes the concatenation ``[mu, log_var]`` along the feature
    axis as the prediction (target is ignored and may be ``None``); the
    backward pass returns the gradient with respect to that concatenation.
    """

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray | None = None) -> float:
        prediction = np.asarray(prediction, dtype=np.float64)
        if prediction.shape[1] % 2 != 0:
            raise ValueError("expected concatenated [mu, log_var] with even width")
        half = prediction.shape[1] // 2
        mu = prediction[:, :half]
        log_var = prediction[:, half:]
        self._cache = (mu, log_var)
        kl = 0.5 * (np.exp(log_var) + mu**2 - 1.0 - log_var)
        return float(kl.sum(axis=1).mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        mu, log_var = self._cache
        batch = mu.shape[0]
        grad_mu = mu / batch
        grad_log_var = 0.5 * (np.exp(log_var) - 1.0) / batch
        return np.concatenate([grad_mu, grad_log_var], axis=1)
