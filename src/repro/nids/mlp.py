"""MLP classifier built on :mod:`repro.neural`."""

from __future__ import annotations

import numpy as np

from repro.neural.layers import Dense, ReLU
from repro.neural.losses import CrossEntropy
from repro.neural.network import Sequential
from repro.neural.optimizers import Adam

__all__ = ["MLPClassifier"]


class MLPClassifier:
    """Two-hidden-layer multilayer perceptron with softmax output."""

    def __init__(
        self,
        hidden_dims: tuple[int, ...] = (64, 32),
        learning_rate: float = 1e-3,
        epochs: int = 60,
        batch_size: int = 128,
        seed: int = 0,
    ) -> None:
        if epochs <= 0 or batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        self.hidden_dims = hidden_dims
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.network: Sequential | None = None
        self.n_classes = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=int)
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        rng = np.random.default_rng(self.seed)
        self.n_classes = int(y.max()) + 1
        layers = []
        width = X.shape[1]
        for hidden in self.hidden_dims:
            layers.append(Dense(width, hidden, rng=rng, init="he"))
            layers.append(ReLU())
            width = hidden
        layers.append(Dense(width, self.n_classes, rng=rng, init="glorot"))
        self.network = Sequential(layers)
        self.network.consolidate()
        optimizer = Adam(self.network, lr=self.learning_rate)
        loss = CrossEntropy()
        for _ in range(self.epochs):
            indices = rng.permutation(len(X))
            for start in range(0, len(X), self.batch_size):
                batch = indices[start : start + self.batch_size]
                logits = self.network.forward(X[batch], training=True)
                loss.forward(logits, y[batch])
                self.network.zero_grad()
                self.network.backward(loss.backward())
                optimizer.step()
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.network is None:
            raise RuntimeError("classifier used before fit()")
        logits = self.network.forward(np.asarray(X, dtype=np.float64), training=False)
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        return probs / probs.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)
