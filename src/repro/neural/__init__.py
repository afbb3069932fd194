"""A small, from-scratch neural-network framework used by every generative
model in this reproduction.

The execution environment does not provide PyTorch, so the GAN / VAE models
are implemented on top of this package.  It offers the usual building blocks:

* :mod:`repro.neural.layers` -- dense layers, activations, batch-norm,
  dropout, residual blocks and a straight-through Gumbel-softmax.
* :mod:`repro.neural.losses` -- binary/softmax cross entropy, MSE, Wasserstein
  and hinge GAN criteria and the Gaussian KL divergence used by the TVAE.
* :mod:`repro.neural.optimizers` -- SGD (with momentum), RMSprop and Adam,
  each stepping one network's flat parameter arena (:mod:`repro.neural.arena`).
* :mod:`repro.neural.network` -- a ``Sequential`` container with manual
  forward / backward passes and ``.npz`` serialisation.
* :mod:`repro.neural.ode` -- a fixed-step ODE block used by the OCTGAN
  baseline.

Everything works on plain ``numpy.ndarray`` batches of shape
``(batch, features)``; backward passes are hand-written per layer.
"""

from repro.neural.initializers import (
    glorot_uniform,
    he_normal,
    normal_init,
    zeros_init,
)
from repro.neural.layers import (
    BatchNorm,
    Dense,
    Dropout,
    GumbelSoftmax,
    Layer,
    LeakyReLU,
    ReLU,
    Residual,
    Sigmoid,
    Softmax,
    Tanh,
)
from repro.neural.losses import (
    BinaryCrossEntropy,
    CrossEntropy,
    GaussianKLDivergence,
    HingeGANLoss,
    Loss,
    MeanSquaredError,
    WassersteinLoss,
)
from repro.neural.network import Sequential
from repro.neural.optimizers import SGD, Adam, Optimizer, RMSprop
from repro.neural.schedulers import (
    CosineAnnealing,
    ExponentialDecay,
    LinearWarmup,
    Scheduler,
    StepDecay,
)
from repro.neural.ode import ODEBlock

__all__ = [
    "glorot_uniform",
    "he_normal",
    "normal_init",
    "zeros_init",
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
    "Loss",
    "BinaryCrossEntropy",
    "CrossEntropy",
    "MeanSquaredError",
    "WassersteinLoss",
    "HingeGANLoss",
    "GaussianKLDivergence",
    "Sequential",
    "Optimizer",
    "SGD",
    "RMSprop",
    "Adam",
    "Scheduler",
    "StepDecay",
    "ExponentialDecay",
    "CosineAnnealing",
    "LinearWarmup",
    "ODEBlock",
]
