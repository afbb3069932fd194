"""KiNETGAN reproduction package.

This package reproduces "KiNETGAN: Enabling Distributed Network Intrusion
Detection through Knowledge-Infused Synthetic Data Generation" (ICDCS 2024)
as a self-contained Python library built only on numpy and scipy.

Architecturally the package is layered around one shared training engine:
:mod:`repro.engine` owns every epoch/batch loop in the repository -- seeded
batch iteration, metric averaging, and a callback stack for history
recording, periodic logging, early stopping and checkpointing.  KiNETGAN,
each GAN/VAE baseline and the federated detector clients plug into it as
small ``TrainStep`` objects, so loop-level features and optimisations (the
vectorized one-hot hardening in
:meth:`repro.tabular.transformer.DataTransformer.harden`, batched
knowledge-graph validity scoring, bit-reproducible seeding) are implemented
once and shared by every model.

Top-level convenience re-exports cover the most common entry points:

* :class:`repro.core.KiNETGAN` -- the paper's synthesizer.
* :mod:`repro.engine` -- ``TrainingEngine``, the ``TrainStep`` protocol,
  callbacks (``History``, ``PeriodicLogger``, ``EarlyStopping``,
  ``Checkpointer``) and the seeding helpers.
* :mod:`repro.baselines` -- CTGAN, TVAE, TableGAN, PATEGAN, OCTGAN.
* :mod:`repro.datasets` -- simulators for the lab IoT capture, UNSW-NB15,
  NSL-KDD and CIC-IDS-2017.
* :mod:`repro.knowledge` -- the UCO-extended ontology, NetworkKG and reasoner.
* :mod:`repro.fidelity`, :mod:`repro.nids`, :mod:`repro.privacy` -- the
  evaluation battery (Table I, Figures 3-7) plus divergence / propensity /
  coverage diagnostics and Renyi-DP accounting.
* :mod:`repro.distributed` -- the synthetic-sharing distributed NIDS scenario.
* :mod:`repro.federated` -- FedAvg / FedProx / DP-FedAvg and
  federated KiNETGAN (the paper's future-work agenda).
* :mod:`repro.runtime` -- the serial / process-pool executors the multi-node
  layers run on; seeded parallel runs are bit-identical to serial ones.
* :mod:`repro.serve` -- versioned model artifacts (``save_model`` /
  ``load_model`` with bit-identical reload sampling), the ``ServingPool``
  every served request runs through (in-process or behind the HTTP
  ``SamplingHTTPServer``) and chunked ``sample_stream``.
* :mod:`repro.cli` -- ``python -m repro {datasets, generate, save, sample,
  serve, evaluate, federated, distributed}``, including the engine knobs
  ``--log-every``, ``--patience`` and ``--checkpoint-dir`` on ``generate``
  and the runtime's ``--workers`` on the multi-node commands.
"""

from repro._version import __version__

__all__ = ["__version__"]
