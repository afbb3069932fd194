"""Federated learning for distributed NIDS (the paper's future-work agenda).

The paper's conclusion sketches the extensions this subpackage implements:

* **federated detector training** -- devices jointly train one intrusion
  detector by exchanging only model weights
  (:class:`FederatedClient` / :class:`FederatedServer`,
  :class:`FederatedNIDSSimulation`);
* **differential privacy for contributions** -- client-level DP-FedAvg with
  Renyi-DP accounting (:class:`DPFedAvgConfig`, :class:`DPFedAvgMechanism`);
* **federated KiNETGAN** -- the generative model itself is trained across
  sites with weight averaging, so synthetic data can be produced jointly
  without any traffic leaving a device (:class:`FederatedKiNETGAN`).
"""

from repro.federated.aggregation import safe_mean
from repro.federated.client import ClientUpdate, FederatedClient
from repro.federated.dp import DPFedAvgConfig, DPFedAvgMechanism
from repro.federated.kinetgan import (
    FederatedKiNETGAN,
    FederatedKiNETGANRound,
    FederatedKiNETGANSite,
)
from repro.federated.parameters import (
    StateCodec,
    StateDict,
    copy_state,
    state_subtract,
    weighted_average,
)
from repro.federated.partition import dirichlet_partition, iid_partition, label_skew_partition
from repro.federated.server import FederatedHistory, FederatedRound, FederatedServer
from repro.federated.simulation import (
    DetectorFactory,
    FederatedNIDSResult,
    FederatedNIDSSimulation,
)

__all__ = [
    "StateCodec",
    "StateDict",
    "copy_state",
    "state_subtract",
    "weighted_average",
    "safe_mean",
    "DPFedAvgConfig",
    "DPFedAvgMechanism",
    "ClientUpdate",
    "FederatedClient",
    "DetectorFactory",
    "FederatedRound",
    "FederatedHistory",
    "FederatedServer",
    "iid_partition",
    "label_skew_partition",
    "dirichlet_partition",
    "FederatedKiNETGANSite",
    "FederatedKiNETGANRound",
    "FederatedKiNETGAN",
    "FederatedNIDSResult",
    "FederatedNIDSSimulation",
]
