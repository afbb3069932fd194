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

from repro.federated.aggregation import fedavg_aggregate, safe_mean
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
    clip_state_norm,
    copy_state,
    flatten_state,
    state_add,
    state_l2_norm,
    state_scale,
    state_subtract,
    unflatten_state,
    weighted_average,
    zeros_like_state,
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
    "zeros_like_state",
    "state_add",
    "state_subtract",
    "state_scale",
    "state_l2_norm",
    "clip_state_norm",
    "weighted_average",
    "flatten_state",
    "unflatten_state",
    "fedavg_aggregate",
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
