"""Distributed NIDS via synthetic-data sharing.

The paper motivates KiNETGAN with distributed intrusion detection: devices
cannot share raw traffic (privacy, regulation), so each device trains a
local knowledge-infused generator and shares *synthetic* traffic instead;
a coordinator aggregates the shares and trains the global NIDS model.

This subpackage simulates that deployment end to end:

* :mod:`repro.distributed.protocol` -- the messages exchanged.
* :class:`repro.distributed.node.DeviceNode` -- a device holding local
  traffic, its local synthesizer and its local detector.
* :class:`repro.distributed.coordinator.Coordinator` -- collects synthetic
  shares and trains the global classifier.
* :class:`repro.distributed.simulation.DistributedNIDSSimulation` -- splits
  a dataset across nodes (optionally non-IID), runs the whole exchange and
  compares local-only, synthetic-sharing and centralised-real detection
  accuracy (experiment A3, ``benchmarks/test_distributed_nids.py``).
"""

from repro.distributed.protocol import SyntheticShare, EvaluationSummary
from repro.distributed.node import DeviceNode
from repro.distributed.coordinator import Coordinator
from repro.distributed.simulation import DistributedNIDSSimulation, SimulationResult

__all__ = [
    "SyntheticShare",
    "EvaluationSummary",
    "DeviceNode",
    "Coordinator",
    "DistributedNIDSSimulation",
    "SimulationResult",
]
