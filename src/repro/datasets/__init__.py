"""Datasets used by the reproduction.

The paper evaluates on (1) a privately collected lab IoT capture and (2) the
UNSW-NB15 dataset.  Neither is available in this offline environment, so this
subpackage provides seeded synthetic stand-ins.  Each keeps what the
experiments exercise -- the published schema and class imbalance, and the
protocol/service/port rules the knowledge graph encodes -- and its module
docstring states what it substitutes:

* :mod:`repro.datasets.lab_iot` -- a parametric simulator of the paper's lab
  network (Blink camera, smart plug, motion sensor, tag manager) producing
  Wireshark-style flow records with benign events and injected attacks,
  including the CVE-1999-0003 port-range example from the paper.
* :mod:`repro.datasets.unsw_nb15` -- a generator reproducing the UNSW-NB15
  schema (flow / basic / content / time feature groups, nine attack families
  plus normal traffic) and its protocol/service/port co-occurrence rules.
* :mod:`repro.datasets.nsl_kdd` -- the NSL-KDD benchmark (41 features, five
  class groups) as an additional public-NIDS stand-in.
* :mod:`repro.datasets.cicids2017` -- CIC-IDS-2017 flow records with the
  published attack families and attack-to-port rules.
* :mod:`repro.datasets.registry` -- ``load_dataset(name)`` convenience entry
  point returning a :class:`~repro.datasets.base.DatasetBundle`.

Every dataset publishes a :class:`~repro.knowledge.catalog.DomainCatalog`, so
the knowledge-graph pipeline works identically on all of them.  The seeded
output of every simulator is pinned bit for bit by the golden digests in
``tests/datasets/test_golden.py``.
"""

from repro.datasets.base import DatasetBundle
from repro.datasets.cicids2017 import (
    CICIDS2017Generator,
    cicids2017_catalog,
    cicids2017_schema,
    load_cicids2017,
)
from repro.datasets.lab_iot import (
    LabIoTSimulator,
    lab_iot_catalog,
    lab_iot_schema,
    load_lab_iot,
)
from repro.datasets.nsl_kdd import (
    NSLKDDGenerator,
    load_nsl_kdd,
    nsl_kdd_catalog,
    nsl_kdd_schema,
)
from repro.datasets.unsw_nb15 import (
    UNSWNB15Generator,
    load_unsw_nb15,
    unsw_nb15_catalog,
    unsw_nb15_schema,
)
from repro.datasets.registry import available_datasets, load_dataset

__all__ = [
    "DatasetBundle",
    "LabIoTSimulator",
    "lab_iot_catalog",
    "lab_iot_schema",
    "load_lab_iot",
    "UNSWNB15Generator",
    "unsw_nb15_catalog",
    "unsw_nb15_schema",
    "load_unsw_nb15",
    "NSLKDDGenerator",
    "nsl_kdd_catalog",
    "nsl_kdd_schema",
    "load_nsl_kdd",
    "CICIDS2017Generator",
    "cicids2017_catalog",
    "cicids2017_schema",
    "load_cicids2017",
    "load_dataset",
    "available_datasets",
]
