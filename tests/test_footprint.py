"""Import-footprint guard for the modules every site, worker and server loads.

A process that trains, federates or serves imports ``repro.core``,
``repro.datasets``, ``repro.knowledge``, ``repro.federated.kinetgan`` and
``repro.serve``.  None of those paths needs ``networkx`` or ``scipy``
(together about 30 MB resident), so a top-level import of either would
quietly grow every process.  ``scipy.special`` is loaded on demand by the
Renyi-DP accountant, whose epsilons are pinned here too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_SCRIPT = """
import json, sys
import repro.core, repro.datasets, repro.knowledge, repro.federated.kinetgan, repro.serve

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("networkx", "scipy"))

at_import = heavy()
from repro.privacy.accountant import RDPAccountant  # already loaded by the federated layer
accountant = RDPAccountant()
accountant.step(noise_multiplier=1.1, sample_rate=256 / 60000, steps=1000)
accountant.step(noise_multiplier=0.7, sample_rate=0.05, steps=30)
epsilon, order = accountant.get_epsilon_and_order(1e-5)
print(json.dumps({
    "at_import": at_import,
    "after_dp": "scipy.special" in sys.modules,
    "networkx": "networkx" in sys.modules,
    "epsilon": epsilon,
    "order": order,
}))
"""


def test_workload_imports_load_neither_networkx_nor_scipy():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["at_import"] == []
    # The first DP evaluation loads scipy and gives the epsilon recorded
    # when scipy was a module-level import (bit for bit: repr round-trips).
    assert report["after_dp"] is True
    assert report["networkx"] is False
    assert report["epsilon"] == 7.283914502554623
    assert report["order"] == 3
