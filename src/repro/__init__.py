"""repro — model-free network verification.

A from-scratch reproduction of "Towards Accessible Model-Free
Verification" (HotNets '25): container-style control-plane emulation,
gNMI/OpenConfig AFT extraction, an exhaustive dataplane verification
engine with a Pybatfish-style frontend, and a model-based baseline to
compare against.

Quickstart::

    from repro import ModelFreeBackend, Session
    from repro.corpus import fig3_scenario

    scenario = fig3_scenario()
    snapshot = ModelFreeBackend(scenario.topology).run()

    bf = Session()
    bf.init_snapshot(snapshot, name="emulated")
    print(bf.q.routes(nodes="r2").answer())
"""

from repro.core import (
    FaultPlan,
    ModelFreeBackend,
    NativeBatfishBackend,
    ScenarioContext,
    Snapshot,
    compare_snapshots,
)
from repro.ensemble import (
    HOLDS_ALWAYS,
    HOLDS_SOMETIMES,
    NEVER,
    EnsembleReport,
    EnsembleRunner,
    InvariantVerdict,
)
from repro.pybf import Session
from repro.whatif import (
    CampaignReport,
    WhatIfCampaign,
    single_link_failures,
    single_node_failures,
)

__version__ = "1.0.0"

__all__ = [
    "HOLDS_ALWAYS",
    "HOLDS_SOMETIMES",
    "NEVER",
    "CampaignReport",
    "EnsembleReport",
    "EnsembleRunner",
    "FaultPlan",
    "InvariantVerdict",
    "ModelFreeBackend",
    "NativeBatfishBackend",
    "ScenarioContext",
    "Session",
    "Snapshot",
    "WhatIfCampaign",
    "compare_snapshots",
    "single_link_failures",
    "single_node_failures",
    "__version__",
]
