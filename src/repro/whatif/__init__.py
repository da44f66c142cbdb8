"""What-if campaigns: warm-deployment fault exploration.

Perturb a live, converged emulation, measure incremental
re-convergence, verify against the baseline, revert — instead of paying
a full cold deployment per failure scenario. See
``docs/architecture.md`` ("What-if campaigns").
"""

from repro.whatif.campaign import (
    CampaignEnsembleResult,
    WhatIfCampaign,
    cold_run,
)
from repro.whatif.report import CampaignReport, ScenarioVerdict
from repro.whatif.scenarios import (
    k_link_failures,
    link_flap_scenarios,
    single_link_failures,
    single_node_failures,
)

__all__ = [
    "CampaignEnsembleResult",
    "CampaignReport",
    "ScenarioVerdict",
    "WhatIfCampaign",
    "cold_run",
    "k_link_failures",
    "link_flap_scenarios",
    "single_link_failures",
    "single_node_failures",
]
