"""Shared fixtures.

Expensive emulation runs (full Fig. 2 / Fig. 3 pipelines) are
session-scoped: many tests assert different properties of the same
converged snapshots.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.context import ScenarioContext
from repro.core.pipeline import ModelFreeBackend, NativeBatfishBackend
from repro.corpus.fig2 import fig2_scenario
from repro.corpus.fig3 import fig3_scenario
from repro.corpus.production import production_scenario, scaled_timers
from repro.protocols.timers import FAST_TIMERS
from repro.whatif.scenarios import _unique_node_pairs

# The CI sweep (``--hypothesis-profile=ci``): many more examples, no
# per-example deadline. Tier-1 runs keep hypothesis's default profile.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def fig3():
    return fig3_scenario()


@pytest.fixture(scope="session")
def fig3_emulated(fig3):
    backend = ModelFreeBackend(fig3.topology, timers=FAST_TIMERS,
                               quiet_period=5.0)
    snapshot = backend.run(snapshot_name="fig3-emulated")
    return backend, snapshot


@pytest.fixture(scope="session")
def fig3_model(fig3):
    backend = NativeBatfishBackend(fig3.topology)
    return backend, backend.run(snapshot_name="fig3-model")


@pytest.fixture(scope="session")
def fig2():
    return fig2_scenario()


@pytest.fixture(scope="session")
def fig2_snapshots(fig2):
    healthy_backend = ModelFreeBackend(
        fig2.topology, timers=FAST_TIMERS, quiet_period=5.0
    )
    healthy = healthy_backend.run(snapshot_name="fig2-healthy")
    buggy_backend = ModelFreeBackend(
        fig2.buggy_topology(), timers=FAST_TIMERS, quiet_period=5.0
    )
    buggy = buggy_backend.run(snapshot_name="fig2-buggy")
    return healthy, buggy


@pytest.fixture(scope="session")
def production6_states():
    """A converged 6-node production fabric (40 routes per peer) and
    then the same fabric under each of its single-link cuts."""
    scenario = production_scenario(6, peers=1, routes_per_peer=40, seed=7)
    backend = ModelFreeBackend(
        scenario.topology, timers=scaled_timers(40), quiet_period=30.0
    )
    context = ScenarioContext(name="prod", injectors=tuple(scenario.injectors))
    return [backend.run(context)] + [
        backend.run(context.with_link_down(a, z))
        for a, z in _unique_node_pairs(scenario.topology)
    ]


@pytest.fixture()
def fast_context():
    return ScenarioContext()
