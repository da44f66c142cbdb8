"""The one fault vocabulary (``repro.core.faults``).

Oracles kept here, verbatim from the implementation the vocabulary
replaced:

* ``FaultScenario.apply`` / ``revert`` — the warm what-if path. Every
  plan the four what-if generators make, on a ring and on fig2, must
  leave the same kernel event count and the same forwarding
  fingerprints after apply and after revert as the old scenario did on
  a twin deployment with the same seed.
* the ``PodCrash`` branch of the chaos injector — a ``NodeDown`` must
  write the same chaos log, apart from the renamed kind strings.
"""

from dataclasses import dataclass
from typing import Union

import pytest

from repro.chaos import injector as injector_module
from repro.chaos.injector import ChaosInjector
from repro.core.context import ScenarioContext
from repro.core.faults import (
    ConvergenceStall,
    FaultPlan,
    GnmiFlake,
    LinkDown,
    LinkLoss,
    NodeDown,
    SlowBoot,
    StaleAft,
)
from repro.core.pipeline import ModelFreeBackend
from repro.corpus.fig2 import fig2_scenario
from repro.corpus.fig3 import fig3_scenario
from repro.dataplane.model import Dataplane
from repro.gnmi.server import dump_afts
from repro.kube.kne import KneDeployment
from repro.protocols.timers import FAST_TIMERS
from repro.sim.kernel import SimKernel
from repro.whatif import (
    WhatIfCampaign,
    k_link_failures,
    link_flap_scenarios,
    single_link_failures,
    single_node_failures,
)
from tests.test_whatif import build_ring

# -- the old warm path, verbatim ----------------------------------------------

KIND_LINK_CUT = "link-cut"
KIND_NODE_DOWN = "node-down"
KIND_K_LINK_CUT = "k-link-cut"
KIND_LINK_FLAP = "link-flap"


@dataclass(frozen=True)
class FaultScenario:
    name: str
    kind: str
    links: tuple[tuple[str, str], ...] = ()
    nodes: tuple[str, ...] = ()
    flap_hold: float = 0.0

    def apply(self, deployment: "KneDeployment") -> None:
        """Perturb a live, converged deployment."""
        if self.kind == KIND_NODE_DOWN:
            for node in self.nodes:
                deployment.node_down(node)
            return
        for a_node, z_node in self.links:
            deployment.link_down(a_node, z_node)
        if self.kind == KIND_LINK_FLAP:
            # The restore is pre-scheduled on the simulated clock, so a
            # single wait_converged over the whole flap observes both
            # transitions; min_quiet_period guarantees the quiet window
            # cannot elapse while the link_up event is still pending.
            for a_node, z_node in self.links:
                deployment.kernel.schedule(
                    self.flap_hold,
                    lambda a=a_node, z=z_node: deployment.link_up(a, z),
                    label=f"whatif-flap-restore:{a_node}-{z_node}",
                )

    def revert(self, deployment: "KneDeployment") -> None:
        """Undo :meth:`apply` (no-op for self-reverting scenarios)."""
        if self.self_reverting:
            return
        if self.kind == KIND_NODE_DOWN:
            for node in self.nodes:
                deployment.node_up(node)
            return
        for a_node, z_node in self.links:
            deployment.link_up(a_node, z_node)

    @property
    def self_reverting(self) -> bool:
        return self.kind == KIND_LINK_FLAP

    @property
    def min_quiet_period(self) -> float:
        """Quiet window floor so pre-scheduled restores aren't missed."""
        return self.flap_hold + 1.0 if self.kind == KIND_LINK_FLAP else 0.0


# -- the old chaos crash, verbatim --------------------------------------------


@dataclass(frozen=True)
class PodCrash:
    node: str
    at: float
    restart_after: Union[float, None] = None

    @property
    def kind(self) -> str:
        return "pod-crash"

    @property
    def target(self) -> str:
        return self.node


class ParentInjector(ChaosInjector):
    """The injector with its old ``PodCrash`` branch."""

    def _activate(self, fault) -> None:
        if not isinstance(fault, PodCrash):
            return super()._activate(fault)
        self._record("activate", fault.kind, fault.target)
        self.deployment.node_down(fault.node)
        if fault.restart_after is not None:
            self.deployment.kernel.schedule(
                fault.restart_after,
                lambda: self._restore(fault),
                label=f"chaos:restart:{fault.node}",
            )

    def _restore(self, fault: PodCrash) -> None:
        self._record("fire", "pod-restart", fault.node)
        self.deployment.node_up(fault.node)


# -- the warm oracle ----------------------------------------------------------


def as_scenario(plan: FaultPlan, topology) -> FaultScenario:
    """The old scenario the old generators made for ``plan``."""
    nodes = tuple(f.node for f in plan.faults if isinstance(f, NodeDown))
    links = tuple(
        (link.a.node, link.z.node)
        for node in nodes
        for link in topology.links_of(node)
    ) or tuple((f.a, f.z) for f in plan.faults)
    holds = {f.restore_after or 0.0 for f in plan.faults}
    kind = {
        "link:": KIND_LINK_CUT,
        "node:": KIND_NODE_DOWN,
        "klink": KIND_K_LINK_CUT,
        "flap:": KIND_LINK_FLAP,
    }[plan.name[:5]]
    return FaultScenario(plan.name, kind, links, nodes, max(holds))


def warm_trail(topology, scenarios, seed):
    """Apply, converge, revert every scenario on one warm deployment:
    (events, fingerprint) after each apply and after each revert."""
    deployment = KneDeployment(topology, timers=FAST_TIMERS, seed=seed)
    deployment.deploy()
    deployment.wait_converged(quiet_period=5.0)

    def observed():
        live = sorted(set(deployment.routers) - deployment.failed_nodes())
        dataplane = Dataplane.from_afts(dump_afts(deployment, nodes=live))
        return deployment.kernel.events_processed, dataplane.fib_fingerprint()

    trail = []
    for scenario in scenarios:
        scenario.apply(deployment)
        deployment.wait_converged(
            quiet_period=max(5.0, scenario.min_quiet_period)
        )
        trail.append(observed())
        scenario.revert(deployment)
        deployment.wait_converged(quiet_period=5.0)
        trail.append(observed())
    return trail


def generated_plans(topology):
    return [
        *single_link_failures(topology),
        *single_node_failures(topology),
        *k_link_failures(topology),
        *link_flap_scenarios(topology, hold_seconds=10.0),
    ]


@pytest.mark.parametrize(
    "topology",
    [build_ring(), fig2_scenario().topology],
    ids=["ring", "fig2"],
)
def test_plans_match_the_old_scenarios_event_for_event(topology):
    plans = generated_plans(topology)
    old = [as_scenario(plan, topology) for plan in plans]
    assert [p.kind for p in plans] == [s.kind for s in old]
    assert [p.self_reverting for p in plans] == [
        s.self_reverting for s in old
    ]
    assert [p.min_quiet_period for p in plans] == [
        s.min_quiet_period for s in old
    ]
    new_trail = warm_trail(topology, plans, seed=5)
    assert new_trail == warm_trail(topology, old, seed=5)
    # The sweep did something: every cut moved the forwarding state.
    baseline = new_trail[1][1]
    assert all(
        applied[1] != baseline
        for plan, applied in zip(plans, new_trail[::2])
        if not plan.self_reverting
    )


# -- the chaos oracle ---------------------------------------------------------


def chaos_run(crash):
    plan = FaultPlan(
        "crash", (GnmiFlake("r1", failures=2), SlowBoot("r2", 2.0), crash)
    )
    backend = ModelFreeBackend(
        fig2_scenario().topology, timers=FAST_TIMERS, quiet_period=5.0
    )
    return backend.run(seed=7, chaos=plan)


def test_node_down_logs_like_the_old_pod_crash(monkeypatch):
    new = chaos_run(NodeDown("r3", at=1000.0))
    monkeypatch.setattr(injector_module, "ChaosInjector", ParentInjector)
    old = chaos_run(PodCrash("r3", at=1000.0))
    renamed = {"pod-crash": "node-down"}
    old_log = [
        [t, action, renamed.get(kind, kind), target]
        for t, action, kind, target in old.metadata["chaos"]["log"]
    ]
    assert new.metadata["chaos"]["log"] == old_log
    assert any(entry[2] == "node-down" for entry in old_log)
    assert new.degraded_nodes == old.degraded_nodes == {"r3": "pod-failed"}
    assert new.dataplane.fib_fingerprint() == old.dataplane.fib_fingerprint()


def test_a_restart_after_the_quiet_point_still_fires():
    """A restore later than the run's first quiet point is waited for:
    the node comes back instead of being reported degraded."""
    plan = FaultPlan("restart", (NodeDown("r2", at=900.0, restore_after=30.0),))
    assert plan.horizon == 930.0
    snapshot = ModelFreeBackend(
        fig3_scenario().topology, timers=FAST_TIMERS, quiet_period=5.0
    ).run(chaos=plan)
    assert snapshot.degraded_nodes == {}
    log = snapshot.metadata["chaos"]["log"]
    assert [entry[1:] for entry in log] == [
        ["activate", "node-down", "r2"],
        ["fire", "node-up", "r2"],
    ]
    assert log[1][0] == 930.0


# -- the plan itself ----------------------------------------------------------


class StubDeployment:
    """Records the topology calls a plan makes, on a real kernel."""

    def __init__(self) -> None:
        self.kernel = SimKernel()
        self.calls: list[tuple] = []

    def __getattr__(self, verb):
        if verb not in ("link_down", "link_up", "node_down", "node_up"):
            raise AttributeError(verb)
        return lambda *names: self.calls.append((self.kernel.now, verb, *names))


class TestFaultPlan:
    def test_horizon_counts_restores_not_loss_or_stall_durations(self):
        plan = FaultPlan(
            "mix",
            (
                LinkLoss("a", "b", at=10.0, duration=1e9),
                ConvergenceStall(at=20.0, duration=1e9),
                LinkDown("a", "b", at=5.0, restore_after=40.0),
                SlowBoot("a"),
            ),
        )
        assert plan.horizon == 45.0
        assert FaultPlan("boot", (SlowBoot("a"),)).horizon == 0.0

    @pytest.mark.parametrize(
        "faults, kind",
        [
            ((LinkDown("a", "b"),), "link-cut"),
            ((LinkDown("a", "b"), LinkDown("b", "c")), "k-link-cut"),
            ((LinkDown("a", "b", restore_after=3.0),), "link-flap"),
            ((NodeDown("a"),), "node-down"),
            ((NodeDown("a"), LinkDown("b", "c")), "mixed"),
        ],
    )
    def test_kind_is_derived_from_the_faults(self, faults, kind):
        assert FaultPlan("p", faults).kind == kind

    @pytest.mark.parametrize(
        "fault",
        [
            GnmiFlake("r1"),
            StaleAft("r1"),
            LinkLoss("r1", "r2"),
            SlowBoot("r1"),
            ConvergenceStall(),
        ],
    )
    def test_substrate_faults_have_no_warm_form(self, fault):
        topology = fig3_scenario().topology
        plan = FaultPlan("substrate", (LinkDown("r1", "r2"), fault))
        with pytest.raises(ValueError, match=fault.kind):
            WhatIfCampaign(topology, [plan])
        with pytest.raises(ValueError):
            plan.to_context(ScenarioContext(), topology)

    def test_apply_refuses_before_touching_the_deployment(self):
        deployment = StubDeployment()
        plan = FaultPlan("p", (LinkDown("r1", "r2"), GnmiFlake("r1")))
        with pytest.raises(ValueError):
            plan.apply(deployment)
        assert deployment.calls == []
        assert deployment.kernel.pending() == 0

    def test_warm_faults_fire_at_and_restore_after(self):
        deployment = StubDeployment()
        plan = FaultPlan(
            "timed",
            (
                LinkDown("r1", "r2"),
                NodeDown("r3", at=20.0, restore_after=10.0),
                LinkDown("r2", "r3", restore_after=5.0),
            ),
        )
        assert not plan.self_reverting
        assert plan.min_quiet_period == 31.0
        plan.apply(deployment)
        deployment.kernel.run()
        plan.revert(deployment)
        assert deployment.calls == [
            (0.0, "link_down", "r1", "r2"),
            (0.0, "link_down", "r2", "r3"),
            (5.0, "link_up", "r2", "r3"),
            (20.0, "node_down", "r3"),
            (30.0, "node_up", "r3"),
            (30.0, "link_up", "r1", "r2"),
        ]

    def test_node_down_context_cuts_the_attached_links(self):
        topology = fig3_scenario().topology
        plan = FaultPlan("node:r2", (NodeDown("r2"),))
        context = plan.to_context(ScenarioContext(), topology)
        assert context.faults == tuple(
            LinkDown(link.a.node, link.z.node)
            for link in topology.links_of("r2")
        )
