"""What-if campaign subsystem tests.

The campaign's correctness claims, each pinned here:

* scenario generators cover exactly the advertised sweep;
* a warm single-link campaign over a ring is fault-tolerant end to end
  (no new invariant violations, clean reverts) and its per-scenario
  AFTs match a cold-run oracle by fingerprint;
* flaps return the network to the baseline (the transient leaves no
  residue);
* node kills surface real damage and restore cleanly;
* a dirty revert triggers the cold-reset fallback without poisoning
  later verdicts;
* the process-pool mode agrees with the sequential path.
"""

import json

import pytest

from repro.core.context import ScenarioContext
from repro.core.faults import FaultPlan, LinkDown, NodeDown
from repro.protocols.timers import FAST_TIMERS
from repro.topo.builder import ring_topology
from repro.topo.model import NodeSpec, Topology
from repro.whatif import (
    CampaignReport,
    ScenarioVerdict,
    WhatIfCampaign,
    cold_run,
    k_link_failures,
    link_flap_scenarios,
    single_link_failures,
    single_node_failures,
)
from tests.helpers import isis_config

RING_SIZE = 4


def build_ring(n: int = RING_SIZE) -> Topology:
    """An n-ring with IS-IS everywhere: single-fault tolerant by design."""
    topology = ring_topology(n)
    addresses: dict[str, list[tuple[str, str]]] = {}
    for j, link in enumerate(topology.links):
        base = f"10.0.{j}"
        addresses.setdefault(link.a.node, []).append(
            (link.a.interface, f"{base}.0/31")
        )
        addresses.setdefault(link.z.node, []).append(
            (link.z.interface, f"{base}.1/31")
        )
    for i, spec in enumerate(topology.nodes, start=1):
        spec.config = isis_config(
            spec.name, i, f"2.2.2.{i}", addresses[spec.name]
        )
    return topology


def ring_campaign(scenarios, **kwargs) -> WhatIfCampaign:
    return WhatIfCampaign(
        build_ring(),
        scenarios,
        timers=FAST_TIMERS,
        quiet_period=5.0,
        **kwargs,
    )


class TestGenerators:
    def test_single_link_failures_cover_every_link(self):
        topology = build_ring()
        scenarios = list(single_link_failures(topology))
        assert len(scenarios) == len(topology.links)
        assert all(s.kind == "link-cut" for s in scenarios)
        assert all(len(s.faults) == 1 for s in scenarios)
        assert len({s.name for s in scenarios}) == len(scenarios)

    def test_parallel_links_deduplicated(self):
        # Two links between one node pair map to the same perturbation
        # (set_link_state resolves by node pair), so sweep the pair once.
        topology = Topology("parallel")
        topology.add_node(NodeSpec(name="a"))
        topology.add_node(NodeSpec(name="b"))
        topology.add_link("a", "eth1", "b", "eth1")
        topology.add_link("a", "eth2", "b", "eth2")
        scenarios = list(single_link_failures(topology))
        assert len(scenarios) == 1

    def test_single_node_failures_carry_attached_links(self):
        topology = build_ring()
        scenarios = list(single_node_failures(topology))
        assert len(scenarios) == RING_SIZE
        assert all(s.kind == "node-down" for s in scenarios)
        assert all(
            s.faults == (NodeDown(spec.name),)
            for s, spec in zip(scenarios, topology.nodes)
        )
        # Cold, a node kill is the cut of each attached link: two on a
        # ring.
        assert all(
            len(s.to_context(ScenarioContext(), topology).faults) == 2
            for s in scenarios
        )

    def test_k_link_failures_combinatorial(self):
        from math import comb

        topology = build_ring()
        scenarios = list(k_link_failures(topology, k=2))
        assert len(scenarios) == comb(RING_SIZE, 2)
        assert all(len(s.faults) == 2 for s in scenarios)
        assert all(s.kind == "k-link-cut" for s in scenarios)
        # One cut is one cut, whichever generator made it.
        assert {s.kind for s in k_link_failures(topology, k=1)} == {
            "link-cut"
        }
        with pytest.raises(ValueError):
            list(k_link_failures(topology, k=0))

    def test_flap_scenarios_self_revert(self):
        topology = build_ring()
        scenarios = list(link_flap_scenarios(topology, hold_seconds=7.0))
        assert len(scenarios) == RING_SIZE
        for s in scenarios:
            assert s.self_reverting
            assert s.kind == "link-flap"
            assert [f.restore_after for f in s.faults] == [7.0]
            assert s.min_quiet_period == 8.0
        with pytest.raises(ValueError):
            list(link_flap_scenarios(topology, hold_seconds=0.0))

    def test_to_context_expresses_link_scenarios(self):
        topology = build_ring()
        scenario = FaultPlan("link:a-b", (LinkDown("a", "b"),))
        context = scenario.to_context(ScenarioContext(), topology)
        assert context.faults == (LinkDown("a", "b"),)
        flap = FaultPlan("flap:a-b", (LinkDown("a", "b", restore_after=5.0),))
        # A flap's steady state is the baseline itself.
        assert flap.to_context(ScenarioContext(), topology) == ScenarioContext()

    def test_non_flap_min_quiet_is_zero(self):
        scenario = FaultPlan("link:a-b", (LinkDown("a", "b"),))
        assert scenario.min_quiet_period == 0.0
        assert not scenario.self_reverting


class TestSingleLinkCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        topology = build_ring()
        scenarios = list(single_link_failures(topology))
        campaign = WhatIfCampaign(
            topology, scenarios, timers=FAST_TIMERS, quiet_period=5.0
        )
        return campaign.run()

    def test_one_verdict_per_link(self, report):
        assert len(report.verdicts) == RING_SIZE

    def test_ring_survives_any_single_cut(self, report):
        # The ring's entire point: no loops, no blackholes, every pair
        # still reachable. The only behaviour change is the cut /31
        # itself disappearing, which shows up as regressed rows.
        for verdict in report.verdicts:
            assert verdict.new_loops == 0
            assert verdict.new_blackholes == 0
            assert verdict.new_unreachable_pairs == 0
            assert verdict.regressed > 0

    def test_all_scenarios_revert_cleanly(self, report):
        assert all(v.reverted_clean for v in report.verdicts)
        assert report.cold_resets == 0

    def test_incremental_beats_cold_by_3x(self, report):
        assert report.incremental_sim_seconds > 0
        assert report.speedup >= 3.0

    def test_warm_afts_match_cold_oracle(self, report):
        # The acceptance anchor: re-run one scenario from scratch with
        # the fault pre-applied; the warm path's extracted AFTs must be
        # identical by fingerprint.
        topology = build_ring()
        scenario = next(iter(single_link_failures(topology)))
        cold = cold_run(
            topology, scenario, timers=FAST_TIMERS, quiet_period=5.0
        )
        warm = next(
            v for v in report.verdicts if v.scenario == scenario.name
        )
        assert cold.dataplane.fib_fingerprint() == warm.fib_fingerprint

    def test_render_table(self, report):
        text = report.render()
        assert "what-if campaign" in text
        assert "x faster" in text
        for verdict in report.verdicts:
            assert verdict.scenario in text

    def test_to_dict_is_json_serializable(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["topology"] == "ring"
        assert len(payload["scenarios"]) == RING_SIZE
        assert payload["speedup"] >= 3.0

    def test_ranked_orders_by_severity_then_name(self, report):
        ranked = report.ranked()
        severities = [v.severity for v in ranked]
        assert severities == sorted(severities, reverse=True)


class TestFlapCampaign:
    def test_flap_returns_to_baseline(self):
        topology = build_ring()
        scenarios = list(link_flap_scenarios(topology, hold_seconds=10.0))[:2]
        campaign = WhatIfCampaign(
            topology, scenarios, timers=FAST_TIMERS, quiet_period=5.0
        )
        report = campaign.run()
        for verdict in report.verdicts:
            # The transient leaves no residue: by extraction time the
            # link is back and the dataplane equals the baseline.
            assert verdict.changed == 0
            assert verdict.severity == 0
            assert verdict.reverted_clean
            assert verdict.revert_seconds == 0.0


class TestExtractionWork:
    def test_one_fib_walk_per_router_version(self, monkeypatch):
        """The wall-time-free tripwire for the warm path's extraction
        cost: arm, capture, extract and revert all read the routers, and
        together they may walk each FIB once per version it went through."""
        from repro.gnmi.aft import AftSnapshot
        from repro.obs import tracing

        seen = []  # (router, version) at every read; routers kept alive
        walk = AftSnapshot.from_router.__func__

        def spy(cls, router, now=0.0):
            seen.append((router, router.rib.fib.version))
            return walk(cls, router, now)

        monkeypatch.setattr(AftSnapshot, "from_router", classmethod(spy))
        topology = build_ring()
        scenarios = [
            next(iter(single_link_failures(topology))),
            next(iter(link_flap_scenarios(topology, hold_seconds=10.0))),
        ]
        with tracing() as tracer:
            report = ring_campaign(scenarios, temporal=True).run()
        assert [v.reverted_clean for v in report.verdicts] == [True, True]
        assert report.cold_resets == 0
        distinct = len(set(seen))
        assert tracer.counters["gnmi.fib_walks"] == distinct
        assert tracer.counters["gnmi.memo_hits"] == len(seen) - distinct
        # Arm, extract and revert re-read routers nothing has touched.
        assert len(seen) > distinct


class TestVerificationWork:
    def test_one_engine_lineage_per_campaign(self, fig2, monkeypatch):
        """The warm path's verification work budget: the baseline's is
        the campaign's only cold engine build. Every checkpoint engine
        and every scenario engine derives from it through the engine
        cache, and no temporal step falls back. Engines are counted at
        construction, so a build that skips the trace counters (as
        derived engines do) still shows."""
        from repro.obs import tracing
        from repro.verify.engine import AtomGraphEngine, clear_engine_cache

        constructed = []
        original_init = AtomGraphEngine.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(AtomGraphEngine, "__init__", counting_init)
        topology = fig2.topology
        scenarios = [
            *list(single_link_failures(topology))[:2],
            next(iter(link_flap_scenarios(topology, hold_seconds=10.0))),
        ]
        clear_engine_cache()
        with tracing() as tracer:
            report = WhatIfCampaign(
                topology,
                scenarios,
                timers=FAST_TIMERS,
                quiet_period=5.0,
                temporal=True,
            ).run()
        clear_engine_cache()
        assert report.cold_resets == 0
        checkpoints = sum(v.temporal_checkpoints for v in report.verdicts)
        assert checkpoints > len(scenarios)
        assert tracer.counters.get("verify.temporal_fallbacks", 0) == 0
        assert tracer.counters.get("verify.delta_fallbacks", 0) == 0
        # Each state after a checkpoint 0 is derived once or found in
        # the cache (a flap's down state, a reverted baseline).
        assert 0 < tracer.counters["verify.delta_applies"] <= (
            checkpoints - len(scenarios)
        )
        assert tracer.counters["verify.engine_builds"] == 1
        assert len(constructed) == 1 + tracer.counters["verify.delta_applies"]


class TestNodeCampaign:
    def test_node_kill_surfaces_damage_and_reverts(self):
        topology = build_ring()
        scenarios = list(single_node_failures(topology))[:1]
        campaign = WhatIfCampaign(
            topology, scenarios, timers=FAST_TIMERS, quiet_period=5.0
        )
        report = campaign.run()
        [verdict] = report.verdicts
        # The dead node's loopback and /31s vanish for everyone else.
        assert verdict.regressed > 0
        assert verdict.new_loops == 0
        # Surviving nodes still reach each other around the ring.
        assert verdict.new_unreachable_pairs == 0
        assert verdict.reverted_clean
        assert report.cold_resets == 0


class TestColdFallback:
    def test_dirty_revert_triggers_cold_reset(self, monkeypatch):
        topology = build_ring()
        scenarios = list(single_link_failures(topology))[:2]
        clean = WhatIfCampaign(
            topology, scenarios, timers=FAST_TIMERS, quiet_period=5.0
        ).run()

        # Sabotage revert: links stay down, the baseline check must
        # catch it and rebuild a fresh deployment per scenario.
        monkeypatch.setattr(FaultPlan, "revert", lambda self, dep: None)
        dirty = WhatIfCampaign(
            topology, scenarios, timers=FAST_TIMERS, quiet_period=5.0
        ).run()
        assert dirty.cold_resets == len(scenarios)
        assert all(not v.reverted_clean for v in dirty.verdicts)
        # The cold reset is charged to the offending scenario.
        assert all(
            v.revert_seconds > dirty.baseline_startup_seconds
            for v in dirty.verdicts
        )
        # Later verdicts are not poisoned by the earlier dirty state:
        # damage fields match the clean campaign exactly.
        for clean_v, dirty_v in zip(clean.verdicts, dirty.verdicts):
            assert clean_v.scenario == dirty_v.scenario
            assert clean_v.fib_fingerprint == dirty_v.fib_fingerprint
            assert clean_v.regressed == dirty_v.regressed
        assert "cold reset" in dirty.render()


class TestParallelCampaign:
    def test_workers_agree_with_sequential(self):
        topology = build_ring()
        scenarios = list(single_link_failures(topology))
        sequential = ring_campaign(scenarios).run()
        sharded = ring_campaign(scenarios).run(workers=2)
        assert [v.scenario for v in sharded.verdicts] == [
            v.scenario for v in sequential.verdicts
        ]
        for seq_v, par_v in zip(sequential.verdicts, sharded.verdicts):
            assert seq_v.fib_fingerprint == par_v.fib_fingerprint
            assert seq_v.reverted_clean == par_v.reverted_clean
            assert seq_v.severity == par_v.severity

    def test_campaign_without_scenarios_reports_each_baseline(self):
        campaign = ring_campaign([])
        report = campaign.run()
        assert report.verdicts == []
        assert report.baseline_invariants
        result = campaign.run_ensemble(seeds=(0, 1), workers=2)
        assert [r.baseline_invariants for r in result.reports] == [
            report.baseline_invariants
        ] * 2
        assert result.verdicts == []


class TestReportShapes:
    def test_severity_weights(self):
        verdict = ScenarioVerdict(
            scenario="s",
            kind="link-cut",
            reconverge_seconds=1.0,
            revert_seconds=1.0,
            reverted_clean=True,
            regressed=3,
            improved=0,
            changed=3,
            new_loops=1,
            new_blackholes=2,
            new_unreachable_pairs=4,
        )
        assert verdict.severity == 10 * 1 + 5 * 2 + 2 * 4 + 3

    def test_empty_report(self):
        report = CampaignReport(topology_name="t")
        assert report.incremental_sim_seconds == 0.0
        assert report.cold_sim_seconds == 0.0
        assert report.speedup == 0.0
        assert report.worst_severity == 0
        assert "0 scenarios" in report.render()


class TestWhatifCli:
    def test_whatif_verb_prints_ranked_table(self, capsys):
        from repro.cli import main

        code = main(["whatif", "--corpus", "fig3", "--limit", "1"])
        out = capsys.readouterr().out
        # fig3 is a line: cutting any link partitions it.
        assert code == 2
        assert "what-if campaign" in out
        assert "scenario" in out
        assert "link:r1-r2" in out

    def test_whatif_json_output(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "report.json"
        code = main(
            [
                "whatif",
                "--corpus",
                "fig3",
                "--limit",
                "1",
                "--json",
                str(out_file),
            ]
        )
        assert code == 2
        payload = json.loads(out_file.read_text())
        assert payload["topology"] == "fig3-line"
        assert len(payload["scenarios"]) == 1

    def test_obs_timeline_whatif(self, capsys):
        from repro.cli import main

        main(["obs", "timeline", "--scenario", "whatif"])
        out = capsys.readouterr().out
        assert "What-if verdicts" in out
        assert "whatif:" in out
