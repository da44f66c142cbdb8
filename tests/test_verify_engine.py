"""Atom-graph engine tests.

The load-bearing property: for every (ingress, atom) pair on every
shipped corpus, the engine's disposition set is identical to the scalar
:class:`ForwardingWalk` oracle's. Everything else — verdict tables,
decision-vector sharing, the content-keyed cache, ACL taint fallback — is tested against that same oracle or against the
legacy evaluation paths it replaced.
"""

from __future__ import annotations

import pytest

from repro.core.context import ScenarioContext
from repro.core.pipeline import ModelFreeBackend
from repro.ensemble import EnsembleRunner
from repro.corpus.production import production_scenario, scaled_timers
from repro.dataplane.forwarding import Disposition, ForwardingWalk
from repro.dataplane.model import Dataplane
from repro.gnmi.aft import (
    AftInterface,
    AftIpv4Entry,
    AftNextHop,
    AftNextHopGroup,
    AftSnapshot,
)
from repro.device.acl import AclRule
from repro.net.addr import Prefix, parse_ipv4
from repro.net.headerspace import HeaderSpace
from repro.net.intervals import IntervalSet
from repro.obs import tracing
from repro.protocols.timers import FAST_TIMERS
from repro.verify import engine as engine_mod
from repro.verify.engine import (
    AtomGraphEngine,
    clear_engine_cache,
    engine_for,
)
from repro.verify.reachability import (
    ReachabilityAnalysis,
    ReachabilityRow,
    pairwise_matrix,
)


def assert_engine_matches_walker(dataplane: Dataplane) -> None:
    """The property: engine dispositions == scalar-walk dispositions
    for every ingress over every destination atom."""
    engine = AtomGraphEngine(dataplane)
    walker = ForwardingWalk(dataplane)
    engine.precompute()
    for ingress in dataplane.node_names():
        for index, atom in enumerate(engine.atoms):
            expected = walker.walk(ingress, atom.sample()).dispositions
            assert engine.dispositions(ingress, index) == expected, (
                f"ingress={ingress} atom={atom}"
            )


@pytest.fixture(scope="module")
def production_snapshot():
    scenario = production_scenario(8, peers=1, routes_per_peer=80, seed=7)
    backend = ModelFreeBackend(
        scenario.topology, timers=scaled_timers(80), quiet_period=30.0
    )
    return backend.run(
        ScenarioContext(name="prod", injectors=tuple(scenario.injectors))
    )


class TestOracleEquivalence:
    def test_fig2_healthy_and_buggy(self, fig2_snapshots):
        healthy, buggy = fig2_snapshots
        assert_engine_matches_walker(healthy.dataplane)
        assert_engine_matches_walker(buggy.dataplane)

    def test_fig3_emulated(self, fig3_emulated):
        _, snapshot = fig3_emulated
        assert_engine_matches_walker(snapshot.dataplane)

    def test_fig3_model(self, fig3_model):
        _, snapshot = fig3_model
        assert_engine_matches_walker(snapshot.dataplane)

    def test_production_corpus(self, production_snapshot):
        assert_engine_matches_walker(production_snapshot.dataplane)

    def test_link_cut_context(self, fig2):
        from repro.whatif import single_link_failures

        plan = next(single_link_failures(fig2.topology))
        context = plan.to_context(ScenarioContext(), fig2.topology)
        backend = ModelFreeBackend(
            fig2.topology, timers=FAST_TIMERS, quiet_period=5.0
        )
        snapshot = backend.run(context)
        assert_engine_matches_walker(snapshot.dataplane)

    def test_analysis_rows_match_scalar_path(self, fig2_snapshots):
        healthy, _ = fig2_snapshots
        dataplane = healthy.dataplane
        fast = ReachabilityAnalysis(dataplane).analyze()
        slow = ReachabilityAnalysis(dataplane, use_engine=False).analyze()
        key = lambda rows: {
            (r.ingress, r.dispositions): r.dst_set for r in rows
        }
        assert key(fast) == key(slow)

    def test_analysis_respects_dst_restriction(self, fig2_snapshots):
        healthy, _ = fig2_snapshots
        dataplane = healthy.dataplane
        space = HeaderSpace.dst_prefix(Prefix.parse("10.0.0.0/8"))
        fast = ReachabilityAnalysis(dataplane).analyze(dst_space=space)
        slow = ReachabilityAnalysis(dataplane, use_engine=False).analyze(
            dst_space=space
        )
        key = lambda rows: {
            (r.ingress, r.dispositions): r.dst_set for r in rows
        }
        assert key(fast) == key(slow)

    def test_pairwise_matrix_matches_legacy(
        self, fig2_snapshots, production_snapshot
    ):
        for snapshot in (*fig2_snapshots, production_snapshot):
            dataplane = snapshot.dataplane
            assert pairwise_matrix(dataplane) == pairwise_matrix(
                dataplane, use_engine=False
            )


def _acl_line_dataplane(permitted_src: str = "1.1.1.1/32") -> Dataplane:
    """a -> b -> c where b filters on its ingress interface: traffic to
    c's loopback is only permitted for one source prefix, so b's node
    behaviour is not a function of the destination atom alone."""

    def iface(name, cidr, acl_in=None):
        address, _, length = cidr.partition("/")
        return AftInterface(
            name=name,
            ipv4_address=address,
            prefix_length=int(length),
            enabled=True,
            acl_in=acl_in,
        )

    a = AftSnapshot(device="a")
    a.interfaces = [iface("eth0", "10.0.0.0/31"), iface("lo", "1.1.1.1/32")]
    a.next_hops[1] = AftNextHop(index=1, interface="eth0", ip_address="10.0.0.1")
    a.next_hop_groups[1] = AftNextHopGroup(group_id=1, next_hop_indices=(1,))
    a.entries = [
        AftIpv4Entry(prefix="3.3.3.3/32", entry_type="forward", next_hop_group=1),
        AftIpv4Entry(prefix="1.1.1.1/32", entry_type="receive"),
    ]

    b = AftSnapshot(device="b")
    b.interfaces = [
        iface("eth0", "10.0.0.1/31", acl_in="FILTER"),
        iface("eth1", "10.0.1.0/31"),
        iface("lo", "2.2.2.2/32"),
    ]
    b.acls = {
        "FILTER": (
            AclRule(seq=10, permit=True, src=Prefix.parse(permitted_src)),
            AclRule(seq=20, permit=False),
        )
    }
    b.next_hops[1] = AftNextHop(index=1, interface="eth1", ip_address="10.0.1.1")
    b.next_hop_groups[1] = AftNextHopGroup(group_id=1, next_hop_indices=(1,))
    b.entries = [
        AftIpv4Entry(prefix="3.3.3.3/32", entry_type="forward", next_hop_group=1),
        AftIpv4Entry(prefix="2.2.2.2/32", entry_type="receive"),
    ]

    c = AftSnapshot(device="c")
    c.interfaces = [iface("eth0", "10.0.1.1/31"), iface("lo", "3.3.3.3/32")]
    c.entries = [AftIpv4Entry(prefix="3.3.3.3/32", entry_type="receive")]

    return Dataplane.from_afts({"a": a, "b": b, "c": c})


class TestAclTaint:
    def test_paths_through_acl_device_are_tainted(self):
        dataplane = _acl_line_dataplane()
        engine = AtomGraphEngine(dataplane)
        target = engine.atom_index_of(parse_ipv4("3.3.3.3"))
        assert engine.verdict("a", target).tainted
        # The ACL device itself is tainted; a node that never reaches it
        # is not.
        assert engine.verdict("b", target).tainted
        assert not engine.verdict("c", target).tainted

    def test_tainted_dispositions_fall_back_to_walker(self):
        dataplane = _acl_line_dataplane()
        engine = AtomGraphEngine(dataplane)
        walker = ForwardingWalk(dataplane)
        for ingress in dataplane.node_names():
            for index, atom in enumerate(engine.atoms):
                expected = walker.walk(ingress, atom.sample()).dispositions
                assert engine.dispositions(ingress, index) == expected

    def test_tainted_pairwise_matches_legacy(self):
        dataplane = _acl_line_dataplane()
        assert pairwise_matrix(dataplane) == pairwise_matrix(
            dataplane, use_engine=False
        )


class TestEngineCache:
    def test_same_content_shares_engine(self, fig2_snapshots):
        healthy, _ = fig2_snapshots
        clear_engine_cache()
        with tracing() as tracer:
            first = engine_for(healthy.dataplane)
            second = engine_for(healthy.dataplane)
        assert first is second
        assert tracer.counters["verify.engine_cache_hits"] == 1
        assert tracer.counters["verify.engine_builds"] == 1
        clear_engine_cache()

    def test_miss_counter_increments_per_build(self, fig2_snapshots):
        healthy, buggy = fig2_snapshots
        clear_engine_cache()
        with tracing() as tracer:
            engine_for(healthy.dataplane)
            engine_for(buggy.dataplane)
            engine_for(healthy.dataplane)
        assert tracer.counters["verify.engine_cache_misses"] == 2
        assert tracer.counters["verify.engine_cache_hits"] == 1
        assert tracer.counters["verify.engine_builds"] == 2
        clear_engine_cache()

    def test_eviction_counter_with_cache_limit(
        self, fig3_emulated, fig3_model, monkeypatch
    ):
        """CACHE_LIMIT=1 keeps one engine resident: the second distinct
        dataplane evicts the first, and re-requesting the first is a
        rebuild, not a hit."""
        assert engine_mod.CACHE_LIMIT == 8
        monkeypatch.setattr(engine_mod, "CACHE_LIMIT", 1)
        emulated = fig3_emulated[1].dataplane
        model = fig3_model[1].dataplane
        clear_engine_cache()
        with tracing() as tracer:
            first = engine_for(emulated)
            engine_for(model)
            again = engine_for(emulated)
        assert tracer.counters["verify.engine_cache_evictions"] == 2
        assert tracer.counters["verify.engine_builds"] == 3
        assert "verify.engine_cache_hits" not in tracer.counters
        assert again is not first
        clear_engine_cache()

    def test_node_cache_keys_by_entry_content(self, fig2_snapshots):
        """Two distinct-but-equal ForwardingEntry objects must share one
        node-cache slot (content keying); id() keying would give two —
        and, worse, could alias different entries after GC recycling."""
        from repro.dataplane.model import ForwardingEntry, ResolvedHop

        healthy, _ = fig2_snapshots
        engine = AtomGraphEngine(healthy.dataplane)
        name = next(iter(healthy.dataplane.devices))
        entry_a = ForwardingEntry(
            prefix=Prefix.parse("2.2.2.1/32"),
            entry_type="receive",
            hops=(),
        )
        entry_b = ForwardingEntry(
            prefix=Prefix.parse("2.2.2.1/32"),
            entry_type="receive",
            hops=(ResolvedHop(interface="lo", gateway=None),),
        )
        entry_a_clone = ForwardingEntry(
            prefix=Prefix.parse("2.2.2.1/32"),
            entry_type="receive",
            hops=(),
        )
        assert entry_a_clone is not entry_a
        rep = parse_ipv4("2.2.2.1")
        engine._node_cache.clear()

        def slots_used():
            return sum(len(sub) for sub in engine._node_cache.values())

        engine._resolve_node(name, entry_a, rep)
        slots = slots_used()
        engine._resolve_node(name, entry_a_clone, rep)
        assert slots_used() == slots  # shared, not duplicated
        engine._resolve_node(name, entry_b, rep)
        assert slots_used() == slots + 1  # different content

    def test_multirun_builds_n_engines_not_n_squared(self, fig3):
        seeds = (0, 1, 2)
        runner = EnsembleRunner(
            fig3.topology,
            seeds=seeds,
            invariants=(),
            timers=FAST_TIMERS,
            quiet_period=5.0,
        )
        runner.run()
        clear_engine_cache()
        with tracing() as tracer:
            for record in runner.last_records:
                engine_for(record.snapshot.dataplane)
        # Seeds that converged to the same forwarding state share one
        # engine: one build per distinct state, never one per run.
        builds = tracer.counters.get("verify.engine_builds", 0)
        distinct = {record.fingerprint for record in runner.last_records}
        assert builds == len(distinct) <= len(seeds)
        clear_engine_cache()


class TestRowFormatting:
    def _row(self, dst_set):
        return ReachabilityRow(
            ingress="r1",
            dst_set=dst_set,
            dispositions=frozenset({Disposition.ACCEPTED}),
            sample_destination=dst_set.min(),
            sample_traces=(),
        )

    def test_singleton_has_no_suffix(self):
        row = self._row(IntervalSet.of(parse_ipv4("1.1.1.1")))
        assert str(row) == "r1 -> 1.1.1.1: accepted"

    def test_suffix_counts_remaining_addresses(self):
        dst = IntervalSet.span(parse_ipv4("10.0.0.0"), parse_ipv4("10.0.0.3"))
        row = self._row(dst)
        # Four addresses total: the sample plus three more.
        assert "(+3 more addresses)" in str(row)
