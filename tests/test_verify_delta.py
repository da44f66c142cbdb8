"""Delta (incremental) engine maintenance tests.

The load-bearing property: for every corpus and perturbation where the
delta path claims applicability, :meth:`AtomGraphEngine.apply_delta`
must produce verdicts identical *row for row* — dispositions, accepts,
taint flags, UNKNOWN_DEGRADED — to a cold build of the perturbed
snapshot. Everything else here (fallback reasons, the lineage cache in
``engine_for``, the store's parent walk, the delta metrics) guards the
plumbing that decides *when* the patch runs, never what it computes.
"""

from __future__ import annotations

import random
import threading
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import ScenarioContext
from repro.core.pipeline import ModelFreeBackend
from repro.corpus.fig2 import fig2_scenario
from repro.corpus.production import production_scenario, scaled_timers
from repro.dataplane.delta import DataplaneDelta
from repro.dataplane.forwarding import Disposition
from repro.dataplane.model import Dataplane
from repro.gnmi.aft import (
    AftInterface,
    AftIpv4Entry,
    AftNextHop,
    AftNextHopGroup,
    AftSnapshot,
)
from repro.device.acl import AclRule
from repro.net.addr import Prefix
from repro.obs import tracing
from repro.protocols.timers import FAST_TIMERS
from repro.service import store as store_mod
from repro.service.store import SnapshotStore
from repro.verify import engine as engine_mod
from repro.verify.engine import (
    AtomGraphEngine,
    DeltaUnapplicable,
    clear_engine_cache,
    engine_for,
)


def assert_delta_matches_cold(base_engine, target_dataplane):
    """Apply the delta and compare every (ingress, atom) verdict — the
    whole AtomVerdict, so accepts sets and taint flags count too —
    against a cold build of the target. Returns the derived engine.

    The derived partition refines the cold one (base boundaries plus
    delta boundaries cover every target FIB boundary), so each derived
    atom lies inside exactly one cold atom and a sample-address lookup
    compares like with like.
    """
    delta = DataplaneDelta(base_engine.dataplane, target_dataplane)
    derived = base_engine.apply_delta(delta)
    cold = AtomGraphEngine(target_dataplane)
    cold.precompute()
    assert derived._complete
    names = target_dataplane.node_names()
    for index, atom in enumerate(derived.atoms):
        cold_index = cold.atom_index_of(atom.min())
        for ingress in names:
            got = derived.verdict(ingress, index)
            want = cold.verdict(ingress, cold_index)
            assert got == want, (
                f"ingress={ingress} atom={atom}: delta={got} cold={want}"
            )
    return derived


@pytest.fixture(scope="module")
def prod():
    """A small production corpus: scenario, backend, and the converged
    base context/snapshot shared by the perturbation tests."""
    scenario = production_scenario(8, peers=1, routes_per_peer=80, seed=7)
    backend = ModelFreeBackend(
        scenario.topology, timers=scaled_timers(80), quiet_period=30.0
    )
    context = ScenarioContext(
        name="prod", injectors=tuple(scenario.injectors)
    )
    return backend, context, backend.run(context)


class TestDeltaOracleEquivalence:
    """apply_delta == cold build, on real converged corpora."""

    def test_fig2_every_single_link_cut(self, fig2, monkeypatch):
        # The mechanism under test is the patch, not the cost gate:
        # fig. 2 has so few atoms that honest cuts exceed the default
        # dirty-fraction threshold, so lift it for the sweep.
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
        backend = ModelFreeBackend(
            fig2.topology, timers=FAST_TIMERS, quiet_period=5.0
        )
        base = backend.run(ScenarioContext())
        engine = AtomGraphEngine(base.dataplane)
        for link in fig2.topology.links:
            context = ScenarioContext().with_link_down(
                link.a.node, link.z.node
            )
            target = backend.run(context)
            if target.dataplane.fib_fingerprint() == (
                base.dataplane.fib_fingerprint()
            ):
                continue
            assert_delta_matches_cold(engine, target.dataplane)

    def test_fig3_single_link_cut(self, fig3, monkeypatch):
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
        backend = ModelFreeBackend(
            fig3.topology, timers=FAST_TIMERS, quiet_period=5.0
        )
        base = backend.run(ScenarioContext())
        engine = AtomGraphEngine(base.dataplane)
        link = fig3.topology.links[0]
        target = backend.run(
            ScenarioContext().with_link_down(link.a.node, link.z.node)
        )
        assert_delta_matches_cold(engine, target.dataplane)

    def test_production_link_cuts(self, prod, monkeypatch):
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
        backend, context, base = prod
        engine = AtomGraphEngine(base.dataplane)
        # One off-path cut (few dirty atoms) and one on a peer-route
        # shortest path (legitimately reroutes a large table slice).
        for a, z in (("r7", "r5"), ("r2", "r1")):
            target = backend.run(context.with_link_down(a, z))
            derived = assert_delta_matches_cold(engine, target.dataplane)
            assert derived.delta_stats.dirty_atoms > 0

    def test_production_randomized_churn_chain(self, prod, monkeypatch):
        """k successive perturbations, each step derived from the
        previous *derived* engine — patches must compose, not just
        survive one hop from a cold base."""
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
        backend, context, base = prod
        links = [
            (link.a.node, link.z.node)
            for link in backend.topology.links
        ]
        picks = random.Random(11).sample(links, 2)
        steps = [
            context.with_link_down(*picks[0]),
            context.with_link_down(*picks[0]).with_link_down(*picks[1]),
            context.with_link_down(*picks[1]),
        ]
        engine = AtomGraphEngine(base.dataplane)
        for step in steps:
            target = backend.run(step)
            if target.dataplane.fib_fingerprint() == (
                engine.dataplane.fib_fingerprint()
            ):
                continue
            engine = assert_delta_matches_cold(engine, target.dataplane)


# -- hand-built dataplanes for the structural cases --------------------------


def _iface(name, cidr):
    address, _, length = cidr.partition("/")
    return AftInterface(
        name=name,
        ipv4_address=address,
        prefix_length=int(length),
        enabled=True,
    )


def _chain_afts(b_routes_c=True, with_c=False, b_acl_rules=None):
    """a -> b (-> c): a tiny line network.

    ``b_routes_c`` keeps b's route toward 3.3.3.3; ``with_c`` includes
    device c itself; ``b_acl_rules`` attaches an ingress ACL on b.
    """
    a = AftSnapshot(device="a")
    a.interfaces = [_iface("eth0", "10.0.0.0/31"), _iface("lo", "1.1.1.1/32")]
    a.next_hops[1] = AftNextHop(
        index=1, interface="eth0", ip_address="10.0.0.1"
    )
    a.next_hop_groups[1] = AftNextHopGroup(group_id=1, next_hop_indices=(1,))
    a.entries = [
        AftIpv4Entry(
            prefix=Prefix.parse("3.3.3.3/32"), entry_type="forward", next_hop_group=1
        ),
        AftIpv4Entry(
            prefix=Prefix.parse("2.2.2.2/32"), entry_type="forward", next_hop_group=1
        ),
        AftIpv4Entry(prefix=Prefix.parse("1.1.1.1/32"), entry_type="receive"),
    ]

    b = AftSnapshot(device="b")
    iface0 = _iface("eth0", "10.0.0.1/31")
    if b_acl_rules is not None:
        iface0 = AftInterface(
            name="eth0",
            ipv4_address="10.0.0.1",
            prefix_length=31,
            enabled=True,
            acl_in="FILTER",
        )
        b.acls = {"FILTER": tuple(b_acl_rules)}
    b.interfaces = [
        iface0,
        _iface("eth1", "10.0.1.0/31"),
        _iface("lo", "2.2.2.2/32"),
    ]
    b.next_hops[1] = AftNextHop(
        index=1, interface="eth1", ip_address="10.0.1.1"
    )
    b.next_hop_groups[1] = AftNextHopGroup(group_id=1, next_hop_indices=(1,))
    b.entries = [AftIpv4Entry(prefix=Prefix.parse("2.2.2.2/32"), entry_type="receive")]
    if b_routes_c:
        b.entries.append(
            AftIpv4Entry(
                prefix=Prefix.parse("3.3.3.3/32"), entry_type="forward", next_hop_group=1
            )
        )

    snapshots = {"a": a, "b": b}
    if with_c:
        c = AftSnapshot(device="c")
        c.interfaces = [
            _iface("eth0", "10.0.1.1/31"),
            _iface("lo", "3.3.3.3/32"),
        ]
        c.entries = [AftIpv4Entry(prefix=Prefix.parse("3.3.3.3/32"), entry_type="receive")]
        snapshots["c"] = c
    return snapshots


class TestDegradedFlips:
    """Degraded-ownership flips become unconditionally dirty atoms and
    the UNKNOWN_DEGRADED verdict propagates identically to a cold
    build, in both flip directions."""

    def _degraded(self):
        return Dataplane.from_afts(
            _chain_afts(b_routes_c=True),
            degraded_nodes={"c": "crashed"},
            degraded_addresses={"c": ["3.3.3.3"]},
        )

    def _recovered(self):
        # c stayed unextracted but is no longer claimed degraded, and
        # the IGP withdrew b's stale route toward it.
        return Dataplane.from_afts(_chain_afts(b_routes_c=False))

    def test_degraded_to_recovered(self):
        base = self._degraded()
        engine = AtomGraphEngine(base)
        address = Prefix.parse("3.3.3.3/32").first
        assert Disposition.UNKNOWN_DEGRADED in engine.dispositions(
            "a", engine.atom_index_of(address)
        )
        derived = assert_delta_matches_cold(engine, self._recovered())
        assert Disposition.UNKNOWN_DEGRADED not in derived.dispositions(
            "a", derived.atom_index_of(address)
        )

    def test_recovered_to_degraded(self):
        engine = AtomGraphEngine(self._recovered())
        derived = assert_delta_matches_cold(engine, self._degraded())
        address = Prefix.parse("3.3.3.3/32").first
        assert Disposition.UNKNOWN_DEGRADED in derived.dispositions(
            "a", derived.atom_index_of(address)
        )


class TestFallbackReasons:
    def test_device_set_change_is_unapplicable(self):
        base = Dataplane.from_afts(_chain_afts(with_c=True))
        target = Dataplane.from_afts(_chain_afts(b_routes_c=False))
        engine = AtomGraphEngine(base)
        delta = DataplaneDelta(base, target)
        assert delta.fallback_reason() == "device-set"
        with pytest.raises(DeltaUnapplicable) as err:
            engine.apply_delta(delta)
        assert err.value.reason == "device-set"

    def test_acl_change_is_unapplicable(self):
        permissive = [AclRule(seq=10, permit=True)]
        restrictive = [
            AclRule(seq=10, permit=True, src=Prefix.parse("1.1.1.1/32")),
            AclRule(seq=20, permit=False),
        ]
        base = Dataplane.from_afts(_chain_afts(b_acl_rules=permissive))
        target = Dataplane.from_afts(_chain_afts(b_acl_rules=restrictive))
        engine = AtomGraphEngine(base)
        delta = DataplaneDelta(base, target)
        assert delta.fallback_reason() == "acl-change"
        with pytest.raises(DeltaUnapplicable) as err:
            engine.apply_delta(delta)
        assert err.value.reason == "acl-change"

    def test_base_mismatch(self):
        base = Dataplane.from_afts(_chain_afts())
        other = Dataplane.from_afts(_chain_afts())
        target = Dataplane.from_afts(_chain_afts(b_routes_c=False))
        with pytest.raises(DeltaUnapplicable) as err:
            AtomGraphEngine(other).apply_delta(DataplaneDelta(base, target))
        assert err.value.reason == "base-mismatch"

    def test_dirty_fraction_threshold(self, monkeypatch):
        assert engine_mod.DELTA_THRESHOLD == 0.5
        base = Dataplane.from_afts(_chain_afts())
        target = Dataplane.from_afts(_chain_afts(b_routes_c=False))
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 0.001)
        with pytest.raises(DeltaUnapplicable) as err:
            AtomGraphEngine(base).apply_delta(DataplaneDelta(base, target))
        assert err.value.reason == "dirty-fraction"
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
        assert_delta_matches_cold(AtomGraphEngine(base), target)


class TestEngineForLineage:
    def test_cache_miss_with_base_derives(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
        clear_engine_cache()
        base = Dataplane.from_afts(_chain_afts())
        target = Dataplane.from_afts(_chain_afts(b_routes_c=False))
        base_engine = engine_for(base)
        derived = engine_for(target, base=base_engine)
        stats = derived.delta_stats
        assert stats is not None and stats.fallback is None
        assert stats.base_fingerprint == base.fib_fingerprint()
        assert stats.dirty_atoms > 0
        # The derivation registered under the content key: plain
        # lookups now return the same object.
        assert engine_for(target) is derived
        clear_engine_cache()

    def test_fallback_engine_records_reason(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 0.001)
        clear_engine_cache()
        base = Dataplane.from_afts(_chain_afts())
        target = Dataplane.from_afts(_chain_afts(b_routes_c=False))
        engine = engine_for(target, base=engine_for(base))
        assert engine.delta_stats is not None
        assert engine.delta_stats.fallback == "dirty-fraction"
        clear_engine_cache()

    def test_inflight_cold_build_does_not_clobber_delta(self, monkeypatch):
        """The staleness hazard: a cold build for a fingerprint is in
        flight when a delta derivation for the same content lands. The
        first registration must win — both callers converge on ONE
        engine object — and the late build is counted as discarded."""
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
        clear_engine_cache()
        base = Dataplane.from_afts(_chain_afts())
        target = Dataplane.from_afts(_chain_afts(b_routes_c=False))
        base_engine = engine_for(base)

        entered = threading.Event()
        release = threading.Event()
        original_init = AtomGraphEngine.__init__

        def gated_init(self, dataplane, atoms=None, *, _observe=True):
            # Stall only the cold build of the target (the delta path
            # constructs its engine with _observe=False).
            if _observe and dataplane is target:
                entered.set()
                assert release.wait(timeout=10)
            original_init(self, dataplane, atoms, _observe=_observe)

        monkeypatch.setattr(AtomGraphEngine, "__init__", gated_init)
        results = {}

        def cold_build():
            results["cold"] = engine_for(target)

        with tracing() as tracer:
            thread = threading.Thread(target=cold_build)
            thread.start()
            assert entered.wait(timeout=10)
            # Cold build is mid-flight; the delta derivation lands now.
            derived = engine_for(target, base=base_engine)
            release.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert results["cold"] is derived
            assert engine_for(target) is derived
            assert tracer.counters["verify.engine_build_discarded"] == 1
        clear_engine_cache()


class TestDeltaMetrics:
    def test_apply_emits_counters_and_histograms(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
        clear_engine_cache()
        base = Dataplane.from_afts(_chain_afts())
        target = Dataplane.from_afts(_chain_afts(b_routes_c=False))
        with tracing() as tracer:
            derived = engine_for(target, base=engine_for(base))
            assert tracer.counters["verify.delta_applies"] == 1
            assert tracer.counters["verify.delta_dirty_atoms"] == (
                derived.delta_stats.dirty_atoms
            )
            records = {
                record["name"]: record
                for record in tracer.registry.collect()
            }
            assert records["verify.dirty_atoms"]["count"] == 1
            assert records["verify.delta_apply_seconds"]["count"] == 1
        clear_engine_cache()

    def test_fallback_emits_labeled_counter(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 0.001)
        clear_engine_cache()
        base = Dataplane.from_afts(_chain_afts())
        target = Dataplane.from_afts(_chain_afts(b_routes_c=False))
        with tracing() as tracer:
            engine_for(target, base=engine_for(base))
            assert tracer.counters["verify.delta_fallbacks"] == 1
            reason_records = [
                record
                for record in tracer.registry.collect()
                if record["name"] == "verify.delta_fallback_reasons"
            ]
            assert reason_records[0]["labels"] == {
                "reason": "dirty-fraction"
            }
        clear_engine_cache()


class TestStoreLineage:
    def _snapshots(self, prod_tuple, monkeypatch):
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
        backend, context, base = prod_tuple
        cut = backend.run(context.with_link_down("r7", "r5"))
        return base, cut

    def test_register_with_parent_derives_incrementally(
        self, prod, monkeypatch
    ):
        base, cut = self._snapshots(prod, monkeypatch)
        clear_engine_cache()
        store = SnapshotStore(capacity=4)
        base_fp = store.register(base)
        store.engine(base)  # pin the parent engine
        cut_fp = store.register(cut, parent=base_fp)
        assert store.stats()["lineage_edges"] == 1
        engine = store.engine(store.get(cut_fp))
        assert engine.delta_stats is not None
        assert engine.delta_stats.fallback is None
        assert engine.delta_stats.base_fingerprint == base_fp
        clear_engine_cache()

    def test_lineage_walk_skips_nonresident_intermediates(
        self, prod, monkeypatch
    ):
        base, cut = self._snapshots(prod, monkeypatch)
        clear_engine_cache()
        store = SnapshotStore(capacity=4)
        base_fp = store.register(base)
        base_engine = store.engine(base)
        # A phantom intermediate that was evicted (never resident here):
        # the walk must skip over it to the grandparent.
        phantom = base_fp ^ 0xDEAD
        store.record_lineage(phantom, base_fp)
        store.record_lineage(cut.dataplane.fib_fingerprint(), phantom)
        assert (
            store._delta_base(cut.dataplane.fib_fingerprint())
            is base_engine
        )
        clear_engine_cache()

    def test_lineage_depth_caps_the_walk(self, prod, monkeypatch):
        base, cut = self._snapshots(prod, monkeypatch)
        monkeypatch.setattr(store_mod, "LINEAGE_DEPTH", 1)
        clear_engine_cache()
        store = SnapshotStore(capacity=4)
        base_fp = store.register(base)
        store.engine(base)
        phantom = base_fp ^ 0xBEEF
        cut_fp = cut.dataplane.fib_fingerprint()
        store.record_lineage(phantom, base_fp)
        store.record_lineage(cut_fp, phantom)
        # Depth 1 stops at the non-resident phantom; the direct child
        # of the resident base still resolves.
        assert store._delta_base(cut_fp) is None
        direct = SnapshotStore(capacity=4)
        direct_base_fp = direct.register(base)
        direct.engine(base)
        direct.record_lineage(cut_fp, direct_base_fp)
        assert direct._delta_base(cut_fp) is not None
        clear_engine_cache()

    def test_depth_zero_disables_delta_derivation(self, prod, monkeypatch):
        base, cut = self._snapshots(prod, monkeypatch)
        monkeypatch.setattr(store_mod, "LINEAGE_DEPTH", 0)
        clear_engine_cache()
        store = SnapshotStore(capacity=4)
        base_fp = store.register(base)
        store.engine(base)
        cut_fp = store.register(cut, parent=base_fp)
        engine = store.engine(store.get(cut_fp))
        assert engine.delta_stats is None  # cold build, no base offered
        clear_engine_cache()

    def test_service_differential_question_records_lineage(
        self, prod, monkeypatch
    ):
        from repro.service import VerificationService

        base, cut = self._snapshots(prod, monkeypatch)
        clear_engine_cache()
        with VerificationService(workers=1) as svc:
            svc.register_snapshot(base, name="base")
            svc.register_snapshot(cut, name="cut")
            job = svc.submit(
                "differentialReachability",
                snapshot="cut",
                reference_snapshot="base",
            )
            assert job.result(timeout=30).value is not None
            stats = svc.store.stats()
            assert stats["lineage_edges"] >= 1
        clear_engine_cache()


class TestDeltaStatsCli:
    def test_diff_delta_stats_block(self, prod, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
        backend, context, base = prod
        cut = backend.run(context.with_link_down("r7", "r5"))
        base_path = tmp_path / "base.json"
        cut_path = tmp_path / "cut.json"
        base.save(base_path)
        cut.save(cut_path)
        clear_engine_cache()
        code = main(
            ["diff", str(base_path), str(cut_path), "--delta-stats"]
        )
        out = capsys.readouterr().out
        assert code in (0, 2)
        assert "delta stats:" in out
        assert "dirty atoms:" in out
        assert "group rewrites:" in out
        assert "reused" in out
        clear_engine_cache()

    def test_group_rewrite_builds_no_index(self, capsys):
        # The delta path probes a touched device's target trie: it must
        # neither build that device's compiled index nor report one.
        from repro.cli import _print_delta_stats

        net = _Net(3, [("d0", "d1"), ("d1", "d2")], acl_on_d0=False)
        net.groups["d0"][3] = (("eth0", "10.0.0.1"),)
        net.fib["d0"]["20.0.0.0/8"] = ("forward", 3)
        net.fib["d0"]["30.0.0.0/8"] = ("forward", 3)
        base = AtomGraphEngine(net.dataplane())
        rewritten = net.copy()
        rewritten.groups["d0"][3] = (("stub", "10.9.0.1"),)
        target = rewritten.dataplane()
        derived = base.apply_delta(DataplaneDelta(base.dataplane, target))
        stats = derived.delta_stats
        assert stats.rewrites == 1 and stats.structural_atoms == 0
        assert stats.touched_devices == ("d0",)
        assert stats.reused_indexes == 2
        assert target.devices["d0"]._compiled is None
        _print_delta_stats(derived)
        out = capsys.readouterr().out
        assert "device indexes: 2 reused, 1 re-probed (d0)" in out
        assert "rebuilt" not in out


# -- generated networks: group rewrites mixed with structural churn ---------

_DESTINATIONS = (
    "0.0.0.0/0",
    "20.0.0.0/8",
    "20.1.0.0/16",
    "20.1.2.0/24",
    "20.1.2.128/25",
    "30.0.0.0/8",
    "1.1.1.99/32",
)
#: A loopback no device extracts: degraded-ownership flips toggle it and
#: each device's stub gateway.
_GHOST_LOOPBACK = "1.1.1.99"


class _Net:
    """A small mutable network model that renders to AFT snapshots.

    Devices ``d0..dN`` with loopbacks ``1.1.1.i``; point-to-point /31
    links as every shipped corpus uses (both addresses are then /32
    atom boundaries); per device a stub /31 toward an unextracted
    neighbour whose address can be claimed degraded. Each device's FIB
    maps prefixes to ``("forward", group)``, ``("discard",)`` or
    ``("receive",)``; a group is a tuple of ``(interface, gateway)``
    hops shared by every prefix that names it, so editing one group
    rewrites all of them at once.
    """

    def __init__(self, n, links, acl_on_d0):
        self.names = [f"d{i}" for i in range(n)]
        self.links = links
        self.acl_on_d0 = acl_on_d0
        self.disabled: set[tuple[str, str]] = set()
        self.degraded: set[str] = set()
        self.fib = {name: {} for name in self.names}
        self.groups = {name: {} for name in self.names}
        for i, name in enumerate(self.names):
            self.fib[name][f"1.1.1.{i}/32"] = ("receive",)
            self.fib[name][f"10.9.{i}.0/32"] = ("receive",)
            self.groups[name][0] = (("stub", None),)
            self.fib[name][f"10.9.{i}.0/31"] = ("forward", 0)
        for j, (a, z) in enumerate(links):
            for side, name in enumerate((a, z)):
                self.fib[name][f"10.0.{j}.{side}/32"] = ("receive",)
                gid = len(self.groups[name])
                self.groups[name][gid] = ((f"eth{j}", None),)
                self.fib[name][f"10.0.{j}.0/31"] = ("forward", gid)

    def hop_choices(self, name):
        """Every (interface, gateway) a hop of ``name`` may use."""
        i = self.names.index(name)
        out = [("stub", f"10.9.{i}.1"), ("stub", None)]
        for j, (a, z) in enumerate(self.links):
            if name == a:
                out.append((f"eth{j}", f"10.0.{j}.1"))
            elif name == z:
                out.append((f"eth{j}", f"10.0.{j}.0"))
        return out

    def interfaces(self, name):
        i = self.names.index(name)
        out = [("lo", f"1.1.1.{i}", 32), ("stub", f"10.9.{i}.0", 31)]
        for j, (a, z) in enumerate(self.links):
            if name in (a, z):
                out.append((f"eth{j}", f"10.0.{j}.{0 if name == a else 1}", 31))
        return out

    def copy(self):
        other = _Net.__new__(_Net)
        other.names = self.names
        other.links = self.links
        other.acl_on_d0 = self.acl_on_d0
        other.disabled = set(self.disabled)
        other.degraded = set(self.degraded)
        other.fib = {name: dict(fib) for name, fib in self.fib.items()}
        other.groups = {name: dict(g) for name, g in self.groups.items()}
        return other

    def dataplane(self):
        snapshots = {}
        for name in self.names:
            snap = AftSnapshot(device=name)
            for iface, address, length in self.interfaces(name):
                acl = (
                    "GUARD"
                    if self.acl_on_d0 and name == "d0" and iface == "stub"
                    else None
                )
                snap.interfaces.append(
                    AftInterface(
                        name=iface,
                        ipv4_address=address,
                        prefix_length=length,
                        enabled=(name, iface) not in self.disabled,
                        acl_in=acl,
                    )
                )
            if self.acl_on_d0 and name == "d0":
                snap.acls = {
                    "GUARD": (
                        AclRule(
                            seq=10, permit=False,
                            src=Prefix.parse("9.9.9.0/24"),
                        ),
                        AclRule(seq=20, permit=True),
                    )
                }
            hop_index: dict[tuple, int] = {}
            for gid, hops in self.groups[name].items():
                indices = []
                for iface, gateway in hops:
                    index = hop_index.setdefault(
                        (iface, gateway), len(hop_index) + 1
                    )
                    snap.next_hops[index] = AftNextHop(
                        index=index, interface=iface, ip_address=gateway
                    )
                    indices.append(index)
                snap.next_hop_groups[gid] = AftNextHopGroup(
                    group_id=gid, next_hop_indices=tuple(indices)
                )
            for prefix, action in sorted(self.fib[name].items()):
                snap.entries.append(
                    AftIpv4Entry(
                        prefix=Prefix.parse(prefix),
                        entry_type=action[0],
                        next_hop_group=(
                            action[1] if action[0] == "forward" else None
                        ),
                    )
                )
            snapshots[name] = snap
        return Dataplane.from_afts(
            snapshots,
            degraded_nodes={"ghost": "unreachable"} if self.degraded else None,
            degraded_addresses=(
                {"ghost": sorted(self.degraded)} if self.degraded else None
            ),
        )


@st.composite
def _group(draw, net, name):
    choices = net.hop_choices(name)
    return tuple(
        draw(
            st.lists(
                st.sampled_from(choices), min_size=1, max_size=3, unique=True
            )
        )
    )


@st.composite
def _base_net(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    pairs = [(f"d{a}", f"d{b}") for a in range(n) for b in range(a + 1, n)]
    links = draw(
        st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=n + 1,
                 unique=True)
    )
    net = _Net(n, links, acl_on_d0=draw(st.booleans()))
    for name in net.names:
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            gid = len(net.groups[name])
            net.groups[name][gid] = draw(_group(net, name))
        routed = draw(
            st.lists(st.sampled_from(_DESTINATIONS), max_size=6, unique=True)
        )
        for prefix in routed:
            if draw(st.integers(min_value=0, max_value=5)) == 0:
                net.fib[name][prefix] = ("discard",)
            else:
                gid = draw(st.sampled_from(sorted(net.groups[name])))
                net.fib[name][prefix] = ("forward", gid)
    return net


@st.composite
def _churn(draw, net):
    """One step of churn: mostly group rewrites, plus structural ops."""
    net = net.copy()
    ops = draw(
        st.lists(
            st.sampled_from(
                ("rewrite", "rewrite", "regroup", "add", "remove",
                 "retype", "link", "degrade")
            ),
            min_size=1,
            max_size=5,
        )
    )
    for op in ops:
        name = draw(st.sampled_from(net.names))
        fib = net.fib[name]
        if op == "rewrite":
            gid = draw(st.sampled_from(sorted(net.groups[name])))
            net.groups[name][gid] = draw(_group(net, name))
        elif op == "regroup":
            forwards = sorted(p for p, a in fib.items() if a[0] == "forward")
            prefix = draw(st.sampled_from(forwards))
            if draw(st.booleans()):
                gid = len(net.groups[name])
                net.groups[name][gid] = draw(_group(net, name))
            else:
                gid = draw(st.sampled_from(sorted(net.groups[name])))
            fib[prefix] = ("forward", gid)
        elif op == "add":
            prefix = draw(st.sampled_from(_DESTINATIONS))
            gid = draw(st.sampled_from(sorted(net.groups[name])))
            fib[prefix] = ("forward", gid)
        elif op == "remove":
            prefix = draw(st.sampled_from(sorted(fib)))
            del fib[prefix]
        elif op == "retype":
            prefix = draw(st.sampled_from(sorted(fib)))
            if fib[prefix][0] == "forward":
                fib[prefix] = ("discard",)
            else:
                gid = draw(st.sampled_from(sorted(net.groups[name])))
                fib[prefix] = ("forward", gid)
        elif op == "link":
            iface = draw(
                st.sampled_from([i for i, _a, _l in net.interfaces(name)])
            )
            net.disabled ^= {(name, iface)}
        else:
            i = net.names.index(name)
            address = draw(
                st.sampled_from((f"10.9.{i}.1", _GHOST_LOOPBACK))
            )
            net.degraded ^= {address}
    return net


class TestGeneratedGroupRewrites:
    """Random next-hop-group rewrites mixed with structural changes
    (prefix add/remove, entry-type flips, interface moves, degraded
    flips), over ECMP groups, directly attached hops, stale next hops
    and an optional ACL: each derived engine — the second one derived
    from the first — equals a cold build verdict for verdict, taint
    and UNKNOWN_DEGRADED included."""

    @settings(deadline=None)
    @given(data=st.data())
    def test_derived_equals_cold(self, data):
        base = data.draw(_base_net())
        first = data.draw(_churn(base))
        second = data.draw(_churn(first))
        with patch.object(engine_mod, "DELTA_THRESHOLD", 1.0):
            engine = AtomGraphEngine(base.dataplane())
            for step in (first, second):
                engine = assert_delta_matches_cold(engine, step.dataplane())


class TestBaselineDiffPinnedReference:
    def test_compare_after_cache_clear_builds_nothing_cold(self):
        """The campaign's reference engine is pinned on the
        ``BaselineDiff``: after the engine cache lost it, the next
        comparison still derives from it instead of rebuilding the
        baseline cold."""
        from repro.verify.differential import BaselineDiff

        net = _Net(3, [("d0", "d1"), ("d1", "d2")], acl_on_d0=False)
        net.groups["d0"][9] = (("eth0", "10.0.0.1"),)
        for prefix in ("20.0.0.0/8", "30.0.0.0/8"):
            net.fib["d0"][prefix] = ("forward", 9)
        rerouted = net.copy()
        rerouted.groups["d0"][9] = (("stub", "10.9.0.1"),)
        discarded = net.copy()
        discarded.fib["d0"]["30.0.0.0/8"] = ("discard",)
        clear_engine_cache()
        diff = BaselineDiff(net.dataplane())
        diff.compare(rerouted.dataplane())
        clear_engine_cache()
        with tracing() as tracer:
            comparison = diff.compare(discarded.dataplane())
        clear_engine_cache()
        assert tracer.counters.get("verify.engine_builds", 0) == 0
        assert tracer.counters["verify.delta_applies"] == 1
        assert diff.last_delta_stats.fallback is None
        assert comparison.changed > 0
