"""gNMI path grammar, AFT model, and server tests."""

import copy
import json
import pickle
import random

import pytest

from repro.chaos import ChaosInjector
from repro.core.faults import FaultPlan, GnmiFlake, StaleAft
from repro.core.snapshot import Snapshot
from repro.dataplane.model import Dataplane
from repro.device.acl import Acl, AclRule
from repro.gnmi.aft import AftSnapshot, router_acls, router_interfaces
from repro.gnmi.paths import PathError, parse_path
from repro.gnmi.server import GnmiError, GnmiServer, dump_afts, extract_afts
from repro.net.addr import Prefix, parse_ipv4
from repro.obs import tracing
from repro.rib.fib import FibAction, FibEntry

from tests.helpers import isis_config, mini_net


class TestPathGrammar:
    def test_simple(self):
        path = parse_path("/interfaces/interface")
        assert path.names == ("interfaces", "interface")

    def test_keys(self):
        path = parse_path(
            "/network-instances/network-instance[name=default]/afts"
        )
        assert path.elements[1].key("name") == "default"

    def test_multiple_keys(self):
        path = parse_path("/a/b[x=1][y=2]/c")
        assert path.elements[1].keys == (("x", "1"), ("y", "2"))

    def test_key_value_with_slash(self):
        path = parse_path("/interfaces/interface[name=ethernet-1/1]/state")
        assert path.elements[1].key("name") == "ethernet-1/1"

    def test_root(self):
        assert len(parse_path("/")) == 0

    def test_str_roundtrip(self):
        text = "/network-instances/network-instance[name=default]/afts"
        assert str(parse_path(text)) == text

    def test_relative_rejected(self):
        with pytest.raises(PathError):
            parse_path("interfaces/interface")

    def test_trailing_slash_rejected(self):
        with pytest.raises(PathError):
            parse_path("/interfaces/")

    def test_missing_key_raises(self):
        path = parse_path("/a[x=1]")
        with pytest.raises(KeyError):
            path.elements[0].key("y")

    def test_starts_with(self):
        path = parse_path("/a/b/c")
        assert path.starts_with("a", "b")
        assert not path.starts_with("b")


@pytest.fixture(scope="module")
def net():
    configs = {
        "r1": isis_config("r1", 1, "2.2.2.1", [("Ethernet1", "10.0.0.0/31")]),
        "r2": isis_config("r2", 2, "2.2.2.2", [("Ethernet1", "10.0.0.1/31")]),
    }
    net = mini_net(configs, [("r1", "Ethernet1", "r2", "Ethernet1")])
    net.converge()
    return net


class TestAftSnapshot:
    def test_extraction_covers_fib(self, net):
        snapshot = AftSnapshot.from_router(net.router("r1"))
        assert len(snapshot) == len(net.router("r1").rib.fib)

    def test_receive_entries_for_own_addresses(self, net):
        snapshot = AftSnapshot.from_router(net.router("r1"))
        receives = {
            e.prefix for e in snapshot.entries if e.entry_type == "receive"
        }
        assert Prefix.parse("10.0.0.0/32") in receives

    def test_forward_entries_reference_valid_groups(self, net):
        snapshot = AftSnapshot.from_router(net.router("r1"))
        for entry in snapshot.entries:
            if entry.entry_type == "forward":
                group = snapshot.next_hop_groups[entry.next_hop_group]
                for index in group.next_hop_indices:
                    assert index in snapshot.next_hops

    def test_interfaces_reported(self, net):
        snapshot = AftSnapshot.from_router(net.router("r1"))
        names = {i.name for i in snapshot.interfaces}
        assert {"Ethernet1", "Loopback0"} <= names

    def test_json_roundtrip(self, net):
        snapshot = AftSnapshot.from_router(net.router("r1"))
        blob = json.dumps(snapshot.to_dict())
        restored = AftSnapshot.from_dict(json.loads(blob))
        assert restored.device == snapshot.device
        assert restored.entries == snapshot.entries
        assert restored.next_hops == snapshot.next_hops
        assert restored.interfaces == snapshot.interfaces

    def test_local_addresses(self, net):
        snapshot = AftSnapshot.from_router(net.router("r1"))
        assert parse_ipv4("2.2.2.1") in snapshot.local_addresses()


class TestGnmiServer:
    def test_get_afts(self, net):
        server = GnmiServer(net.router("r1"))
        data = server.get(
            "/network-instances/network-instance[name=default]/afts"
        )
        entries = data["network-instances"]["network-instance"][0]["afts"][
            "ipv4-unicast"
        ]["ipv4-entry"]
        assert any(e["prefix"] == "2.2.2.2/32" for e in entries)

    def test_get_interfaces(self, net):
        server = GnmiServer(net.router("r1"))
        data = server.get("/interfaces")
        names = {i["name"] for i in data["interfaces"]["interface"]}
        assert "Ethernet1" in names

    def test_get_one_interface(self, net):
        server = GnmiServer(net.router("r1"))
        data = server.get("/interfaces/interface[name=Ethernet1]")
        assert len(data["interfaces"]["interface"]) == 1

    def test_get_missing_interface(self, net):
        server = GnmiServer(net.router("r1"))
        with pytest.raises(GnmiError):
            server.get("/interfaces/interface[name=Ethernet9]")

    def test_get_hostname(self, net):
        server = GnmiServer(net.router("r1"))
        assert server.get("/system")["system"]["state"]["hostname"] == "r1"

    def test_unknown_instance(self, net):
        server = GnmiServer(net.router("r1"))
        with pytest.raises(GnmiError):
            server.get("/network-instances/network-instance[name=red]/afts")

    def test_unsupported_path(self, net):
        server = GnmiServer(net.router("r1"))
        with pytest.raises(GnmiError):
            server.get("/lldp")

    def test_dump_afts_all_devices(self, net):
        snapshots = dump_afts(net)
        assert set(snapshots) == {"r1", "r2"}
        assert all(len(s) > 0 for s in snapshots.values())

    def test_dump_afts_empty_node_set(self, net):
        assert dump_afts(net, nodes=[]) == {}

    def test_dump_afts_unknown_node(self, net):
        with pytest.raises(KeyError):
            dump_afts(net, nodes=["r1", "r99"])

    def test_dump_afts_emits_entry_counts(self, net):
        from repro.obs import tracing

        with tracing() as tracer:
            snapshots = dump_afts(net)
        dumped = {
            e.node: e.detail["entries"]
            for e in tracer.events_in("gnmi.aft.dump")
        }
        assert dumped == {
            name: len(snapshot) for name, snapshot in snapshots.items()
        }


class TestSubscribe:
    def test_on_change_fires_on_link_cut(self):
        configs = {
            "s1": isis_config("s1", 1, "3.3.3.1", [("Ethernet1", "10.1.0.0/31")]),
            "s2": isis_config("s2", 2, "3.3.3.2", [("Ethernet1", "10.1.0.1/31")]),
        }
        live = mini_net(configs, [("s1", "Ethernet1", "s2", "Ethernet1")])
        live.converge()
        updates = []
        server = GnmiServer(live.router("s1"))
        subscription = server.subscribe(
            "/network-instances/network-instance[name=default]/afts",
            updates.append,
        )
        live.link_down("s1", "Ethernet1", "s2", "Ethernet1")
        live.converge(quiet=3.0)
        assert subscription.updates_delivered >= 1
        assert updates[-1]["update"]["network-instances"]
        assert updates[-1]["timestamp"] > 0

    def test_cancel_stops_delivery(self):
        configs = {
            "s1": isis_config("s1", 1, "3.3.3.1", [("Ethernet1", "10.1.0.0/31")]),
            "s2": isis_config("s2", 2, "3.3.3.2", [("Ethernet1", "10.1.0.1/31")]),
        }
        live = mini_net(configs, [("s1", "Ethernet1", "s2", "Ethernet1")])
        live.converge()
        updates = []
        server = GnmiServer(live.router("s1"))
        router = live.router("s1")
        listeners = len(router._fib_listeners)
        subscription = server.subscribe("/interfaces", updates.append)
        assert len(router._fib_listeners) == listeners + 1
        subscription.cancel()
        # Unregistered, not merely muted: the router no longer calls it.
        assert len(router._fib_listeners) == listeners
        gets = []
        server.get = lambda path: gets.append(path)
        live.link_down("s1", "Ethernet1", "s2", "Ethernet1")
        live.converge(quiet=3.0)
        assert updates == [] and gets == []
        subscription.cancel()  # idempotent
        assert len(router._fib_listeners) == listeners


def triangle():
    """Three IS-IS routers in a ring, converged."""
    links = [
        ("m1", "Ethernet1", "m2", "Ethernet1", "10.2.0.0/31", "10.2.0.1/31"),
        ("m2", "Ethernet2", "m3", "Ethernet1", "10.2.0.2/31", "10.2.0.3/31"),
        ("m3", "Ethernet2", "m1", "Ethernet2", "10.2.0.4/31", "10.2.0.5/31"),
    ]
    interfaces = {"m1": [], "m2": [], "m3": []}
    for a, a_port, z, z_port, a_addr, z_addr in links:
        interfaces[a].append((a_port, a_addr))
        interfaces[z].append((z_port, z_addr))
    configs = {
        name: isis_config(name, index, f"4.4.4.{index}", interfaces[name])
        for index, name in enumerate(sorted(interfaces), start=1)
    }
    live = mini_net(configs, [link[:4] for link in links])
    live.converge()
    return live


def from_scratch(router, now: float) -> dict:
    """What extraction must equal: an unmemoised FIB walk, then the wire."""
    walked = AftSnapshot.from_tables(
        router.name,
        router.rib.fib,
        router_interfaces(router),
        acls=router_acls(router),
        now=now,
    )
    return AftSnapshot.from_dict(walked.to_dict()).to_dict()


class TestExtractionMemo:
    """One FIB walk per FIB version, and never a stale answer for it."""

    def test_seeded_script_matches_from_scratch_extraction(self):
        live = triangle()
        rng = random.Random(20250929)
        names = sorted(live.routers)
        extracted_versions = set()
        scratch = [Prefix.parse(f"198.51.100.{i}/32") for i in range(8)]

        def check(name, snapshot):
            router = live.router(name)
            extracted_versions.add((name, router.rib.fib.version))
            assert snapshot.fib_version == router.rib.fib.version
            assert snapshot.to_dict() == from_scratch(
                router, snapshot.extracted_at
            )

        def extract():
            how = rng.choice(["dump", "subset", "direct"])
            if how == "dump":
                for name, snapshot in dump_afts(live).items():
                    check(name, snapshot)
            elif how == "subset":
                subset = rng.sample(names, 2)
                for name, snapshot in extract_afts(live, subset).afts.items():
                    check(name, snapshot)
            else:
                name = rng.choice(names)
                check(name, AftSnapshot.from_router(
                    live.router(name), now=live.kernel.now
                ))

        def install():
            fib = live.router(rng.choice(names)).rib.fib
            fib.set_entry(
                FibEntry(prefix=rng.choice(scratch), action=FibAction.DISCARD),
                live.kernel.now,
            )

        def remove():
            fib = live.router(rng.choice(names)).rib.fib
            fib.remove_entry(rng.choice(scratch), live.kernel.now)

        def flap():
            port = live.router(rng.choice(names)).ports[
                rng.choice(["Ethernet1", "Ethernet2"])
            ]
            port.set_link_state(not port.is_up)

        def bind_acl():
            router = live.router(rng.choice(names))
            acl = f"ACL{rng.randrange(2)}"
            router.config.acls[acl] = Acl(
                name=acl,
                rules=[AclRule(
                    seq=10, permit=rng.random() < 0.5,
                    dst=rng.choice(scratch), dst_port=(80, 80 + rng.randrange(3)),
                )],
            )
            config = router.ports[rng.choice(["Ethernet1", "Ethernet2"])].config
            if rng.random() < 0.5:
                config.acl_in = rng.choice([acl, None])
            else:
                config.acl_out = rng.choice([acl, None])

        def advance():
            live.kernel.run(until=live.kernel.now + rng.choice([0.05, 1.0, 5.0]))

        steps = [extract] * 5 + [install, install, remove, flap, bind_acl, advance]
        with tracing() as tracer:
            extract()
            for _ in range(150):
                rng.choice(steps)()
            extract()
        walks = tracer.counters["gnmi.fib_walks"]
        assert walks == len(extracted_versions)
        # The script really did both: revisit versions and move them on.
        assert tracer.counters["gnmi.memo_hits"] > walks > 10

    def test_unchanged_router_yields_the_same_object_everywhere(self):
        live = triangle()
        router = live.router("m1")
        first = dump_afts(live)["m1"]
        assert AftSnapshot.from_router(router, now=99.0) is first
        assert extract_afts(live, ["m1"]).afts["m1"] is first
        assert first.extracted_at == live.kernel.now != 99.0
        # ... and one parsed device serves every dataplane built from it.
        planes = [Dataplane.from_afts({"m1": first}) for _ in range(2)]
        evolved = Dataplane.evolve(planes[0], {"m1": first})
        assert planes[0].devices["m1"] is planes[1].devices["m1"]
        assert evolved.devices["m1"] is planes[0].devices["m1"]

    def test_acl_rebinding_reuses_the_walk_but_not_the_snapshot(self):
        live = triangle()
        router = live.router("m1")
        before = dump_afts(live)["m1"]
        router.config.acls["EDGE"] = Acl(
            name="EDGE", rules=[AclRule(seq=10, permit=False)]
        )
        router.ports["Ethernet1"].config.acl_in = "EDGE"
        with tracing() as tracer:
            after = dump_afts(live)["m1"]
        assert tracer.counters.get("gnmi.fib_walks", 0) == 0
        assert after is not before and after != before
        assert after.entries is before.entries
        assert "EDGE" in after.acls and "EDGE" not in before.acls
        assert after.to_dict() == from_scratch(router, after.extracted_at)
        assert Dataplane.from_afts({"m1": after}).devices["m1"].has_acls
        assert not Dataplane.from_afts({"m1": before}).devices["m1"].has_acls

    def test_memo_belongs_to_the_router_not_the_module(self):
        # Same names, same FIB versions, different tables.
        one, two = triangle(), triangle()
        two.router("m1").rib.fib.set_entry(
            FibEntry(
                prefix=Prefix.parse("198.51.100.1/32"),
                action=FibAction.DISCARD,
            ),
            two.kernel.now,
        )
        one.router("m1").rib.fib.set_entry(
            FibEntry(
                prefix=Prefix.parse("198.51.100.2/32"),
                action=FibAction.DISCARD,
            ),
            one.kernel.now,
        )
        assert (
            one.router("m1").rib.fib.version == two.router("m1").rib.fib.version
        )
        a, b = dump_afts(one)["m1"], dump_afts(two)["m1"]
        assert a is not b
        assert {e.prefix for e in a.entries} ^ {e.prefix for e in b.entries} == {
            Prefix.parse("198.51.100.1/32"), Prefix.parse("198.51.100.2/32"),
        }

    @pytest.mark.parametrize(
        "fault, fired",
        [
            (GnmiFlake(node="m2", failures=2), "gnmi-flake"),
            (StaleAft(node="m2", serves=1), "stale-aft"),
            (StaleAft(node="m2", serves=1, truncate=True), "truncated-aft"),
        ],
    )
    def test_fault_after_a_memo_hit_is_retried_and_not_memoised(
        self, fault, fired
    ):
        live = triangle()
        clean = dump_afts(live)["m2"]
        assert dump_afts(live)["m2"] is clean  # the memo is warm
        injector = ChaosInjector(live, FaultPlan(faults=(fault,))).arm()
        live.kernel.run(until=live.kernel.now)
        with tracing() as tracer:
            report = extract_afts(live)
        assert injector.fired(fired) == (2 if fired == "gnmi-flake" else 1)
        assert report.degraded == {}
        assert report.retries["m2"] == injector.fired(fired)
        assert tracer.counters["gnmi.retry"] == injector.fired(fired)
        # The retry got the good snapshot, and the next extraction too.
        router = live.router("m2")
        for snapshot in (report.afts["m2"], dump_afts(live)["m2"]):
            assert snapshot.fib_version == router.rib.fib.version
            assert snapshot.to_dict() == from_scratch(
                router, snapshot.extracted_at
            )

    def test_exhausted_stale_budget_degrades_and_leaves_the_memo_clean(self):
        live = triangle()
        clean = dump_afts(live)["m2"]
        ChaosInjector(
            live, FaultPlan(faults=(StaleAft(node="m2", serves=2),))
        ).arm()
        live.kernel.run(until=live.kernel.now)
        report = extract_afts(live, max_attempts=2)
        assert "stale dump" in report.degraded["m2"]
        assert dump_afts(live)["m2"].to_dict() == clean.to_dict()

    def test_caches_stay_out_of_equality_wire_form_and_pickles(self):
        live = triangle()
        afts = dump_afts(live)
        snapshot = Snapshot(name="t", afts=afts)
        bare = AftSnapshot.from_dict(afts["m1"].to_dict())
        wire = json.dumps(afts["m1"].to_dict(), sort_keys=True)
        device = snapshot.dataplane.devices["m1"]
        assert afts["m1"]._forwarding is device
        assert afts["m1"] == bare and "_forwarding" not in repr(afts["m1"])
        assert json.dumps(afts["m1"].to_dict(), sort_keys=True) == wire
        snapshot._dataplane = None
        for clone in (
            pickle.loads(pickle.dumps(snapshot)),
            copy.deepcopy(snapshot),
        ):
            assert clone.afts == afts
            for aft in clone.afts.values():
                assert aft._forwarding is None
                assert not hasattr(aft, "aft_memo")
            # No router (hence no memo) is reachable from a snapshot.
            assert b"AftMemo" not in pickle.dumps(clone)
            assert clone.dataplane.fib_fingerprint() == (
                Dataplane.from_afts(afts).fib_fingerprint()
            )
        assert afts["m1"]._forwarding is device


class TestGetReadsOnlyWhatItServes:
    def test_interfaces_and_acls_never_walk_the_fib(self, net):
        server = GnmiServer(net.router("r1"))
        net.router("r1").aft_memo = None
        with tracing() as tracer:
            server.get("/interfaces")
            server.get("/interfaces/interface[name=Ethernet1]")
            server.get("/acls")
            server.get("/system/state/hostname")
        assert "gnmi.fib_walks" not in tracer.counters
        assert "gnmi.memo_hits" not in tracer.counters

    def test_afts_walks_once_per_version(self, net):
        server = GnmiServer(net.router("r1"))
        net.router("r1").aft_memo = None
        path = "/network-instances/network-instance[name=default]/afts"
        with tracing() as tracer:
            first = server.get(path)
            assert server.get(path) == first
        assert tracer.counters["gnmi.fib_walks"] == 1
        assert tracer.counters["gnmi.memo_hits"] == 1
        assert set(first) == {"network-instances", "meta"}

    def test_subtrees_assemble_into_the_full_snapshot(self, net):
        server = GnmiServer(net.router("r1"))
        merged = {
            **server.get("/network-instances/network-instance[name=default]/afts"),
            **server.get("/interfaces"),
            **server.get("/acls"),
        }
        snapshot = AftSnapshot.from_router(net.router("r1"))
        assert merged == snapshot.to_dict()
