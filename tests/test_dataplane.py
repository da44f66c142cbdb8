"""Dataplane model and symbolic forwarding tests.

Uses hand-built AFT snapshots for precise control over forwarding state
(loops, blackholes, ECMP) — the verification stage only ever sees AFTs,
so tests can construct any network state directly.
"""

import pytest

from repro.dataplane.forwarding import Disposition, ForwardingWalk, dst_atoms
from repro.dataplane.model import Dataplane, DeviceForwarding, ResolvedHop
from repro.gnmi.aft import (
    AftInterface,
    AftIpv4Entry,
    AftNextHop,
    AftNextHopGroup,
    AftSnapshot,
)
from repro.net.addr import Prefix, parse_ipv4


def snapshot(device, interfaces, forwards, receives=(), discards=()):
    """Build an AftSnapshot: interfaces as (name, 'a.b.c.d/len'),
    forwards as (prefix, [(iface, gateway_or_None), ...])."""
    snap = AftSnapshot(device=device)
    for name, cidr in interfaces:
        address, _, length = cidr.partition("/")
        snap.interfaces.append(
            AftInterface(
                name=name,
                ipv4_address=address,
                prefix_length=int(length),
                enabled=True,
            )
        )
    nh_index = 0
    for group_id, (prefix, hops) in enumerate(forwards, start=1):
        indices = []
        for iface, gateway in hops:
            nh_index += 1
            snap.next_hops[nh_index] = AftNextHop(
                index=nh_index, interface=iface, ip_address=gateway
            )
            indices.append(nh_index)
        snap.next_hop_groups[group_id] = AftNextHopGroup(
            group_id=group_id, next_hop_indices=tuple(indices)
        )
        snap.entries.append(
            AftIpv4Entry(
                prefix=Prefix.parse(prefix),
                entry_type="forward",
                next_hop_group=group_id,
            )
        )
    for prefix in receives:
        snap.entries.append(
            AftIpv4Entry(prefix=Prefix.parse(prefix), entry_type="receive")
        )
    for prefix in discards:
        snap.entries.append(
            AftIpv4Entry(prefix=Prefix.parse(prefix), entry_type="discard")
        )
    return snap


@pytest.fixture
def line_dataplane():
    """a -- b with loopbacks 1.1.1.1 and 2.2.2.2."""
    a = snapshot(
        "a",
        [("eth0", "10.0.0.0/31"), ("lo", "1.1.1.1/32")],
        [
            ("2.2.2.2/32", [("eth0", "10.0.0.1")]),
            ("10.0.0.0/31", [("eth0", None)]),
        ],
        receives=["1.1.1.1/32", "10.0.0.0/32"],
    )
    b = snapshot(
        "b",
        [("eth0", "10.0.0.1/31"), ("lo", "2.2.2.2/32")],
        [
            ("1.1.1.1/32", [("eth0", "10.0.0.0")]),
            ("10.0.0.0/31", [("eth0", None)]),
        ],
        receives=["2.2.2.2/32", "10.0.0.1/32"],
    )
    return Dataplane.from_afts({"a": a, "b": b})


class TestEdgeDerivation:
    def test_shared_subnet_forms_edge(self, line_dataplane):
        assert len(line_dataplane.edges) == 1
        edge = line_dataplane.edges[0]
        assert {edge.device, edge.peer_device} == {"a", "b"}

    def test_adjacency_lookup(self, line_dataplane):
        neighbors = line_dataplane.adjacency[("a", "eth0")]
        assert neighbors == [("b", "eth0", parse_ipv4("10.0.0.1"))]

    def test_no_edge_without_shared_subnet(self):
        a = snapshot("a", [("eth0", "10.0.0.0/31")], [])
        b = snapshot("b", [("eth0", "10.0.9.1/31")], [])
        dataplane = Dataplane.from_afts({"a": a, "b": b})
        assert dataplane.edges == []

    def test_disabled_interface_no_edge(self):
        a = snapshot("a", [("eth0", "10.0.0.0/31")], [])
        b = snapshot("b", [], [])
        b.interfaces.append(
            AftInterface(
                name="eth0", ipv4_address="10.0.0.1", prefix_length=31,
                enabled=False,
            )
        )
        dataplane = Dataplane.from_afts({"a": a, "b": b})
        assert dataplane.edges == []

    def test_address_owner_map(self, line_dataplane):
        assert line_dataplane.address_owner[parse_ipv4("2.2.2.2")] == "b"


class TestWalk:
    def test_accepted_at_remote_loopback(self, line_dataplane):
        walk = ForwardingWalk(line_dataplane)
        result = walk.walk("a", parse_ipv4("2.2.2.2"))
        assert result.dispositions == {Disposition.ACCEPTED}
        assert [h.device for h in result.traces[0].hops] == ["a", "b"]

    def test_no_route(self, line_dataplane):
        walk = ForwardingWalk(line_dataplane)
        result = walk.walk("a", parse_ipv4("99.99.99.99"))
        assert result.dispositions == {Disposition.NO_ROUTE}

    def test_delivered_to_subnet_for_unowned_host(self, line_dataplane):
        walk = ForwardingWalk(line_dataplane)
        # 10.0.0.0/31 only has .0 and .1, both owned; use a /24-ish case:
        a = snapshot(
            "a",
            [("eth0", "192.168.1.1/24")],
            [("192.168.1.0/24", [("eth0", None)])],
            receives=["192.168.1.1/32"],
        )
        dataplane = Dataplane.from_afts({"a": a})
        result = ForwardingWalk(dataplane).walk("a", parse_ipv4("192.168.1.77"))
        assert result.dispositions == {Disposition.DELIVERED_TO_SUBNET}

    def test_null_route(self):
        a = snapshot("a", [("eth0", "10.0.0.0/31")], [],
                     discards=["192.0.2.0/24"])
        dataplane = Dataplane.from_afts({"a": a})
        result = ForwardingWalk(dataplane).walk("a", parse_ipv4("192.0.2.5"))
        assert result.dispositions == {Disposition.NULL_ROUTED}

    def test_loop_detected(self):
        a = snapshot(
            "a",
            [("eth0", "10.0.0.0/31")],
            [("5.5.5.5/32", [("eth0", "10.0.0.1")])],
        )
        b = snapshot(
            "b",
            [("eth0", "10.0.0.1/31")],
            [("5.5.5.5/32", [("eth0", "10.0.0.0")])],
        )
        dataplane = Dataplane.from_afts({"a": a, "b": b})
        result = ForwardingWalk(dataplane).walk("a", parse_ipv4("5.5.5.5"))
        assert result.dispositions == {Disposition.LOOP}

    def test_ecmp_branches_both_explored(self):
        core = snapshot(
            "core",
            [("eth0", "10.0.0.0/31"), ("eth1", "10.0.1.0/31")],
            [
                (
                    "5.5.5.5/32",
                    [("eth0", "10.0.0.1"), ("eth1", "10.0.1.1")],
                )
            ],
        )
        left = snapshot(
            "left", [("eth0", "10.0.0.1/31")], [], receives=["5.5.5.5/32"]
        )
        right = snapshot(
            "right", [("eth0", "10.0.1.1/31")], [],
            discards=["5.5.5.5/32"],
        )
        dataplane = Dataplane.from_afts(
            {"core": core, "left": left, "right": right}
        )
        result = ForwardingWalk(dataplane).walk("core", parse_ipv4("5.5.5.5"))
        assert result.dispositions == {
            Disposition.ACCEPTED,
            Disposition.NULL_ROUTED,
        }
        assert not result.success

    def test_exits_network_on_unwired_gateway(self):
        a = snapshot(
            "a",
            [("eth0", "10.0.0.0/31")],
            [("5.5.5.5/32", [("eth0", "10.0.0.1")])],
        )
        dataplane = Dataplane.from_afts({"a": a})
        result = ForwardingWalk(dataplane).walk("a", parse_ipv4("5.5.5.5"))
        assert result.dispositions == {Disposition.EXITS_NETWORK}


class TestAtoms:
    def test_atoms_cover_universe(self, line_dataplane):
        atoms = dst_atoms(line_dataplane)
        total = 0
        for atom in atoms:
            total += len(atom)
        assert total == 2**32

    def test_lpm_constant_within_atom(self, line_dataplane):
        walk = ForwardingWalk(line_dataplane)
        for atom in dst_atoms(line_dataplane):
            samples = [atom.min(), atom.max()]
            outcomes = {
                walk.walk("a", sample).dispositions for sample in samples
            }
            assert len(outcomes) == 1


def per_entry_hops(aft, entry):
    """How an entry's hops were parsed before groups were parsed once."""
    hops = ()
    if entry.entry_type == "forward" and entry.next_hop_group is not None:
        group = aft.next_hop_groups[entry.next_hop_group]
        hops = tuple(
            ResolvedHop(
                interface=aft.next_hops[i].interface,
                gateway=(
                    parse_ipv4(aft.next_hops[i].ip_address)
                    if aft.next_hops[i].ip_address is not None
                    else None
                ),
            )
            for i in group.next_hop_indices
        )
    return hops


class TestNextHopGroups:
    def test_one_hop_tuple_per_group_same_content(self, fig2_snapshots):
        reused = 0
        for aft in fig2_snapshots[0].afts.values():
            device = DeviceForwarding(aft)
            by_group = {}
            forwarding = 0
            for prefix, entry in aft.forward_entries():
                hops = device.trie.get(prefix).hops
                assert hops == per_entry_hops(aft, entry)
                if hops:
                    forwarding += 1
                    assert by_group.setdefault(entry.next_hop_group, hops) is hops
            reused += forwarding - len(by_group)
        assert reused > 0
