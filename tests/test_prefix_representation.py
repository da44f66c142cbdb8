"""One prefix representation from FIB to engine.

AFT entries carry the FIB's parsed :class:`Prefix`; the gNMI wire form
is the only place a prefix is a string. The oracle here is the older
string-prefix path, kept verbatim: its FIB walk, its wire encoding,
its entry parse and the ``DeviceForwarding`` constructor that re-parsed
every entry. On generated FIBs — /0 and /32 prefixes, receive and
discard entries, ECMP groups, interned and merely equal hop tuples —
both paths must agree byte for byte on the wire and entry for entry in
the built tables.
"""

from __future__ import annotations

import copy
import json
import pickle
from typing import Optional

from hypothesis import given
from hypothesis import strategies as st

from repro.dataplane.model import (
    CompiledLpmIndex,
    DeviceForwarding,
    ForwardingEntry,
    ResolvedHop,
    _group_hops,
)
from repro.gnmi.aft import (
    AftInterface,
    AftIpv4Entry,
    AftNextHop,
    AftNextHopGroup,
    AftSnapshot,
)
from repro.net.addr import MAX_IPV4, Prefix, format_ipv4, parse_ipv4
from repro.net.trie import PrefixTrie
from repro.rib.fib import Fib, FibAction, FibEntry
from repro.rib.route import NextHop, Protocol, ResolvedNextHop, Route


class _StringSnapshot(AftSnapshot):
    """The string-prefix snapshot: FIB walk, wire form and entry parse
    as they were before entries held a parsed prefix (verbatim)."""

    @classmethod
    def from_tables(
        cls,
        device: str,
        fib,
        interfaces: list["AftInterface"],
        *,
        acls: Optional[dict[str, tuple]] = None,
        now: float = 0.0,
    ) -> "AftSnapshot":
        snapshot = cls(
            device=device,
            extracted_at=now,
            interfaces=list(interfaces),
            acls=dict(acls or {}),
            fib_version=getattr(fib, "version", 0),
        )
        nh_index = 0
        group_id = 0
        nh_cache: dict[tuple, int] = {}
        group_cache: dict[tuple[int, ...], int] = {}
        for entry in fib.entries():
            if entry.action is FibAction.FORWARD:
                indices = []
                for hop in entry.next_hops:
                    key = (hop.interface, hop.ip)
                    if key not in nh_cache:
                        nh_index += 1
                        nh_cache[key] = nh_index
                        snapshot.next_hops[nh_index] = AftNextHop(
                            index=nh_index,
                            interface=hop.interface,
                            ip_address=(
                                format_ipv4(hop.ip) if hop.ip is not None else None
                            ),
                        )
                    indices.append(nh_cache[key])
                group_key = tuple(sorted(indices))
                if group_key not in group_cache:
                    group_id += 1
                    group_cache[group_key] = group_id
                    snapshot.next_hop_groups[group_id] = AftNextHopGroup(
                        group_id=group_id, next_hop_indices=group_key
                    )
                snapshot.entries.append(
                    AftIpv4Entry(
                        prefix=str(entry.prefix),
                        entry_type="forward",
                        next_hop_group=group_cache[group_key],
                    )
                )
            else:
                kind = (
                    "receive" if entry.action is FibAction.RECEIVE else "discard"
                )
                snapshot.entries.append(
                    AftIpv4Entry(prefix=str(entry.prefix), entry_type=kind)
                )
        return snapshot

    def network_instances_to_dict(self) -> dict:
        return {
            "network-instance": [
                {
                    "name": "default",
                    "afts": {
                        "ipv4-unicast": {
                            "ipv4-entry": [
                                {
                                    "prefix": e.prefix,
                                    "state": {
                                        "entry-type": e.entry_type,
                                        "next-hop-group": e.next_hop_group,
                                    },
                                }
                                for e in self.entries
                            ]
                        },
                        "next-hop-groups": {
                            "next-hop-group": [
                                {
                                    "id": g.group_id,
                                    "next-hops": {
                                        "next-hop": [
                                            {"index": i}
                                            for i in g.next_hop_indices
                                        ]
                                    },
                                }
                                for g in self.next_hop_groups.values()
                            ]
                        },
                        "next-hops": {
                            "next-hop": [
                                {
                                    "index": nh.index,
                                    "state": {
                                        "ip-address": nh.ip_address,
                                        "interface-ref": nh.interface,
                                    },
                                }
                                for nh in self.next_hops.values()
                            ]
                        },
                    },
                }
            ]
        }

    def forward_entries(self) -> list[tuple[Prefix, AftIpv4Entry]]:
        return [(Prefix.parse(e.prefix), e) for e in self.entries]


class _StringDeviceForwarding(DeviceForwarding):
    """The constructor that parsed every entry's string (verbatim)."""

    def __init__(self, snapshot: AftSnapshot) -> None:
        from repro.device.acl import Acl

        self.name = snapshot.device
        self.trie: PrefixTrie[ForwardingEntry] = PrefixTrie()
        self._compiled: Optional[CompiledLpmIndex] = None
        self._signature: Optional[int] = None
        self.interface_addresses: dict[str, tuple[int, int]] = {}
        self.local_addresses: set[int] = set()
        self.acls: dict[str, Acl] = {
            name: Acl(name=name, rules=list(rules))
            for name, rules in snapshot.acls.items()
        }
        # interface -> (ingress ACL, egress ACL), names resolved lazily.
        self.interface_acls: dict[str, tuple[Optional[str], Optional[str]]] = {
            iface.name: (iface.acl_in, iface.acl_out)
            for iface in snapshot.interfaces
            if iface.acl_in or iface.acl_out
        }
        for iface in snapshot.interfaces:
            if iface.ipv4_address is not None and iface.enabled:
                address = parse_ipv4(iface.ipv4_address)
                assert iface.prefix_length is not None
                self.interface_addresses[iface.name] = (
                    address,
                    iface.prefix_length,
                )
                self.local_addresses.add(address)
        # One hop tuple per next-hop group, shared by its entries.
        groups: dict[int, tuple[ResolvedHop, ...]] = {}
        for prefix, entry in snapshot.forward_entries():
            hops: tuple[ResolvedHop, ...] = ()
            if entry.entry_type == "forward" and entry.next_hop_group is not None:
                hops = groups.get(entry.next_hop_group)  # type: ignore[assignment]
                if hops is None:
                    hops = groups[entry.next_hop_group] = _group_hops(
                        snapshot, entry.next_hop_group
                    )
            self.trie.insert(
                prefix,
                ForwardingEntry(
                    prefix=prefix, entry_type=entry.entry_type, hops=hops
                ),
            )


# -- generated FIBs ------------------------------------------------------------

_GATEWAYS = (None, parse_ipv4("10.0.0.1"), parse_ipv4("10.0.0.3"))
_PREFIXES = st.builds(
    Prefix.containing,
    st.integers(min_value=0, max_value=MAX_IPV4),
    st.one_of(st.sampled_from((0, 32)), st.integers(min_value=0, max_value=32)),
)
_GROUPS = st.lists(
    st.builds(
        ResolvedNextHop,
        interface=st.sampled_from(("eth0", "eth1", "eth2")),
        ip=st.sampled_from(_GATEWAYS),
    ),
    min_size=1,
    max_size=3,
    unique=True,
).map(tuple)
_INTERFACES = [
    AftInterface("eth0", "10.0.0.0", 31, True),
    AftInterface("eth1", "10.0.0.2", 31, True),
    AftInterface("eth2", "10.0.0.4", 31, False),
    AftInterface("lo", "1.1.1.1", 32, True),
]


@st.composite
def _fibs(draw) -> Fib:
    """A FIB whose forward entries share interned group tuples, equal
    copies of them, and reordered copies (the same ECMP set)."""
    groups = draw(st.lists(_GROUPS, min_size=1, max_size=4))
    fib = Fib()
    for prefix in draw(st.lists(_PREFIXES, min_size=1, max_size=12, unique=True)):
        kind = draw(st.sampled_from(("forward", "forward", "receive", "discard")))
        if kind == "forward":
            hops = draw(st.sampled_from(groups))
            copy_kind = draw(st.sampled_from(("interned", "equal", "reordered")))
            if copy_kind == "equal":
                hops = tuple(list(hops))
            elif copy_kind == "reordered":
                hops = tuple(reversed(hops))
            entry = FibEntry(prefix, FibAction.FORWARD, hops)
        elif kind == "receive":
            entry = FibEntry(prefix, FibAction.RECEIVE)
        else:
            entry = FibEntry(prefix, FibAction.DISCARD)
        fib.set_entry(entry, 0.0)
    return fib


class TestAgainstTheStringPath:
    @given(fib=_fibs())
    def test_wire_form_is_byte_identical(self, fib):
        snapshot = AftSnapshot.from_tables("d", fib, _INTERFACES, now=2.5)
        strings = _StringSnapshot.from_tables("d", fib, _INTERFACES, now=2.5)
        assert json.dumps(snapshot.to_dict()) == json.dumps(strings.to_dict())
        assert snapshot.next_hops == strings.next_hops
        assert snapshot.next_hop_groups == strings.next_hop_groups
        # The entries hold the FIB's own prefix objects: nothing parsed.
        walked = list(fib.entries())
        assert len(snapshot.entries) == len(walked)
        for entry, fib_entry in zip(snapshot.entries, walked):
            assert entry.prefix is fib_entry.prefix

    @given(fib=_fibs())
    def test_decode_round_trips_and_shares_one_prefix_per_string(self, fib):
        snapshot = AftSnapshot.from_tables("d", fib, _INTERFACES)
        prefixes: dict[str, Prefix] = {}
        decoded = AftSnapshot.from_dict(snapshot.to_dict(), prefixes)
        assert decoded == snapshot
        again = AftSnapshot.from_dict(snapshot.to_dict(), prefixes)
        assert again == snapshot
        for first, second in zip(decoded.entries, again.entries):
            assert second.prefix is first.prefix
        assert len(prefixes) == len(snapshot.entries)

    @given(fib=_fibs())
    def test_device_tables_and_signatures_match(self, fib):
        snapshot = AftSnapshot.from_tables("d", fib, _INTERFACES)
        strings = _StringSnapshot.from_tables("d", fib, _INTERFACES)
        device = DeviceForwarding(snapshot)
        reference = _StringDeviceForwarding(strings)
        assert device.sorted_entries() == reference.sorted_entries()
        assert device.content_signature() == reference.content_signature()
        assert device.interface_addresses == reference.interface_addresses
        assert device.local_addresses == reference.local_addresses
        for probe in (0, MAX_IPV4, parse_ipv4("10.0.0.1")):
            assert device.lookup(probe) == reference.lookup(probe)
            assert (
                device.compiled_index().probe(probe)
                == reference.compiled_index().probe(probe)
            )


def test_per_prefix_records_are_slotted_and_pickle():
    # Process workers receive these inside snapshots and run records.
    prefix = Prefix.parse("10.1.0.0/16")
    hop = ResolvedNextHop("eth0", parse_ipv4("10.0.0.1"))
    records = [
        prefix,
        NextHop(ip=parse_ipv4("10.0.0.1")),
        hop,
        Route(prefix, Protocol.STATIC, (NextHop(interface="eth0"),), metric=5),
        FibEntry(prefix, FibAction.FORWARD, (hop,)),
        AftIpv4Entry(prefix, "forward", 1),
        ResolvedHop("eth0", None),
        ForwardingEntry(prefix, "forward", (ResolvedHop("eth0", None),)),
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert clone == record and hash(clone) == hash(record)
