"""Network dataplane assembled from per-device AFT snapshots."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.gnmi.aft import AftSnapshot
from repro.net.addr import Prefix, parse_ipv4
from repro.net.trie import PrefixTrie
from repro.obs import bus


@dataclass(frozen=True)
class ResolvedHop:
    """One forwarding alternative of a FIB entry."""

    interface: str
    gateway: Optional[int]  # next-hop IP (None = directly attached)


@dataclass(frozen=True)
class ForwardingEntry:
    """One device FIB entry as the verifier sees it."""
    prefix: Prefix
    entry_type: str  # "forward" | "receive" | "discard"
    hops: tuple[ResolvedHop, ...] = ()


@dataclass(frozen=True)
class L3Edge:
    """A derived layer-3 adjacency."""

    device: str
    interface: str
    peer_device: str
    peer_interface: str

    def __str__(self) -> str:
        return (
            f"{self.device}[{self.interface}] <=> "
            f"{self.peer_device}[{self.peer_interface}]"
        )


def _group_hops(snapshot: AftSnapshot, group_id: int) -> tuple[ResolvedHop, ...]:
    hops = []
    for index in snapshot.next_hop_groups[group_id].next_hop_indices:
        next_hop = snapshot.next_hops[index]
        gateway = next_hop.ip_address
        hops.append(
            ResolvedHop(
                interface=next_hop.interface,
                gateway=parse_ipv4(gateway) if gateway is not None else None,
            )
        )
    return tuple(hops)


class DeviceForwarding:
    """One device's forwarding table plus interface addressing."""

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

    @classmethod
    def of(cls, snapshot: AftSnapshot) -> "DeviceForwarding":
        """The forwarding view of ``snapshot``, parsed at most once.

        Snapshots are immutable once extracted and extraction returns
        the same object for an unchanged router, so every dataplane
        built from that object shares one device — with its table,
        content signature and compiled index.
        """
        device = snapshot._forwarding
        if device is None:
            device = snapshot._forwarding = cls(snapshot)
        return device

    def lookup(self, address: int) -> Optional[ForwardingEntry]:
        if bus.ACTIVE.enabled:
            bus.ACTIVE.count("verify.lpm_lookups")
        match = self.trie.longest_match(address)
        return match[1] if match else None

    def compiled_index(self) -> "CompiledLpmIndex":
        """The flattened FIB: every possible LPM decision, precomputed.

        Built once per device (lazily) and reused across every
        destination atom by the atom-graph engine; a probe is one
        binary search instead of a hash probe per populated length.
        """
        if self._compiled is None:
            self._compiled = CompiledLpmIndex(self.trie.lpm_intervals())
        return self._compiled

    def sorted_entries(self) -> list[tuple[Prefix, ForwardingEntry]]:
        """Every FIB entry in (network, length) order.

        That is the table's own iteration order, served from its cached
        sorted view: the content signature and every delta diff against
        this device share one sort (the device is immutable after
        construction).
        """
        return list(self.trie.items())

    def content_signature(self) -> int:
        """Content hash of everything this device's forwarding depends on.

        Equal signatures mean identical FIB entries, interface
        addressing, and ACL bindings — so a delta diff can skip the
        device in O(1), and the dataplane fingerprint is just the hash
        of all device signatures. Computed once (the device is immutable
        after construction).
        """
        if self._signature is None:
            self._signature = hash(
                (
                    self.name,
                    tuple(
                        (prefix, entry.entry_type, entry.hops)
                        for prefix, entry in self.sorted_entries()
                    ),
                    tuple(sorted(self.interface_addresses.items())),
                    self.acl_signature(),
                )
            )
        return self._signature

    def acl_signature(self) -> tuple:
        """Hashable view of the device's ACL bindings and rule content.

        A delta derivation is only valid while this stays constant: ACL
        changes move engine taint boundaries, which a dirty-atom patch
        cannot express (see ``AtomGraphEngine.apply_delta``).
        """
        return (
            tuple(sorted(self.interface_acls.items())),
            tuple(
                (acl_name, tuple(acl.rules))
                for acl_name, acl in sorted(self.acls.items())
            ),
        )

    def share_compiled_index(self, other: "DeviceForwarding") -> bool:
        """Adopt ``other``'s compiled LPM index when content allows it.

        Only legal between devices with equal :meth:`content_signature`
        (identical tables flatten to identical ranges); the delta engine
        uses this so untouched devices never re-flatten their FIBs.
        Returns whether an index was actually adopted.
        """
        if self._compiled is None and other._compiled is not None:
            self._compiled = other._compiled
            return True
        return False

    @property
    def has_acls(self) -> bool:
        """Whether any interface binds an ACL (engine taint marker)."""
        return bool(self.interface_acls)

    def connected_subnets(self) -> Iterator[tuple[str, Prefix]]:
        for name, (address, length) in self.interface_addresses.items():
            if length < 32:
                yield name, Prefix.containing(address, length)

    def ingress_acl(self, interface: str):
        names = self.interface_acls.get(interface)
        if names is None or names[0] is None:
            return None
        return self.acls.get(names[0])

    def egress_acl(self, interface: str):
        names = self.interface_acls.get(interface)
        if names is None or names[1] is None:
            return None
        return self.acls.get(names[1])

    def prefixes(self) -> Iterator[Prefix]:
        yield from self.trie.keys()

    def __len__(self) -> int:
        return len(self.trie)


class CompiledLpmIndex:
    """A device FIB flattened into sorted, LPM-resolved address ranges.

    ``ranges`` covers the whole 32-bit space: ``(lo, hi, entry)`` where
    ``entry`` is exactly what :meth:`DeviceForwarding.lookup` would
    return for any address in ``[lo, hi]``. Probing is a binary search
    over the range starts — and a batch of sorted probes (the atom
    sweep) resolves in one linear merge.
    """

    __slots__ = ("ranges", "_starts")

    def __init__(
        self, ranges: list[tuple[int, int, Optional[ForwardingEntry]]]
    ) -> None:
        self.ranges = ranges
        self._starts = [lo for lo, _, _ in ranges]

    def __len__(self) -> int:
        return len(self.ranges)

    def probe(self, address: int) -> Optional[ForwardingEntry]:
        """The LPM decision for ``address`` (one binary search)."""
        if bus.ACTIVE.enabled:
            bus.ACTIVE.count("verify.index_probes")
        return self.ranges[bisect_right(self._starts, address) - 1][2]

    def sweep(self, points: list[int]) -> list[Optional[ForwardingEntry]]:
        """Resolve many ascending probe points in one linear merge."""
        if bus.ACTIVE.enabled:
            bus.ACTIVE.count("verify.index_probes", len(points))
        out: list[Optional[ForwardingEntry]] = []
        ranges = self.ranges
        i = 0
        top = len(ranges) - 1
        for point in points:
            while i < top and ranges[i][1] < point:
                i += 1
            out.append(ranges[i][2])
        return out


class Dataplane:
    """The whole network's forwarding state, ready for verification."""

    def __init__(
        self,
        snapshots: dict[str, AftSnapshot],
        *,
        degraded_nodes: Optional[dict[str, str]] = None,
        degraded_addresses: Optional[dict[str, list[str]]] = None,
    ) -> None:
        self.devices: dict[str, DeviceForwarding] = {
            name: DeviceForwarding.of(snap) for name, snap in snapshots.items()
        }
        self.address_owner: dict[int, str] = {}
        for name, device in self.devices.items():
            for address in device.local_addresses:
                self.address_owner[address] = name
        # Nodes whose forwarding state could not be extracted (a partial
        # snapshot). Their configured addresses are still known, and any
        # query about them must answer UNKNOWN_DEGRADED — never a
        # confident NO_ROUTE computed from their absence.
        self.degraded_nodes: frozenset[str] = frozenset(degraded_nodes or ())
        self.degraded_owned: dict[int, str] = {}
        for node, addresses in (degraded_addresses or {}).items():
            for text in addresses:
                self.degraded_owned[parse_ipv4(text)] = node
        self.edges: list[L3Edge] = []
        # (device, interface) -> neighbors on the shared subnet
        self.adjacency: dict[tuple[str, str], list[tuple[str, str, int]]] = {}
        self._derive_edges()
        self._fingerprint: Optional[int] = None

    @classmethod
    def from_afts(
        cls,
        snapshots: dict[str, AftSnapshot],
        *,
        degraded_nodes: Optional[dict[str, str]] = None,
        degraded_addresses: Optional[dict[str, list[str]]] = None,
    ) -> "Dataplane":
        return cls(
            snapshots,
            degraded_nodes=degraded_nodes,
            degraded_addresses=degraded_addresses,
        )

    @classmethod
    def from_dicts(cls, raw: dict[str, dict]) -> "Dataplane":
        return cls(
            {name: AftSnapshot.from_dict(data) for name, data in raw.items()}
        )

    @classmethod
    def evolve(
        cls, base: "Dataplane", snapshots: dict[str, AftSnapshot]
    ) -> "Dataplane":
        """A new dataplane that replaces only ``snapshots``' devices.

        Every other :class:`DeviceForwarding` object is shared with
        ``base``, so its cached signatures, tries, and compiled indexes
        carry over, and :class:`~repro.dataplane.delta.DataplaneDelta`
        against ``base`` skips the unchanged devices in O(1). This is
        the constructor the temporal checkpoint recorder uses: a
        convergence burst touches a handful of devices, and re-deriving
        the rest from scratch would dominate the cost of every
        checkpoint. Degraded-node bookkeeping is inherited unchanged —
        the recorder snapshots live routers, so a node degrades only at
        extraction time, never mid-stream.
        """
        plane = cls.__new__(cls)
        plane.devices = dict(base.devices)
        for name, snap in snapshots.items():
            plane.devices[name] = DeviceForwarding.of(snap)
        plane.address_owner = {}
        for name, device in plane.devices.items():
            for address in device.local_addresses:
                plane.address_owner[address] = name
        plane.degraded_nodes = base.degraded_nodes
        plane.degraded_owned = dict(base.degraded_owned)
        plane.edges = []
        plane.adjacency = {}
        plane._derive_edges()
        plane._fingerprint = None
        return plane

    def _derive_edges(self) -> None:
        """Infer L3 edges: enabled interfaces sharing a subnet."""
        members: dict[Prefix, list[tuple[str, str, int]]] = {}
        for name, device in self.devices.items():
            for iface, subnet in device.connected_subnets():
                address = device.interface_addresses[iface][0]
                members.setdefault(subnet, []).append((name, iface, address))
        for subnet, endpoints in members.items():
            del subnet
            for device, iface, _addr in endpoints:
                neighbors = [
                    (d, i, a)
                    for d, i, a in endpoints
                    if (d, i) != (device, iface)
                ]
                if neighbors:
                    self.adjacency[(device, iface)] = neighbors
            if len(endpoints) >= 2:
                seen: set[frozenset] = set()
                for a_dev, a_if, _a in endpoints:
                    for z_dev, z_if, _z in endpoints:
                        key = frozenset(((a_dev, a_if), (z_dev, z_if)))
                        if (a_dev, a_if) >= (z_dev, z_if) or key in seen:
                            continue
                        seen.add(key)
                        self.edges.append(
                            L3Edge(a_dev, a_if, z_dev, z_if)
                        )

    # -- queries -------------------------------------------------------------

    def device(self, name: str) -> DeviceForwarding:
        return self.devices[name]

    def node_names(self) -> list[str]:
        return sorted(self.devices)

    def neighbor_via(
        self, device: str, interface: str, gateway: Optional[int], dst: int
    ) -> Optional[tuple[str, str]]:
        """Where does traffic leaving (device, interface) arrive?

        Picks the subnet neighbor owning the gateway address (or, for
        directly attached traffic, the destination itself).
        """
        neighbors = self.adjacency.get((device, interface))
        if not neighbors:
            return None
        target = gateway if gateway is not None else dst
        for peer_device, peer_iface, peer_addr in neighbors:
            if peer_addr == target:
                return peer_device, peer_iface
        return None

    def fib_fingerprint(self) -> int:
        """Content hash of everything forwarding behaviour depends on.

        Two dataplanes with equal fingerprints have identical FIBs,
        interface addressing, and ACL bindings, so any verification
        engine built for one is valid for the other — this is the
        snapshot-cache key used by :func:`repro.verify.engine.engine_for`.
        Computed once per instance (the dataplane is immutable after
        construction).
        """
        if self._fingerprint is None:
            # Built from the per-device content signatures (cached on
            # each device), so the fingerprint costs O(devices) after
            # the first device hash — and a DataplaneDelta diffing two
            # fingerprinted dataplanes gets its O(1) unchanged-device
            # skip for free.
            parts: list = [
                (name, self.devices[name].content_signature())
                for name in sorted(self.devices)
            ]
            if self.degraded_nodes or self.degraded_owned:
                # Folded only for partial snapshots so every fault-free
                # fingerprint stays byte-identical to pre-chaos builds.
                parts.append(
                    (
                        "__degraded__",
                        tuple(sorted(self.degraded_nodes)),
                        tuple(sorted(self.degraded_owned.items())),
                    )
                )
            self._fingerprint = hash(tuple(parts))
        return self._fingerprint

    def all_prefixes(self) -> set[Prefix]:
        out: set[Prefix] = set()
        for device in self.devices.values():
            out.update(device.prefixes())
            for name, (address, length) in device.interface_addresses.items():
                del name
                out.add(Prefix.containing(address, 32))
                out.add(Prefix.containing(address, length))
            # ACL destination matches partition the dst space too: an
            # atom must not straddle an ACL dst boundary.
            for acl in device.acls.values():
                for rule in acl.rules:
                    if rule.dst is not None:
                        out.add(rule.dst)
        # Each degraded node's configured addresses become /32 atom
        # boundaries, so a degraded destination is exactly one atom and
        # its UNKNOWN_DEGRADED verdict never bleeds into neighbours.
        for address in self.degraded_owned:
            out.add(Prefix.containing(address, 32))
        return out

    def __len__(self) -> int:
        return len(self.devices)

    def __repr__(self) -> str:
        return (
            f"Dataplane(devices={len(self.devices)}, edges={len(self.edges)})"
        )
