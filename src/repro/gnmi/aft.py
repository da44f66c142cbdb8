"""OpenConfig-style Abstract Forwarding Table snapshots.

The structure mirrors the OpenConfig AFT model closely enough to be
recognizable: ipv4-unicast entries reference a next-hop-group, which
references next-hops carrying an (optional) gateway address and an
egress interface. ``entry_type`` distinguishes forward/receive/discard
actions, which OpenConfig encodes via dedicated next-hop types.

Snapshots are pure data (JSON-serializable); the verification stage
consumes only these, never the emulated routers — preserving the
paper's clean extraction boundary.

A snapshot is immutable once extracted. Extraction relies on it: an
unchanged router hands back the *same* snapshot object
(:class:`AftMemo`), and :class:`~repro.dataplane.model.DeviceForwarding`
caches the table it builds on that object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, TYPE_CHECKING

from repro.net.addr import Prefix, format_ipv4, parse_ipv4
from repro.obs import bus
from repro.rib.fib import FibAction

if TYPE_CHECKING:
    from repro.device.acl import AclRule
    from repro.vendors.base import RouterOS


@dataclass(frozen=True)
class AftNextHop:
    """A single next hop: egress interface + optional gateway."""
    index: int
    interface: str
    ip_address: Optional[str] = None


@dataclass(frozen=True)
class AftNextHopGroup:
    """An ECMP group referencing next-hop indices."""
    group_id: int
    next_hop_indices: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class AftIpv4Entry:
    """One ipv4-unicast AFT entry.

    ``prefix`` is the parsed form: the FIB entry's own :class:`Prefix`
    when extracted, one object per distinct string when decoded. Only
    the wire form (:meth:`AftSnapshot.network_instances_to_dict`) is a
    string.
    """
    prefix: Prefix
    entry_type: str  # "forward" | "receive" | "discard"
    next_hop_group: Optional[int] = None


@dataclass(frozen=True)
class AftInterface:
    """Extracted interface state (address, admin, ACL bindings)."""
    name: str
    ipv4_address: Optional[str]
    prefix_length: Optional[int]
    enabled: bool
    acl_in: Optional[str] = None
    acl_out: Optional[str] = None


# Counted where the walk happens (or is spared), whoever asked for it.
_FIB_WALKS = ("gnmi.fib_walks", "Whole-FIB walks building an AFT snapshot")
_MEMO_HITS = ("gnmi.memo_hits", "AFT reads served by the router's memo, no walk")


def router_interfaces(router: "RouterOS") -> list[AftInterface]:
    """A live router's interface state, in name order (no FIB access)."""
    interfaces = []
    for name in sorted(router.ports):
        port = router.ports[name]
        config = port.config
        interfaces.append(
            AftInterface(
                name=name,
                ipv4_address=(
                    format_ipv4(config.address)
                    if config.is_routed and config.address is not None
                    else None
                ),
                prefix_length=(
                    config.prefix_length if config.is_routed else None
                ),
                enabled=port.is_up,
                acl_in=config.acl_in,
                acl_out=config.acl_out,
            )
        )
    return interfaces


def router_acls(router: "RouterOS") -> dict[str, tuple["AclRule", ...]]:
    """A live router's configured ACL sets (no FIB access)."""
    return {
        name: tuple(acl.rules) for name, acl in router.config.acls.items()
    }


def interfaces_to_dict(interfaces: list[AftInterface]) -> dict:
    return {
        "interface": [
            {
                "name": i.name,
                "state": {"enabled": i.enabled},
                "ipv4": {
                    "address": i.ipv4_address,
                    "prefix-length": i.prefix_length,
                },
                "acl": {"ingress": i.acl_in, "egress": i.acl_out},
            }
            for i in interfaces
        ]
    }


def interfaces_from_dict(data: dict) -> list[AftInterface]:
    interfaces = []
    for raw in data.get("interface", []):
        acl_binding = raw.get("acl", {})
        interfaces.append(
            AftInterface(
                name=raw["name"],
                ipv4_address=raw["ipv4"]["address"],
                prefix_length=raw["ipv4"]["prefix-length"],
                enabled=raw["state"]["enabled"],
                acl_in=acl_binding.get("ingress"),
                acl_out=acl_binding.get("egress"),
            )
        )
    return interfaces


def acls_to_dict(acls: dict[str, tuple["AclRule", ...]]) -> dict:
    return {
        "acl-set": [
            {
                "name": name,
                "acl-entries": {
                    "acl-entry": [
                        {
                            "sequence-id": rule.seq,
                            "actions": {
                                "forwarding-action": (
                                    "ACCEPT" if rule.permit else "DROP"
                                )
                            },
                            "ipv4": {
                                "protocol": rule.protocol,
                                "source-address": (
                                    str(rule.src) if rule.src else None
                                ),
                                "destination-address": (
                                    str(rule.dst) if rule.dst else None
                                ),
                            },
                            "transport": {
                                "source-port": (
                                    list(rule.src_port)
                                    if rule.src_port
                                    else None
                                ),
                                "destination-port": (
                                    list(rule.dst_port)
                                    if rule.dst_port
                                    else None
                                ),
                            },
                        }
                        for rule in rules
                    ]
                },
            }
            for name, rules in sorted(acls.items())
        ]
    }


def acls_from_dict(data: dict) -> dict[str, tuple["AclRule", ...]]:
    from repro.device.acl import AclRule

    acls = {}
    for acl_set in data.get("acl-set", []):
        rules = []
        for raw in acl_set["acl-entries"]["acl-entry"]:
            ipv4 = raw.get("ipv4", {})
            transport = raw.get("transport", {})
            rules.append(
                AclRule(
                    seq=raw["sequence-id"],
                    permit=(
                        raw["actions"]["forwarding-action"] == "ACCEPT"
                    ),
                    protocol=ipv4.get("protocol"),
                    src=(
                        Prefix.parse(ipv4["source-address"])
                        if ipv4.get("source-address")
                        else None
                    ),
                    dst=(
                        Prefix.parse(ipv4["destination-address"])
                        if ipv4.get("destination-address")
                        else None
                    ),
                    src_port=(
                        tuple(transport["source-port"])
                        if transport.get("source-port")
                        else None
                    ),
                    dst_port=(
                        tuple(transport["destination-port"])
                        if transport.get("destination-port")
                        else None
                    ),
                )
            )
        acls[acl_set["name"]] = tuple(rules)
    return acls


@dataclass
class AftSnapshot:
    """One device's extracted forwarding state."""

    device: str
    entries: list[AftIpv4Entry] = field(default_factory=list)
    next_hop_groups: dict[int, AftNextHopGroup] = field(default_factory=dict)
    next_hops: dict[int, AftNextHop] = field(default_factory=dict)
    interfaces: list[AftInterface] = field(default_factory=list)
    # ACL sets referenced by interface bindings (openconfig-acl shape in
    # the serialized form). Keys are ACL names; values are rule tuples.
    acls: dict[str, tuple["AclRule", ...]] = field(default_factory=dict)
    extracted_at: float = 0.0
    # The source FIB's version counter at extraction time. The hardened
    # extraction path re-checks this against the live FIB to detect a
    # dump that raced a convergence event (or a stale fault).
    fib_version: int = 0
    # The DeviceForwarding parsed from this snapshot, kept by
    # ``DeviceForwarding.of``. A cache, not state: it takes no part in
    # ==, repr or to_dict, and pickling or copying drops it.
    _forwarding: Any = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_forwarding": None}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_router(cls, router: "RouterOS", now: float = 0.0) -> "AftSnapshot":
        """Extract the AFT from a live emulated router.

        The FIB is walked once per FIB version: while the router's
        :class:`AftMemo` matches the live table, the snapshot of that
        walk is returned as is (its ``extracted_at`` stays the time of
        the walk). Port and ACL state are read every time; if they
        moved under an unchanged FIB the FIB-derived parts are shared
        with a new snapshot object, since the old one may already back
        a checkpoint or a dataplane.
        """
        interfaces = router_interfaces(router)
        acls = router_acls(router)
        fib = router.rib.fib
        memo = router.aft_memo
        hit = (
            memo is not None
            and memo.fib is fib
            and memo.snapshot.fib_version == fib.version
        )
        registry = bus.metrics_registry()
        if registry.enabled:
            registry.counter(*(_MEMO_HITS if hit else _FIB_WALKS)).inc()
        if not hit:
            snapshot = cls.from_tables(
                router.name, fib, interfaces, acls=acls, now=now
            )
            router.aft_memo = AftMemo(fib, snapshot)
        elif memo.snapshot.interfaces == interfaces and memo.snapshot.acls == acls:
            snapshot = memo.snapshot
        else:
            snapshot = memo.snapshot = replace(
                memo.snapshot, interfaces=interfaces, acls=acls
            )
        return snapshot

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
        """Build a snapshot from a FIB and interface facts.

        Shared by the live gNMI extraction and the model-based baseline
        (whose computed dataplane is exported in the same format so the
        verification stage cannot tell the backends apart).
        """
        snapshot = cls(
            device=device,
            extracted_at=now,
            interfaces=list(interfaces),
            acls=dict(acls or {}),
            fib_version=getattr(fib, "version", 0),
        )
        nh_cache: dict[tuple, int] = {}
        group_cache: dict[tuple[int, ...], int] = {}

        def group_of(hops: tuple) -> int:
            indices = []
            for hop in hops:
                key = (hop.interface, hop.ip)
                if key not in nh_cache:
                    index = nh_cache[key] = len(nh_cache) + 1
                    snapshot.next_hops[index] = AftNextHop(
                        index=index,
                        interface=hop.interface,
                        ip_address=(
                            format_ipv4(hop.ip) if hop.ip is not None else None
                        ),
                    )
                indices.append(nh_cache[key])
            group_key = tuple(sorted(indices))
            group_id = group_cache.get(group_key)
            if group_id is None:
                group_id = group_cache[group_key] = len(group_cache) + 1
                snapshot.next_hop_groups[group_id] = AftNextHopGroup(
                    group_id=group_id, next_hop_indices=group_key
                )
            return group_id

        # The RIB interns one hop tuple per next-hop group, so most
        # entries resolve by the tuple's identity; the tuple is kept
        # alongside its group so its id cannot be reused mid-walk.
        by_identity: dict[int, tuple[tuple, int]] = {}
        entries = snapshot.entries
        for entry in fib.entries():
            action = entry.action
            if action is FibAction.FORWARD:
                hops = entry.next_hops
                known = by_identity.get(id(hops))
                if known is None:
                    known = by_identity[id(hops)] = (hops, group_of(hops))
                entries.append(AftIpv4Entry(entry.prefix, "forward", known[1]))
            elif action is FibAction.RECEIVE:
                entries.append(AftIpv4Entry(entry.prefix, "receive"))
            else:
                entries.append(AftIpv4Entry(entry.prefix, "discard"))
        return snapshot

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """OpenConfig-shaped JSON structure."""
        return {
            "network-instances": self.network_instances_to_dict(),
            "interfaces": interfaces_to_dict(self.interfaces),
            "acls": acls_to_dict(self.acls),
            "meta": self.meta_to_dict(),
        }

    def network_instances_to_dict(self) -> dict:
        """The FIB-derived subtree: what the gNMI afts path serves."""
        return {
            "network-instance": [
                {
                    "name": "default",
                    "afts": {
                        "ipv4-unicast": {
                            "ipv4-entry": [
                                {
                                    "prefix": str(e.prefix),
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

    def meta_to_dict(self) -> dict:
        return {
            "device": self.device,
            "extracted-at": self.extracted_at,
            "fib-version": self.fib_version,
        }

    @classmethod
    def from_dict(
        cls, data: dict, prefixes: Optional[dict[str, Prefix]] = None
    ) -> "AftSnapshot":
        """Decode the OpenConfig-shaped form of :meth:`to_dict`.

        ``prefixes`` maps each prefix string already parsed in the
        caller's decode pass to its :class:`Prefix`; it is filled as
        entries are read, so a pass over many devices parses each
        distinct string once and their entries share the object.
        """
        if prefixes is None:
            prefixes = {}
        meta = data.get("meta", {})
        snapshot = cls(
            device=meta.get("device", ""),
            extracted_at=meta.get("extracted-at", 0.0),
            fib_version=meta.get("fib-version", 0),
            interfaces=interfaces_from_dict(data.get("interfaces", {})),
            acls=acls_from_dict(data.get("acls", {})),
        )
        instances = data["network-instances"]["network-instance"]
        afts = instances[0]["afts"]
        for raw in afts["next-hops"]["next-hop"]:
            nh = AftNextHop(
                index=raw["index"],
                interface=raw["state"]["interface-ref"],
                ip_address=raw["state"]["ip-address"],
            )
            snapshot.next_hops[nh.index] = nh
        for raw in afts["next-hop-groups"]["next-hop-group"]:
            group = AftNextHopGroup(
                group_id=raw["id"],
                next_hop_indices=tuple(
                    h["index"] for h in raw["next-hops"]["next-hop"]
                ),
            )
            snapshot.next_hop_groups[group.group_id] = group
        for raw in afts["ipv4-unicast"]["ipv4-entry"]:
            text = raw["prefix"]
            prefix = prefixes.get(text)
            if prefix is None:
                prefix = prefixes[text] = Prefix.parse(text)
            snapshot.entries.append(
                AftIpv4Entry(
                    prefix=prefix,
                    entry_type=raw["state"]["entry-type"],
                    next_hop_group=raw["state"]["next-hop-group"],
                )
            )
        return snapshot

    # -- queries ---------------------------------------------------------------

    def local_addresses(self) -> list[int]:
        return [
            parse_ipv4(i.ipv4_address)
            for i in self.interfaces
            if i.ipv4_address is not None and i.enabled
        ]

    def forward_entries(self) -> list[tuple[Prefix, AftIpv4Entry]]:
        return [(e.prefix, e) for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class AftMemo:
    """The one snapshot a router keeps: its FIB as of ``snapshot.fib_version``.

    Held by the router (``RouterOS.aft_memo``), never at module level —
    FIB versions restart from zero in every deployment. It is valid
    while ``fib`` is the router's live table at that version; port and
    ACL state are not covered and are compared by value on every read.
    ``round_tripped`` records that the gNMI wire form of the FIB-derived
    parts has been decoded and found equal to them, so extraction need
    not decode an identical response again.
    """

    fib: Any
    snapshot: AftSnapshot
    round_tripped: bool = False
