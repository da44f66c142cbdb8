"""Symbolic forwarding over the dataplane.

The engine's exhaustiveness comes from *destination atoms*: the
destination address space is partitioned at every prefix boundary that
appears in any device's FIB (plus interface addresses), so within one
atom every LPM decision in the network is constant. Walking one
representative address per atom is therefore an exact analysis of every
possible destination — the same guarantee Batfish's symbolic engine
provides, realized with interval arithmetic instead of BDDs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.dataplane.model import Dataplane, ForwardingEntry
from repro.net.addr import Prefix, format_ipv4
from repro.net.headerspace import HeaderSpace
from repro.net.intervals import IntervalSet, atoms
from repro.obs import bus


class Disposition(enum.Enum):
    """Where a packet ends up (mirrors Batfish's flow dispositions)."""

    ACCEPTED = "accepted"
    DELIVERED_TO_SUBNET = "delivered-to-subnet"
    EXITS_NETWORK = "exits-network"
    NO_ROUTE = "no-route"
    NULL_ROUTED = "null-routed"
    LOOP = "loop"
    DENIED_IN = "denied-in"
    DENIED_OUT = "denied-out"
    # The destination belongs to a node whose forwarding state could
    # not be extracted (a partial snapshot). Explicitly *not* NO_ROUTE:
    # the network may well deliver, we just cannot prove it.
    UNKNOWN_DEGRADED = "unknown-degraded"

    @property
    def is_success(self) -> bool:
        return self in (
            Disposition.ACCEPTED,
            Disposition.DELIVERED_TO_SUBNET,
            Disposition.EXITS_NETWORK,
        )


@dataclass(frozen=True)
class Hop:
    """One step of a trace: device, matched prefix, out interface."""
    device: str
    matched: Optional[Prefix]
    out_interface: Optional[str]

    def __str__(self) -> str:
        if self.out_interface is None:
            return self.device
        return f"{self.device}[{self.matched} -> {self.out_interface}]"


@dataclass(frozen=True)
class Trace:
    """One forwarding path with its final disposition.

    ``space`` is the exact header-space slice that follows this path —
    relevant once ACLs split traffic on fields other than the
    destination address. None means "the whole queried space".
    """

    disposition: Disposition
    hops: tuple[Hop, ...]
    space: Optional[HeaderSpace] = None

    def sample_packet(self):
        if self.space is not None:
            return self.space.sample()
        return None

    def __str__(self) -> str:
        path = " >> ".join(str(h) for h in self.hops)
        return f"{path} :: {self.disposition.value}"


@dataclass
class WalkResult:
    """All ECMP/ACL-split paths for one (ingress, destination) pair."""

    ingress: str
    destination: int
    traces: tuple[Trace, ...]

    @property
    def dispositions(self) -> frozenset[Disposition]:
        return frozenset(t.disposition for t in self.traces)

    def spaces_by_disposition(self) -> dict[Disposition, HeaderSpace]:
        """Exact header space reaching each disposition.

        Traces without a tracked space count as the full space (no ACL
        ever split them).
        """
        out: dict[Disposition, HeaderSpace] = {}
        for trace in self.traces:
            space = trace.space if trace.space is not None else HeaderSpace.full()
            current = out.get(trace.disposition)
            out[trace.disposition] = (
                space if current is None else current | space
            )
        return out

    def behaviour_equal(self, other: "WalkResult") -> bool:
        """Same dispositions over the same header-space slices."""
        mine = self.spaces_by_disposition()
        theirs = other.spaces_by_disposition()
        if set(mine) != set(theirs):
            return False
        return all(mine[d].equivalent(theirs[d]) for d in mine)

    @property
    def success(self) -> bool:
        """True when every ECMP branch succeeds."""
        return all(t.disposition.is_success for t in self.traces)

    def __str__(self) -> str:
        return (
            f"{self.ingress} -> {format_ipv4(self.destination)}: "
            + "; ".join(str(t) for t in self.traces)
        )


_MAX_TRACES = 16
_MAX_DEPTH = 64


class ForwardingWalk:
    """Exhaustive per-destination forwarding analysis."""

    def __init__(self, dataplane: Dataplane) -> None:
        self.dataplane = dataplane

    def walk(
        self,
        ingress: str,
        destination: int,
        space: Optional[HeaderSpace] = None,
    ) -> WalkResult:
        """Follow all ECMP branches of ``destination`` from ``ingress``.

        ``space`` restricts the analysed header space (destination field
        implicitly constant: callers walk one destination atom at a
        time). ACLs along the path split the space exactly: denied
        slices terminate with DENIED_IN / DENIED_OUT, permitted slices
        continue.
        """
        if bus.ACTIVE.enabled:
            bus.ACTIVE.count("verify.scalar_walks")
        traces: list[Trace] = []
        if space is None:
            # Constrain the destination field to the queried address so
            # sampled witness packets are actual members of the query.
            space = HeaderSpace.dst_set(IntervalSet.of(destination))
        if destination in self.dataplane.degraded_owned:
            # The destination's owner could not be extracted: answer
            # UNKNOWN_DEGRADED instead of tracing toward a hole in the
            # snapshot and concluding NO_ROUTE.
            return WalkResult(
                ingress=ingress,
                destination=destination,
                traces=(
                    Trace(
                        Disposition.UNKNOWN_DEGRADED,
                        (Hop(ingress, None, None),),
                        space=space,
                    ),
                ),
            )
        self._explore(ingress, destination, space, None, (), frozenset(), traces)
        return WalkResult(
            ingress=ingress, destination=destination, traces=tuple(traces)
        )

    def _explore(
        self,
        device_name: str,
        dst: int,
        space: HeaderSpace,
        arrival_interface: Optional[str],
        hops: tuple[Hop, ...],
        visited: frozenset[str],
        traces: list[Trace],
    ) -> None:
        if len(traces) >= _MAX_TRACES or len(hops) >= _MAX_DEPTH:
            return
        device = self.dataplane.devices[device_name]
        # Ingress ACL on the interface we arrived through.
        if arrival_interface is not None:
            acl = device.ingress_acl(arrival_interface)
            if acl is not None:
                permitted = acl.permit_space()
                denied = space - permitted
                if not denied.is_empty():
                    traces.append(
                        Trace(
                            Disposition.DENIED_IN,
                            hops + (Hop(device_name, None, None),),
                            space=denied,
                        )
                    )
                space = space & permitted
                if space.is_empty():
                    return
        if device_name in visited:
            traces.append(Trace(Disposition.LOOP, hops, space=space))
            return
        entry = device.lookup(dst)
        if entry is None:
            traces.append(
                Trace(
                    Disposition.NO_ROUTE,
                    hops + (Hop(device_name, None, None),),
                    space=space,
                )
            )
            return
        if entry.entry_type == "receive":
            traces.append(
                Trace(
                    Disposition.ACCEPTED,
                    hops + (Hop(device_name, entry.prefix, None),),
                    space=space,
                )
            )
            return
        if entry.entry_type == "discard":
            traces.append(
                Trace(
                    Disposition.NULL_ROUTED,
                    hops + (Hop(device_name, entry.prefix, None),),
                    space=space,
                )
            )
            return
        next_visited = visited | {device_name}
        for hop in entry.hops:
            if len(traces) >= _MAX_TRACES:
                return
            here = hops + (Hop(device_name, entry.prefix, hop.interface),)
            out_space = space
            acl = device.egress_acl(hop.interface)
            if acl is not None:
                permitted = acl.permit_space()
                denied = out_space - permitted
                if not denied.is_empty():
                    traces.append(
                        Trace(Disposition.DENIED_OUT, here, space=denied)
                    )
                out_space = out_space & permitted
                if out_space.is_empty():
                    continue
            peer = self.dataplane.neighbor_via(
                device_name, hop.interface, hop.gateway, dst
            )
            if peer is not None:
                self._explore(
                    peer[0], dst, out_space, peer[1], here, next_visited, traces
                )
                continue
            # No known device answers on that subnet.
            if hop.gateway in self.dataplane.degraded_owned:
                # The gateway's owner was never extracted: where the
                # packet goes next is unknown, not out of the network.
                traces.append(
                    Trace(Disposition.UNKNOWN_DEGRADED, here, space=out_space)
                )
            elif hop.gateway is None or hop.gateway == dst:
                # Directly attached delivery to a host we don't model.
                subnet_known = (
                    (device_name, hop.interface) in self.dataplane.adjacency
                    or hop.interface in device.interface_addresses
                )
                disposition = (
                    Disposition.DELIVERED_TO_SUBNET
                    if subnet_known
                    else Disposition.EXITS_NETWORK
                )
                traces.append(Trace(disposition, here, space=out_space))
            else:
                traces.append(
                    Trace(Disposition.EXITS_NETWORK, here, space=out_space)
                )


def dst_atoms(*dataplanes: Dataplane) -> list[IntervalSet]:
    """Destination-space partition refined across all given dataplanes.

    Every FIB prefix and interface address in any of the dataplanes
    contributes boundaries, so within one atom every device in *every*
    snapshot makes the same LPM decision — which is what differential
    analysis needs.
    """
    prefixes: set[Prefix] = set()
    for dataplane in dataplanes:
        prefixes.update(dataplane.all_prefixes())
    sets = [IntervalSet.from_prefix(p) for p in prefixes]
    return atoms(sets)
