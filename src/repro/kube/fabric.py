"""The routed inter-pod fabric.

Implements :class:`repro.protocols.transport.ControlTransport` by
actually forwarding each control-plane datagram through the emulated
dataplane: at every hop the current FIB decides the next interface, so a
BGP OPEN between loopbacks is only deliverable once the IGP has
converged — and a mid-run link cut really does strand in-flight
sessions. This is the property that makes the emulation's convergence
behaviour (ordering, BGP-after-IGP, hold-timer detection) real rather
than assumed.

External endpoints (BGP route injectors standing in for production
peers) attach to a specific router port's subnet, exactly like a peer
plugged into an edge interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.net.addr import format_ipv4
from repro.rib.fib import FibAction
from repro.sim.kernel import SimKernel

if TYPE_CHECKING:
    from repro.vendors.base import RouterOS

TransportHandler = Callable[[int, int, Any], None]

_TTL = 64
_PER_HOP_LATENCY = 0.0005
_PER_HOP_JITTER = 0.001


@dataclass
class _External:
    name: str
    gateway_node: str
    gateway_port: str
    ip: int
    handler: Optional[TransportHandler] = None


class Fabric:
    """Hop-by-hop datagram delivery over emulated FIBs."""

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel
        self.routers: dict[str, "RouterOS"] = {}
        # (node, port name) -> (peer node, peer port name)
        self.wiring: dict[tuple[str, str], tuple[str, str]] = {}
        self._listeners: dict[tuple[str, int], TransportHandler] = {}
        self._externals: dict[str, _External] = {}
        self._externals_by_attachment: dict[tuple[str, str, int], _External] = {}
        # Per-flow serialization: a (src, dst) pair is one TCP-like
        # session; its messages occupy the pipe for their wire cost.
        self._flow_busy_until: dict[tuple[int, int], float] = {}
        # The latest busy-until over all flows. A flow's value only ever
        # grows, so "some flow is busy past now" is "this is past now".
        self._busy_horizon = 0.0
        self._flow_labels: dict[tuple[int, int], str] = {}
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.datagrams_dropped = 0

    # -- registration ------------------------------------------------------

    def add_router(self, router: "RouterOS") -> None:
        self.routers[router.name] = router

    def add_wire(self, a_node: str, a_port: str, z_node: str, z_port: str) -> None:
        self.wiring[(a_node, a_port)] = (z_node, z_port)
        self.wiring[(z_node, z_port)] = (a_node, a_port)

    def register(self, node: str, ip: int, handler: TransportHandler) -> None:
        self._listeners[(node, ip)] = handler

    def unregister(self, node: str, ip: int) -> None:
        self._listeners.pop((node, ip), None)

    def attach_external(
        self,
        name: str,
        gateway_node: str,
        gateway_port: str,
        ip: int,
        handler: TransportHandler,
    ) -> None:
        """Attach an external speaker to a router port's subnet."""
        external = _External(name, gateway_node, gateway_port, ip, handler)
        self._externals[name] = external
        self._externals_by_attachment[(gateway_node, gateway_port, ip)] = external
        # The edge port now has something plugged into it: bring the
        # carrier up even though no point-to-point channel is modeled.
        gateway = self.routers.get(gateway_node)
        if gateway is not None:
            port = gateway.port(gateway_port)
            port.forced_up = True
            port.set_link_state(True)

    # -- sending ---------------------------------------------------------------

    def send(self, src_node: str, src_ip: int, dst_ip: int, payload: Any) -> bool:
        """Route a datagram from a router; False if no path exists now."""
        self.datagrams_sent += 1
        plan = self._trace(src_node, dst_ip)
        if plan is None:
            self.datagrams_dropped += 1
            return False
        deliver, hops = plan
        delay = self._delivery_delay(src_ip, dst_ip, hops, payload)
        label = self._flow_labels.get((src_ip, dst_ip))
        if label is None:
            label = f"fabric:{format_ipv4(src_ip)}->{format_ipv4(dst_ip)}"
            self._flow_labels[(src_ip, dst_ip)] = label
        self.kernel.schedule(
            delay, lambda: deliver(src_ip, dst_ip, payload), label=label
        )
        self.datagrams_delivered += 1
        return True

    def send_external(self, name: str, dst_ip: int, payload: Any) -> bool:
        """Route a datagram originated by an external endpoint."""
        external = self._externals.get(name)
        if external is None:
            raise KeyError(f"unknown external endpoint: {name}")
        self.datagrams_sent += 1
        plan = self._trace(external.gateway_node, dst_ip)
        if plan is None:
            self.datagrams_dropped += 1
            return False
        deliver, hops = plan
        delay = self._delivery_delay(external.ip, dst_ip, hops + 1, payload)
        self.kernel.schedule(
            delay,
            lambda: deliver(external.ip, dst_ip, payload),
            label=f"fabric-ext:{name}",
        )
        self.datagrams_delivered += 1
        return True

    def _latency(self, hops: int) -> float:
        return sum(
            self.kernel.jitter(_PER_HOP_LATENCY, _PER_HOP_JITTER)
            for _ in range(max(hops, 1))
        )

    def _delivery_delay(
        self, src_ip: int, dst_ip: int, hops: int, payload: Any
    ) -> float:
        """Propagation latency plus per-flow serialization.

        Messages between one (src, dst) pair share a session: each
        occupies the pipe for its ``wire_cost``, so a full BGP table
        takes table-size/throughput seconds end to end — the dominant
        term in the paper's convergence measurements.
        """
        latency = self._latency(hops)
        wire_cost = getattr(payload, "wire_cost", 0.0)
        key = (src_ip, dst_ip)
        start = max(self.kernel.now, self._flow_busy_until.get(key, 0.0))
        finish = start + wire_cost
        self._flow_busy_until[key] = finish
        if finish > self._busy_horizon:
            self._busy_horizon = finish
        return (finish - self.kernel.now) + latency

    def busy(self) -> bool:
        """Any session still draining a serialized backlog?

        Convergence detection must not declare the dataplane stable
        while a full-table transfer is still on the wire — the gap
        between two large chunks can exceed any quiet window.
        """
        return self._busy_horizon > self.kernel.now

    # -- forwarding ----------------------------------------------------------------

    def _trace(
        self, start_node: str, dst_ip: int
    ) -> Optional[tuple[TransportHandler, int]]:
        """Walk FIBs from ``start_node``; returns (delivery fn, hop count)."""
        node = start_node
        for hops in range(_TTL):
            router = self.routers.get(node)
            if router is None:
                return None
            listener = self._listeners.get((node, dst_ip))
            if listener is not None and router.owns_address(dst_ip):
                return listener, hops
            entry = router.rib.fib.lookup(dst_ip)
            if entry is None:
                return None
            if entry.action is FibAction.RECEIVE:
                # Owned address but nothing listening (e.g. BGP not up).
                return None
            if entry.action is FibAction.DISCARD:
                return None
            hop = self._pick_next_hop(entry, dst_ip)
            if hop is None:
                return None
            port = router.ports.get(hop.interface)
            if port is None or not port.is_up:
                return None
            # External endpoint plugged into this port's subnet?
            external = self._externals_by_attachment.get(
                (node, hop.interface, dst_ip)
            )
            if external is not None and external.handler is not None:
                return external.handler, hops + 1
            peer = self.wiring.get((node, hop.interface))
            if peer is None:
                return None
            node = peer[0]
        return None

    @staticmethod
    def _pick_next_hop(entry, dst_ip: int):
        hops = entry.next_hops
        if not hops:
            return None
        if len(hops) == 1:
            return hops[0]
        return hops[dst_ip % len(hops)]  # deterministic ECMP hash

    # -- dataplane probes (ping stand-in for examples/tests) -------------------------

    def reachable(self, src_node: str, dst_ip: int) -> bool:
        """Would a packet from ``src_node`` reach ``dst_ip`` right now?"""
        node = src_node
        for _ in range(_TTL):
            router = self.routers.get(node)
            if router is None:
                return False
            if router.owns_address(dst_ip):
                return True
            entry = router.rib.fib.lookup(dst_ip)
            if entry is None or entry.action is not FibAction.FORWARD:
                return entry is not None and entry.action is FibAction.RECEIVE
            hop = self._pick_next_hop(entry, dst_ip)
            if hop is None:
                return False
            port = router.ports.get(hop.interface)
            if port is None or not port.is_up:
                return False
            if (node, hop.interface, dst_ip) in self._externals_by_attachment:
                return True
            peer = self.wiring.get((node, hop.interface))
            if peer is None:
                return False
            node = peer[0]
        return False
