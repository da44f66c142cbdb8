"""BGP-4: sessions, update propagation, and the decision process.

Each :class:`BgpInstance` is one router's BGP process. Sessions run over
the routed :class:`~repro.protocols.transport.ControlTransport`, so iBGP
sessions between loopbacks only come up once the IGP provides
reachability — the emulation reproduces the real control-plane layering
instead of assuming it.

Fidelity notes (deliberate scope):

* grouped UPDATEs with MRAI-style batching (full-table injections stay
  affordable: one attributes object shared across thousands of prefixes);
* a per-session Adj-RIB-Out (RFC 4271 §3.2), so a speaker sends only
  what changes its peer's view. :attr:`Session.adj_rib_out` maps each
  prefix to the interned attributes *actually put on the wire* to this
  peer in this session incarnation. Recorded: every chunk of an UPDATE
  for which the transport accepted the datagram, when it is sent (a
  chunk dropped at the source for lack of a route is not, so a later
  identical announcement still goes out and heals it). Cleared: whenever
  the session leaves ESTABLISHED, so re-establishment re-sends the full
  table. Suppressed at ``enqueue``: a withdrawal of a prefix neither
  advertised nor pending, and an announcement identical (same interned
  object) to the recorded one; either also cancels the not-yet-flushed
  change for that prefix, so announce-then-withdraw inside one MRAI
  window sends nothing. The converged forwarding state does not depend
  on the suppressed traffic; event counts and simulated times do;
* prefix-independent decisions (BGP PIC): one ``_decide`` pass runs the
  decision process once per distinct candidate signature (who offers
  which interned attrs, plus any local origination) and shares the
  chosen paths, next-hop tuple and RIB route shape across every prefix
  with that signature; the RIB resolves each next hop once into a
  shared group (:mod:`repro.rib.rib`). Next-hop IGP metrics are read
  through :meth:`~repro.rib.rib.Rib.track`, so the RIB says when one may
  have moved, and an IGP change re-decides only the prefixes with a
  candidate through a next hop whose metric moved;
* hold/keepalive timers and connect retry, so link cuts and session
  shutdowns propagate with realistic detection latency. Known and left
  alone: control messages queued behind a serialized UPDATE can reach
  the *next* incarnation of a session, which answers with an
  ``fsm-error`` NOTIFICATION, so a cold full mesh goes through a storm
  of session resets during bring-up (seed-dependent in length) before
  it settles;
* vendor quirk hooks for the two §2 anecdotes — the iBGP IGP-metric
  regression and the crash-on-unusual-advertisement interop bug.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from repro.device.model import BgpConfig, BgpNeighborConfig, DeviceConfig
from repro.device.routing_policy import MatchResult
from repro.net.addr import Prefix, format_ipv4
from repro.obs import bus
from repro.protocols.bgp_attrs import (
    BgpPath,
    Origin,
    PathAttributes,
    best_path,
    intern_attrs,
    multipath_set,
)
from repro.protocols.host import RouterHost
from repro.protocols.timers import TimerProfile
from repro.protocols.transport import ControlTransport
from repro.rib.route import NextHop, Protocol, Route


_BGP_PROTOCOLS = (Protocol.BGP_EXTERNAL, Protocol.BGP_INTERNAL)
#: A next hop's metric is not cached / decisions used different metrics.
_UNKNOWN = object()
_MIXED = object()


# -- messages ----------------------------------------------------------------


@dataclass(frozen=True)
class Open:
    """Session OPEN: who we are and our hold time."""
    asn: int
    router_id: int
    hold_time: float


@dataclass(frozen=True)
class Keepalive:
    """Hold-timer refresh."""
    pass


@dataclass(frozen=True)
class Update:
    """Announcements grouped by shared attribute bundle.

    ``wire_cost`` is the transmission/processing time of the message on
    its session, set by the sender from its
    :attr:`~repro.protocols.timers.TimerProfile.bgp_update_rate`; the
    fabric serializes messages per flow, so full-table convergence time
    is dominated by this term — matching the paper's minutes-scale
    convergence with millions of injected routes.
    """

    announce: tuple[tuple[PathAttributes, tuple[Prefix, ...]], ...] = ()
    withdraw: tuple[Prefix, ...] = ()
    wire_cost: float = 0.0

    @property
    def route_count(self) -> int:
        return sum(len(p) for _, p in self.announce) + len(self.withdraw)


@dataclass(frozen=True)
class Notification:
    """Fatal session error; receiver tears down."""
    code: str


def max_routes_per_update(timers: TimerProfile) -> int:
    """Largest UPDATE a sender emits, in routes.

    Sized so one message occupies the (serialized) session for at most
    one keepalive interval — real UPDATEs are small and stream
    continuously, so the peer's hold timer keeps seeing traffic during a
    full-table transfer.
    """
    return max(1, int(timers.bgp_update_rate * timers.bgp_keepalive))


class SessionState(enum.Enum):
    """Simplified BGP FSM states."""
    IDLE = "idle"
    CONNECT = "connect"
    ESTABLISHED = "established"


@dataclass
class SessionStats:
    """Per-session counters (CLI and tests read these)."""
    updates_sent: int = 0
    updates_received: int = 0
    prefixes_received: int = 0
    resets: int = 0
    established_at: Optional[float] = None


class Session:
    """One configured neighbor relationship (our side)."""

    def __init__(
        self,
        instance: "BgpInstance",
        neighbor: BgpNeighborConfig,
        local_ip: int,
    ) -> None:
        self.instance = instance
        self.neighbor = neighbor
        self.local_ip = local_ip
        self.peer_ip = neighbor.peer_address
        # Every timer this session arms is labelled with it.
        self._name = f"{instance.host.name}->{format_ipv4(self.peer_ip)}"
        self.state = SessionState.IDLE
        self.peer_router_id = 0
        self.stats = SessionStats()
        self._hold_event: Any = None
        self._connect_event: Any = None
        self._pending: dict[Prefix, Optional[PathAttributes]] = {}
        # Adj-RIB-Out: what this session incarnation put on the wire,
        # prefix -> interned attrs (see the module fidelity notes).
        self.adj_rib_out: dict[Prefix, PathAttributes] = {}
        #: Everything export policy reads of a session, bar "is this the
        #: path's sender": sessions that agree here are told the same.
        self.update_group = (
            self.is_ebgp,
            neighbor.route_reflector_client,
            local_ip,
            neighbor.next_hop_self,
            neighbor.route_map_out,
            neighbor.send_community,
        )
        self._flush_scheduled = False
        self._stopped = False

    @property
    def is_ebgp(self) -> bool:
        return self.neighbor.remote_as != self.instance.config.asn

    @property
    def is_established(self) -> bool:
        return self.state is SessionState.ESTABLISHED

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self.neighbor.shutdown:
            return
        self.state = SessionState.CONNECT
        self._attempt_connect()

    def stop(self) -> None:
        self._stopped = True
        self._go_idle(reset_stats=False)

    def _attempt_connect(self) -> None:
        self._connect_event = None
        if self._stopped or self.state is SessionState.ESTABLISHED:
            return
        sent = self.instance.send_to(
            self, Open(self.instance.config.asn, self.instance.router_id,
                       self.instance.timers.bgp_hold)
        )
        self._schedule_connect_retry()
        del sent  # lost OPENs are retried regardless

    def _schedule_connect_retry(self, *, backoff: float = 1.0) -> None:
        """Arm the (single) connect-retry timer if not already armed."""
        if self._connect_event is not None:
            return
        retry = self.instance.timers.bgp_connect_retry * backoff
        delay = self.instance.host.kernel.jitter(retry, retry * 0.5)
        self._connect_event = self.instance.host.kernel.schedule(
            delay, self._attempt_connect, label=f"bgp-connect:{self}"
        )

    # -- message handling -----------------------------------------------------

    def handle(self, payload: Any) -> None:
        if self._stopped:
            return
        self._reset_hold_timer()
        if isinstance(payload, Open):
            self._on_open(payload)
        elif isinstance(payload, Update):
            self._on_update(payload)
        elif isinstance(payload, Notification):
            self._session_down(f"notification:{payload.code}")
        elif isinstance(payload, Keepalive):
            if self.state is SessionState.CONNECT:
                if self.peer_router_id:
                    # We validated their OPEN this round; the keepalive
                    # confirms they accepted ours.
                    self._establish()
                else:
                    # The peer thinks the session is up but we never saw
                    # its OPEN (lost during transient unreachability).
                    # Standard FSM behaviour: error out so both sides
                    # restart cleanly and resynchronize.
                    self.instance.send_to(self, Notification("fsm-error"))

    def _on_open(self, message: Open) -> None:
        if message.asn != self.neighbor.remote_as:
            self.instance.send_to(self, Notification("bad-peer-as"))
            return
        self.peer_router_id = message.router_id
        if self.state is SessionState.ESTABLISHED:
            # Stray/retransmitted OPEN: acknowledge without sending an
            # OPEN back (two established peers answering OPEN with OPEN
            # would ping-pong forever). If the peer is genuinely out of
            # sync it will FSM-error us and both sides restart.
            self.instance.send_to(self, Keepalive())
            return
        self.instance.send_to(
            self, Open(self.instance.config.asn, self.instance.router_id,
                       self.instance.timers.bgp_hold)
        )
        self.instance.send_to(self, Keepalive())
        self._establish()

    def _establish(self) -> None:
        self.state = SessionState.ESTABLISHED
        self.stats.established_at = self.instance.host.kernel.now
        collector = bus.ACTIVE
        if collector.enabled:
            collector.emit(
                "bgp.session.up",
                self.instance.host.kernel.now,
                node=self.instance.host.name,
                peer=format_ipv4(self.peer_ip),
                ebgp=self.is_ebgp,
            )
        self._schedule_keepalive()
        self.instance.on_session_established(self)

    def _on_update(self, message: Update) -> None:
        if self.state is SessionState.CONNECT:
            if self.peer_router_id:
                # Data from a validated peer implies it considers the
                # session up (our copy of its confirmation was lost).
                self._establish()
            else:
                self.instance.send_to(self, Notification("fsm-error"))
                return
        if self.state is not SessionState.ESTABLISHED:
            return
        self.stats.updates_received += 1
        crash_at = self.instance.quirk_crash_on_many_communities
        if crash_at is not None:
            for attrs, _prefixes in message.announce:
                if len(attrs.communities) >= crash_at:
                    # The §2 interop anecdote: an unusual-but-valid
                    # advertisement crashes this vendor's parser.
                    self.instance.crash_count += 1
                    self.instance.send_to(self, Notification("update-malformed"))
                    self._session_down("parser-crash")
                    return
        self.instance.receive_update(self, message)

    # -- timers ----------------------------------------------------------------

    def _reset_hold_timer(self) -> None:
        if self._hold_event is not None:
            self._hold_event.cancel()
        self._hold_event = self.instance.host.kernel.schedule(
            self.instance.timers.bgp_hold,
            lambda: self._session_down("hold-timer-expired"),
            label=f"bgp-hold:{self}",
        )

    def _schedule_keepalive(self) -> None:
        if self._stopped or self.state is not SessionState.ESTABLISHED:
            return
        interval = self.instance.timers.bgp_keepalive
        self.instance.host.kernel.schedule(
            self.instance.host.kernel.jitter(interval, interval * 0.1),
            self._keepalive_tick,
            label=f"bgp-keepalive:{self}",
        )

    def _keepalive_tick(self) -> None:
        if self.state is SessionState.ESTABLISHED and not self._stopped:
            self.instance.send_to(self, Keepalive())
            self._schedule_keepalive()

    def _session_down(self, reason: str) -> None:
        if self.state is SessionState.IDLE:
            return
        self.stats.resets += 1
        collector = bus.ACTIVE
        if collector.enabled:
            collector.emit(
                "bgp.session.down",
                self.instance.host.kernel.now,
                node=self.instance.host.name,
                peer=format_ipv4(self.peer_ip),
                reason=reason,
            )
        self._go_idle(reset_stats=False)
        self.instance.on_session_down(self, reason)
        if not self._stopped:
            self.state = SessionState.CONNECT
            # Back off harder after a failure so a persistently broken
            # peering (bad AS, crashing parser) doesn't storm the wire.
            self._schedule_connect_retry(backoff=4.0)

    def _go_idle(self, *, reset_stats: bool) -> None:
        self.state = SessionState.IDLE
        # "Validated an OPEN" is a per-attempt fact.
        self.peer_router_id = 0
        if self._hold_event is not None:
            self._hold_event.cancel()
            self._hold_event = None
        self._pending.clear()
        self.adj_rib_out.clear()
        self._flush_scheduled = False
        if reset_stats:
            self.stats = SessionStats()

    # -- sending ---------------------------------------------------------------

    def enqueue(self, prefix: Prefix, attrs: Optional[PathAttributes]) -> None:
        """Queue an announcement (or withdrawal when attrs is None).

        A change that leaves the peer's view as it is — a withdrawal of
        a prefix it was never sent, an announcement of the very attrs it
        holds (interned, so identity is equality) — is dropped, and
        takes the unsent pending change for that prefix with it.
        """
        if self.state is not SessionState.ESTABLISHED:
            return
        if self.adj_rib_out.get(prefix) is attrs:
            self._pending.pop(prefix, None)
            return
        self._pending[prefix] = attrs
        if not self._flush_scheduled:
            self._flush_scheduled = True
            mrai = self.instance.timers.bgp_mrai
            self.instance.host.kernel.schedule(
                self.instance.host.kernel.jitter(mrai, mrai * 0.5),
                self._flush,
                label=f"bgp-mrai:{self}",
            )

    def _flush(self) -> None:
        self._flush_scheduled = False
        if self.state is not SessionState.ESTABLISHED or not self._pending:
            self._pending.clear()
            return
        by_attrs: dict[PathAttributes, list[Prefix]] = {}
        withdraw: list[Prefix] = []
        for prefix, attrs in self._pending.items():
            if attrs is None:
                withdraw.append(prefix)
            else:
                by_attrs.setdefault(attrs, []).append(prefix)
        self._pending.clear()
        rate = self.instance.timers.bgp_update_rate
        chunk = max_routes_per_update(self.instance.timers)
        collector = bus.ACTIVE
        # A chunk enters the Adj-RIB-Out only once it is on the wire: one
        # dropped at the source (no route to the peer right now) must
        # stay re-sendable by a later identical announcement.
        adj_rib_out = self.adj_rib_out
        if withdraw:
            for offset in range(0, len(withdraw), chunk):
                piece = tuple(withdraw[offset : offset + chunk])
                self.stats.updates_sent += 1
                if collector.enabled:
                    collector.count("bgp.update.sent")
                    collector.count("bgp.prefixes.sent", len(piece))
                if self.instance.send_to(
                    self, Update(withdraw=piece, wire_cost=len(piece) / rate)
                ):
                    for prefix in piece:
                        adj_rib_out.pop(prefix, None)
        for attrs, prefixes in by_attrs.items():
            for offset in range(0, len(prefixes), chunk):
                piece = tuple(prefixes[offset : offset + chunk])
                self.stats.updates_sent += 1
                if collector.enabled:
                    collector.count("bgp.update.sent")
                    collector.count("bgp.prefixes.sent", len(piece))
                if self.instance.send_to(
                    self,
                    Update(
                        announce=((attrs, piece),),
                        wire_cost=len(piece) / rate,
                    ),
                ):
                    adj_rib_out.update(dict.fromkeys(piece, attrs))

    def __str__(self) -> str:
        return self._name


class BgpInstance:
    """One router's BGP process."""

    def __init__(
        self,
        host: RouterHost,
        device_config: DeviceConfig,
        timers: TimerProfile,
        transport: ControlTransport,
        *,
        prefer_higher_igp_metric: bool = False,
        crash_on_many_communities: Optional[int] = None,
    ) -> None:
        if device_config.bgp is None:
            raise ValueError("device has no BGP configuration")
        self.host = host
        self.device_config = device_config
        self.config: BgpConfig = device_config.bgp
        self.timers = timers
        self.transport = transport
        self.quirk_prefer_higher_igp_metric = prefer_higher_igp_metric
        self.quirk_crash_on_many_communities = crash_on_many_communities
        self.crash_count = 0
        self.router_id = self.config.router_id or self._derive_router_id()
        self.sessions: dict[int, Session] = {}
        # peer ip -> prefix -> interned attrs
        self.adj_rib_in: dict[int, dict[Prefix, PathAttributes]] = {}
        self.local_rib: dict[Prefix, BgpPath] = {}
        # ECMP companions of the best path (maximum-paths > 1).
        self.multipath: dict[Prefix, tuple[BgpPath, ...]] = {}
        self.locally_originated: dict[Prefix, PathAttributes] = {}
        self._registered_ips: set[int] = set()
        self._igp_refresh_scheduled = False
        self._running = False
        # Decision-process caches (see the module fidelity notes).
        # Interned attrs live for the process, so ``id`` names them.
        self._paths: dict[tuple, BgpPath] = {}
        self._hop_tuples: dict[tuple[int, ...], tuple[NextHop, ...]] = {}
        self._decisions: dict[tuple, tuple] = {}
        # Next hop -> IGP metric, while the RIB vouches for it; and the
        # metric every decision in effect used for it (or _MIXED).
        self._metrics: dict[int, Optional[int]] = {}
        self._decided_metrics: dict[int, Any] = {}
        self._moved_next_hops: set[int] = set()
        host.rib.next_hop_listeners.append(self._on_next_hop_moved)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._running = True
        self._refresh_originations()
        for neighbor in self.config.neighbors.values():
            local_ip = self._session_source(neighbor)
            if local_ip is None:
                continue
            session = Session(self, neighbor, local_ip)
            self.sessions[neighbor.peer_address] = session
            if local_ip not in self._registered_ips:
                self.transport.register(self.host.name, local_ip, self._on_datagram)
                self._registered_ips.add(local_ip)
            session.start()

    def stop(self) -> None:
        self._running = False
        for session in self.sessions.values():
            session.stop()

    def _derive_router_id(self) -> int:
        loopback = self.device_config.loopback_address()
        if loopback is not None:
            return loopback
        addresses = self.device_config.local_addresses()
        return max(addresses) if addresses else 1

    def _session_source(self, neighbor: BgpNeighborConfig) -> Optional[int]:
        if neighbor.update_source is not None:
            iface = self.device_config.interfaces.get(neighbor.update_source)
            if iface is not None and iface.address is not None:
                return iface.address
            return None
        # Prefer the interface sharing a subnet with the peer.
        for iface in self.device_config.routed_interfaces():
            prefix = iface.connected_prefix()
            if prefix is not None and prefix.contains(neighbor.peer_address):
                return iface.address
        return self.device_config.loopback_address()

    # -- transport ----------------------------------------------------------

    def _on_datagram(self, remote_ip: int, local_ip: int, payload: Any) -> None:
        session = self.sessions.get(remote_ip)
        if session is None or session.local_ip != local_ip:
            return
        session.handle(payload)
        self.host.after_protocol_event()

    def send_to(self, session: Session, payload: Any) -> bool:
        return self.transport.send(
            self.host.name, session.local_ip, session.peer_ip, payload
        )

    # -- origination -----------------------------------------------------------

    def _refresh_originations(self) -> None:
        """(Re)compute locally originated prefixes from config + RIB."""
        fresh: dict[Prefix, PathAttributes] = {}
        base = PathAttributes(next_hop=0, origin=Origin.IGP)
        for prefix in self.config.networks:
            if self._rib_has(prefix):
                fresh[prefix] = intern_attrs(base)
        if self.config.redistribute_connected:
            for iface in self.device_config.routed_interfaces():
                connected = iface.connected_prefix()
                if connected is not None:
                    fresh[connected] = intern_attrs(
                        replace(base, origin=Origin.INCOMPLETE)
                    )
        if self.config.redistribute_isis:
            for route in self.host.rib.best_routes():
                if route.protocol is Protocol.ISIS:
                    fresh[route.prefix] = intern_attrs(
                        replace(base, origin=Origin.INCOMPLETE, med=route.metric)
                    )
        if fresh != self.locally_originated:
            changed = set(fresh) ^ set(self.locally_originated)
            changed |= {
                p
                for p in set(fresh) & set(self.locally_originated)
                if fresh[p] != self.locally_originated[p]
            }
            self.locally_originated = fresh
            self._decide(changed)

    def _rib_has(self, prefix: Prefix) -> bool:
        best = self.host.rib.best(prefix)
        return best is not None and best.protocol not in (
            Protocol.BGP_EXTERNAL,
            Protocol.BGP_INTERNAL,
        )

    # -- update processing ------------------------------------------------------

    def receive_update(self, session: Session, update: Update) -> None:
        collector = bus.ACTIVE
        if collector.enabled:
            collector.count("bgp.update.received")
            collector.count("bgp.prefixes.received", update.route_count)
        rib_in = self.adj_rib_in.setdefault(session.peer_ip, {})
        touched: set[Prefix] = set()
        for attrs, prefixes in update.announce:
            if session.is_ebgp and self.config.asn in attrs.as_path:
                continue  # loop prevention
            imported = self._apply_import_policy(session, attrs, prefixes)
            for prefix, final_attrs in imported:
                rib_in[prefix] = final_attrs
                touched.add(prefix)
            session.stats.prefixes_received += len(imported)
        unknown = 0
        for prefix in update.withdraw:
            if rib_in.pop(prefix, None) is not None:
                touched.add(prefix)
            else:
                unknown += 1
        if unknown and collector.enabled:
            # The sender's Adj-RIB-Out should make this impossible.
            collector.count("bgp.prefixes.withdrawn_unknown", unknown)
        if touched:
            self._decide(touched)

    def _apply_import_policy(
        self,
        session: Session,
        attrs: PathAttributes,
        prefixes: tuple[Prefix, ...],
    ) -> list[tuple[Prefix, PathAttributes]]:
        route_map_name = session.neighbor.route_map_in
        out: list[tuple[Prefix, PathAttributes]] = []
        for prefix in prefixes:
            final = attrs
            if route_map_name is not None:
                route_map = self.device_config.route_maps.get(route_map_name)
                if route_map is None:
                    continue  # undefined map: deny (EOS behaviour)
                verdict, final = route_map.evaluate(
                    prefix, attrs, self.device_config.prefix_lists
                )
                if verdict is not MatchResult.PERMIT:
                    continue
            out.append((prefix, intern_attrs(final)))
        return out

    # -- decision process ---------------------------------------------------------

    def _igp_metric(self, next_hop: int) -> Optional[int]:
        if next_hop == 0:
            return 0
        metric = self._metrics.get(next_hop, _UNKNOWN)
        if metric is not _UNKNOWN:
            return metric  # type: ignore[return-value]
        route = self.host.rib.track(next_hop)
        if route is None or route.protocol in _BGP_PROTOCOLS:
            # Next hop must resolve via IGP/connected/static.
            metric = None
        else:
            metric = route.metric
        self._metrics[next_hop] = metric
        decided = self._decided_metrics.get(next_hop, _UNKNOWN)
        if decided is _UNKNOWN:
            self._decided_metrics[next_hop] = metric
        elif decided != metric:
            self._decided_metrics[next_hop] = _MIXED
        return metric

    def _on_next_hop_moved(self, address: int) -> None:
        """The RIB's answer for ``address`` may have changed."""
        if self._metrics.pop(address, _UNKNOWN) is not _UNKNOWN:
            self._moved_next_hops.add(address)
            self._decisions.clear()

    def _path(
        self, attrs: PathAttributes, session: Optional[Session]
    ) -> BgpPath:
        """The one shared :class:`BgpPath` for ``attrs`` from ``session``
        (``None``: locally originated)."""
        if session is None:
            key: tuple = (None, id(attrs))
        else:
            key = (session.peer_ip, session.peer_router_id, id(attrs))
        path = self._paths.get(key)
        if path is None:
            if session is None:
                path = BgpPath(
                    attrs=attrs,
                    from_ebgp=False,
                    peer_ip=0,
                    peer_router_id=self.router_id,
                    is_local=True,
                )
            else:
                path = BgpPath(
                    attrs=attrs,
                    from_ebgp=session.is_ebgp,
                    peer_ip=session.peer_ip,
                    peer_router_id=session.peer_router_id,
                )
            self._paths[key] = path
        return path

    def _decide(
        self, prefixes: Iterable[Prefix], moved: Optional[set[int]] = None
    ) -> None:
        """Run the decision process for ``prefixes``, in their order.

        The outcome for a prefix depends only on its candidate signature,
        so it is computed once per signature and pass. With ``moved``,
        a prefix is decided only if a candidate's next hop is in it or
        moved during this pass: every other outcome would be unchanged.
        """
        live = []
        for peer_ip, rib_in in self.adj_rib_in.items():
            session = self.sessions.get(peer_ip)
            if session is not None and session.is_established:
                live.append((peer_ip, rib_in.get, session))
        decisions = self._decisions
        decisions.clear()
        local_get = self.locally_originated.get
        local_rib = self.local_rib
        multipath = self.multipath
        changed: list[tuple[Prefix, Optional[BgpPath]]] = []
        for prefix in prefixes:
            if moved is not None and not self._through_moved(
                prefix, live, moved
            ):
                continue
            local = local_get(prefix)
            signature: tuple = (id(local),)
            for peer_ip, get, _ in live:
                attrs = get(prefix)
                if attrs is not None:
                    signature += (peer_ip, id(attrs))
            decision = decisions.get(signature)
            if decision is None:
                decision = decisions[signature] = self._decision(
                    prefix, local, live
                )
            new_set = decision[0]
            old_set = multipath.get(prefix, ())
            if new_set == old_set:
                continue
            new_best = new_set[0] if new_set else None
            old_best = local_rib.get(prefix)
            if new_best is None:
                local_rib.pop(prefix, None)
                multipath.pop(prefix, None)
            else:
                local_rib[prefix] = new_best
                multipath[prefix] = new_set
            self._program_rib(prefix, decision)
            if new_best != old_best:
                changed.append((prefix, new_best))
        if changed:
            self._advertise(changed)

    def _through_moved(self, prefix: Prefix, live: list, moved: set[int]) -> bool:
        for _, get, _ in live:
            attrs = get(prefix)
            if attrs is not None and (
                attrs.next_hop in moved or attrs.next_hop in self._moved_next_hops
            ):
                return True
        return False

    def _decision(
        self,
        prefix: Prefix,
        local: Optional[PathAttributes],
        live: list,
    ) -> tuple:
        """(multipath set, RIB protocol or None, next hops, metric) for
        one candidate signature; ``prefix`` only names a member."""
        paths: list[BgpPath] = []
        if local is not None:
            paths.append(self._path(local, None))
        for _, get, session in live:
            attrs = get(prefix)
            if attrs is not None:
                paths.append(self._path(attrs, session))
        chosen = tuple(
            multipath_set(
                paths,
                self._igp_metric,
                maximum_paths=self.config.maximum_paths,
                prefer_higher_igp_metric=self.quirk_prefer_higher_igp_metric,
            )
        )
        if not chosen or chosen[0].is_local:
            return chosen, None, (), 0
        best = chosen[0]
        ips = tuple(dict.fromkeys(p.attrs.next_hop for p in chosen if not p.is_local))
        next_hops = self._hop_tuples.get(ips)
        if next_hops is None:
            next_hops = self._hop_tuples[ips] = tuple(NextHop(ip=ip) for ip in ips)
        protocol = (
            Protocol.BGP_EXTERNAL if best.from_ebgp else Protocol.BGP_INTERNAL
        )
        return chosen, protocol, next_hops, best.attrs.med

    def _program_rib(self, prefix: Prefix, decision: tuple) -> None:
        chosen, protocol, next_hops, metric = decision
        route = None
        if protocol is not None:
            route = Route(
                prefix=prefix,
                protocol=protocol,
                next_hops=next_hops,
                metric=metric,
                source=chosen[0],
            )
        self.host.rib.replace(prefix, _BGP_PROTOCOLS, route)

    # -- advertisement --------------------------------------------------------------

    def _advertise(
        self, changed: list[tuple[Prefix, Optional[BgpPath]]]
    ) -> None:
        """Tell every established session each prefix's new best path.

        Export is evaluated once per update group and path in a pass
        (and per prefix only where an outbound route map reads it).
        Sessions are still visited in ``self.sessions`` order for every
        prefix: ``enqueue`` draws the MRAI jitter, and the draw order is
        part of the seeded behaviour.
        """
        sessions = [s for s in self.sessions.values() if s.is_established]
        exports: dict[tuple, Optional[PathAttributes]] = {}
        for prefix, new_best in changed:
            sender_ip = (
                None if new_best is None or new_best.is_local else new_best.peer_ip
            )
            for session in sessions:
                exported = None
                if new_best is not None and session.peer_ip != sender_ip:
                    key: tuple = (session.update_group, id(new_best))
                    if session.neighbor.route_map_out is not None:
                        key += (prefix,)
                    exported = exports.get(key, _UNKNOWN)  # type: ignore[assignment]
                    if exported is _UNKNOWN:
                        exported = exports[key] = self._export_to_group(
                            session, prefix, new_best
                        )
                session.enqueue(prefix, exported)

    def _export(
        self, session: Session, prefix: Prefix, path: BgpPath
    ) -> Optional[PathAttributes]:
        if not path.is_local and path.peer_ip == session.peer_ip:
            return None  # never back to the sender
        return self._export_to_group(session, prefix, path)

    def _export_to_group(
        self, session: Session, prefix: Prefix, path: BgpPath
    ) -> Optional[PathAttributes]:
        """What ``session``'s update group is told about ``path``.

        Reads nothing of ``session`` beyond its
        :attr:`Session.update_group` fields, so the answer holds for
        every member that is not the path's sender.
        """
        if not session.is_ebgp and not path.from_ebgp and not path.is_local:
            # iBGP-learned goes to iBGP peers only via route reflection:
            # reflect client routes to everyone, non-client routes to
            # clients. (Tree-shaped clusters assumed; no CLUSTER_LIST.)
            source = self.sessions.get(path.peer_ip)
            source_is_client = (
                source is not None
                and source.neighbor.route_reflector_client
            )
            if not (source_is_client or session.neighbor.route_reflector_client):
                return None
        attrs = path.attrs
        if session.is_ebgp:
            attrs = replace(
                attrs,
                as_path=(self.config.asn,) + attrs.as_path,
                next_hop=session.local_ip,
                local_pref=None,
                med=0,
            )
        else:
            updated = {}
            if session.neighbor.next_hop_self or attrs.next_hop == 0:
                updated["next_hop"] = session.local_ip
            if attrs.local_pref is None:
                updated["local_pref"] = 100
            if updated:
                attrs = replace(attrs, **updated)
        # Outbound policy runs on the rewritten advertisement, so a
        # `set metric` / prepend in the map is what the peer sees.
        if session.neighbor.route_map_out is not None:
            route_map = self.device_config.route_maps.get(
                session.neighbor.route_map_out
            )
            if route_map is None:
                return None
            verdict, attrs = route_map.evaluate(
                prefix, attrs, self.device_config.prefix_lists
            )
            if verdict is not MatchResult.PERMIT:
                return None
        if not session.neighbor.send_community and attrs.communities:
            attrs = replace(attrs, communities=())
        return intern_attrs(attrs)

    def full_advertisement(self, session: Session) -> None:
        """Send everything exportable to a newly established session."""
        for prefix, attrs in self.locally_originated.items():
            path = BgpPath(
                attrs=attrs,
                from_ebgp=False,
                peer_ip=0,
                peer_router_id=self.router_id,
                is_local=True,
            )
            exported = self._export(session, prefix, path)
            if exported is not None:
                session.enqueue(prefix, exported)
        for prefix, path in self.local_rib.items():
            if path.is_local:
                continue
            exported = self._export(session, prefix, path)
            if exported is not None:
                session.enqueue(prefix, exported)

    # -- events from sessions / host -------------------------------------------------

    def on_session_established(self, session: Session) -> None:
        self.full_advertisement(session)

    def on_session_down(self, session: Session, reason: str) -> None:
        del reason
        rib_in = self.adj_rib_in.pop(session.peer_ip, None)
        if rib_in:
            self._decide(set(rib_in))
        self.host.after_protocol_event()

    def on_igp_change(self) -> None:
        """IGP layer changed: re-check originations and next-hop metrics.

        Coalesced (next-hop-tracking style) to avoid a full decision pass
        per LSP during initial flooding.
        """
        if self._igp_refresh_scheduled or not self._running:
            return
        self._igp_refresh_scheduled = True
        self.host.kernel.schedule(
            self.host.kernel.jitter(0.5, 0.5),
            self._igp_refresh,
            label=f"bgp-nht:{self.host.name}",
        )

    def _igp_refresh(self) -> None:
        self._igp_refresh_scheduled = False
        if not self._running:
            return
        self._refresh_originations()
        moved: set[int] = set()
        dirty, self._moved_next_hops = self._moved_next_hops, set()
        for next_hop in dirty:
            metric = self._igp_metric(next_hop)
            if self._decided_metrics[next_hop] != metric:
                moved.add(next_hop)
                self._decided_metrics[next_hop] = metric
        if moved:
            # The full set, so prefixes are decided (and their changes
            # advertised) in the order a whole-table pass would use.
            affected: set[Prefix] = set(self.local_rib)
            for rib_in in self.adj_rib_in.values():
                affected.update(rib_in)
            self._decide(affected, moved)
        self.host.after_protocol_event()

    # -- introspection ------------------------------------------------------------

    def summary(self) -> list[dict]:
        rows = []
        for peer_ip, session in sorted(self.sessions.items()):
            rows.append(
                {
                    "neighbor": format_ipv4(peer_ip),
                    "remote_as": session.neighbor.remote_as,
                    "state": session.state.value,
                    "prefixes_received": len(self.adj_rib_in.get(peer_ip, {})),
                    "resets": session.stats.resets,
                }
            )
        return rows
