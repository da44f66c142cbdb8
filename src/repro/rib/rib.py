"""Best-route selection and next-hop resolution.

The RIB accepts one candidate :class:`Route` per (protocol, prefix) —
each protocol engine runs its own internal selection first, exactly as on
a real router (the BGP decision process picks one best path before
offering it to the RIB). The RIB then:

* picks the overall best route per prefix by (admin distance, metric);
* resolves next hops, recursively for bare-IP (BGP) next hops;
* maintains the device :class:`Fib` incrementally.

Recursive resolution makes BGP-over-IGP ordering observable: an iBGP
route whose next hop is not yet covered by an IGP route stays out of the
FIB until the IGP converges, which is a real effect the paper's
emulation-based approach captures and simple models often idealize.

**Next-hop groups (BGP PIC).** A bare-IP next hop is resolved once into
a shared, interned tuple of :class:`ResolvedNextHop` — its *group* — and
every FIB entry through that hop holds that very tuple, the way the
OpenConfig AFT's ``next-hop-group`` is shared by its prefixes. Each
group remembers the prefixes programmed through it. The group is cached
until a best-route change *may* move the answer of a lookup made while
resolving it: every resolution lookup is watched at the length it
matched, and a best route inserted or removed at a prefix covering the
address at that length or longer drops the cache (and tells
:attr:`Rib.next_hop_listeners`). A FIB entry keeps the group it was
programmed with — exactly as it kept a resolution computed on the spot —
until :meth:`Rib.commit` re-programs the prefixes of each group whose
resolution moved since they were programmed, after an IGP-layer change.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.net.addr import Prefix, prefix_mask
from repro.net.trie import PrefixTrie
from repro.rib.fib import Fib, FibAction, FibEntry
from repro.rib.route import NextHop, Protocol, ResolvedNextHop, Route

_IGP_PROTOCOLS = frozenset(
    {Protocol.LOCAL, Protocol.CONNECTED, Protocol.STATIC, Protocol.ISIS}
)
_MAX_RESOLUTION_DEPTH = 8
_MASKS = tuple(prefix_mask(length) for length in range(33))

#: A group's resolution is not cached (never resolved, or a lookup it
#: made may have moved since).
_STALE = object()
#: A group's prefixes were programmed with different resolutions.
_MIXED = object()


class _NextHopGroup:
    """One bare-IP next hop: its resolution and the prefixes through it."""

    __slots__ = ("resolved", "programmed", "prefixes")

    def __init__(self) -> None:
        #: Interned resolution (``()`` = unresolvable), or ``_STALE``.
        self.resolved: object = _STALE
        #: The resolution every prefix below was programmed with, or
        #: ``_MIXED``.
        self.programmed: object = _STALE
        self.prefixes: set[Prefix] = set()


class Rib:
    """The unified routing table of one emulated device."""

    def __init__(self, clock: Callable[[], float] = lambda: 0.0) -> None:
        self._clock = clock
        # prefix -> one candidate per protocol, in the order offered.
        self._routes: dict[Prefix, tuple[Route, ...]] = {}
        self._best: PrefixTrie[Route] = PrefixTrie()
        self._groups: dict[int, _NextHopGroup] = {}
        self._interned: dict[tuple, tuple] = {}
        # Watched lookups: address -> (length it matched at, 0 for no
        # match; next hops whose resolution read it), and per length the
        # watched addresses a best-route change at that length may move.
        self._watched: dict[int, tuple[int, set[int]]] = {}
        self._watch: list[dict[int, set[int]]] = [{} for _ in range(33)]
        #: Called with each watched address whose longest match may have
        #: moved (see :meth:`track`).
        self.next_hop_listeners: list[Callable[[int], None]] = []
        self._resolution_dirty = False
        # Bumped whenever a non-BGP (IGP-layer) best route changes;
        # drives BGP next-hop tracking without self-triggering on BGP's
        # own installs.
        self.igp_version = 0
        self.fib = Fib()

    # -- mutation ---------------------------------------------------------

    def install(self, route: Route) -> None:
        """Offer ``route`` as the ``route.protocol`` candidate for its prefix."""
        prefix = route.prefix
        candidates = self._routes.get(prefix, ())
        for index, existing in enumerate(candidates):
            if existing.protocol is route.protocol:
                candidates = candidates[:index] + (route,) + candidates[index + 1 :]
                break
        else:
            candidates += (route,)
        self._routes[prefix] = candidates
        self._reselect(prefix)

    def replace(
        self,
        prefix: Prefix,
        protocols: tuple[Protocol, ...],
        route: Optional[Route],
    ) -> None:
        """Withdraw ``prefix``'s candidates of ``protocols``, then offer
        ``route`` (if any) — one call for a protocol that owns several
        route kinds. The table passes through the same states as a
        :meth:`withdraw` per protocol followed by :meth:`install`."""
        for protocol in protocols:
            self.withdraw(protocol, prefix)
        if route is not None:
            self.install(route)

    def withdraw(self, protocol: Protocol, prefix: Prefix) -> None:
        candidates = self._routes.get(prefix)
        if not candidates:
            return
        kept = tuple(r for r in candidates if r.protocol is not protocol)
        if len(kept) == len(candidates):
            return
        if kept:
            self._routes[prefix] = kept
        else:
            del self._routes[prefix]
        self._reselect(prefix)

    def withdraw_all(self, protocol: Protocol) -> None:
        for prefix in [
            p
            for p, cands in self._routes.items()
            if any(r.protocol is protocol for r in cands)
        ]:
            self.withdraw(protocol, prefix)

    def commit(self) -> bool:
        """Re-program recursive routes if the IGP layer changed.

        Called by the router OS after each protocol event batch. Only
        the prefixes of a next-hop group whose resolution is no longer
        the one they were programmed with are touched. Returns True if
        the FIB changed as a result.
        """
        if not self._resolution_dirty:
            return False
        self._resolution_dirty = False
        changed = False
        for next_hop, group in list(self._groups.items()):
            if not group.prefixes:
                continue
            resolved = self._resolve_group(next_hop, group)
            if group.programmed is resolved:
                continue
            for prefix in list(group.prefixes):
                changed |= self._program(self._best.get(prefix))
            group.programmed = resolved
        return changed

    # -- queries ------------------------------------------------------------

    def best_routes(self) -> Iterator[Route]:
        yield from self._best.values()

    def best(self, prefix: Prefix) -> Optional[Route]:
        return self._best.get(prefix)

    def routes_for(self, prefix: Prefix) -> list[Route]:
        return list(self._routes.get(prefix, ()))

    def longest_match(self, address: int) -> Optional[Route]:
        match = self._best.longest_match(address)
        return match[1] if match else None

    def track(self, address: int) -> Optional[Route]:
        """:meth:`longest_match`, watched: every function in
        :attr:`next_hop_listeners` is called with ``address`` once a
        best-route change may have moved the answer (listeners also hear
        the addresses the RIB watches for its own next-hop groups)."""
        return self._lookup(address, None)

    def resolve_ip(self, address: int) -> Optional[tuple[Route, int]]:
        """Resolve ``address`` to a directly connected route.

        Follows bare-IP next hops through the RIB until reaching a route
        whose next hop names an interface. Returns (final route, gateway
        ip) or None when unresolvable (or a resolution loop is hit).
        """
        gateway = address
        for _ in range(_MAX_RESOLUTION_DEPTH):
            route = self.longest_match(gateway)
            if route is None or not route.next_hops:
                return None
            hop = route.next_hops[0]
            if hop.interface is not None:
                return route, gateway
            assert hop.ip is not None
            if hop.ip == gateway:
                return None
            gateway = hop.ip
        return None

    def __len__(self) -> int:
        return len(self._best)

    # -- internals ------------------------------------------------------------

    def _best_route(self, prefix: Prefix) -> Optional[Route]:
        candidates = self._routes.get(prefix)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        return min(
            candidates,
            key=lambda r: (
                r.effective_distance,
                # A device's own address beats the covering connected
                # route: /32 local entries must stay RECEIVE.
                r.protocol is not Protocol.LOCAL,
                r.metric,
                r.protocol.value,
            ),
        )

    def _reselect(self, prefix: Prefix) -> None:
        old = self._best.get(prefix)
        new = self._best_route(prefix)
        if new is old:
            # Same object re-installed: still reprogram (next hops may
            # differ only in resolution context), but cheaply.
            if new is not None:
                self._program(new)
            return
        if old is not None:
            self._leave_groups(prefix, old)
        if new is None:
            self._best.remove(prefix)
            self.fib.remove_entry(prefix, self._clock())
        else:
            self._best.insert(prefix, new)
        watchers = self._watch[prefix.length].get(prefix.network)
        if watchers:
            for address in tuple(watchers):
                self._unwatch(address)
        if new is not None:
            self._program(new)
        if self._touches_resolution(old) or self._touches_resolution(new):
            self._resolution_dirty = True
            self.igp_version += 1

    @staticmethod
    def _touches_resolution(route: Optional[Route]) -> bool:
        return route is not None and route.protocol in _IGP_PROTOCOLS

    def _program(self, route: Route) -> bool:
        """Compute and install the FIB entry for ``route``."""
        prefix = route.prefix
        hops = route.next_hops
        if not hops:
            entry = FibEntry(prefix, FibAction.DISCARD)
            return self.fib.set_entry(entry, self._clock())
        if route.protocol is Protocol.LOCAL:
            entry = FibEntry(prefix, FibAction.RECEIVE)
            return self.fib.set_entry(entry, self._clock())
        if len(hops) == 1 and hops[0].interface is None:
            # The BGP shape: the entry shares its next hop's group.
            resolved = self._through(hops[0].ip, prefix)
        else:
            parts: list[ResolvedNextHop] = []
            for hop in hops:
                if hop.interface is not None:
                    parts.append(ResolvedNextHop(hop.interface, hop.ip))
                else:
                    parts.extend(self._through(hop.ip, prefix))
            resolved = tuple(dict.fromkeys(parts))
        if not resolved:
            # Unresolvable: keep out of the FIB entirely.
            return self.fib.remove_entry(prefix, self._clock())
        entry = FibEntry(prefix, FibAction.FORWARD, resolved)
        return self.fib.set_entry(entry, self._clock())

    def _through(
        self, next_hop: int, prefix: Prefix
    ) -> tuple[ResolvedNextHop, ...]:
        """``next_hop``'s group resolution, with ``prefix`` recorded as
        programmed through it."""
        group = self._groups.get(next_hop)
        if group is None:
            group = self._groups[next_hop] = _NextHopGroup()
        resolved = self._resolve_group(next_hop, group)
        members = group.prefixes
        if group.programmed is not resolved:
            others = len(members) - (prefix in members)
            group.programmed = _MIXED if others else resolved
        members.add(prefix)
        return resolved  # type: ignore[return-value]

    def _leave_groups(self, prefix: Prefix, route: Route) -> None:
        for hop in route.next_hops:
            if hop.interface is None:
                group = self._groups.get(hop.ip)  # type: ignore[arg-type]
                if group is not None:
                    group.prefixes.discard(prefix)

    def _resolve_group(self, next_hop: int, group: _NextHopGroup) -> object:
        resolved = group.resolved
        if resolved is _STALE:
            hops = self._resolve_recursive(next_hop, 0, next_hop)
            unique = tuple(dict.fromkeys(hops)) if hops else ()
            resolved = group.resolved = self._interned.setdefault(unique, unique)
        return resolved

    def _resolve_recursive(
        self, address: int, depth: int, next_hop: int
    ) -> Optional[list[ResolvedNextHop]]:
        if depth >= _MAX_RESOLUTION_DEPTH:
            return None
        route = self._lookup(address, next_hop)
        if route is None or route.protocol is Protocol.LOCAL:
            return None
        out: list[ResolvedNextHop] = []
        for hop in route.next_hops:
            if hop.interface is not None:
                if hop.ip is not None:
                    out.append(ResolvedNextHop(hop.interface, hop.ip))
                else:
                    # Connected route: the resolved gateway is the
                    # original address on the attached subnet.
                    out.append(ResolvedNextHop(hop.interface, address))
            elif hop.ip is not None and hop.ip != address:
                deeper = self._resolve_recursive(hop.ip, depth + 1, next_hop)
                if deeper:
                    out.extend(deeper)
        return out or None

    # -- watched lookups ------------------------------------------------------

    def _lookup(self, address: int, reader: Optional[int]) -> Optional[Route]:
        """Longest match for ``address``, watched until it may move.

        The answer can only move when a best route is inserted or removed
        at a prefix covering ``address`` at least as long as the one it
        matched (any length when nothing matched), so the address is
        filed under its masked network at each of those lengths.
        """
        match = self._best.longest_match(address)
        watch = self._watched.get(address)
        if watch is None:
            length = match[0].length if match is not None else 0
            watch = self._watched[address] = (length, set())
            for bits in range(length, 33):
                self._watch[bits].setdefault(address & _MASKS[bits], set()).add(
                    address
                )
        if reader is not None:
            watch[1].add(reader)
        return match[1] if match else None

    def _unwatch(self, address: int) -> None:
        length, readers = self._watched.pop(address)
        for bits in range(length, 33):
            bucket = self._watch[bits]
            key = address & _MASKS[bits]
            members = bucket[key]
            members.discard(address)
            if not members:
                del bucket[key]
        for next_hop in readers:
            group = self._groups.get(next_hop)
            if group is not None:
                group.resolved = _STALE
        for listener in self.next_hop_listeners:
            listener(address)
