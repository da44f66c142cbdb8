"""Route value types."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.net.addr import Prefix, format_ipv4


class Protocol(enum.Enum):
    """Route source protocols, with default administrative distances."""

    LOCAL = "local"
    CONNECTED = "connected"
    STATIC = "static"
    ISIS = "isis"
    BGP_EXTERNAL = "ebgp"
    BGP_INTERNAL = "ibgp"
    RSVP_TE = "rsvp-te"

    @property
    def admin_distance(self) -> int:
        return _ADMIN_DISTANCE[self]


_ADMIN_DISTANCE = {
    Protocol.LOCAL: 0,
    Protocol.CONNECTED: 0,
    Protocol.STATIC: 1,
    Protocol.RSVP_TE: 7,
    Protocol.BGP_EXTERNAL: 20,
    Protocol.ISIS: 115,
    Protocol.BGP_INTERNAL: 200,
}


@dataclass(frozen=True, slots=True)
class NextHop:
    """An unresolved next hop as installed by a protocol.

    Either a directly attached interface (connected/local routes), an IP
    reachable over a connected subnet (IGP routes), or a bare IP needing
    recursive resolution (BGP next hops).
    """

    ip: Optional[int] = None
    interface: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ip is None and self.interface is None:
            raise ValueError("next hop needs an ip, an interface, or both")

    def __str__(self) -> str:
        if self.ip is not None and self.interface is not None:
            return f"{format_ipv4(self.ip)} via {self.interface}"
        if self.ip is not None:
            return format_ipv4(self.ip)
        return f"directly via {self.interface}"


@dataclass(frozen=True, slots=True)
class ResolvedNextHop:
    """A fully resolved forwarding action: out interface + gateway IP."""

    interface: str
    ip: Optional[int] = None

    def __str__(self) -> str:
        if self.ip is None:
            return f"attached via {self.interface}"
        return f"{format_ipv4(self.ip)} via {self.interface}"


@dataclass(frozen=True, slots=True)
class Route:
    """A candidate route offered to the RIB by a protocol engine.

    ``metric`` breaks ties between same-protocol routes for the same
    prefix; cross-protocol ties go to the lower administrative distance.
    ``source`` is opaque protocol bookkeeping (e.g. the BGP path).
    """

    prefix: Prefix
    protocol: Protocol
    next_hops: tuple[NextHop, ...]
    metric: int = 0
    distance: Optional[int] = None
    source: Any = None

    @property
    def effective_distance(self) -> int:
        if self.distance is not None:
            return self.distance
        return self.protocol.admin_distance

    def __str__(self) -> str:
        hops = ", ".join(str(nh) for nh in self.next_hops) or "discard"
        return (
            f"{self.prefix} [{self.effective_distance}/{self.metric}] "
            f"{self.protocol.value} via {hops}"
        )
