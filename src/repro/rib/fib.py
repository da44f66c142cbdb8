"""Forwarding information base."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.net.addr import Prefix
from repro.net.trie import PrefixTrie
from repro.rib.route import ResolvedNextHop


class FibAction(enum.Enum):
    """What the dataplane does with a matching packet."""
    FORWARD = "forward"
    RECEIVE = "receive"  # address owned by this device
    DISCARD = "discard"  # null route


@dataclass(frozen=True)
class FibEntry:
    """One resolved forwarding entry."""
    prefix: Prefix
    action: FibAction
    next_hops: tuple[ResolvedNextHop, ...] = ()

    def __str__(self) -> str:
        if self.action is FibAction.FORWARD:
            hops = "; ".join(str(nh) for nh in self.next_hops)
            return f"{self.prefix} -> {hops}"
        return f"{self.prefix} -> {self.action.value}"


# Process-wide FIB change counter. Convergence detection over thousands
# of routers compares this single integer per event instead of walking
# every device table.
_GLOBAL_VERSION = 0


def global_fib_version() -> int:
    return _GLOBAL_VERSION


class Fib:
    """The resolved forwarding table of one device.

    Tracks a monotonically increasing ``version`` plus the simulated
    time of the last change — convergence detection watches these.
    """

    def __init__(self) -> None:
        self._trie: PrefixTrie[FibEntry] = PrefixTrie()
        self.version = 0
        self.last_change_time = 0.0

    @staticmethod
    def _bump_global() -> None:
        global _GLOBAL_VERSION
        _GLOBAL_VERSION += 1

    def set_entry(self, entry: FibEntry, now: float) -> bool:
        """Install or replace one entry; returns True if it changed."""
        old = self._trie.get(entry.prefix)
        if old == entry:
            return False
        self._trie.insert(entry.prefix, entry)
        self.version += 1
        self.last_change_time = now
        self._bump_global()
        return True

    def remove_entry(self, prefix: Prefix, now: float) -> bool:
        """Remove the entry for ``prefix``; returns True if one existed."""
        if self._trie.remove(prefix) is None:
            return False
        self.version += 1
        self.last_change_time = now
        self._bump_global()
        return True

    def lookup(self, address: int) -> Optional[FibEntry]:
        match = self._trie.longest_match(address)
        return match[1] if match else None

    def entries(self) -> Iterator[FibEntry]:
        yield from self._trie.values()

    def __len__(self) -> int:
        return len(self._trie)

    def __repr__(self) -> str:
        return f"Fib(entries={len(self._trie)}, version={self.version})"
