"""The content-addressed snapshot store.

The service's amortization substrate: converged snapshots are keyed by
:meth:`Dataplane.fib_fingerprint() <repro.dataplane.model.Dataplane.fib_fingerprint>`
— pure forwarding *content*, never object identity or snapshot name —
so any two registrations of the same converged state (two seeds that
agreed, a reloaded snapshot file, the same snapshot under two session
names) collapse onto one entry holding one pinned
:class:`~repro.verify.engine.AtomGraphEngine`.

Entries are evicted LRU once ``capacity`` is exceeded; every lookup and
eviction is counted on the obs bus (``service.store_hits`` /
``service.store_misses`` / ``service.store_evictions``), which is how
``BENCH_service.json`` measures the amortization. All operations are
thread-safe: the store is shared by every worker in the service's pool,
and engine builds for *distinct* fingerprints proceed in parallel while
concurrent requests for the *same* fingerprint coalesce onto one build
(the per-entry lock here plus :func:`engine_for`'s own build locks).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional

from repro.core.snapshot import Snapshot
from repro.obs import bus
from repro.verify.engine import AtomGraphEngine, engine_for

#: Default resident-snapshot capacity.
DEFAULT_CAPACITY = 8

#: How many lineage hops a delta-base search walks before giving up
#: (0 disables delta derivation).
LINEAGE_DEPTH = 4


class DeploymentLostError(RuntimeError):
    """A job's backing state vanished mid-flight (evicted, deleted).

    Transient by definition — re-registration rebuilds the entry — so
    the worker pool retries jobs that raise it (with backoff) before
    declaring them failed.
    """


class StoreEntry:
    """One resident converged state: snapshot + lazily pinned engine."""

    __slots__ = (
        "snapshot",
        "fingerprint",
        "base_supplier",
        "_engine",
        "_lock",
    )

    def __init__(self, snapshot: Snapshot) -> None:
        self.snapshot = snapshot
        self.fingerprint = snapshot.dataplane.fib_fingerprint()
        #: Store-installed callable returning a resident ancestor's
        #: built engine (or None) — the delta base for this build.
        self.base_supplier: Optional[
            Callable[[], Optional[AtomGraphEngine]]
        ] = None
        self._engine: Optional[AtomGraphEngine] = None
        self._lock = threading.Lock()

    def engine(self) -> AtomGraphEngine:
        """The pinned atom-graph engine (built once, on first demand).

        When the store recorded a lineage parent for this content, the
        build derives incrementally from the parent's resident engine
        via :func:`engine_for`'s delta path (falling back to a cold
        build whenever the delta is unapplicable). Lock order is
        entry._lock -> store._lock (the supplier); the store never takes
        an entry lock while holding its own.
        """
        if self._engine is None:
            with self._lock:
                if self._engine is None:
                    base = (
                        self.base_supplier()
                        if self.base_supplier is not None
                        else None
                    )
                    self._engine = engine_for(
                        self.snapshot.dataplane, base=base
                    )
        return self._engine

    @property
    def engine_built(self) -> bool:
        return self._engine is not None


class SnapshotStore:
    """LRU-bounded, fingerprint-keyed residence for converged snapshots."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[int, StoreEntry]" = OrderedDict()
        #: child fingerprint -> parent fingerprint; survives eviction of
        #: either side (it is metadata, not residence).
        self._lineage: dict[int, int] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- registration / lookup ------------------------------------------------

    def register(
        self, snapshot: Snapshot, parent: Optional[int] = None
    ) -> int:
        """Make ``snapshot`` resident; returns its fingerprint.

        Re-registering existing content is a hit (the entry is
        refreshed in LRU order, its pinned engine survives). ``parent``
        optionally records which resident content this snapshot churned
        from, letting the entry's engine derive incrementally instead
        of building cold.
        """
        fingerprint = self._entry_for(snapshot).fingerprint
        if parent is not None:
            self.record_lineage(fingerprint, parent)
        return fingerprint

    def record_lineage(self, child: int, parent: int) -> None:
        """Note that ``child`` content churned from ``parent`` content.

        Called on registration with an explicit parent and by the
        service whenever a differential question declares its pair —
        the diff *is* the lineage claim. Self-loops are ignored.
        """
        if child == parent:
            return
        with self._lock:
            self._lineage[child] = parent

    def get(self, fingerprint: int) -> StoreEntry:
        """The resident entry for ``fingerprint``.

        Raises :class:`DeploymentLostError` when the state is no longer
        resident — callers holding only a fingerprint cannot rebuild it.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                self._record_lookup("miss")
                raise DeploymentLostError(
                    f"snapshot {fingerprint:#x} is no longer resident"
                )
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            self._record_lookup("hit")
            return entry

    def engine(self, snapshot: Snapshot) -> AtomGraphEngine:
        """The pinned engine for ``snapshot``, registering it if needed.

        This is the path :class:`~repro.pybf.session.Session` routes
        questions through when backed by a store: an eviction between
        two questions costs one rebuild, never a wrong answer.
        """
        return self._entry_for(snapshot).engine()

    def _entry_for(self, snapshot: Snapshot) -> StoreEntry:
        fingerprint = snapshot.dataplane.fib_fingerprint()
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self.hits += 1
                self._record_lookup("hit")
                return entry
            self.misses += 1
            self._record_lookup("miss")
            entry = StoreEntry(snapshot)
            entry.base_supplier = (
                lambda fp=fingerprint: self._delta_base(fp)
            )
            self._entries[fingerprint] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                if bus.ACTIVE.enabled:
                    bus.ACTIVE.count("service.store_evictions")
            resident = len(self._entries)
        registry = bus.metrics_registry()
        if registry.enabled:
            registry.gauge(
                "service.store_resident",
                "Converged snapshots (and pinned engines) held resident",
            ).set(resident)
        return entry

    def _delta_base(self, fingerprint: int) -> Optional[AtomGraphEngine]:
        """The nearest lineage ancestor with a resident *built* engine.

        Walks child -> parent links up to :data:`LINEAGE_DEPTH` hops —
        non-resident intermediates are skipped over, so a grandparent
        can still serve after its child was evicted. Returns None when
        nothing usable is found (the caller builds cold).
        """
        with self._lock:
            seen = {fingerprint}
            current = fingerprint
            for _ in range(LINEAGE_DEPTH):
                parent = self._lineage.get(current)
                if parent is None or parent in seen:
                    return None
                entry = self._entries.get(parent)
                if entry is not None and entry.engine_built:
                    return entry._engine
                seen.add(parent)
                current = parent
        return None

    def _record_lookup(self, result: str) -> None:
        """One store lookup on both planes: the historical flat obs
        counters and the labeled registry series."""
        if bus.ACTIVE.enabled:
            bus.ACTIVE.count(
                "service.store_hits" if result == "hit"
                else "service.store_misses"
            )
        registry = bus.metrics_registry()
        if registry.enabled:
            registry.counter(
                "service.store_lookups",
                "SnapshotStore lookups by outcome",
                ("result",),
            ).inc(result=result)

    def evict(self, count: int = 1) -> int:
        """Forcibly evict up to ``count`` LRU entries; returns how many.

        Normal operation never needs this — capacity bounds residence on
        its own. It exists for the service-level chaos plane
        (:class:`~repro.chaos.service_plan.EvictionStorm`): a seeded
        storm forces warm engines out from under in-flight jobs, and
        resilience is proven when answers stay correct (rebuilt cold)
        rather than fast.
        """
        evicted = 0
        with self._lock:
            for _ in range(max(0, count)):
                if not self._entries:
                    break
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
                if bus.ACTIVE.enabled:
                    bus.ACTIVE.count("service.store_evictions")
        return evicted

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: int) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "resident": len(self._entries),
                "engines_built": sum(
                    1 for e in self._entries.values() if e.engine_built
                ),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "lineage_edges": len(self._lineage),
            }

    def __repr__(self) -> str:
        return (
            f"SnapshotStore(resident={len(self)}, capacity={self.capacity})"
        )
