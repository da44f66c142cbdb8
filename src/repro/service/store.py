"""The content-addressed snapshot store.

The service's residence for converged snapshots: they are keyed by
:meth:`Dataplane.fib_fingerprint() <repro.dataplane.model.Dataplane.fib_fingerprint>`
— pure forwarding *content*, never object identity or snapshot name —
so any two registrations of the same converged state (two seeds that
agreed, a reloaded snapshot file, the same snapshot under two session
names) collapse onto one resident snapshot.

The store holds no engine. :meth:`SnapshotStore.engine` hands out the
one engine per forwarding state that
:func:`~repro.verify.engine.engine_for`'s content-keyed table keeps;
what the store adds is lineage, the child -> parent fingerprint edges
that let a churned snapshot's engine derive from a resident ancestor's
instead of building cold. Admitting a snapshot reserves the store's
``capacity`` in that table (:func:`~repro.verify.engine.reserve_engines`),
so the table keeps that many more engines warm while the store lives.

Snapshots are evicted LRU once ``capacity`` is exceeded; every lookup
and eviction is counted on the obs bus (``service.store_hits`` /
``service.store_misses`` / ``service.store_evictions``). All operations
are thread-safe: the store is shared by every worker in the service's
pool, and concurrent requests for one forwarding state coalesce onto
one engine through :func:`engine_for`'s own build locks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.core.snapshot import Snapshot
from repro.obs import bus
from repro.verify.engine import (
    AtomGraphEngine,
    drop_engines,
    engine_for,
    reserve_engines,
    resident_engine,
)

#: Default resident-snapshot capacity.
DEFAULT_CAPACITY = 8

#: How many lineage hops a delta-base search walks before giving up
#: (0 disables delta derivation).
LINEAGE_DEPTH = 4


class DeploymentLostError(RuntimeError):
    """A job's backing state vanished mid-flight (evicted, deleted).

    Transient by definition — re-registration restores it — so the
    worker pool retries jobs that raise it (with backoff) before
    declaring them failed.
    """


class SnapshotStore:
    """LRU-bounded, fingerprint-keyed residence for converged snapshots."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = max(1, capacity)
        self._snapshots: "OrderedDict[int, Snapshot]" = OrderedDict()
        #: child fingerprint -> parent fingerprint; survives eviction of
        #: either side (it is metadata, not residence).
        self._lineage: dict[int, int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- registration / lookup ------------------------------------------------

    def register(
        self, snapshot: Snapshot, parent: Optional[int] = None
    ) -> int:
        """Make ``snapshot`` resident; returns its fingerprint.

        Re-registering existing content is a hit (refreshed in LRU
        order). ``parent`` optionally records which content this
        snapshot churned from, letting its engine derive incrementally
        instead of building cold.
        """
        fingerprint = self._admit(snapshot)
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

    def get(self, fingerprint: int) -> Snapshot:
        """The resident snapshot for ``fingerprint``.

        Raises :class:`DeploymentLostError` when the state is no longer
        resident — callers holding only a fingerprint cannot rebuild it.
        """
        with self._lock:
            snapshot = self._snapshots.get(fingerprint)
            if snapshot is None:
                self.misses += 1
                self._record_lookup("miss")
                raise DeploymentLostError(
                    f"snapshot {fingerprint:#x} is no longer resident"
                )
            self._snapshots.move_to_end(fingerprint)
            self.hits += 1
            self._record_lookup("hit")
            return snapshot

    def engine(self, snapshot: Snapshot) -> AtomGraphEngine:
        """The engine for ``snapshot``, registering it if needed.

        This is the path :class:`~repro.pybf.session.Session` routes
        questions through when backed by a store. The engine comes from
        :func:`engine_for`'s table; on a table miss it derives from the
        nearest lineage ancestor whose engine is resident there, else
        builds cold. An eviction between two questions costs one
        rebuild, never a wrong answer.
        """
        fingerprint = self._admit(snapshot)
        base = (
            None if resident_engine(fingerprint) is not None
            else self._delta_base(fingerprint)
        )
        return engine_for(snapshot.dataplane, base=base)

    def _admit(self, snapshot: Snapshot) -> int:
        fingerprint = snapshot.dataplane.fib_fingerprint()
        with self._lock:
            if fingerprint in self._snapshots:
                self._snapshots.move_to_end(fingerprint)
                self.hits += 1
                self._record_lookup("hit")
                return fingerprint
            self.misses += 1
            self._record_lookup("miss")
            self._snapshots[fingerprint] = snapshot
            while len(self._snapshots) > self.capacity:
                self._snapshots.popitem(last=False)
                self._count_eviction()
            resident = len(self._snapshots)
        reserve_engines(self, self.capacity)
        registry = bus.metrics_registry()
        if registry.enabled:
            registry.gauge(
                "service.store_resident",
                "Converged snapshots held resident",
            ).set(resident)
        return fingerprint

    def _delta_base(self, fingerprint: int) -> Optional[AtomGraphEngine]:
        """The nearest lineage ancestor whose engine is resident.

        Walks child -> parent links up to :data:`LINEAGE_DEPTH` hops —
        ancestors without a resident engine are skipped over, so a
        grandparent can still serve after its child was evicted.
        Returns None when nothing usable is found (the caller builds
        cold).
        """
        with self._lock:
            seen = {fingerprint}
            current = fingerprint
            for _ in range(LINEAGE_DEPTH):
                parent = self._lineage.get(current)
                if parent is None or parent in seen:
                    return None
                engine = resident_engine(parent)
                if engine is not None:
                    return engine
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

    def _count_eviction(self) -> None:
        self.evictions += 1
        if bus.ACTIVE.enabled:
            bus.ACTIVE.count("service.store_evictions")

    def evict(self, count: int = 1) -> int:
        """Forcibly evict up to ``count`` LRU snapshots and their
        engines; returns how many.

        Normal operation never needs this — capacity bounds residence on
        its own, and leaves engines to the engine table's own LRU. It
        exists for the service-level chaos plane
        (:class:`~repro.chaos.service_plan.EvictionStorm`): the evicted
        states' engines leave the engine table too, so the next
        question on one re-registers it and rebuilds its engine (cold,
        or derived from a resident ancestor). Resilience is proven when
        those answers stay correct rather than fast.
        """
        evicted = []
        with self._lock:
            for _ in range(max(0, count)):
                if not self._snapshots:
                    break
                evicted.append(self._snapshots.popitem(last=False)[0])
                self._count_eviction()
        drop_engines(evicted)
        return len(evicted)

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._snapshots)

    def __contains__(self, fingerprint: int) -> bool:
        with self._lock:
            return fingerprint in self._snapshots

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "resident": len(self._snapshots),
                "engines_built": sum(
                    1 for fp in self._snapshots
                    if resident_engine(fp) is not None
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
