"""The Pybatfish-style ``Session``."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.snapshot import Snapshot
from repro.pybf.questions import QuestionLibrary

if TYPE_CHECKING:
    from repro.service.store import SnapshotStore
    from repro.verify.engine import AtomGraphEngine


class SessionError(RuntimeError):
    """Raised for snapshot-management misuse."""
    pass


class Session:
    """Holds named snapshots and exposes the question library as ``.q``.

    Mirrors the Pybatfish workflow: initialize snapshots, set the
    current one, ask questions. Snapshots are produced by either backend
    in :mod:`repro.core` (or loaded from disk via
    :meth:`Snapshot.load <repro.core.snapshot.Snapshot.load>`).

    Every question's engine comes from the content-keyed engine table
    (:func:`~repro.verify.engine.engine_for`), so any number of
    sessions share one engine per distinct forwarding state. With
    ``store`` set, snapshots also register on init with a
    :class:`~repro.service.store.SnapshotStore`, whose lineage lets a
    churned snapshot's engine derive from its parent's instead of
    building cold.
    """

    def __init__(self, store: Optional["SnapshotStore"] = None) -> None:
        self._snapshots: dict[str, Snapshot] = {}
        self._store = store
        self._current: Optional[str] = None
        self.q = QuestionLibrary(self)

    # -- snapshot management -------------------------------------------------

    def init_snapshot(
        self,
        snapshot: Snapshot,
        name: Optional[str] = None,
        overwrite: bool = False,
        parent: Optional[int] = None,
    ) -> str:
        """Register a snapshot; it becomes the current one.

        ``parent`` (a fingerprint) marks which store-resident content
        this snapshot churned from, enabling incremental engine
        derivation; ignored for store-less sessions.
        """
        name = name or snapshot.name
        if name in self._snapshots and not overwrite:
            raise SessionError(
                f"snapshot {name!r} already initialized (overwrite=True?)"
            )
        self._snapshots[name] = snapshot
        if self._store is not None:
            self._store.register(snapshot, parent=parent)
        self._current = name
        return name

    def set_snapshot(self, name: str) -> None:
        if name not in self._snapshots:
            raise SessionError(f"unknown snapshot: {name!r}")
        self._current = name

    def delete_snapshot(self, name: str) -> None:
        if name not in self._snapshots:
            raise SessionError(f"unknown snapshot: {name!r}")
        del self._snapshots[name]
        if self._current == name:
            self._current = next(iter(self._snapshots), None)

    def list_snapshots(self) -> list[str]:
        return list(self._snapshots)

    def get_snapshot(self, name: Optional[str] = None) -> Snapshot:
        target = name or self._current
        if target is None:
            raise SessionError("no snapshot initialized")
        try:
            return self._snapshots[target]
        except KeyError:
            raise SessionError(f"unknown snapshot: {target!r}") from None

    # -- verification engine reuse -------------------------------------------

    def get_engine(self, name: Optional[str] = None) -> "AtomGraphEngine":
        """The atom-graph engine for a registered snapshot.

        Questions route their dataplane analyses through this method, so
        every question asked of the same forwarding state shares one
        engine (one set of per-atom graph passes), across sessions and
        worker threads. Store-backed sessions go through the store so
        its lineage can offer a delta base.
        """
        from repro.verify.engine import engine_for

        snapshot = self.get_snapshot(name)
        if self._store is not None:
            return self._store.engine(snapshot)
        return engine_for(snapshot.dataplane)
