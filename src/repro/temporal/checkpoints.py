"""Checkpoint stream: per-device FIB deltas captured mid-convergence.

Every verdict the rest of the system emits is computed on a quiesced
snapshot — this module records what the dataplane looked like *between*
quiescences. A :class:`CheckpointRecorder` hooks the live routers' FIB
change notifications, and whenever a `route.install` burst ends (the
coalescing window ``coalesce`` of simulated seconds passes with the
capture pending), it dumps AFTs from just the dirty devices,
evolves the previous dataplane around them
(:meth:`~repro.dataplane.model.Dataplane.evolve` shares every untouched
device object), and stores the resulting
:class:`~repro.dataplane.delta.DataplaneDelta`. The product is an
ordered :class:`CheckpointStream` — cheap deltas, not full snapshots —
that the temporal evaluator replays through one warm engine.

Capture scheduling rides the kernel itself: the capture event is
scheduled at maximum priority, so at a given sim-instant it runs after
every protocol event, and k installs in one instant cost exactly one
checkpoint even with a zero-width window. The window is a throttle, not
a debounce — sustained churn still yields a checkpoint per window, so a
slow convergence cannot starve the stream.

``max_checkpoints`` bounds stream length: past the cap,
the recorder merges the adjacent pair of interior checkpoints spanning
the smallest time window, fusing their deltas with
:meth:`DataplaneDelta.compose` — endpoints are never dropped, so the
initial and final states stay exact and only mid-stream resolution
degrades.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.dataplane.delta import DataplaneDelta
from repro.dataplane.model import Dataplane
from repro.gnmi.aft import AftSnapshot
from repro.obs import bus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kube.kne import KneDeployment

#: Default capture window in simulated seconds (``coalesce``).
DEFAULT_COALESCE = 0.25
#: Default stream-length cap (``max_checkpoints``).
DEFAULT_MAX_CHECKPOINTS = 256
# Above every protocol/chaos event priority: a capture at time t runs
# only after everything else scheduled at t, so one sim-instant's
# install burst is always seen whole.
_CAPTURE_PRIORITY = 1 << 30


@dataclass
class Checkpoint:
    """One intermediate forwarding state, with the delta that made it.

    ``delta`` is None only for index 0 (the stream's base state);
    every later checkpoint satisfies ``delta.base is`` the previous
    checkpoint's dataplane and ``delta.target is`` its own — the chain
    invariant :meth:`AtomGraphEngine.apply_delta` requires.
    """

    index: int
    t: float
    dataplane: Dataplane
    delta: Optional[DataplaneDelta]
    dirty_devices: tuple[str, ...] = ()
    #: route.install notifications coalesced into this checkpoint.
    installs: int = 0
    #: The AFT dumps backing this checkpoint (all devices at index 0,
    #: dirty devices only afterwards) — kept for trace serialization;
    #: the dataplane itself does not retain its source snapshots.
    snapshots: dict[str, AftSnapshot] = field(default_factory=dict)


@dataclass
class CheckpointStream:
    """An ordered sequence of checkpoints over one convergence episode."""

    checkpoints: list[Checkpoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.checkpoints)

    @property
    def initial(self) -> Checkpoint:
        return self.checkpoints[0]

    @property
    def final(self) -> Checkpoint:
        return self.checkpoints[-1]

    def deltas(self) -> list[DataplaneDelta]:
        return [cp.delta for cp in self.checkpoints if cp.delta is not None]

    def node_names(self) -> list[str]:
        return self.initial.dataplane.node_names()

    def destination_universe(self) -> dict[int, str]:
        """Owned address -> owner, unioned over *all* checkpoints.

        A link flap removes the link's /31 addresses from the down-state
        dataplane's ownership map; evaluating against any single
        checkpoint's map would silently drop exactly the destinations
        whose transient behaviour is under test. First sighting wins so
        the owner label is stable across the stream.
        """
        universe: dict[int, str] = {}
        for checkpoint in self.checkpoints:
            for address, owner in checkpoint.dataplane.address_owner.items():
                universe.setdefault(address, owner)
            for address, owner in checkpoint.dataplane.degraded_owned.items():
                universe.setdefault(address, owner)
        return universe

    # -- (de)serialization: replayable traces for `mfv temporal --replay` ----

    def to_dict(self) -> dict:
        """JSON-friendly trace: full AFT dump at checkpoint 0, touched
        devices only afterwards (mirroring the delta structure)."""
        out = []
        for checkpoint in self.checkpoints:
            out.append(
                {
                    "t": checkpoint.t,
                    "installs": checkpoint.installs,
                    "devices": {
                        name: snap.to_dict()
                        for name, snap in sorted(checkpoint.snapshots.items())
                    },
                }
            )
        return {"format": "mfv-temporal-stream/1", "checkpoints": out}

    @classmethod
    def from_dict(cls, data: dict) -> "CheckpointStream":
        stream = cls()
        previous: Optional[Dataplane] = None
        # One decode pass: each distinct prefix string is parsed once.
        prefixes: dict = {}
        for index, raw in enumerate(data.get("checkpoints", [])):
            snapshots = {
                name: AftSnapshot.from_dict(payload, prefixes)
                for name, payload in raw.get("devices", {}).items()
            }
            if previous is None:
                dataplane = Dataplane.from_afts(snapshots)
                delta = None
            else:
                dataplane = Dataplane.evolve(previous, snapshots)
                delta = DataplaneDelta(previous, dataplane)
            stream.checkpoints.append(
                Checkpoint(
                    index=index,
                    t=float(raw.get("t", 0.0)),
                    dataplane=dataplane,
                    delta=delta,
                    dirty_devices=tuple(sorted(snapshots)),
                    installs=int(raw.get("installs", 0)),
                    snapshots=snapshots,
                )
            )
            previous = dataplane
        if not stream.checkpoints:
            raise ValueError("temporal stream has no checkpoints")
        return stream

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "CheckpointStream":
        return cls.from_dict(json.loads(Path(path).read_text()))


class CheckpointRecorder:
    """Records a :class:`CheckpointStream` off a live deployment.

    Lifecycle: construct around a deployed :class:`KneDeployment`,
    :meth:`arm` before the churn you care about (captures the base
    state and registers FIB listeners), let the kernel run (converge,
    apply a fault, re-converge...), then :meth:`finalize` — which
    unhooks the listeners, flushes any pending capture, and returns the
    stream. The recorder is single-shot.
    """

    def __init__(
        self,
        deployment: "KneDeployment",
        *,
        coalesce: float = DEFAULT_COALESCE,
        max_checkpoints: int = DEFAULT_MAX_CHECKPOINTS,
    ) -> None:
        self.deployment = deployment
        self.kernel = deployment.kernel
        self.coalesce = max(0.0, coalesce)
        # >= 2: the initial and final states always survive compaction.
        self.max_checkpoints = max(2, max_checkpoints)
        self.checkpoints: list[Checkpoint] = []
        #: Adjacent-checkpoint merges performed to respect the cap.
        self.compactions = 0
        self._armed = False
        self._finalized = False
        self._dataplane: Optional[Dataplane] = None
        self._dirty: set[str] = set()
        self._installs = 0
        self._pending = None  # the scheduled capture Event, if any
        self._handles: dict[str, object] = {}

    # -- lifecycle -----------------------------------------------------------

    def arm(self) -> None:
        if self._armed:
            raise RuntimeError("temporal recorder is already armed")
        if self._finalized:
            raise RuntimeError("temporal recorder is single-shot")
        self._armed = True
        snapshots = {
            name: AftSnapshot.from_router(router, now=self.kernel.now)
            for name, router in self.deployment.routers.items()
        }
        self._dataplane = Dataplane.from_afts(snapshots)
        self.checkpoints.append(
            Checkpoint(
                index=0,
                t=self.kernel.now,
                dataplane=self._dataplane,
                delta=None,
                snapshots=snapshots,
            )
        )
        for name, router in self.deployment.routers.items():
            handle = (
                lambda version, device=name: self._on_install(device, version)
            )
            router.on_fib_change(handle)
            self._handles[name] = handle

    def finalize(self) -> CheckpointStream:
        """Unhook, flush the trailing burst, and return the stream."""
        if not self._armed:
            raise RuntimeError("temporal recorder was never armed")
        if self._finalized:
            raise RuntimeError("temporal recorder is single-shot")
        self._finalized = True
        for name, handle in self._handles.items():
            router = self.deployment.routers.get(name)
            if router is not None:
                router.remove_fib_change(handle)
        self._handles.clear()
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._capture()
        collector = bus.ACTIVE
        if collector.enabled:
            collector.count(
                "temporal.checkpoints_recorded", len(self.checkpoints)
            )
        return CheckpointStream(checkpoints=list(self.checkpoints))

    # -- kernel-side machinery -----------------------------------------------

    def _on_install(self, device: str, version: int) -> None:
        del version
        self._dirty.add(device)
        self._installs += 1
        if self._pending is None:
            # A throttle, not a debounce: later installs do NOT push the
            # capture back, so sustained churn checkpoints every window.
            self._pending = self.kernel.schedule(
                self.coalesce,
                self._capture_pending,
                priority=_CAPTURE_PRIORITY,
                label="temporal-checkpoint",
            )

    def _capture_pending(self) -> None:
        self._pending = None
        self._capture()

    def _capture(self) -> None:
        if not self._dirty or self._dataplane is None:
            return
        dirty = sorted(self._dirty)
        self._dirty.clear()
        installs = self._installs
        self._installs = 0
        snapshots = {
            name: AftSnapshot.from_router(
                self.deployment.routers[name], now=self.kernel.now
            )
            for name in dirty
            if name in self.deployment.routers
        }
        evolved = Dataplane.evolve(self._dataplane, snapshots)
        delta = DataplaneDelta(self._dataplane, evolved)
        if delta.is_empty:
            # FIB version ticked but the forwarding content is
            # identical (e.g. a route replaced by an equal one); fold
            # the installs into the next real checkpoint instead.
            self._installs += installs
            return
        touched = delta.touched_devices or tuple(dirty)
        checkpoint = Checkpoint(
            index=len(self.checkpoints),
            t=self.kernel.now,
            dataplane=evolved,
            delta=delta,
            dirty_devices=touched,
            installs=installs,
            snapshots={
                name: snap
                for name, snap in snapshots.items()
                if name in touched
            },
        )
        self._dataplane = evolved
        self.checkpoints.append(checkpoint)
        collector = bus.ACTIVE
        if collector.enabled:
            collector.emit(
                "temporal.checkpoint",
                self.kernel.now,
                index=checkpoint.index,
                devices=len(checkpoint.dirty_devices),
                installs=installs,
            )
        self._enforce_cap()

    def _enforce_cap(self) -> None:
        while len(self.checkpoints) > self.max_checkpoints:
            # Merge the interior checkpoint whose removal loses the
            # least temporal resolution: j minimizing t[j+1] - t[j-1].
            best_j = min(
                range(1, len(self.checkpoints) - 1),
                key=lambda j: self.checkpoints[j + 1].t
                - self.checkpoints[j - 1].t,
            )
            removed = self.checkpoints.pop(best_j)
            successor = self.checkpoints[best_j]
            successor.delta = DataplaneDelta.compose(
                removed.delta, successor.delta
            )
            successor.dirty_devices = successor.delta.touched_devices
            successor.installs += removed.installs
            # Later dumps win; drop devices the merge reverted entirely.
            merged = {**removed.snapshots, **successor.snapshots}
            touched = set(successor.dirty_devices)
            successor.snapshots = {
                name: snap for name, snap in merged.items() if name in touched
            }
            for index, checkpoint in enumerate(self.checkpoints):
                checkpoint.index = index
            self.compactions += 1
