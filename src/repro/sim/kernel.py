"""Event loop and simulated clock."""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs import bus

# Queue depth is sampled (not recorded per event) so tracing a
# million-event production run stays affordable.
_QUEUE_DEPTH_SAMPLE_EVERY = 1024


class SimulationError(RuntimeError):
    """Raised when the kernel is driven incorrectly."""


class QuiescenceTimeout(SimulationError):
    """``run_until_quiet`` gave up before its poll predicate held.

    Raised both when simulated time passes ``max_time`` with activity
    still pending and when the event queue drains without the predicate
    ever holding — the latter used to be reported as success, which let
    deployments that never finished configuring look converged.
    """

    def __init__(self, message: str, *, at: float, drained: bool) -> None:
        super().__init__(message)
        #: Simulated time when the kernel gave up.
        self.at = at
        #: True when the queue drained (vs. running past ``max_time``).
        self.drained = drained


@dataclass
class Event:
    """A scheduled callback: the handle ``schedule`` returns.

    Events run in (time, priority, sequence) order: equal-time events
    run in priority order, then insertion order, which keeps runs
    deterministic for a fixed seed. The kernel's heap holds that key as
    a plain tuple in front of the event, so ordering never calls back
    into Python.
    """

    time: float
    priority: int
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        self.cancelled = True


class SimKernel:
    """A deterministic discrete-event scheduler.

    The kernel owns a seeded :class:`random.Random` used for message
    jitter; two kernels with the same seed replay the same ordering,
    while different seeds explore different interleavings (the paper's
    §6 nondeterminism discussion).
    """

    def __init__(self, seed: int = 0) -> None:
        # (time, priority, seq, event); seq is unique, so the event
        # itself is never compared.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._running = False
        self.rng = random.Random(seed)
        self.seed = seed
        self.events_processed = 0
        #: Simulated time at which the most recent ``run_until_quiet``
        #: call succeeded; None until the first quiescence. Later
        #: re-quiesces (chaos horizons, what-if reverts) overwrite it,
        #: which is exactly what "when did we *last* settle" should say.
        self.quiesced_at: Optional[float] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        time = self._now + delay
        seq = next(self._counter)
        event = Event(time, priority, seq, action, label)
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute simulated ``time``."""
        return self.schedule(time - self._now, action, priority=priority, label=label)

    def jitter(self, base: float, spread: float) -> float:
        """A delay of ``base`` plus uniform jitter in ``[0, spread)``."""
        return base + self.rng.random() * spread

    def pending(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    def step(self) -> Optional[Event]:
        """Run the next event; returns it, or None if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                continue
            self._now = event.time
            self.events_processed += 1
            collector = bus.ACTIVE
            if collector.enabled:
                collector.count("kernel.dispatch")
                if event.label:
                    collector.count(
                        "kernel.dispatch." + event.label.split(":", 1)[0]
                    )
                if self.events_processed % _QUEUE_DEPTH_SAMPLE_EVERY == 0:
                    collector.emit(
                        "kernel.queue_depth", self._now, depth=len(self._queue)
                    )
                    # Registry gauges ride the same sampling interval:
                    # per-event registry work on THE hot path would blow
                    # the instrumentation-overhead budget.
                    registry = bus.metrics_registry()
                    if registry.enabled:
                        registry.gauge(
                            "kernel.queue_depth",
                            "Live events in the kernel queue (sampled)",
                        ).set(len(self._queue))
                        registry.gauge(
                            "kernel.events_processed",
                            "Kernel events dispatched so far (sampled)",
                        ).set(self.events_processed)
            event.action()
            return event
        return None

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> float:
        """Run until the queue drains or simulated time passes ``until``.

        Returns the simulated time when the run stopped.
        """
        if self._running:
            raise SimulationError("kernel is not reentrant")
        self._running = True
        try:
            processed = 0
            while self._queue:
                head = self._queue[0][3]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and head.time > until:
                    self._now = until
                    break
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a protocol livelock"
                    )
                self.step()
                processed += 1
            else:
                if until is not None and until > self._now:
                    self._now = until
            return self._now
        finally:
            self._running = False

    def run_until_quiet(
        self,
        quiet_period: float,
        *,
        poll: Callable[[], bool] = lambda: True,
        max_time: float = 86_400.0,
        max_events: int = 10_000_000,
    ) -> float:
        """Run until ``poll`` has held for ``quiet_period`` simulated secs.

        This is how the emulation pipeline detects convergence: ``poll``
        checks "has the dataplane stopped changing", and the kernel keeps
        stepping until that predicate holds across a quiet window (or the
        event queue drains entirely).
        """
        quiet_since = self._now if poll() else None
        processed = 0
        while self._queue:
            if processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} before quiescence"
                )
            head = self._queue[0][3]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if quiet_since is not None and head.time - quiet_since >= quiet_period:
                self._now = quiet_since + quiet_period
                self._record_quiescence()
                return self._now
            if head.time > max_time:
                raise QuiescenceTimeout(
                    f"no quiescence before max_time={max_time}s",
                    at=self._now,
                    drained=False,
                )
            self.step()
            processed += 1
            if poll():
                if quiet_since is None:
                    quiet_since = self._now
            else:
                quiet_since = None
        if quiet_since is None:
            # The queue drained while the predicate still failed. This
            # was historically reported as success; callers that need a
            # real convergence signal (deploy, wait_converged) depend on
            # the distinction, so surface it as a structured timeout.
            raise QuiescenceTimeout(
                f"event queue drained at t={self._now:.1f}s without the "
                "quiescence predicate ever holding",
                at=self._now,
                drained=True,
            )
        self._now = max(self._now, quiet_since + quiet_period)
        self._record_quiescence()
        return self._now

    def _record_quiescence(self) -> None:
        self.quiesced_at = self._now
        collector = bus.ACTIVE
        if collector.enabled:
            collector.emit("kernel.quiesced", self._now)
