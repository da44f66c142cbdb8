"""Point-to-point message channels with latency and jitter.

A :class:`Channel` models one direction of a virtual wire between two
emulated router interfaces (KNE implements these as dedicated virtual
networks between pods). Messages arrive after ``latency`` plus seeded
jitter; jitter is what makes equal-cost race conditions (BGP tiebreaks,
RSVP reservation ordering) explorable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sim.kernel import Event, SimKernel


@dataclass
class Delivery:
    """A message in flight."""

    payload: Any
    send_time: float
    event: Event


class Channel:
    """One direction of a virtual wire.

    ``receiver`` is called as ``receiver(payload)`` when a message
    arrives. Links can be taken down mid-run (the paper's link-cut
    scenario contexts); messages in flight on a downed link are dropped,
    matching real wire behaviour.
    """

    def __init__(
        self,
        kernel: SimKernel,
        receiver: Callable[[Any], None],
        *,
        latency: float = 0.001,
        jitter: float = 0.002,
        name: str = "",
    ) -> None:
        self._kernel = kernel
        self._receiver = receiver
        self.latency = latency
        self.jitter = jitter
        self.name = name
        self._up = True
        self._in_flight: list[Delivery] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        # Fault injection (repro.chaos): probability a send is lost on
        # the wire. Zero keeps the fault-free RNG stream untouched —
        # the kernel rng is only consulted while a fault is active.
        self.drop_rate = 0.0
        self.messages_dropped = 0

    @property
    def is_up(self) -> bool:
        return self._up

    def send(self, payload: Any) -> Optional[Delivery]:
        """Enqueue ``payload`` for delivery; returns the delivery handle.

        Sends on a down channel are silently dropped (a wire does not
        raise exceptions), but the drop is counted. A lossy channel
        (``drop_rate`` > 0, set by the chaos injector) drops sends
        probabilistically from the kernel's seeded rng, so loss patterns
        replay exactly for a fixed seed.
        """
        self.messages_sent += 1
        if not self._up:
            return None
        if self.drop_rate > 0.0 and self._kernel.rng.random() < self.drop_rate:
            self.messages_dropped += 1
            return None
        delay = self._kernel.jitter(self.latency, self.jitter)
        delivery = Delivery(payload=payload, send_time=self._kernel.now, event=None)  # type: ignore[arg-type]
        delivery.event = self._kernel.schedule(
            delay,
            lambda: self._deliver(delivery),
            label=f"deliver:{self.name}",
        )
        self._in_flight.append(delivery)
        return delivery

    def _deliver(self, delivery: Delivery) -> None:
        if delivery in self._in_flight:
            self._in_flight.remove(delivery)
        if not self._up:
            return
        self.messages_delivered += 1
        self._receiver(delivery.payload)

    def set_down(self) -> None:
        """Cut the wire: drop everything in flight, refuse new sends."""
        self._up = False
        for delivery in self._in_flight:
            delivery.event.cancel()
        self._in_flight.clear()

    def set_up(self) -> None:
        self._up = True

    def __repr__(self) -> str:
        state = "up" if self._up else "down"
        return f"Channel({self.name!r}, {state})"
