"""The stream lift's vocabulary: violation intervals and their names.

The invariants themselves live in :mod:`repro.verify.invariants`; the
temporal evaluator evaluates each at every checkpoint of a
:class:`~repro.temporal.checkpoints.CheckpointStream` and turns its
findings into half-open intervals ``[t_start, t_end)`` — the violation
held from the checkpoint at ``t_start`` and was first observed clear at
``t_end``. An interval that clears before the final checkpoint is
*transient*: it is precisely the class of defect a post-convergence
snapshot verification can never see. An interval still open at the
final checkpoint is persistent and would also be caught by ``mfv
verify``; it is reported here too, flagged ``transient=False``, so the
temporal report subsumes the snapshot one.

An invariant's ``max_sim_s`` is a tolerance: transient intervals
lasting no longer than that many simulated seconds are expected
convergence noise and suppressed. Persistent intervals are never
suppressed — they last forever.

:class:`MaxChurn` lives here because a route-install rate only means
something over a stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addr import format_ipv4
from repro.verify.invariants import Blackhole, Invariant, Loop, Waypoint

NO_TRANSIENT_LOOP = "no-transient-loop"
BLACKHOLE_WINDOW = "blackhole-window"
MAX_CHURN = "max-churn"
WAYPOINT_ALWAYS = "waypoint-always"


@dataclass(frozen=True)
class ViolationInterval:
    """One violation's lifetime, with its witness atom.

    ``ingress``/``destination`` witness the violating flow (empty for
    network-wide invariants like churn). ``transient`` is True when the
    violation cleared before the stream's final checkpoint.
    """

    invariant: str
    t_start: float
    t_end: float
    ingress: str = ""
    destination: str = ""
    detail: str = ""
    transient: bool = True

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
            "ingress": self.ingress,
            "destination": self.destination,
            "detail": self.detail,
            "transient": self.transient,
        }

    def __str__(self) -> str:
        witness = ""
        if self.ingress or self.destination:
            witness = f" {self.ingress}->{self.destination}"
        tail = f" ({self.detail})" if self.detail else ""
        kind = "transient" if self.transient else "persistent"
        return (
            f"[{self.t_start:10.1f}, {self.t_end:10.1f})s "
            f"{self.invariant:<17}{witness} {kind}{tail}"
        )


class MaxChurn(Invariant):
    """Route-install rate across the network stays <= ``installs_per_s``.

    Rate is measured per checkpoint window: installs coalesced into the
    checkpoint divided by sim-time elapsed since the previous one.
    """

    def __init__(self, installs_per_s: float) -> None:
        self.installs_per_s = installs_per_s

    def findings(self, probe):
        rate = probe.install_rate()
        if rate is not None and rate > self.installs_per_s:
            yield "rate", (
                f"{rate:.1f} installs/s > limit {self.installs_per_s:.1f}"
            )


_NAMES = {
    Loop: NO_TRANSIENT_LOOP,
    Blackhole: BLACKHOLE_WINDOW,
    Waypoint: WAYPOINT_ALWAYS,
    MaxChurn: MAX_CHURN,
}


def stream_name(invariant: Invariant) -> str:
    """The name an invariant's violation intervals carry."""
    name = _NAMES.get(type(invariant))
    if name is None:
        raise ValueError(f"{type(invariant).__name__} has no stream lift")
    return name


def default_invariants() -> list[Invariant]:
    """The `mfv temporal` defaults: loops and blackholes, zero
    tolerance — every positive-width transient window is reported."""
    return [Loop(), Blackhole()]


def describe_key(key) -> tuple[str, str]:
    """(ingress, destination-text) for an invariant finding key."""
    if isinstance(key, tuple) and len(key) == 2:
        ingress, address = key
        return str(ingress), format_ipv4(address)
    return "", ""
