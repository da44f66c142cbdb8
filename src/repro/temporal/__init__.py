"""repro.temporal — transient-state verification.

Check invariants *during* convergence, not just after: record a
checkpoint stream of per-device FIB deltas off the live kernel, replay
it through one warm (delta-capable) engine, and report violations as
``[t_start, t_end)`` intervals with witness atoms. The invariants are
the shared ones of :mod:`repro.verify.invariants` (``Loop``,
``Blackhole``, ``Waypoint``) plus the stream-only :class:`MaxChurn`;
this package is their stream lift. See ``docs/architecture.md`` §
Transient-state verification.
"""

from repro.temporal.checkpoints import (
    Checkpoint,
    CheckpointRecorder,
    CheckpointStream,
)
from repro.temporal.evaluator import TemporalReport, evaluate_stream
from repro.temporal.invariants import (
    MaxChurn,
    ViolationInterval,
    default_invariants,
)

__all__ = [
    "Checkpoint",
    "CheckpointRecorder",
    "CheckpointStream",
    "MaxChurn",
    "TemporalReport",
    "ViolationInterval",
    "default_invariants",
    "evaluate_stream",
]
