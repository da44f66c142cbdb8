"""repro.service — the continuous verification service.

A long-lived daemon over the one-shot pipeline: converged snapshots
stay resident in a content-addressed :class:`SnapshotStore`, query jobs
flow through a priority :class:`JobQueue` into a :class:`WorkerPool`
of threads (in process mode, each with a crash-isolated forked child),
identical in-flight requests coalesce onto one execution, and completed
answers serve from a bounded :class:`ResultCache`.
:class:`VerificationService` is the front door; ``mfv serve`` wraps it
in a JSON-lines loop.

The resilience plane makes the service survivable: a durable
:class:`JobJournal` write-ahead log with a content-addressed snapshot
manifest, ``VerificationService.recover()`` crash recovery with bounded
redelivery and structured :class:`DeadLetter` records, per-snapshot
circuit breakers (:class:`BreakerBoard`) answering fast while content
keeps failing, and graceful draining shutdown that never silently drops
accepted work.
"""

from repro.service.breakers import (
    BreakerBoard,
    BreakerOpenError,
    BreakerState,
    CircuitBreaker,
)
from repro.service.jobs import (
    Job,
    JobFailedError,
    JobLostError,
    JobPriority,
    JobQueue,
    JobResult,
    JobState,
    JobTimeoutError,
    OverloadedError,
    ResultCache,
)
from repro.service.resilience import (
    DeadLetter,
    JobJournal,
    QuestionSpec,
    RecoveryReport,
    replay_journal,
)
from repro.service.service import VerificationService
from repro.service.store import DeploymentLostError, SnapshotStore
from repro.service.workers import WorkerPool

__all__ = [
    "BreakerBoard",
    "BreakerOpenError",
    "BreakerState",
    "CircuitBreaker",
    "DeadLetter",
    "DeploymentLostError",
    "Job",
    "JobFailedError",
    "JobJournal",
    "JobLostError",
    "JobPriority",
    "JobQueue",
    "JobResult",
    "JobState",
    "JobTimeoutError",
    "OverloadedError",
    "QuestionSpec",
    "RecoveryReport",
    "ResultCache",
    "SnapshotStore",
    "VerificationService",
    "WorkerPool",
    "replay_journal",
]
