"""Jobs, the priority queue, and the bounded result cache.

A :class:`Job` is one unit of verification work: a question against
resident snapshots (or a batch callable, e.g. a what-if campaign) with
a *signature* — the content key that makes two requests "the same
work". Signatures fold in the snapshot fingerprints, so two different
session names over identical forwarding state still coalesce.

The :class:`JobQueue` orders strictly by priority class (interactive
query > differential > campaign) and FIFO within a class. It never
grows without bound: past the ``max_depth`` watermark an arriving job
either sheds the newest lowest-priority queued job (when it outranks
one) or is itself rejected — in both cases the loser carries a
structured ``overloaded`` rejection (:class:`OverloadedError`), never a
silent drop or an unbounded backlog.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Any, Callable, Optional

#: Default admission-control watermark of a :class:`JobQueue`.
DEFAULT_QUEUE_DEPTH = 64


class JobPriority(IntEnum):
    """Priority classes, best first. Lower value wins the queue."""

    INTERACTIVE = 0
    DIFFERENTIAL = 1
    CAMPAIGN = 2

    @classmethod
    def parse(cls, value) -> "JobPriority":
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls(value)
        return cls[str(value).upper()]


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"


class OverloadedError(RuntimeError):
    """Structured admission-control rejection (never silent shedding)."""

    def __init__(self, detail: dict) -> None:
        self.detail = dict(detail)
        super().__init__(
            "service overloaded: queue depth "
            f"{detail.get('queue_depth')} at watermark "
            f"{detail.get('watermark')}"
        )


class JobFailedError(RuntimeError):
    """The job's execution raised; the original error is ``__cause__``."""


class JobTimeoutError(JobFailedError):
    """The job exceeded its per-job timeout before completing."""


class JobLostError(JobFailedError):
    """The worker executing the job died and redelivery is exhausted.

    Raised out of ``Job.result()`` instead of blocking forever: the
    pool declared the executing worker dead (crash or missed
    heartbeats), requeued the job up to the redelivery limit, and the
    job still never settled. ``detail`` carries the structured story
    (deliveries, the reason the worker was declared dead).
    """

    def __init__(self, message: str, detail: Optional[dict] = None) -> None:
        super().__init__(message)
        self.detail = dict(detail or {})


@dataclass
class JobResult:
    """What ``Job.result()`` hands back alongside the answer value."""

    value: Any
    queue_seconds: float
    run_seconds: float
    attempts: int
    coalesced: int
    cached: bool = False


class Job:
    """One execution that any number of identical submissions share."""

    _ids = iter(range(1, 1 << 62))
    _ids_lock = threading.Lock()

    def __init__(
        self,
        signature: tuple,
        run: Callable[[], Any],
        *,
        priority: JobPriority = JobPriority.INTERACTIVE,
        timeout: Optional[float] = None,
        label: str = "",
    ) -> None:
        with Job._ids_lock:
            self.id = next(Job._ids)
        self.signature = signature
        self.run = run
        self.priority = priority
        self.timeout = timeout
        self.label = label or (str(signature[0]) if signature else "")
        self.state = JobState.QUEUED
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.attempts = 0
        # How many submissions ride this execution (1 = just the first).
        self.coalesced = 1
        self.error: Optional[BaseException] = None
        self.rejection: Optional[dict] = None
        self.value: Any = None
        # True when this job was settled from the result cache.
        self.cached = False
        # -- resilience-plane fields (set by the owning service) --------
        #: Picklable execution spec for process workers (question jobs
        #: only; None means the job can only run in-process via `run`).
        self.spec: Any = None
        #: Idempotency key in the durable journal (None: not journaled).
        self.journal_key: Optional[str] = None
        #: How many times this work has been delivered to a worker
        #: (1 = first delivery; each redelivery increments).
        self.deliveries = 1
        #: Circuit-breaker key (snapshot fingerprint for question jobs).
        self.breaker_key: Any = None
        #: True when the answer was computed over a degraded (partial)
        #: snapshot — the breaker counts it as a strike.
        self.degraded_answer = False
        self._done = threading.Event()

    # -- lifecycle (worker side) ----------------------------------------------

    def mark_running(self) -> None:
        self.state = JobState.RUNNING
        self.started_at = time.monotonic()

    def finish(self, value: Any) -> None:
        self.value = value
        self.state = JobState.DONE
        self.finished_at = time.monotonic()
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.state = JobState.FAILED
        self.finished_at = time.monotonic()
        self._done.set()

    def reject(self, detail: dict) -> None:
        self.rejection = dict(detail)
        self.state = JobState.REJECTED
        self.finished_at = time.monotonic()
        self._done.set()

    # -- consumption (caller side) --------------------------------------------

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def queue_seconds(self) -> float:
        start = self.started_at or self.finished_at or time.monotonic()
        return max(0.0, start - self.submitted_at)

    @property
    def run_seconds(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def result(self, timeout: Optional[float] = None) -> JobResult:
        """Block until the shared execution settles.

        Raises :class:`OverloadedError` for admission-control
        rejections, :class:`JobFailedError` (chaining the original
        exception) for execution failures, and :class:`TimeoutError`
        when the *wait* outlasts ``timeout`` (the job keeps running).
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.id} ({self.label}) still {self.state.value} "
                f"after {timeout}s"
            )
        if self.state is JobState.REJECTED:
            raise OverloadedError(self.rejection or {})
        if self.state is JobState.FAILED:
            if isinstance(self.error, JobFailedError):
                raise self.error
            raise JobFailedError(
                f"job {self.id} ({self.label}) failed"
            ) from self.error
        return JobResult(
            value=self.value,
            queue_seconds=self.queue_seconds,
            run_seconds=self.run_seconds,
            attempts=self.attempts,
            coalesced=self.coalesced,
            cached=self.cached,
        )

    def describe(self) -> dict:
        """The JSON-lines front end's view of this job."""
        return {
            "job": self.id,
            "label": self.label,
            "priority": self.priority.name.lower(),
            "state": self.state.value,
            "attempts": self.attempts,
            "coalesced": self.coalesced,
        }

    def __repr__(self) -> str:
        return (
            f"Job(id={self.id}, label={self.label!r}, "
            f"priority={self.priority.name}, state={self.state.value})"
        )


class JobQueue:
    """Priority classes with FIFO inside each, bounded by a watermark."""

    def __init__(self, max_depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        self.max_depth = max(1, max_depth)
        # Heap entries are (priority, seq, job): seq gives FIFO within a
        # class and makes the *newest* lowest-priority entry the shed
        # victim (shed from the tail, serve the head).
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._closed = False

    # -- producer side --------------------------------------------------------

    def submit(self, job: Job, force: bool = False) -> tuple[bool, Optional[Job]]:
        """Enqueue ``job``; returns ``(accepted, shed_job)``.

        At the watermark, an arriving job that outranks the newest
        lowest-priority queued job displaces it (the victim is marked
        rejected and returned); otherwise the arrival itself is marked
        rejected and ``(False, None)`` is returned. Either way the
        loser's waiters see a structured :class:`OverloadedError`.

        ``force`` bypasses the watermark entirely — journal recovery
        requeues accepted work, and shedding a job the service already
        promised durability for would turn a crash into data loss.
        """
        with self._lock:
            shed: Optional[Job] = None
            if not force and len(self._heap) >= self.max_depth:
                victim = max(self._heap, key=lambda e: (e[0], e[1]))
                detail = {
                    "error": "overloaded",
                    "queue_depth": len(self._heap),
                    "watermark": self.max_depth,
                }
                if job.priority < victim[2].priority:
                    self._heap.remove(victim)
                    heapq.heapify(self._heap)
                    shed = victim[2]
                    shed.reject(dict(detail, shed_by=job.id))
                else:
                    job.reject(detail)
                    return False, None
            self._seq += 1
            heapq.heappush(self._heap, (int(job.priority), self._seq, job))
            self._available.notify()
            return True, shed

    def promote(self, job: Job, priority: JobPriority) -> bool:
        """Raise a queued job to a better priority class in place.

        Used when a higher-priority submission coalesces onto ``job``:
        the shared execution adopts the best class asked of it rather
        than stranding the new caller at the old rank. A job already
        claimed by a worker (or settled) is left untouched; returns
        True iff the queue entry was re-keyed.
        """
        with self._lock:
            if priority >= job.priority:
                return False
            for index, (_, seq, queued) in enumerate(self._heap):
                if queued is job:
                    job.priority = priority
                    self._heap[index] = (int(priority), seq, job)
                    heapq.heapify(self._heap)
                    return True
            return False

    # -- consumer side --------------------------------------------------------

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """The best queued job, blocking up to ``timeout``.

        Returns None on timeout or when the queue is closed and
        drained. Entries rejected while queued (shed victims) are
        skipped here, not lazily by workers.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._available:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    if job.state is JobState.QUEUED:
                        return job
                if self._closed:
                    return None
                if deadline is None:
                    self._available.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._available.wait(remaining):
                        return None

    def close(self) -> None:
        """Stop accepting blocking waits; drained pops return None."""
        with self._available:
            self._closed = True
            self._available.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def drain_remaining(self) -> list[Job]:
        """Remove and return every still-queued job (drain leftovers).

        Used when a draining shutdown runs out of time: the caller
        settles each leftover with a structured rejection (or leaves it
        journaled for recovery) instead of letting waiters block on work
        no worker will ever pop.
        """
        with self._lock:
            leftovers = [
                j for _, _, j in self._heap if j.state is JobState.QUEUED
            ]
            self._heap.clear()
            return leftovers

    @property
    def depth(self) -> int:
        with self._lock:
            return sum(
                1 for _, _, j in self._heap if j.state is JobState.QUEUED
            )


class ResultCache:
    """Bounded LRU of completed results, keyed by job signature.

    Verification answers are pure functions of (forwarding content,
    question parameters) — exactly the signature — so serving a repeat
    from here is sound, not merely fast.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(1, capacity)
        self._results: "OrderedDict[tuple, JobResult]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, signature: tuple) -> Optional[JobResult]:
        with self._lock:
            result = self._results.get(signature)
            if result is None:
                self.misses += 1
                return None
            self._results.move_to_end(signature)
            self.hits += 1
            return JobResult(
                value=result.value,
                queue_seconds=0.0,
                run_seconds=result.run_seconds,
                attempts=result.attempts,
                coalesced=result.coalesced,
                cached=True,
            )

    def put(self, signature: tuple, result: JobResult) -> None:
        with self._lock:
            self._results[signature] = result
            self._results.move_to_end(signature)
            while len(self._results) > self.capacity:
                self._results.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._results),
                "hits": self.hits,
                "misses": self.misses,
            }
