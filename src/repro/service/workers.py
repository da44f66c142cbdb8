"""The worker pool: threads draining the job queue.

Workers are *threads*, not processes: one verification job spends its
time in the atom-graph engine's table builds and graph passes, which
the existing process-pool precompute (``AtomGraphEngine.precompute``)
already shards when a single build is big enough to matter. What the
service needs from its pool is cheap shared access to the resident
:class:`~repro.service.store.SnapshotStore` — which a process pool
would have to re-pickle per job — plus strict priority ordering, which
one shared queue gives for free.

Per-job resilience lives here:

* **timeout** — a job whose per-job deadline passed while it queued is
  failed with :class:`JobTimeoutError` instead of burning a worker, and
  the deadline is re-checked before every retry so backoff can never
  extend a job past it. A single *running* execution is cooperative —
  it is never preempted mid-attempt;
* **retry with backoff** — executions raising
  :class:`~repro.service.store.DeploymentLostError` (the job's backing
  state left the store mid-flight) are retried up to ``max_retries``
  times with exponential backoff before the failure is surfaced.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Optional

from repro.obs import bus
from repro.service.jobs import Job, JobQueue, JobTimeoutError
from repro.service.store import DeploymentLostError

logger = logging.getLogger(__name__)

#: Default worker count, for thread and process pools alike.
DEFAULT_WORKERS = 2


class WorkerPool:
    """Threads executing jobs from one :class:`JobQueue`."""

    def __init__(
        self,
        queue: JobQueue,
        *,
        workers: int = DEFAULT_WORKERS,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        on_start: Optional[Callable[[Job], None]] = None,
        on_done: Optional[Callable[[Job], None]] = None,
        on_retry: Optional[Callable[[Job, BaseException], None]] = None,
    ) -> None:
        self.queue = queue
        self.workers = max(1, workers)
        self.max_retries = max(0, max_retries)
        self.retry_backoff = max(0.0, retry_backoff)
        self._on_start = on_start
        self._on_done = on_done
        self._on_retry = on_retry
        #: Drain accounting hook: called with the final counts dict when
        #: a draining stop completes (the service emits the
        #: ``service.drain`` obs event from it).
        self.on_drain: Optional[Callable[[dict], None]] = None
        #: The metrics registry job scopes install as the thread's
        #: ambient plane (set by the owning service; None = default).
        self.registry = None
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self.drained_count = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        self._stopping.clear()
        self._draining.clear()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop,
                name=f"mfv-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 5.0, drain: bool = True) -> dict:
        """Stop the pool; returns the drain counts.

        ``drain=True`` (the default) finishes every queued job before
        the workers exit, bounded by ``timeout``; whatever is still
        queued past the deadline is rejected with a structured
        ``draining`` detail — never silently dropped with its waiters
        left blocking. ``drain=False`` restores the old prompt stop
        (workers exit after their current job), but leftovers are still
        rejected, not stranded.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        if drain:
            self._draining.set()
        else:
            self._stopping.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(max(0.05, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in self._threads):
            # Drain ran out of time: force the prompt-stop path and give
            # workers one more short window to notice.
            self._draining.clear()
            self._stopping.set()
            for thread in self._threads:
                thread.join(0.5)
        self._threads = [t for t in self._threads if t.is_alive()]
        leftovers = self.queue.drain_remaining()
        for job in leftovers:
            job.reject(
                {"error": "draining", "detail": "service shut down before "
                 "this job could run"}
            )
            if self._on_done is not None:
                self._on_done(job)
        counts = {"settled": self.drained_count, "rejected": len(leftovers)}
        if drain and self.on_drain is not None:
            self.on_drain(counts)
        return counts

    @property
    def running(self) -> bool:
        return bool(self._threads)

    # -- execution ------------------------------------------------------------

    def _loop(self) -> None:
        while True:
            if self._stopping.is_set() and not self._draining.is_set():
                return
            job = self.queue.pop(timeout=0.2)
            if job is None:
                if self._stopping.is_set() or self.queue.closed:
                    return
                continue
            try:
                self._run_one(job)
                if self._draining.is_set():
                    self.drained_count += 1
            except Exception:  # pragma: no cover - last-resort guard
                logger.exception("worker crashed running job %s", job.id)
                if not job.done:
                    job.fail(RuntimeError("worker crashed"))

    def _expired(self, job: Job) -> bool:
        return (
            job.timeout is not None
            and time.monotonic() - job.submitted_at > job.timeout
        )

    def _run_one(self, job: Job) -> None:
        try:
            # Everything this thread records while the job runs —
            # events, spans, the engine-build histogram — carries the
            # job id (and priority class) for per-job correlation, and
            # lands on the owning service's metrics registry.
            with bus.job_scope(
                job.id, job.priority.name.lower(), registry=self.registry
            ):
                self._execute(job)
        finally:
            if self._on_done is not None:
                self._on_done(job)

    def _execute(self, job: Job) -> None:
        if self._expired(job):
            job.mark_running()
            job.fail(
                JobTimeoutError(
                    f"job {job.id} ({job.label}) missed its "
                    f"{job.timeout}s deadline while queued"
                )
            )
            return
        job.mark_running()
        if self._on_start is not None:
            self._on_start(job)
        attempt = 0
        while True:
            job.attempts = attempt + 1
            try:
                job.finish(job.run())
                return
            except DeploymentLostError as exc:
                if self._expired(job):
                    # The deadline bounds the whole job, retries
                    # included — never back off past it.
                    job.fail(
                        JobTimeoutError(
                            f"job {job.id} ({job.label}) missed its "
                            f"{job.timeout}s deadline after "
                            f"{job.attempts} attempt(s)"
                        )
                    )
                    return
                if attempt >= self.max_retries or self._stopping.is_set():
                    job.fail(exc)
                    return
                if self._on_retry is not None:
                    self._on_retry(job, exc)
                delay = self.retry_backoff * (2**attempt)
                registry = bus.metrics_registry()
                if registry.enabled:
                    registry.histogram(
                        "service.retry_backoff_seconds",
                        "Wall seconds slept before re-running a job",
                    ).observe(delay)
                logger.info(
                    "job %s lost its deployment (%s); retry %d/%d in %.3fs",
                    job.id, exc, attempt + 1, self.max_retries, delay,
                )
                if delay:
                    time.sleep(delay)
                attempt += 1
            except Exception as exc:
                job.fail(exc)
                return
            except BaseException as exc:
                # KeyboardInterrupt/SystemExit: settle waiters so
                # nobody blocks forever, then let the interrupt
                # propagate and terminate the worker loop.
                job.fail(exc)
                raise

    def __repr__(self) -> str:
        return (
            f"WorkerPool(workers={self.workers}, "
            f"running={self.running}, retries={self.max_retries})"
        )
