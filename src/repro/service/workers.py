"""The worker pool: threads draining the job queue.

Workers are threads: one verification job spends its time in the
atom-graph engine's table builds and graph passes, which the existing
process-pool precompute (``AtomGraphEngine.precompute``) already shards
when a single build is big enough to matter. What the service needs
from its pool is cheap shared access to the resident
:class:`~repro.service.store.SnapshotStore` — which a process pool
would have to re-pickle per job — plus strict priority ordering, which
one shared queue gives for free.

**Process mode** (``manifest_dir`` set) adds crash isolation without a
second scheduler: each worker thread owns one forked child. The thread
pops jobs as usual and hands a question job with a picklable
:class:`~repro.service.resilience.QuestionSpec` to its child over a
private pipe; the child adopts the snapshots by content fingerprint
from the journal manifest and registers them in its own store. While it
waits, the thread watches the reply, the child's ``is_alive()``, its
heartbeat (stamped every ``heartbeat_s / 2`` by a child thread, so a
busy child still beats) and the job's deadline:

* a dead child, or one silent for ``heartbeat_s × MAX_MISSED``, is
  SIGKILLed and respawned, and its job is redelivered with a bumped
  delivery count — or fails with :class:`JobLostError` once
  ``on_requeue`` says redelivery is exhausted;
* a deadline that passes kills the child: unlike a thread, a running
  process job is preemptable, and fails with :class:`JobTimeoutError`;
* jobs without a spec (callables, campaigns, ensembles) run on the
  thread itself, exactly as in thread mode;
* an idle thread respawns its child if it died between jobs.

Per-job resilience, in both modes:

* **timeout** — a job whose per-job deadline passed while it queued is
  failed with :class:`JobTimeoutError` instead of burning a worker, and
  the deadline is re-checked before every retry so backoff can never
  extend a job past it. A running thread execution is cooperative — it
  is never preempted mid-attempt;
* **retry with backoff** — executions raising
  :class:`~repro.service.store.DeploymentLostError` (the job's backing
  state left the store mid-flight) are retried up to ``max_retries``
  times with exponential backoff before the failure is surfaced.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
from typing import Callable, Optional

from repro.obs import bus
from repro.service.jobs import (
    Job,
    JobLostError,
    JobQueue,
    JobState,
    JobTimeoutError,
)
from repro.service.store import DeploymentLostError

logger = logging.getLogger(__name__)

#: Default worker count, for thread and process mode alike.
DEFAULT_WORKERS = 2

#: Process-mode heartbeat interval in seconds.
DEFAULT_HEARTBEAT_S = 5.0

#: Missed heartbeat intervals before a live-looking child is declared
#: hung and killed.
MAX_MISSED = 3


def _child_main(conn, beat, manifest_dir: str, heartbeat_s: float) -> None:
    """A process-mode child: answer specs from ``conn`` until told to stop."""
    from repro.service.resilience import load_manifest_snapshot
    from repro.service.store import SnapshotStore

    def heartbeat():
        while True:
            beat.value = time.monotonic()
            time.sleep(heartbeat_s / 2)

    threading.Thread(
        target=heartbeat, name="mfv-worker-heartbeat", daemon=True
    ).start()
    store = SnapshotStore()
    snapshots: dict = {}

    def adopt(fingerprint):
        if fingerprint not in snapshots:
            snapshots[fingerprint] = load_manifest_snapshot(
                manifest_dir, fingerprint
            )
        return snapshots[fingerprint]

    while True:
        try:
            spec = conn.recv()
        except EOFError:
            return
        if spec is None:
            return
        try:
            snap = adopt(spec.fingerprint)
            reference = (
                adopt(spec.reference_fingerprint)
                if spec.reference_fingerprint is not None
                else None
            )
            value = spec.answer(store, snap, reference)
            degraded = bool(getattr(snap, "degraded_nodes", None))
            conn.send(("done", value, degraded))
        except Exception as exc:  # report, don't die
            conn.send(("failed", f"{type(exc).__name__}: {exc}", False))


class _Child:
    """One forked worker process, its private pipe and its heartbeat."""

    def __init__(self, index: int, manifest_dir: str, heartbeat_s: float):
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self.conn, child_conn = ctx.Pipe()
        self.beat = ctx.RawValue("d", time.monotonic())
        self.job: Optional[Job] = None
        self.process = ctx.Process(
            target=_child_main,
            args=(child_conn, self.beat, manifest_dir, heartbeat_s),
            name=f"mfv-service-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def kill(self) -> None:
        self.process.kill()
        self.process.join(1.0)
        self.conn.close()

    def close(self) -> None:
        """Ask the child to exit; kill it if it does not."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.process.join(0.5)
        self.kill()


class WorkerPool:
    """Threads executing jobs from one :class:`JobQueue` — each with its
    own forked child in process mode."""

    def __init__(
        self,
        queue: JobQueue,
        *,
        workers: int = DEFAULT_WORKERS,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        manifest_dir=None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        on_start: Optional[Callable[[Job], None]] = None,
        on_done: Optional[Callable[[Job], None]] = None,
        on_retry: Optional[Callable[[Job, BaseException], None]] = None,
        on_requeue: Optional[Callable[[Job, str], bool]] = None,
        on_degraded: Optional[Callable[[Job], None]] = None,
    ) -> None:
        self.queue = queue
        self.workers = max(1, workers)
        self.max_retries = max(0, max_retries)
        self.retry_backoff = max(0.0, retry_backoff)
        self.manifest_dir = None if manifest_dir is None else str(manifest_dir)
        self.heartbeat_s = heartbeat_s
        self._on_start = on_start
        self._on_done = on_done
        self._on_retry = on_retry
        self._on_requeue = on_requeue
        self._on_degraded = on_degraded
        #: Drain accounting hook: called with the final counts dict when
        #: a draining stop completes (the service emits the
        #: ``service.drain`` obs event from it).
        self.on_drain: Optional[Callable[[dict], None]] = None
        #: Chaos hook (process mode): called (job, worker_index,
        #: dispatch_index) as a job is handed to a child.
        self.on_dispatch: Optional[Callable[[Job, int, int], None]] = None
        #: The metrics registry job scopes install as the thread's
        #: ambient plane (set by the owning service; None = default).
        self.registry = None
        self._threads: list[threading.Thread] = []
        self._children: list[_Child] = []
        self._stopping = threading.Event()
        self._draining = threading.Event()
        #: Set when a stop runs out of time: in-flight children are cut.
        self._cutoff = threading.Event()
        self._lock = threading.Lock()
        self.drained_count = 0
        self._cut_count = 0
        self.dispatches = 0
        self.respawns = 0
        self.redeliveries = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        self._stopping.clear()
        self._draining.clear()
        self._cutoff.clear()
        if self.manifest_dir is not None:
            self._children = [self._spawn(i) for i in range(self.workers)]
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop,
                args=(index,),
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
        rejected, not stranded. Either way, a process-mode job still
        running in a child when ``timeout`` passes is killed and
        rejected the same way.
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
            # Drain ran out of time: force the prompt-stop path, cut
            # in-flight children short, and give workers one more short
            # window to notice.
            self._draining.clear()
            self._stopping.set()
            self._cutoff.set()
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
        for child in self._children:
            child.close()
        self._children = []
        counts = {
            "settled": self.drained_count,
            "rejected": len(leftovers) + self._cut_count,
        }
        if drain and self.on_drain is not None:
            self.on_drain(counts)
        return counts

    @property
    def running(self) -> bool:
        return bool(self._threads)

    # -- execution ------------------------------------------------------------

    def _loop(self, index: int) -> None:
        while True:
            if self._stopping.is_set() and not self._draining.is_set():
                return
            job = self.queue.pop(timeout=0.2)
            if job is None:
                if self._stopping.is_set() or self.queue.closed:
                    return
                if self._children:
                    self._live_child(index)
                continue
            try:
                if self._run_one(job, index) and self._draining.is_set():
                    with self._lock:
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

    def _run_one(self, job: Job, index: int) -> bool:
        """Run ``job``; False when it went back to the queue instead of
        settling (its child died or hung)."""
        settled = True
        try:
            # Everything this thread records while the job runs —
            # events, spans, the engine-build histogram — carries the
            # job id (and priority class) for per-job correlation, and
            # lands on the owning service's metrics registry.
            with bus.job_scope(
                job.id, job.priority.name.lower(), registry=self.registry
            ):
                if self._children and job.spec is not None:
                    settled = self._run_in_child(job, index)
                else:
                    self._execute(job)
        finally:
            if settled and self._on_done is not None:
                self._on_done(job)
        return settled

    def _begin(self, job: Job) -> bool:
        """Mark ``job`` running; False (and the job failed) when its
        deadline passed while it queued."""
        job.mark_running()
        if self._expired(job):
            job.fail(
                JobTimeoutError(
                    f"job {job.id} ({job.label}) missed its "
                    f"{job.timeout}s deadline while queued"
                )
            )
            return False
        if self._on_start is not None:
            self._on_start(job)
        return True

    def _execute(self, job: Job) -> None:
        if not self._begin(job):
            return
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

    # -- process mode -----------------------------------------------------------

    def _spawn(self, index: int) -> _Child:
        # Forks stay serial: a child forked while another pipe's child
        # end is still open here would inherit it, and that pipe would
        # then never report EOF when its own child dies mid-reply.
        with self._lock:
            return _Child(index, self.manifest_dir, self.heartbeat_s)

    def _respawn(self, index: int) -> _Child:
        self._children[index].kill()
        child = self._children[index] = self._spawn(index)
        with self._lock:
            self.respawns += 1
        return child

    def _live_child(self, index: int) -> _Child:
        child = self._children[index]
        if not child.process.is_alive():
            logger.warning("worker %d died idle; respawning", index)
            child = self._respawn(index)
        return child

    def _run_in_child(self, job: Job, index: int) -> bool:
        if not self._begin(job):
            return True
        job.attempts += 1
        child = self._live_child(index)
        with self._lock:
            self.dispatches += 1
            dispatch_index = self.dispatches
        child.job = job
        try:
            if self.on_dispatch is not None:
                # Before the send, so a crash the hook injects always
                # lands on a job in flight, never on an answered one.
                try:
                    self.on_dispatch(job, index, dispatch_index)
                except Exception:  # pragma: no cover - chaos hook bug
                    logger.exception("on_dispatch hook failed")
            try:
                child.conn.send(job.spec)
            except OSError:
                pass  # the child is dead: judged below
            return self._await_child(job, index, child)
        finally:
            child.job = None

    def _await_child(self, job: Job, index: int, child: _Child) -> bool:
        poll = min(0.05, self.heartbeat_s / 4)
        while True:
            try:
                reply = child.conn.recv() if child.conn.poll(poll) else None
            except (EOFError, OSError):
                reply = None  # the child died mid-reply: judged below
            if reply is not None:
                kind, payload, degraded = reply
                if kind == "failed":
                    job.fail(RuntimeError(payload))
                    return True
                if degraded and self._on_degraded is not None:
                    self._on_degraded(job)
                job.finish(payload)
                return True
            if self._cutoff.is_set():
                # The stop timeout passed with this job still running:
                # settle it like a queued leftover.
                child.kill()
                job.reject(
                    {"error": "draining", "detail": "service shut down "
                     "before this job finished"}
                )
                with self._lock:
                    self._cut_count += 1
                return True
            if self._expired(job):
                # A child is preemptable: kill it rather than let a
                # runaway build hold the slot past the job's deadline.
                self._respawn(index)
                job.fail(
                    JobTimeoutError(
                        f"job {job.id} ({job.label}) exceeded its "
                        f"{job.timeout}s deadline in a process worker"
                    )
                )
                return True
            if not child.process.is_alive():
                reason = f"worker {index} crashed"
            elif time.monotonic() - child.beat.value > (
                self.heartbeat_s * MAX_MISSED
            ):
                reason = f"worker {index} missed {MAX_MISSED} heartbeats"
            else:
                continue
            logger.warning("%s; killing and respawning", reason)
            self._respawn(index)
            return not self._requeue(job, reason)

    def _requeue(self, job: Job, reason: str) -> bool:
        """Redeliver a dead child's job; False once redelivery is
        exhausted, which fails the job with :class:`JobLostError`."""
        with self._lock:
            self.redeliveries += 1
        if self._on_requeue is not None and not self._on_requeue(job, reason):
            job.fail(
                JobLostError(
                    f"job {job.id} ({job.label}) lost: {reason}; "
                    f"redelivery exhausted after "
                    f"{job.deliveries} deliveries",
                    detail={"reason": reason, "deliveries": job.deliveries},
                )
            )
            return False
        # Back to QUEUED and into the queue at its original priority;
        # force past the watermark — this work was already accepted.
        job.state = JobState.QUEUED
        job.started_at = None
        self.queue.submit(job, force=True)
        return True

    def kill_worker(self, index: int) -> bool:
        """SIGKILL one child (the chaos plane's crash lever); False in
        thread mode or when that child is already dead."""
        if index >= len(self._children):
            return False
        process = self._children[index].process
        if not process.is_alive():
            return False
        process.kill()
        return True

    def stats(self) -> dict:
        """Process-mode supervision state (``stats()["pool"]``)."""
        children = list(self._children)
        return {
            "mode": "process",
            "workers": self.workers,
            "alive": sum(1 for c in children if c.process.is_alive()),
            "busy": sum(1 for c in children if c.job is not None),
            "dispatches": self.dispatches,
            "respawns": self.respawns,
            "redeliveries": self.redeliveries,
            "heartbeat_s": self.heartbeat_s,
        }

    def __repr__(self) -> str:
        return (
            f"WorkerPool(workers={self.workers}, "
            f"running={self.running}, retries={self.max_retries})"
        )
