"""Supervised OS-process workers: crash isolation for verification jobs.

The thread :class:`~repro.service.workers.WorkerPool` amortizes engine
builds through shared memory, but it shares a fate with every job it
runs — one segfault, OOM kill, or wedged native loop takes the whole
service down, and a caller blocked in ``Job.result()`` waits forever.
:class:`SupervisedProcessPool` is the resilience-plane alternative
(and the stepping stone to the ROADMAP's multi-process scale-out):

* each worker is an **OS process** that adopts snapshots *by content
  fingerprint* from the journal's pickled manifest, builds its own
  pinned engines, and answers question jobs from a picklable
  :class:`~repro.service.resilience.QuestionSpec`;
* a worker **heartbeats** from a background thread every
  ``heartbeat_s / 2`` seconds, so a busy worker still beats while a
  crashed, killed, or truly hung one goes silent;
* the parent-side **supervisor thread** dispatches one job per worker
  at a time (exact in-flight accounting — a dead worker's job is
  *known*, not inferred), detects death (``process.is_alive()``) and
  hangs (``max_missed`` heartbeat intervals), kills and respawns the
  worker, and requeues the in-flight job with a bumped delivery count —
  dead-lettering into :class:`~repro.service.jobs.JobLostError` once
  redelivery is exhausted;
* jobs with a per-job timeout are **preemptable**: unlike the
  cooperative thread pool, a process worker that blows its deadline is
  killed and the job fails with a structured
  :class:`~repro.service.jobs.JobTimeoutError`.

Jobs without a picklable spec (batch callables, campaigns, ensembles)
fall back to one parent-side executor thread, so the service API is
identical in both pool modes.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue as queue_mod
import signal
import threading
import time
from typing import Callable, Optional

from repro.service.jobs import (
    Job,
    JobLostError,
    JobQueue,
    JobState,
    JobTimeoutError,
)
from repro.service.workers import DEFAULT_WORKERS

logger = logging.getLogger(__name__)

#: Heartbeat interval in seconds.
DEFAULT_HEARTBEAT_S = 5.0

#: Missed heartbeat intervals before a live-looking process is declared
#: hung and killed.
DEFAULT_MAX_MISSED = 3


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


# -- worker side (runs in the child process) ---------------------------------


def _worker_execute(spec, manifest_dir, store, snapshots):
    """Answer one QuestionSpec inside a worker process.

    Snapshots are adopted by fingerprint from the content-addressed
    manifest (cached per process), engines pin in the worker's own
    store — the ROADMAP's "a fingerprint can be adopted by any worker"
    made concrete.
    """
    from repro.pybf.session import Session
    from repro.service.resilience import load_manifest_snapshot

    def adopt(fingerprint):
        snap = snapshots.get(fingerprint)
        if snap is None:
            snap = load_manifest_snapshot(manifest_dir, fingerprint)
            snapshots[fingerprint] = snap
        return snap

    snap = adopt(spec.fingerprint)
    runner = Session(store=store)
    kwargs = {"snapshot": "__job__"}
    if spec.reference_fingerprint is not None:
        ref = adopt(spec.reference_fingerprint)
        runner.init_snapshot(ref, name="__reference__")
        kwargs["reference_snapshot"] = "__reference__"
        runner.init_snapshot(
            snap, name="__job__", parent=spec.reference_fingerprint
        )
    else:
        runner.init_snapshot(snap, name="__job__")
    factory = getattr(runner.q, spec.question)
    value = factory(**dict(spec.params)).answer(**kwargs)
    degraded = bool(getattr(snap, "degraded_nodes", None))
    return value, degraded


def _worker_main(worker_id, task_q, result_q, manifest_dir, heartbeat_s):
    """The worker process entry point: heartbeat + task loop."""
    from repro.service.store import SnapshotStore

    stop_beating = threading.Event()

    def beat():
        while not stop_beating.wait(max(0.01, heartbeat_s / 2)):
            try:
                result_q.put(("heartbeat", worker_id, time.time()))
            except Exception:  # queue torn down mid-shutdown
                return

    threading.Thread(
        target=beat, name=f"mfv-worker-{worker_id}-heartbeat", daemon=True
    ).start()
    result_q.put(("ready", worker_id, os.getpid()))
    store = SnapshotStore()
    snapshots: dict = {}
    while True:
        task = task_q.get()
        if task is None:
            stop_beating.set()
            result_q.put(("bye", worker_id, os.getpid()))
            return
        job_id, spec = task
        try:
            value, degraded = _worker_execute(
                spec, manifest_dir, store, snapshots
            )
            result_q.put(("done", worker_id, job_id, value, degraded))
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            result_q.put(
                ("failed", worker_id, job_id, type(exc).__name__, str(exc))
            )


# -- parent side -------------------------------------------------------------


class _Worker:
    """Parent-side bookkeeping for one supervised process."""

    __slots__ = ("index", "process", "task_q", "last_heartbeat",
                 "job", "dispatched_at", "generation")

    def __init__(self, index: int, process, task_q, generation: int) -> None:
        self.index = index
        self.process = process
        self.task_q = task_q
        self.last_heartbeat = time.monotonic()
        self.job: Optional[Job] = None
        self.dispatched_at: Optional[float] = None
        self.generation = generation

    @property
    def idle(self) -> bool:
        return self.job is None


class SupervisedProcessPool:
    """Heartbeat-monitored process workers draining one :class:`JobQueue`.

    API-compatible with the thread :class:`WorkerPool` where the service
    touches it (``start`` / ``stop`` / ``running`` / callbacks), plus
    the supervision surface: ``kill_worker`` (chaos), ``on_dispatch``
    (chaos hook), ``on_requeue`` (redelivery accounting, owned by the
    service), ``respawns`` / ``redeliveries`` counters.
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        manifest_dir,
        workers: int = DEFAULT_WORKERS,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        max_missed: int = DEFAULT_MAX_MISSED,
        on_start: Optional[Callable[[Job], None]] = None,
        on_done: Optional[Callable[[Job], None]] = None,
        on_requeue: Optional[Callable[[Job, str], bool]] = None,
        on_degraded: Optional[Callable[[Job], None]] = None,
    ) -> None:
        self.queue = queue
        self.manifest_dir = str(manifest_dir)
        self.workers = max(1, workers)
        self.heartbeat_s = heartbeat_s
        self.max_missed = max(1, max_missed)
        self._on_start = on_start
        self._on_done = on_done
        self._on_requeue = on_requeue
        self._on_degraded = on_degraded
        #: Chaos hook: called (job, worker_index, dispatch_index) right
        #: after a job is handed to a worker.
        self.on_dispatch: Optional[Callable[[Job, int, int], None]] = None
        #: Drain accounting hook (set by the service, mirrors WorkerPool).
        self.on_drain: Optional[Callable[[dict], None]] = None
        self.registry = None  # parity with WorkerPool; parent-side only
        self._ctx = _mp_context()
        self._result_q = None
        self._pool: dict[int, _Worker] = {}
        self._inline_jobs: list[Job] = []
        self._supervisor: Optional[threading.Thread] = None
        self._inline_thread: Optional[threading.Thread] = None
        self._inline_queue: "queue_mod.Queue[Optional[Job]]" = (
            queue_mod.Queue()
        )
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._lock = threading.Lock()
        self._generation = 0
        self.dispatches = 0
        self.respawns = 0
        self.redeliveries = 0
        self.drained_count = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._supervisor is not None:
            return
        self._stopping.clear()
        self._draining.clear()
        self._result_q = self._ctx.Queue()
        for index in range(self.workers):
            self._spawn(index)
        self._supervisor = threading.Thread(
            target=self._supervise, name="mfv-supervisor", daemon=True
        )
        self._supervisor.start()
        self._inline_thread = threading.Thread(
            target=self._inline_loop, name="mfv-inline-worker", daemon=True
        )
        self._inline_thread.start()

    def _spawn(self, index: int) -> "_Worker":
        self._generation += 1
        task_q = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                index,
                task_q,
                self._result_q,
                self.manifest_dir,
                self.heartbeat_s,
            ),
            name=f"mfv-service-worker-{index}",
            daemon=True,
        )
        process.start()
        worker = _Worker(index, process, task_q, self._generation)
        self._pool[index] = worker
        return worker

    def stop(self, timeout: float = 5.0, drain: bool = True) -> dict:
        """Stop the pool; returns drain counts.

        ``drain=True`` (the default) keeps dispatching until the queue
        is empty or ``timeout`` passes; leftovers are rejected with a
        structured ``draining`` detail so no waiter blocks forever.
        """
        if self._supervisor is None:
            return {"settled": 0, "rejected": 0}
        deadline = time.monotonic() + max(0.0, timeout)
        if drain:
            self._draining.set()
            self.queue.close()
            while time.monotonic() < deadline:
                with self._lock:
                    busy = any(not w.idle for w in self._pool.values())
                if not busy and self.queue.depth == 0:
                    break
                time.sleep(0.02)
        self._stopping.set()
        self.queue.close()
        leftovers = self.queue.drain_remaining()
        for job in leftovers:
            job.reject(
                {"error": "draining", "detail": "service shut down before "
                 "this job could run"}
            )
            if self._on_done is not None:
                self._on_done(job)
        supervisor = self._supervisor
        supervisor.join(max(0.1, deadline - time.monotonic()))
        self._inline_queue.put(None)
        if self._inline_thread is not None:
            self._inline_thread.join(1.0)
        for worker in list(self._pool.values()):
            try:
                worker.task_q.put(None)
            except Exception:
                pass
        for worker in list(self._pool.values()):
            worker.process.join(0.5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(0.5)
        self._pool.clear()
        self._supervisor = None
        self._inline_thread = None
        counts = {
            "settled": self.drained_count,
            "rejected": len(leftovers),
        }
        if drain and self.on_drain is not None:
            self.on_drain(counts)
        return counts

    @property
    def running(self) -> bool:
        return self._supervisor is not None

    # -- chaos surface ---------------------------------------------------------

    def kill_worker(self, index: int) -> bool:
        """SIGKILL one worker process (the chaos plane's crash lever)."""
        worker = self._pool.get(index)
        if worker is None or not worker.process.is_alive():
            return False
        try:
            os.kill(worker.process.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):
            return False
        return True

    # -- supervision loop ------------------------------------------------------

    def _supervise(self) -> None:
        poll = min(0.05, self.heartbeat_s / 4)
        while True:
            stopping = self._stopping.is_set()
            self._collect(poll)
            self._dispatch()
            self._check_liveness()
            self._check_timeouts()
            if stopping:
                with self._lock:
                    busy = any(not w.idle for w in self._pool.values())
                if not busy:
                    return

    @staticmethod
    def _expired(job: Job) -> bool:
        return (
            job.timeout is not None
            and time.monotonic() - job.submitted_at > job.timeout
        )

    def _dispatch(self) -> None:
        while True:
            with self._lock:
                worker = next(
                    (w for w in self._pool.values()
                     if w.idle and w.process.is_alive()),
                    None,
                )
            if worker is None:
                return
            job = self.queue.pop(timeout=0)
            if job is None:
                return
            if self._expired(job):
                job.mark_running()
                job.attempts = max(1, job.attempts)
                job.fail(
                    JobTimeoutError(
                        f"job {job.id} ({job.label}) missed its "
                        f"{job.timeout}s deadline while queued"
                    )
                )
                self._settle(job)
                continue
            if job.spec is None:
                # No picklable identity: run parent-side, supervised
                # only by the ordinary thread machinery.
                job.mark_running()
                job.attempts += 1
                if self._on_start is not None:
                    self._on_start(job)
                self._inline_queue.put(job)
                continue
            job.mark_running()
            job.attempts += 1
            if self._on_start is not None:
                self._on_start(job)
            with self._lock:
                worker.job = job
                worker.dispatched_at = time.monotonic()
                self.dispatches += 1
                dispatch_index = self.dispatches
            worker.task_q.put((job.id, job.spec))
            if self.on_dispatch is not None:
                try:
                    self.on_dispatch(job, worker.index, dispatch_index)
                except Exception:  # pragma: no cover - chaos hook bug
                    logger.exception("on_dispatch hook failed")

    def _collect(self, poll: float) -> None:
        try:
            message = self._result_q.get(timeout=poll)
        except (queue_mod.Empty, OSError, EOFError):
            return
        while True:
            kind = message[0]
            if kind == "heartbeat":
                _, worker_id, _t = message
                worker = self._pool.get(worker_id)
                if worker is not None:
                    worker.last_heartbeat = time.monotonic()
            elif kind in ("ready", "bye"):
                worker = self._pool.get(message[1])
                if worker is not None:
                    worker.last_heartbeat = time.monotonic()
            elif kind == "done":
                _, worker_id, job_id, value, degraded = message
                job = self._take_job(worker_id, job_id)
                if job is not None:
                    if degraded and self._on_degraded is not None:
                        self._on_degraded(job)
                    job.finish(value)
                    self._settle(job)
            elif kind == "failed":
                _, worker_id, job_id, etype, msg = message
                job = self._take_job(worker_id, job_id)
                if job is not None:
                    job.fail(RuntimeError(f"{etype}: {msg}"))
                    self._settle(job)
            try:
                message = self._result_q.get_nowait()
            except (queue_mod.Empty, OSError, EOFError):
                return

    def _take_job(self, worker_id: int, job_id: int) -> Optional[Job]:
        with self._lock:
            worker = self._pool.get(worker_id)
            if worker is None or worker.job is None:
                return None
            if worker.job.id != job_id:
                return None
            job = worker.job
            worker.job = None
            worker.dispatched_at = None
            worker.last_heartbeat = time.monotonic()
            return job

    def _check_liveness(self) -> None:
        now = time.monotonic()
        hung_after = self.heartbeat_s * self.max_missed
        for index, worker in list(self._pool.items()):
            dead = not worker.process.is_alive()
            hung = (
                not dead
                and now - worker.last_heartbeat > hung_after
            )
            if not dead and not hung:
                continue
            reason = (
                f"worker {index} "
                + ("crashed" if dead else
                   f"missed {self.max_missed} heartbeats")
            )
            logger.warning("%s; killing and respawning", reason)
            self._replace_worker(worker, reason)

    def _check_timeouts(self) -> None:
        now = time.monotonic()
        for worker in list(self._pool.values()):
            job = worker.job
            if job is None or job.timeout is None:
                continue
            if now - job.submitted_at <= job.timeout:
                continue
            # A process worker is preemptable: kill it rather than let
            # a runaway build hold the slot past the job's deadline.
            self._replace_worker(
                worker,
                f"job {job.id} deadline exceeded",
                fail_with=JobTimeoutError(
                    f"job {job.id} ({job.label}) exceeded its "
                    f"{job.timeout}s deadline in a process worker"
                ),
            )

    def _replace_worker(
        self,
        worker: "_Worker",
        reason: str,
        fail_with: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            current = self._pool.get(worker.index)
            if current is not worker:
                return  # already replaced
            job = worker.job
            worker.job = None
        if worker.process.is_alive():
            try:
                os.kill(worker.process.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
        worker.process.join(1.0)
        try:
            worker.task_q.close()
        except Exception:
            pass
        with self._lock:
            self._spawn(worker.index)
            self.respawns += 1
        if job is None:
            return
        if fail_with is not None:
            job.fail(fail_with)
            self._settle(job)
            return
        self._requeue(job, reason)

    def _requeue(self, job: Job, reason: str) -> None:
        """Redeliver a dead worker's in-flight job (bounded)."""
        allowed = True
        if self._on_requeue is not None:
            allowed = self._on_requeue(job, reason)
        self.redeliveries += 1
        if not allowed:
            job.fail(
                JobLostError(
                    f"job {job.id} ({job.label}) lost: {reason}; "
                    f"redelivery exhausted after "
                    f"{job.deliveries} deliveries",
                    detail={
                        "reason": reason,
                        "deliveries": job.deliveries,
                    },
                )
            )
            self._settle(job)
            return
        # Back to QUEUED and into the queue at its original priority;
        # force past the watermark — this work was already accepted.
        job.state = JobState.QUEUED
        job.started_at = None
        self.queue.submit(job, force=True)

    def _settle(self, job: Job) -> None:
        if self._draining.is_set() or self._stopping.is_set():
            self.drained_count += 1
        if self._on_done is not None:
            try:
                self._on_done(job)
            except Exception:  # pragma: no cover - callback bug
                logger.exception("on_done callback failed for job %s", job.id)

    # -- parent-side fallback executor ----------------------------------------

    def _inline_loop(self) -> None:
        while True:
            job = self._inline_queue.get()
            if job is None:
                return
            try:
                job.finish(job.run())
            except Exception as exc:
                job.fail(exc)
            except BaseException as exc:
                job.fail(exc)
                self._settle(job)
                raise
            self._settle(job)

    def stats(self) -> dict:
        with self._lock:
            alive = sum(
                1 for w in self._pool.values() if w.process.is_alive()
            )
            busy = sum(1 for w in self._pool.values() if not w.idle)
        return {
            "mode": "process",
            "workers": self.workers,
            "alive": alive,
            "busy": busy,
            "dispatches": self.dispatches,
            "respawns": self.respawns,
            "redeliveries": self.redeliveries,
            "heartbeat_s": self.heartbeat_s,
        }

    def __repr__(self) -> str:
        return (
            f"SupervisedProcessPool(workers={self.workers}, "
            f"running={self.running}, respawns={self.respawns})"
        )
