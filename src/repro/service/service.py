"""`VerificationService` — the resident verification front end.

One long-lived object owning the four moving parts the tentpole names:
a content-addressed :class:`~repro.service.store.SnapshotStore`, a
priority :class:`~repro.service.jobs.JobQueue` drained by a thread
:class:`~repro.service.workers.WorkerPool`, a request-coalescing
registry over in-flight jobs, and a bounded
:class:`~repro.service.jobs.ResultCache` of completed answers.

The query surface is deliberately *not* new: questions execute through
an ordinary store-backed :class:`~repro.pybf.session.Session`, so every
question in the pybf library runs unchanged — the service only decides
*when* they run (priority, admission) and *how often* the underlying
analyses are rebuilt (ideally once per distinct forwarding state).

Time base: the service lives in wall-clock time (there is no simulated
kernel behind a query), so its obs events and spans are stamped with
seconds since the service's epoch. The ``service.*`` counters and
``service.job`` events feed the ``mfv obs timeline`` service section.
"""

from __future__ import annotations

import logging
import pickle
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from repro.core.snapshot import Snapshot
from repro.obs import bus
from repro.obs.metrics import MetricsRegistry
from repro.pybf.session import Session, SessionError
from repro.service.breakers import (
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    BreakerBoard,
    BreakerOpenError,
    BreakerState,
)
from repro.service.jobs import (
    DEFAULT_QUEUE_DEPTH,
    Job,
    JobPriority,
    JobQueue,
    JobState,
    ResultCache,
)
from repro.service.resilience import (
    DEFAULT_REDELIVERY_LIMIT,
    DeadLetter,
    JobJournal,
    QuestionSpec,
    RecoveryReport,
    load_manifest_snapshot,
    replay_journal,
)
from repro.service.store import DeploymentLostError, SnapshotStore
from repro.service.workers import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_WORKERS,
    WorkerPool,
)

logger = logging.getLogger(__name__)

#: Questions whose ``answer()`` accepts a reference snapshot.
_DIFFERENTIAL_QUESTIONS = frozenset({"differentialReachability", "routes"})

#: Operational counters exposed by ``stats()`` (flat names; the metric
#: series carry a ``service.`` prefix on the registry).
_COUNTER_NAMES = (
    "jobs_submitted",
    "jobs_completed",
    "jobs_failed",
    "jobs_rejected",
    "coalesced",
    "result_cache_hits",
    "retries",
    "degraded_answers",
)


class VerificationService:
    """Submit/await verification jobs against resident snapshots."""

    def __init__(
        self,
        *,
        store: Optional[SnapshotStore] = None,
        workers: int = DEFAULT_WORKERS,
        max_queue_depth: int = DEFAULT_QUEUE_DEPTH,
        journal_dir: Optional[Union[str, Path]] = None,
        worker_mode: str = "thread",
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        redelivery_limit: int = DEFAULT_REDELIVERY_LIMIT,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
    ) -> None:
        if worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', "
                f"got {worker_mode!r}"
            )
        if journal_dir is None and worker_mode == "process":
            # Process workers adopt snapshots from the journal's
            # content-addressed manifest; without a caller-provided
            # directory the service runs one in a scratch location.
            journal_dir = tempfile.mkdtemp(prefix="mfv-journal-")
        self.worker_mode = worker_mode
        self.redelivery_limit = max(0, redelivery_limit)
        self.journal: Optional[JobJournal] = (
            JobJournal(journal_dir) if journal_dir else None
        )
        self.breakers = BreakerBoard(
            breaker_threshold,
            breaker_cooldown_s,
            on_transition=self._breaker_transition,
        )
        self.dead_letters: list[DeadLetter] = []
        self.store = store if store is not None else SnapshotStore()
        self.session = Session(store=self.store)
        self.queue = JobQueue(max_depth=max_queue_depth)
        self.results = ResultCache()
        self.pool = WorkerPool(
            self.queue,
            workers=workers,
            manifest_dir=(
                self.journal.dir if worker_mode == "process" else None
            ),
            heartbeat_s=heartbeat_s,
            on_start=self._job_started,
            on_done=self._job_settled,
            on_retry=self._job_retried,
            on_requeue=self._job_redelivered,
            on_degraded=self._job_degraded,
        )
        self.pool.on_drain = self._drain_completed
        #: Chaos hook: called with the 1-based submission index on every
        #: job submission (the service fault plane triggers eviction
        #: storms from it).
        self.on_submit: Optional[Callable[[int], None]] = None
        self._submit_index = 0
        self._draining = False
        self._inflight: dict[tuple, Job] = {}
        self._lock = threading.Lock()
        self._epoch = time.monotonic()
        # The service's metrics plane. A traced service shares the
        # tracer's registry (so the trace exports service metrics); an
        # untraced one gets a *private* always-on registry — counters
        # are part of the stats() API and must be per-instance, never
        # shared process-wide state. Worker threads install it as the
        # ambient registry while a job runs (see WorkerPool), so engine
        # builds and store lookups inside jobs land here too.
        tracer_registry = getattr(bus.ACTIVE, "registry", None)
        self.metrics: MetricsRegistry = (
            tracer_registry
            if tracer_registry is not None
            else MetricsRegistry(enabled=True)
        )
        self.pool.registry = self.metrics
        self._preregister_metrics()

    # -- metrics ---------------------------------------------------------------

    def _preregister_metrics(self) -> None:
        """Create every service series up front so a scrape is complete
        (queue-wait and engine-build histograms per priority class)
        before the first job ever runs."""
        m = self.metrics
        for name in _COUNTER_NAMES:
            m.counter(
                f"service.{name}", f"Service {name.replace('_', ' ')}"
            ).labels()
        m.gauge("service.queue_depth", "Jobs waiting in the priority queue")
        m.gauge("service.inflight", "Executions admitted and not settled")
        m.gauge(
            "service.degraded_answer_fraction",
            "Completed answers served over degraded (partial) snapshots",
        )
        m.gauge(
            "service.result_cache_entries", "Completed answers held in cache"
        ).set(0)
        shed = m.counter(
            "service.shed", "Admission-control losses", ("reason",)
        )
        shed.labels(reason="displaced")
        shed.labels(reason="rejected")
        queue_hist = m.histogram(
            "service.job_queue_seconds",
            "Wall seconds a job waited between submit and first run",
            ("priority",),
        )
        run_hist = m.histogram(
            "service.job_run_seconds",
            "Wall seconds a job spent executing (retries included)",
            ("priority",),
        )
        build_hist = m.histogram(
            "verify.engine_build_seconds",
            "Wall seconds building one atom-graph engine",
            ("priority",),
        )
        for priority in JobPriority:
            name = priority.name.lower()
            queue_hist.labels(priority=name)
            run_hist.labels(priority=name)
            build_hist.labels(priority=name)
        # Engine builds outside any job scope (warm-up, campaigns run
        # inline) land in the "none" class.
        build_hist.labels(priority="none")
        # Delta-derivation series (emitted by repro.verify.engine when a
        # lineage base is available): preregistered so a scrape shows
        # zeroes rather than gaps before the first churn arrives.
        from repro.verify.engine import DIRTY_ATOM_BUCKETS

        m.counter(
            "verify.delta_applies",
            "Engines derived incrementally from a resident base",
        ).labels()
        m.counter(
            "verify.delta_dirty_atoms",
            "Total atoms re-evaluated across all delta applies",
        ).labels()
        m.counter(
            "verify.delta_fallbacks",
            "Delta derivations abandoned for a cold build",
        ).labels()
        reasons = m.counter(
            "verify.delta_fallback_reasons",
            "Delta derivations abandoned for a cold build, by reason",
            ("reason",),
        )
        for reason in (
            "device-set", "acl-change", "dirty-fraction", "base-mismatch"
        ):
            reasons.labels(reason=reason)
        m.histogram(
            "verify.dirty_atoms",
            "Atoms re-evaluated per delta apply",
            buckets=DIRTY_ATOM_BUCKETS,
        )
        m.histogram(
            "verify.delta_apply_seconds",
            "Wall seconds diffing and applying one dataplane delta",
        )
        # Resilience-plane series: journal/redelivery/breaker/recovery.
        for name, help_text in (
            ("redeliveries", "Jobs requeued after their worker died"),
            ("dead_letters", "Jobs abandoned after redelivery exhaustion"),
            ("breaker_fast_answers",
             "Submissions answered UNKNOWN_DEGRADED by an open breaker"),
            ("recovery_requeued", "Jobs requeued by journal recovery"),
            ("recovery_dead_lettered",
             "Jobs dead-lettered by journal recovery"),
            ("recovery_snapshots",
             "Snapshots re-registered from the journal manifest"),
        ):
            m.counter(f"service.{name}", help_text).labels()
        transitions = m.counter(
            "service.breaker_transitions",
            "Circuit-breaker state transitions, by destination state",
            ("state",),
        )
        for state in BreakerState:
            transitions.labels(state=state.value)
        drained = m.counter(
            "service.drained",
            "Jobs settled or rejected during a draining shutdown",
            ("outcome",),
        )
        drained.labels(outcome="settled")
        drained.labels(outcome="rejected")
        m.gauge(
            "service.worker_respawns",
            "Worker processes killed and respawned",
        ).set(0)
        m.histogram(
            "service.recovery_seconds",
            "Wall seconds replaying the journal in recover()",
        )

    def _count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(f"service.{name}").labels().inc(n)

    @property
    def counters(self) -> dict[str, int]:
        """The operational counters (registry-backed; flat names kept)."""
        values = self.metrics.counter_values()
        return {
            name: int(values.get(f"service.{name}", 0))
            for name in _COUNTER_NAMES
        }

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "VerificationService":
        with self._lock:
            self._draining = False
        self.pool.start()
        return self

    def stop(self, timeout: float = 5.0, drain: bool = True) -> dict:
        """Shut the service down; returns the drain counts.

        The default is a *graceful drain*: new submissions are rejected
        with a structured ``draining`` detail, queued jobs settle (or
        are rejected once ``timeout`` passes — never silently dropped),
        the drain is journaled, and a ``service.drain`` obs event
        carries the counts. ``drain=False`` stops promptly after the
        in-flight jobs.
        """
        with self._lock:
            self._draining = True
        counts = self.pool.stop(timeout, drain=drain)
        if self.journal is not None:
            self.journal.close()
        return counts

    def health(self) -> dict:
        """Liveness/readiness (the frontend's ``{"op": "health"}``).

        ``live`` — the process can answer at all; ``ready`` — the pool
        runs, the queue admits, and the service is not draining.
        """
        with self._lock:
            draining = self._draining
            dead_letters = len(self.dead_letters)
        ready = self.pool.running and not draining and not self.queue.closed
        health = {
            "live": True,
            "ready": bool(ready),
            "draining": draining,
            "worker_mode": self.worker_mode,
            "workers": self.pool.workers,
            "queue_depth": self.queue.depth,
            "breakers": self.breakers.stats(),
            "dead_letters": dead_letters,
        }
        if self.worker_mode == "process":
            pool_stats = self.pool.stats()
            health["workers_alive"] = pool_stats["alive"]
            health["worker_respawns"] = pool_stats["respawns"]
            if self.pool.running and not pool_stats["alive"]:
                health["ready"] = False
        if self.journal is not None:
            health["journal"] = self.journal.stats()
        return health

    def __enter__(self) -> "VerificationService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _now(self) -> float:
        return time.monotonic() - self._epoch

    # -- snapshot residence ----------------------------------------------------

    def register_snapshot(
        self,
        snapshot: Snapshot,
        name: Optional[str] = None,
        overwrite: bool = True,
    ) -> tuple[str, int]:
        """Make a snapshot queryable; returns (name, fingerprint).

        Unlike a bare session, re-registering under an existing name
        defaults to overwrite — a service replacing a snapshot with a
        newer converged state is the normal flow, not a mistake.
        """
        name = self.session.init_snapshot(
            snapshot, name=name, overwrite=overwrite
        )
        fingerprint = snapshot.dataplane.fib_fingerprint()
        if self.journal is not None:
            # Durable residence: the content-addressed pickle plus a
            # manifest record, so recovery (and process workers) can
            # adopt this content by fingerprint.
            self.journal.record_snapshot(name, snapshot)
        return name, fingerprint

    def load_snapshot(
        self, path: Union[str, Path], name: Optional[str] = None
    ) -> tuple[str, int]:
        return self.register_snapshot(Snapshot.load(path), name=name)

    def snapshots(self) -> list[str]:
        return self.session.list_snapshots()

    # -- crash recovery --------------------------------------------------------

    @classmethod
    def recover(
        cls, journal_dir: Union[str, Path], **kwargs
    ) -> tuple["VerificationService", "RecoveryReport"]:
        """Rebuild a service from a journal directory after a crash.

        Replays the write-ahead log: snapshots re-register from the
        content-addressed manifest, every job that was accepted but
        never settled is requeued under its idempotency key with a
        bumped delivery count (``force=True`` — durably accepted work
        is never shed by the watermark), and jobs past the redelivery
        limit are dead-lettered instead of crash-looping. Returns the
        recovered (not yet started) service and a
        :class:`~repro.service.resilience.RecoveryReport`.
        """
        started = time.monotonic()
        state = replay_journal(journal_dir)
        service = cls(journal_dir=journal_dir, **kwargs)
        assert service.journal is not None
        service.journal.adopt_deliveries(state.deliveries())
        service.journal.adopt_snapshots(state.snapshots.keys())
        report = RecoveryReport(
            journal_dir=str(journal_dir),
            records_replayed=state.records,
            torn_records=state.torn_records,
        )
        for fingerprint, name in state.snapshots.items():
            try:
                snapshot = load_manifest_snapshot(journal_dir, fingerprint)
            except (OSError, pickle.UnpicklingError) as exc:
                logger.warning(
                    "manifest snapshot %s (%#x) unrecoverable: %s",
                    name, fingerprint, exc,
                )
                continue
            service.register_snapshot(snapshot, name=name)
            report.snapshots_recovered += 1
        for pending in state.pending():
            # `redelivery_limit` bounds redeliveries; requeueing now
            # makes delivery `deliveries + 1`, which must stay within
            # limit + 1 total (first delivery + limit redeliveries).
            if pending.deliveries > service.redelivery_limit:
                service._dead_letter(
                    key=pending.key,
                    reason="redelivery exhausted during recovery",
                    deliveries=pending.deliveries,
                    question=pending.spec.question,
                    snapshot=pending.spec.snapshot,
                )
                report.jobs_dead_lettered += 1
                continue
            try:
                service._recover_submit(pending)
                report.jobs_requeued += 1
            except Exception as exc:
                service._dead_letter(
                    key=pending.key,
                    reason=f"replay failed: {exc}",
                    deliveries=pending.deliveries,
                    question=pending.spec.question,
                    snapshot=pending.spec.snapshot,
                )
                report.jobs_dead_lettered += 1
        report.wall_seconds = time.monotonic() - started
        m = service.metrics
        m.counter("service.recovery_requeued").labels().inc(
            report.jobs_requeued
        )
        m.counter("service.recovery_dead_lettered").labels().inc(
            report.jobs_dead_lettered
        )
        m.counter("service.recovery_snapshots").labels().inc(
            report.snapshots_recovered
        )
        m.histogram("service.recovery_seconds").observe(report.wall_seconds)
        collector = bus.ACTIVE
        if collector.enabled:
            collector.emit(
                "service.recovery", service._now(), **report.to_dict()
            )
        logger.info(
            "recovered %d snapshot(s), requeued %d job(s), "
            "dead-lettered %d in %.3fs from %s",
            report.snapshots_recovered, report.jobs_requeued,
            report.jobs_dead_lettered, report.wall_seconds, journal_dir,
        )
        return service, report

    def _recover_submit(self, pending) -> Job:
        """Requeue one replayed journal obligation under its spec."""
        spec = pending.spec
        label = spec.question
        signature = (
            spec.question,
            tuple(sorted(spec.params)),
            spec.fingerprint,
            spec.reference_fingerprint,
        )
        run = self._question_executor(spec, label, signature)
        try:
            priority = JobPriority.parse(pending.priority)
        except (KeyError, ValueError):
            priority = JobPriority.INTERACTIVE
        return self._submit_job(
            signature,
            run,
            priority=priority,
            timeout=pending.timeout,
            label=label,
            spec=spec,
            breaker_key=spec.fingerprint,
            force=True,
        )

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        question: str,
        params: Optional[dict] = None,
        *,
        snapshot: Optional[str] = None,
        reference_snapshot: Optional[str] = None,
        priority: Optional[Union[JobPriority, int, str]] = None,
        timeout: Optional[float] = None,
    ) -> Job:
        """Enqueue one pybf question; returns its (possibly shared) job.

        The job signature folds in the *fingerprints* of the named
        snapshots, so identical questions against identical forwarding
        content coalesce even across snapshot names. Coalescing onto an
        in-flight job promotes it to the best priority class asked of
        it; the shared execution keeps the first submitter's timeout.
        Differential questions default to the DIFFERENTIAL priority
        class, everything else to INTERACTIVE.
        """
        params = dict(params or {})
        if not hasattr(self.session.q, question):
            raise SessionError(f"unknown question: {question!r}")
        if (
            reference_snapshot is not None
            and question not in _DIFFERENTIAL_QUESTIONS
        ):
            raise SessionError(
                f"question {question!r} does not take a reference snapshot"
            )
        if priority is None:
            priority = (
                JobPriority.DIFFERENTIAL
                if question in _DIFFERENTIAL_QUESTIONS
                and reference_snapshot is not None
                else JobPriority.INTERACTIVE
            )
        # The fingerprints resolved here are the content the signature
        # keys on — the executor re-verifies them at run time so a
        # replaced name can never cache an answer under them.
        snapshot_fp = self._fingerprint_of(snapshot)
        reference_fp = (
            self._fingerprint_of(reference_snapshot)
            if reference_snapshot is not None
            else None
        )
        signature = (
            question,
            tuple(sorted(params.items())),
            snapshot_fp,
            reference_fp,
        )
        label = f"{question}"
        # The replayable identity: journaled on acceptance, executed
        # directly by process workers (which adopt the fingerprints from
        # the journal manifest instead of running the closure below).
        spec = QuestionSpec(
            question=question,
            params=signature[1],
            snapshot=snapshot,
            fingerprint=snapshot_fp,
            reference_snapshot=reference_snapshot,
            reference_fingerprint=reference_fp,
        )
        run = self._question_executor(spec, label, signature)
        return self._submit_job(
            signature,
            run,
            priority=JobPriority.parse(priority),
            timeout=timeout,
            label=label,
            spec=spec,
            breaker_key=snapshot_fp,
        )

    def submit_callable(
        self,
        run: Callable[[], Any],
        *,
        signature: tuple,
        priority: Union[JobPriority, int, str] = JobPriority.CAMPAIGN,
        timeout: Optional[float] = None,
        label: str = "",
        cacheable: bool = True,
        breaker_key: Any = None,
    ) -> Job:
        """Enqueue an arbitrary execution (batch work, tests).

        Coalescing and result caching key on the caller's ``signature``;
        pass ``cacheable=False`` for non-deterministic work. An optional
        ``breaker_key`` routes the execution's success/failure through
        the circuit-breaker board like a question job's snapshot
        fingerprint does.
        """
        return self._submit_job(
            signature,
            run,
            priority=JobPriority.parse(priority),
            timeout=timeout,
            label=label,
            cacheable=cacheable,
            breaker_key=breaker_key,
        )

    def submit_campaign(
        self,
        topology,
        scenarios: Sequence,
        *,
        context=None,
        timers=None,
        quiet_period: float = 30.0,
        seed: int = 0,
        priority: Union[JobPriority, int, str] = JobPriority.CAMPAIGN,
        timeout: Optional[float] = None,
    ) -> Job:
        """A what-if campaign as one batch job (CAMPAIGN priority).

        The campaign's baseline snapshot registers with the service's
        store, so interactive questions asked afterwards reuse its
        engine. Deterministic per (topology, plans, timers, seed), hence
        coalescable and cacheable like any question: the job is keyed
        on the frozen plans themselves, so two plans that share a name
        but not their faults never share a report.
        """
        from repro.protocols.timers import PRODUCTION_TIMERS
        from repro.whatif.campaign import WhatIfCampaign

        scenario_list = list(scenarios)
        if timers is None:
            timers = PRODUCTION_TIMERS
        signature = (
            "whatif",
            topology.name,
            tuple(scenario_list),
            context.name if context is not None else "",
            seed,
            quiet_period,
            timers,
        )

        def run():
            campaign = WhatIfCampaign(
                topology,
                scenario_list,
                context=context,
                timers=timers,
                quiet_period=quiet_period,
                seed=seed,
                store=self.store,
            )
            return campaign.run()

        return self._submit_job(
            signature,
            run,
            priority=JobPriority.parse(priority),
            timeout=timeout,
            label=f"whatif:{topology.name}",
        )

    def submit_ensemble(
        self,
        snapshots: Optional[Sequence[str]] = None,
        *,
        waypoint: Optional[str] = None,
        priority: Union[JobPriority, int, str] = JobPriority.CAMPAIGN,
        timeout: Optional[float] = None,
    ) -> Job:
        """Fold ensemble verdicts over resident snapshots.

        Treats the named snapshots (default: everything resident) as
        members of one ensemble — dedups them by forwarding
        fingerprint, pays one pinned engine per distinct outcome, and
        answers holds-always / holds-sometimes / never per invariant.
        ``waypoint`` ("DST_IP:VIA_NODE") appends a waypoint invariant
        to the standard battery; a malformed one raises ValueError
        before anything is queued. The job is keyed on the members'
        content fingerprints, so it coalesces and caches like any
        question and fails with ``DeploymentLostError`` if a member is
        replaced mid-flight.
        """
        from repro.ensemble import (
            RunRecord,
            default_ensemble_invariants,
            fold_records,
        )
        from repro.verify.invariants import parse_waypoint

        names = (
            tuple(snapshots) if snapshots is not None
            else tuple(self.snapshots())
        )
        if not names:
            raise ValueError("no snapshots to fold an ensemble over")
        invariants = default_ensemble_invariants()
        if waypoint:
            invariants.append(parse_waypoint(waypoint))
        fingerprints = tuple(self._fingerprint_of(name) for name in names)
        signature = ("ensemble", names, fingerprints, waypoint or "")

        def run():
            records = []
            for name, expected in zip(names, fingerprints):
                snap = self._resolve_pinned(name, expected)
                records.append(
                    RunRecord(
                        seed=snap.seed if snap.seed is not None else 0,
                        plan_name=name,
                        snapshot=snap,
                    )
                )
            return fold_records(
                records,
                invariants=invariants,
                engine_of=self.store.engine,
                topology_name=names[0],
                seeds=tuple(r.seed for r in records),
                plans=names,
            )

        return self._submit_job(
            signature,
            run,
            priority=JobPriority.parse(priority),
            timeout=timeout,
            label=f"ensemble:{len(names)}",
        )

    # -- waiting ----------------------------------------------------------------

    def result(self, job: Job, timeout: Optional[float] = None):
        """``job.result(timeout)``, for symmetry with submit()."""
        return job.result(timeout)

    def stats(self) -> dict:
        with self._lock:
            inflight = len(self._inflight)
        counters = self.counters
        completed = counters["jobs_completed"]
        stats = {
            "uptime_seconds": self._now(),
            "workers": self.pool.workers,
            "queue_depth": self.queue.depth,
            "queue_watermark": self.queue.max_depth,
            "inflight": inflight,
            "degraded_answer_fraction": (
                counters["degraded_answers"] / completed if completed else 0.0
            ),
            "snapshots": self.snapshots(),
            "store": self.store.stats(),
            "result_cache": self.results.stats(),
            "counters": counters,
            "worker_mode": self.worker_mode,
            "breakers": self.breakers.stats(),
            "dead_letter_count": len(self.dead_letters),
        }
        if self.journal is not None:
            stats["journal"] = self.journal.stats()
        if self.worker_mode == "process":
            pool_stats = self.pool.stats()
            stats["pool"] = pool_stats
            self.metrics.gauge("service.worker_respawns").set(
                pool_stats["respawns"]
            )
        return stats

    # -- internals ---------------------------------------------------------------

    def _fingerprint_of(self, name: Optional[str]) -> int:
        return self.session.get_snapshot(name).dataplane.fib_fingerprint()

    def _resolve_pinned(self, name: Optional[str], expected: int) -> Snapshot:
        """The snapshot ``name`` resolves to, iff it still carries the
        forwarding content the job was keyed on at submit time.

        Raises :class:`DeploymentLostError` when the name is gone
        (deleted mid-flight) *or* points at different content
        (replaced via ``register_snapshot(overwrite=True)``) — either
        way the retry/failure path engages instead of an answer for
        the new content being cached under the old content's
        signature.
        """
        try:
            snap = self.session.get_snapshot(name)
        except SessionError as exc:
            raise DeploymentLostError(str(exc)) from exc
        actual = snap.dataplane.fib_fingerprint()
        if actual != expected:
            raise DeploymentLostError(
                f"snapshot {name or '<current>'} was replaced mid-flight: "
                f"submitted against {expected:#x}, now {actual:#x}"
            )
        return snap

    def _question_executor(
        self, spec: QuestionSpec, label: str, signature: tuple
    ) -> Callable[[], Any]:
        def run():
            collector = bus.ACTIVE
            span = (
                collector.begin(
                    f"service:{label}", self._now(), category="service"
                )
                if collector.enabled
                else None
            )
            try:
                # Resolve by verified content and answer over the exact
                # resolved objects, so a rename between this check and
                # the answer cannot swap the content out from under the
                # signature.
                snap = self._resolve_pinned(spec.snapshot, spec.fingerprint)
                if getattr(snap, "degraded_nodes", None):
                    # Answering over a partial snapshot: the answer is
                    # still served (degraded pairs come back
                    # UNKNOWN_DEGRADED), but the service keeps score so
                    # operators can see how much of the load ran over
                    # degraded data — and the snapshot's breaker counts
                    # it as a strike.
                    self._count("degraded_answers")
                    holder = self._inflight.get(signature)
                    if holder is not None:
                        holder.degraded_answer = True
                reference = (
                    self._resolve_pinned(
                        spec.reference_snapshot, spec.reference_fingerprint
                    )
                    if spec.reference_fingerprint is not None
                    else None
                )
                return spec.answer(self.store, snap, reference)
            finally:
                if span is not None:
                    collector.end(span, self._now())

        return run

    def _submit_job(
        self,
        signature: tuple,
        run: Callable[[], Any],
        *,
        priority: JobPriority,
        timeout: Optional[float],
        label: str,
        cacheable: bool = True,
        spec: Optional[QuestionSpec] = None,
        breaker_key: Any = None,
        force: bool = False,
    ) -> Job:
        self._submit_index += 1
        if self.on_submit is not None:
            try:
                self.on_submit(self._submit_index)
            except Exception:  # pragma: no cover - chaos hook bug
                logger.exception("on_submit hook failed")
        with self._lock:
            if self._draining:
                job = Job(
                    signature, run, priority=priority, timeout=timeout,
                    label=label,
                )
                job.reject(
                    {"error": "draining",
                     "detail": "service is shutting down"}
                )
                self._count("jobs_rejected")
                self._emit_job_event(job)
                return job
            cached = self.results.get(signature) if cacheable else None
            if cached is not None:
                self._count("result_cache_hits")
                job = Job(
                    signature, run, priority=priority, timeout=timeout,
                    label=label,
                )
                job.attempts = cached.attempts
                job.coalesced = cached.coalesced
                job.cached = True
                job.finish(cached.value)
                self._emit_job_event(job)
                return job
            inflight = self._inflight.get(signature)
            if inflight is not None and not inflight.done:
                inflight.coalesced += 1
                self._count("coalesced")
                # The shared execution adopts the best class asked of
                # it: an interactive caller attaching to a queued
                # campaign job must not wait at campaign rank. (The
                # timeout stays the first submitter's — the execution
                # is shared, so there is only one deadline.)
                self.queue.promote(inflight, priority)
                return inflight
            # Breaker gate — checked only for genuinely new executions
            # (a cache hit or coalesce costs no worker, so it needs no
            # gate and must not consume the one half-open probe).
            if breaker_key is not None and not self.breakers.allow(
                breaker_key
            ):
                job = Job(
                    signature, run, priority=priority, timeout=timeout,
                    label=label,
                )
                job.breaker_key = breaker_key
                job.fail(BreakerOpenError(self.breakers.detail_for(
                    breaker_key
                )))
                self.metrics.counter(
                    "service.breaker_fast_answers"
                ).labels().inc()
                self._emit_job_event(job)
                return job
            job = Job(
                signature, run, priority=priority, timeout=timeout,
                label=label,
            )
            job.cacheable = cacheable
            job.spec = spec
            job.breaker_key = breaker_key
            if spec is not None and self.journal is not None:
                # Write-ahead: the submit record is written before the
                # job can run, and is durable at the journal's next
                # fsync. Up to ``fsync_batch`` - 1 journal records (7 at
                # the default 8) stay buffered between fsyncs — the
                # bounded durability window — so a crash can lose a job
                # accepted inside it. A crash before this line never
                # accepted the job.
                key, deliveries = self.journal.record_submit(
                    spec,
                    priority=priority.name.lower(),
                    timeout=timeout,
                )
                job.journal_key = key
                job.deliveries = deliveries
            accepted, shed = self.queue.submit(job, force=force)
            if shed is not None:
                self._inflight.pop(shed.signature, None)
                self._count("jobs_rejected")
                self.metrics.counter("service.shed").inc(reason="displaced")
                if shed.journal_key and self.journal is not None:
                    self.journal.record_settle(shed.journal_key, "rejected")
                self.breakers.release(shed.breaker_key)
                self._emit_job_event(shed)
            if not accepted:
                self._count("jobs_rejected")
                self.metrics.counter("service.shed").inc(reason="rejected")
                if job.journal_key and self.journal is not None:
                    self.journal.record_settle(job.journal_key, "rejected")
                self.breakers.release(breaker_key)
                self._emit_job_event(job)
                return job
            self._inflight[signature] = job
            self._count("jobs_submitted")
            self._emit_job_event(job)  # state=queued: the waterfall's start
        self.metrics.gauge("service.queue_depth").set(self.queue.depth)
        if not self.pool.running:
            logger.warning(
                "job %s submitted to a stopped service; call start()", job.id
            )
        return job

    def _job_retried(self, job: Job, exc: BaseException) -> None:
        del exc
        self._count("retries")
        self.metrics.counter(
            "service.job_retries",
            "Retries after a lost deployment, by priority class",
            ("priority",),
        ).inc(priority=job.priority.name.lower())
        if job.journal_key and self.journal is not None:
            self.journal.record_retry(job.journal_key, job.attempts)

    def _job_started(self, job: Job) -> None:
        """Worker-pool start hook: the waterfall's queued->running edge."""
        if job.journal_key and self.journal is not None:
            self.journal.record_start(job.journal_key)
        self._emit_job_event(job)

    def _job_degraded(self, job: Job) -> None:
        """Process-pool hook: the answer ran over a partial snapshot."""
        self._count("degraded_answers")
        job.degraded_answer = True

    def _job_redelivered(self, job: Job, reason: str) -> bool:
        """Pool hook: a dead/hung worker's in-flight job wants back into
        the queue. Returns False once redelivery is exhausted — the pool
        then settles the job with ``JobLostError`` and the service
        dead-letters the journaled obligation."""
        if job.journal_key and self.journal is not None:
            job.deliveries = self.journal.record_redelivery(job.journal_key)
        else:
            job.deliveries += 1
        self.metrics.counter("service.redeliveries").labels().inc()
        # `redelivery_limit` bounds *redeliveries*, so total deliveries
        # may reach limit + 1 (the first delivery is not a redelivery).
        if job.deliveries > self.redelivery_limit + 1:
            self._dead_letter(
                key=job.journal_key or f"job-{job.id}",
                reason=reason,
                deliveries=job.deliveries,
                question=(job.spec.question if job.spec is not None
                          else job.label),
                snapshot=(job.spec.snapshot if job.spec is not None
                          else None),
            )
            return False
        logger.warning(
            "redelivering job %s (%s): %s [delivery %d/%d]",
            job.id, job.label, reason, job.deliveries,
            self.redelivery_limit + 1,
        )
        return True

    def _dead_letter(
        self,
        *,
        key: str,
        reason: str,
        deliveries: int,
        question: str = "",
        snapshot: Optional[str] = None,
    ) -> DeadLetter:
        letter = DeadLetter(
            key=key, reason=reason, deliveries=deliveries,
            question=question, snapshot=snapshot,
        )
        with self._lock:
            self.dead_letters.append(letter)
        if self.journal is not None:
            self.journal.record_dead_letter(key, reason, deliveries)
        self.metrics.counter("service.dead_letters").labels().inc()
        logger.error(
            "dead-lettered job %s (%s) after %d deliveries: %s",
            key, question, deliveries, reason,
        )
        collector = bus.ACTIVE
        if collector.enabled:
            payload = letter.to_dict()
            payload.pop("t", None)
            collector.emit("service.dead_letter", self._now(), **payload)
        return letter

    def _breaker_transition(self, key, before, after, failures) -> None:
        self.metrics.counter(
            "service.breaker_transitions", labelnames=("state",)
        ).inc(state=after.value)
        key_text = f"{key:#x}" if isinstance(key, int) else str(key)
        logger.warning(
            "breaker %s: %s -> %s (%d consecutive failures)",
            key_text, before.value, after.value, failures,
        )
        collector = bus.ACTIVE
        if collector.enabled:
            collector.emit(
                "service.breaker",
                self._now(),
                key=key_text,
                before=before.value,
                state=after.value,
                failures=failures,
            )

    def _drain_completed(self, counts: dict) -> None:
        """Pool drain hook: journal the drain, emit the obs event."""
        if self.journal is not None:
            try:
                self.journal.record_drain(counts)
            except ValueError:  # journal already closed
                pass
        drained = self.metrics.counter(
            "service.drained", labelnames=("outcome",)
        )
        for outcome in ("settled", "rejected"):
            if counts.get(outcome):
                drained.labels(outcome=outcome).inc(counts[outcome])
        collector = bus.ACTIVE
        if collector.enabled:
            collector.emit("service.drain", self._now(), **counts)

    def _job_settled(self, job: Job) -> None:
        """Worker-pool completion hook: cache, uncoalesce, instrument."""
        with self._lock:
            if self._inflight.get(job.signature) is job:
                del self._inflight[job.signature]
            inflight = len(self._inflight)
            if job.state is JobState.DONE:
                self._count("jobs_completed")
                if getattr(job, "cacheable", True):
                    self.results.put(
                        job.signature,
                        job.result(timeout=0),
                    )
            elif job.state is JobState.FAILED:
                self._count("jobs_failed")
        if job.journal_key and self.journal is not None:
            try:
                self.journal.record_settle(job.journal_key, job.state.value)
            except ValueError:  # journal closed by a racing shutdown
                pass
        if job.breaker_key is not None:
            # Breaker feedback: a completed answer over healthy content
            # heals the breaker; a failure or a degraded answer is a
            # strike. Jobs that never ran (rejected/shed/drained) only
            # give back any half-open probe they may hold.
            if job.state is JobState.DONE:
                self.breakers.record(
                    job.breaker_key, ok=not job.degraded_answer
                )
            elif job.state is JobState.FAILED and not isinstance(
                job.error, BreakerOpenError
            ):
                self.breakers.record(job.breaker_key, ok=False)
            else:
                self.breakers.release(job.breaker_key)
        m = self.metrics
        priority = job.priority.name.lower()
        m.histogram("service.job_queue_seconds", labelnames=("priority",)).observe(
            job.queue_seconds, priority=priority
        )
        if job.state in (JobState.DONE, JobState.FAILED):
            m.histogram(
                "service.job_run_seconds", labelnames=("priority",)
            ).observe(job.run_seconds, priority=priority)
        m.gauge("service.inflight").set(inflight)
        m.gauge("service.result_cache_entries").set(len(self.results))
        completed = m.counter("service.jobs_completed").value
        if completed:
            m.gauge("service.degraded_answer_fraction").set(
                m.counter("service.degraded_answers").value / completed
            )
        self._emit_job_event(job)

    def _emit_job_event(self, job: Job) -> None:
        collector = bus.ACTIVE
        if not collector.enabled:
            return
        collector.emit(
            "service.job",
            self._now(),
            job=job.id,
            label=job.label,
            priority=job.priority.name.lower(),
            state=job.state.value,
            queue_seconds=round(job.queue_seconds, 6),
            run_seconds=round(job.run_seconds, 6),
            attempts=job.attempts,
            coalesced=job.coalesced,
        )
