"""Verification-service tests: store, queue, coalescing, admission.

The blocking pattern used throughout: a one-worker pool occupied by a
job that waits on a ``threading.Event``, so everything submitted behind
it stays queued in a known order until the test releases the gate.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.obs import tracing
from repro.pybf.session import Session, SessionError
from repro.service import (
    DeploymentLostError,
    Job,
    JobFailedError,
    JobPriority,
    JobQueue,
    JobResult,
    JobState,
    JobTimeoutError,
    OverloadedError,
    ResultCache,
    SnapshotStore,
    VerificationService,
)
from repro.service.frontend import ServiceFrontend, serve_loop
from repro.service.jobs import DEFAULT_QUEUE_DEPTH
from repro.service.store import DEFAULT_CAPACITY
from repro.service.workers import DEFAULT_WORKERS, WorkerPool
from repro.verify.engine import clear_engine_cache, engine_for


def _job(n, priority=JobPriority.INTERACTIVE, run=None, **kwargs):
    return Job(
        ("test", n), run or (lambda: n), priority=priority, **kwargs
    )


class _Gate:
    """A controllable job body: started fires on entry, release lets it
    return. Lets tests hold a worker mid-job deterministically."""

    def __init__(self, value="gated"):
        self.started = threading.Event()
        self.release = threading.Event()
        self.value = value

    def __call__(self):
        self.started.set()
        assert self.release.wait(10), "test forgot to release the gate"
        return self.value


@pytest.fixture()
def service(request, tmp_path):
    """A started one-worker service; thread mode unless a test
    parametrizes it indirectly with ``"process"``."""
    mode = getattr(request, "param", "thread")
    svc = VerificationService(
        workers=1,
        max_queue_depth=4,
        worker_mode=mode,
        journal_dir=tmp_path if mode == "process" else None,
    )
    svc.start()
    yield svc
    svc.stop()


class TestSnapshotStore:
    def test_register_is_content_addressed(self, fig3_emulated, fig3_model):
        store = SnapshotStore(capacity=4)
        fp1 = store.register(fig3_emulated[1])
        fp2 = store.register(fig3_emulated[1])  # same content: a hit
        fp3 = store.register(fig3_model[1])
        assert fp1 == fp2 != fp3
        assert len(store) == 2
        assert store.hits == 1 and store.misses == 2

    def test_engine_pinned_per_entry(self, fig3_emulated):
        store = SnapshotStore(capacity=4)
        clear_engine_cache()
        with tracing() as tracer:
            first = store.engine(fig3_emulated[1])
            second = store.engine(fig3_emulated[1])
        assert first is second
        assert tracer.counters["verify.engine_builds"] == 1
        clear_engine_cache()

    def test_lru_eviction_counts(self, fig2_snapshots, fig3_emulated):
        healthy, buggy = fig2_snapshots
        store = SnapshotStore(capacity=2)
        with tracing() as tracer:
            store.register(healthy)
            store.register(buggy)
            store.register(fig3_emulated[1])  # evicts healthy (LRU)
        assert store.evictions == 1
        assert tracer.counters["service.store_evictions"] == 1
        assert healthy.dataplane.fib_fingerprint() not in store
        assert buggy.dataplane.fib_fingerprint() in store

    def test_get_unknown_raises_deployment_lost(self):
        store = SnapshotStore(capacity=2)
        with pytest.raises(DeploymentLostError):
            store.get(0xDEAD)
        assert store.misses == 1

    def test_capacity_default_and_clamp(self):
        assert SnapshotStore().capacity == DEFAULT_CAPACITY == 8
        assert SnapshotStore(capacity=3).capacity == 3
        assert SnapshotStore(capacity=0).capacity == 1

    def test_stats_shape(self, fig3_emulated):
        store = SnapshotStore(capacity=4)
        store.register(fig3_emulated[1])
        stats = store.stats()
        assert stats["resident"] == 1
        assert stats["engines_built"] == 0  # lazy until first question


class TestJobQueue:
    def test_priority_classes_strictly_ordered(self):
        queue = JobQueue(max_depth=8)
        campaign = _job(1, JobPriority.CAMPAIGN)
        diff = _job(2, JobPriority.DIFFERENTIAL)
        interactive = _job(3, JobPriority.INTERACTIVE)
        for job in (campaign, diff, interactive):
            queue.submit(job)
        assert queue.pop(0.1) is interactive
        assert queue.pop(0.1) is diff
        assert queue.pop(0.1) is campaign

    def test_fifo_within_class(self):
        queue = JobQueue(max_depth=8)
        jobs = [_job(n) for n in range(4)]
        for job in jobs:
            queue.submit(job)
        assert [queue.pop(0.1) for _ in jobs] == jobs

    def test_watermark_rejects_equal_priority_arrival(self):
        queue = JobQueue(max_depth=2)
        queue.submit(_job(1))
        queue.submit(_job(2))
        late = _job(3)
        accepted, shed = queue.submit(late)
        assert not accepted and shed is None
        assert late.state is JobState.REJECTED
        assert late.rejection["error"] == "overloaded"
        assert late.rejection["watermark"] == 2
        with pytest.raises(OverloadedError) as info:
            late.result(timeout=0)
        assert info.value.detail["queue_depth"] == 2

    def test_promote_requeues_queued_job(self):
        queue = JobQueue(max_depth=8)
        first = _job(1, JobPriority.CAMPAIGN)
        second = _job(2, JobPriority.CAMPAIGN)
        queue.submit(first)
        queue.submit(second)
        assert queue.promote(second, JobPriority.INTERACTIVE)
        assert second.priority is JobPriority.INTERACTIVE
        assert queue.pop(0.1) is second  # overtakes the older campaign
        assert queue.pop(0.1) is first

    def test_promote_leaves_running_and_worse_priorities_alone(self):
        queue = JobQueue(max_depth=8)
        queued = _job(1, JobPriority.DIFFERENTIAL)
        queue.submit(queued)
        # Demotion is not a thing.
        assert not queue.promote(queued, JobPriority.CAMPAIGN)
        assert queued.priority is JobPriority.DIFFERENTIAL
        # A job a worker already claimed is not in the heap: untouched.
        popped = queue.pop(0.1)
        assert popped is queued
        assert not queue.promote(popped, JobPriority.INTERACTIVE)
        assert popped.priority is JobPriority.DIFFERENTIAL

    def test_watermark_sheds_newest_lowest_priority(self):
        queue = JobQueue(max_depth=2)
        old_campaign = _job(1, JobPriority.CAMPAIGN)
        new_campaign = _job(2, JobPriority.CAMPAIGN)
        queue.submit(old_campaign)
        queue.submit(new_campaign)
        interactive = _job(3, JobPriority.INTERACTIVE)
        accepted, shed = queue.submit(interactive)
        assert accepted and shed is new_campaign  # newest of the lowest
        assert shed.rejection["shed_by"] == interactive.id
        assert queue.pop(0.1) is interactive
        assert queue.pop(0.1) is old_campaign


class TestResultCache:
    def test_capacity_bounds_lru(self):
        cache = ResultCache(capacity=2)
        assert ResultCache().capacity == 256
        for n in (1, 2, 3):
            cache.put(("q", n), JobResult(n, 0.0, 0.0, 1, 0))
        assert len(cache) == 2
        assert cache.get(("q", 1)) is None  # least recently used
        assert cache.get(("q", 3)).cached


class TestServiceExecution:
    def test_submit_callable_round_trip(self, service):
        job = service.submit_callable(
            lambda: 41 + 1, signature=("answer",), label="answer"
        )
        assert job.result(timeout=5).value == 42

    def test_coalescing_attaches_to_inflight(self, service):
        gate = _Gate()
        blocker = service.submit_callable(
            gate, signature=("blocker",), cacheable=False
        )
        assert gate.started.wait(5)
        jobs = [
            service.submit_callable(lambda: "x", signature=("dup",))
            for _ in range(3)
        ]
        assert len({job.id for job in jobs}) == 1  # one shared execution
        gate.release.set()
        result = jobs[0].result(timeout=5)
        assert result.value == "x" and result.coalesced == 3
        assert service.counters["coalesced"] == 2
        blocker.result(timeout=5)

    def test_result_cache_serves_repeats(self, service):
        first = service.submit_callable(lambda: "v", signature=("rc",))
        assert first.result(timeout=5).value == "v"
        # Settle the on_done bookkeeping before resubmitting.
        repeat = service.submit_callable(
            lambda: pytest.fail("must not re-run"), signature=("rc",)
        )
        result = repeat.result(timeout=5)
        assert result.value == "v" and result.cached
        assert service.counters["result_cache_hits"] == 1

    @pytest.mark.parametrize(
        "service", ["thread", "process"], indirect=True
    )
    def test_retry_on_deployment_lost(self, service):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise DeploymentLostError("evicted")
            return "recovered"

        job = service.submit_callable(
            flaky, signature=("flaky",), cacheable=False
        )
        result = job.result(timeout=5)
        assert result.value == "recovered"
        assert result.attempts == 3
        assert service.counters["retries"] == 2

    @pytest.mark.parametrize(
        "service", ["thread", "process"], indirect=True
    )
    def test_retries_exhausted_surface_failure(self, service):
        def doomed():
            raise DeploymentLostError("gone for good")

        job = service.submit_callable(
            doomed, signature=("doomed",), cacheable=False
        )
        with pytest.raises(JobFailedError) as info:
            job.result(timeout=5)
        assert isinstance(info.value.__cause__, DeploymentLostError)
        assert job.attempts == 3  # initial try + max_retries

    def test_queued_timeout_fails_structured(self, service):
        gate = _Gate()
        blocker = service.submit_callable(
            gate, signature=("blk",), cacheable=False
        )
        assert gate.started.wait(5)
        stale = service.submit_callable(
            lambda: "late", signature=("late",), timeout=0.05,
            cacheable=False,
        )
        threading.Event().wait(0.1)  # let the deadline lapse while queued
        gate.release.set()
        with pytest.raises(JobTimeoutError):
            stale.result(timeout=5)
        blocker.result(timeout=5)

    def test_no_priority_inversion(self, service):
        """An interactive arrival overtakes already-queued campaign
        jobs: it must finish first even though it was submitted last."""
        gate = _Gate()
        blocker = service.submit_callable(
            gate, signature=("hold",), cacheable=False
        )
        assert gate.started.wait(5)
        campaigns = [
            service.submit_callable(
                lambda n=n: n, signature=("camp", n),
                priority=JobPriority.CAMPAIGN, cacheable=False,
            )
            for n in range(2)
        ]
        interactive = service.submit_callable(
            lambda: "now", signature=("now",),
            priority=JobPriority.INTERACTIVE, cacheable=False,
        )
        gate.release.set()
        for job in (interactive, *campaigns, blocker):
            job.result(timeout=5)
        assert interactive.finished_at < min(
            job.finished_at for job in campaigns
        )

    def test_coalesce_promotes_inflight_priority(self, service):
        """A higher-priority submission coalescing onto a queued
        lower-priority job promotes the shared execution — the
        interactive caller must not wait at campaign rank."""
        gate = _Gate()
        blocker = service.submit_callable(
            gate, signature=("hold",), cacheable=False
        )
        assert gate.started.wait(5)
        decoy = service.submit_callable(
            lambda: "decoy", signature=("decoy",),
            priority=JobPriority.CAMPAIGN, cacheable=False,
        )
        shared = service.submit_callable(
            lambda: "shared", signature=("shared",),
            priority=JobPriority.CAMPAIGN, cacheable=False,
        )
        rider = service.submit_callable(
            lambda: "shared", signature=("shared",),
            priority=JobPriority.INTERACTIVE, cacheable=False,
        )
        assert rider is shared  # coalesced onto the queued job...
        assert shared.priority is JobPriority.INTERACTIVE  # ...promoted
        gate.release.set()
        for job in (shared, decoy, blocker):
            job.result(timeout=5)
        assert shared.finished_at < decoy.finished_at

    def test_retry_backoff_respects_deadline(self):
        """The per-job timeout bounds retries: a lost deployment must
        not back off past the deadline (structured JobTimeoutError
        instead of retrying indefinitely)."""
        pool = WorkerPool(
            JobQueue(), workers=1, max_retries=50, retry_backoff=0.0
        )

        def lost():
            time.sleep(0.05)
            raise DeploymentLostError("still gone")

        job = Job(("deadline",), lost, timeout=0.02)
        pool._execute(job)
        assert job.state is JobState.FAILED
        assert isinstance(job.error, JobTimeoutError)
        assert job.attempts == 1  # never retried past the deadline

    def test_keyboard_interrupt_settles_job_and_propagates(self):
        """KeyboardInterrupt in a job is not swallowed as a mere job
        failure: waiters are settled, then the interrupt propagates to
        terminate the worker loop."""
        pool = WorkerPool(JobQueue(), workers=1)

        def interrupted():
            raise KeyboardInterrupt

        job = Job(("ki",), interrupted)
        with pytest.raises(KeyboardInterrupt):
            pool._execute(job)
        assert job.state is JobState.FAILED  # waiters do not hang
        assert isinstance(job.error, KeyboardInterrupt)

    def test_overload_burst_structured_rejections(self, service):
        """A burst past the watermark gets structured ``overloaded``
        rejections and the queue depth stays bounded — never an
        unbounded backlog, never a silent drop."""
        gate = _Gate()
        service.submit_callable(gate, signature=("wall",), cacheable=False)
        assert gate.started.wait(5)
        burst = [
            service.submit_callable(
                lambda n=n: n, signature=("burst", n),
                priority=JobPriority.CAMPAIGN, cacheable=False,
            )
            for n in range(20)
        ]
        assert service.queue.depth <= service.queue.max_depth
        rejected = [job for job in burst if job.state is JobState.REJECTED]
        assert rejected
        with pytest.raises(OverloadedError) as info:
            rejected[0].result(timeout=0)
        assert info.value.detail["error"] == "overloaded"
        assert info.value.detail["watermark"] == 4
        assert service.counters["jobs_rejected"] == len(rejected)
        gate.release.set()
        survivors = [job for job in burst if job.state is not JobState.REJECTED]
        for job in survivors:
            job.result(timeout=5)


class TestServiceQuestions:
    def test_question_round_trip_uses_store(self, fig2_snapshots):
        healthy, buggy = fig2_snapshots
        clear_engine_cache()
        with tracing() as tracer:
            with VerificationService(workers=2) as svc:
                svc.register_snapshot(healthy, name="healthy")
                svc.register_snapshot(buggy, name="buggy")
                jobs = [
                    svc.submit("reachability", snapshot="healthy"),
                    svc.submit("detectLoops", snapshot="healthy"),
                    svc.submit("routes", {"nodes": "r1"}, snapshot="healthy"),
                ]
                for job in jobs:
                    assert job.result(timeout=10).value is not None
        # Three questions, one forwarding state: one engine build.
        assert tracer.counters["verify.engine_builds"] == 1
        clear_engine_cache()

    def test_unknown_question_rejected_at_submit(self, fig2_snapshots):
        with VerificationService(workers=1) as svc:
            svc.register_snapshot(fig2_snapshots[0], name="s")
            with pytest.raises(SessionError, match="unknown question"):
                svc.submit("nosuchquestion", snapshot="s")

    def test_differential_defaults_to_differential_priority(
        self, fig2_snapshots
    ):
        healthy, buggy = fig2_snapshots
        with VerificationService(workers=1) as svc:
            svc.register_snapshot(healthy, name="healthy")
            svc.register_snapshot(buggy, name="buggy")
            job = svc.submit(
                "differentialReachability",
                snapshot="buggy",
                reference_snapshot="healthy",
            )
            assert job.priority is JobPriority.DIFFERENTIAL
            rows = job.result(timeout=10).value.frame().rows
            assert any(row["Regressed"] for row in rows)

    def test_signatures_coalesce_across_snapshot_names(self, fig2_snapshots):
        """Two names over identical forwarding content are the same
        work: the second submission is a cache hit, not a re-run."""
        healthy, _ = fig2_snapshots
        with VerificationService(workers=1) as svc:
            svc.register_snapshot(healthy, name="a")
            svc.register_snapshot(healthy, name="b")
            first = svc.submit("reachability", snapshot="a")
            first.result(timeout=10)
            second = svc.submit("reachability", snapshot="b")
            assert second.result(timeout=10).cached

    def test_replaced_snapshot_mid_flight_fails_not_poisons_cache(
        self, fig2_snapshots
    ):
        """register_snapshot(overwrite=True) between submit and run is
        the documented replacement flow — the in-flight job keyed on
        the OLD content must fail (DeploymentLostError), never cache
        the NEW content's answer under the old content's signature."""
        healthy, buggy = fig2_snapshots
        svc = VerificationService(workers=1)
        svc.pool.max_retries = 1
        svc.pool.retry_backoff = 0.0
        svc.start()
        try:
            gate = _Gate()
            svc.submit_callable(gate, signature=("g",), cacheable=False)
            assert gate.started.wait(5)
            svc.register_snapshot(healthy, name="victim")
            job = svc.submit("reachability", snapshot="victim")
            svc.register_snapshot(buggy, name="victim")  # silent replace
            gate.release.set()
            with pytest.raises(JobFailedError) as info:
                job.result(timeout=5)
            assert isinstance(info.value.__cause__, DeploymentLostError)
            # The healthy-content signature must NOT have been filled
            # with the buggy snapshot's answer: ask the same question
            # against healthy content under a fresh name and check it
            # is a real (uncached) run with healthy's answer.
            svc.register_snapshot(healthy, name="restored")
            fresh = svc.submit("reachability", snapshot="restored")
            result = fresh.result(timeout=10)
            assert not result.cached
            assert len(result.value.frame().rows) == 6  # healthy answer
        finally:
            svc.stop()

    def test_deleted_snapshot_mid_flight_retries_then_fails(
        self, fig2_snapshots
    ):
        healthy, _ = fig2_snapshots
        svc = VerificationService(workers=1)
        svc.pool.max_retries = 1
        svc.pool.retry_backoff = 0.0
        svc.start()
        try:
            gate = _Gate()
            svc.submit_callable(gate, signature=("g",), cacheable=False)
            assert gate.started.wait(5)
            svc.register_snapshot(healthy, name="victim")
            job = svc.submit("reachability", snapshot="victim")
            svc.session.delete_snapshot("victim")
            gate.release.set()
            with pytest.raises(JobFailedError) as info:
                job.result(timeout=5)
            assert isinstance(info.value.__cause__, DeploymentLostError)
            assert job.attempts == 2  # retried once, then surfaced
        finally:
            svc.stop()


class TestConcurrentEngineAccess:
    def test_engine_for_races_coalesce_to_one_build(self, fig2_snapshots):
        """Satellite: concurrent engine_for calls for one fingerprint
        must coalesce onto a single build returning one shared object."""
        healthy, _ = fig2_snapshots
        clear_engine_cache()
        barrier = threading.Barrier(6)
        engines = []

        def hammer():
            barrier.wait(5)
            engines.append(engine_for(healthy.dataplane))

        with tracing() as tracer:
            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        assert len(engines) == 6
        assert len({id(engine) for engine in engines}) == 1
        assert tracer.counters["verify.engine_builds"] == 1
        clear_engine_cache()

    def test_store_races_share_one_entry(self, fig2_snapshots):
        healthy, _ = fig2_snapshots
        store = SnapshotStore(capacity=4)
        clear_engine_cache()
        barrier = threading.Barrier(6)
        engines = []

        def hammer():
            barrier.wait(5)
            engines.append(store.engine(healthy))

        with tracing() as tracer:
            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        assert len({id(engine) for engine in engines}) == 1
        assert tracer.counters["verify.engine_builds"] == 1
        assert len(store) == 1
        clear_engine_cache()


class TestSessionStoreWiring:
    def test_sessions_sharing_store_share_engines(self, fig2_snapshots):
        healthy, _ = fig2_snapshots
        store = SnapshotStore(capacity=4)
        one = Session(store=store)
        two = Session(store=store)
        one.init_snapshot(healthy, name="mine")
        two.init_snapshot(healthy, name="theirs")
        clear_engine_cache()
        with tracing() as tracer:
            assert one.get_engine("mine") is two.get_engine("theirs")
        assert tracer.counters["verify.engine_builds"] == 1
        clear_engine_cache()

    def test_pipeline_registers_snapshot_with_store(self, fig2):
        from repro.core.pipeline import ModelFreeBackend
        from repro.protocols.timers import FAST_TIMERS

        store = SnapshotStore(capacity=4)
        backend = ModelFreeBackend(
            fig2.topology, timers=FAST_TIMERS, quiet_period=5.0, store=store
        )
        snapshot = backend.run(snapshot_name="piped")
        assert snapshot.dataplane.fib_fingerprint() in store

    def test_model_backend_registers_with_store(self, fig3):
        from repro.core.pipeline import NativeBatfishBackend

        store = SnapshotStore(capacity=4)
        backend = NativeBatfishBackend(fig3.topology, store=store)
        snapshot = backend.run(snapshot_name="modeled")
        assert snapshot.dataplane.fib_fingerprint() in store


class TestCampaignJobs:
    def test_campaign_runs_as_batch_job(self, fig2):
        from repro.protocols.timers import FAST_TIMERS
        from repro.whatif import single_link_failures

        scenarios = list(single_link_failures(fig2.topology))[:1]
        with VerificationService(workers=1) as svc:
            job = svc.submit_campaign(
                fig2.topology,
                scenarios,
                timers=FAST_TIMERS,
                quiet_period=5.0,
            )
            assert job.priority is JobPriority.CAMPAIGN
            report = job.result(timeout=60).value
        assert len(report.verdicts) == 1
        # The campaign baseline became resident in the service store.
        assert svc.store.stats()["resident"] >= 1

    def test_same_names_other_faults_are_another_job(self, fig2):
        """Two flaps share a name but not their hold, and one campaign
        shares plans but not timers: neither is served the other's
        cached report."""
        from repro.protocols.timers import FAST_TIMERS
        from repro.whatif import link_flap_scenarios

        def flap(hold):
            return list(link_flap_scenarios(fig2.topology, hold_seconds=hold))[:1]

        with VerificationService(workers=1) as svc:
            def report(plans, timers=FAST_TIMERS):
                job = svc.submit_campaign(
                    fig2.topology, plans, timers=timers, quiet_period=5.0
                )
                return job, job.result(timeout=60).value

            short_job, short = report(flap(5.0))
            long_job, long = report(flap(200.0))
            again_job, again = report(flap(5.0))
            slow_job, slow = report(flap(5.0), timers=replace(
                FAST_TIMERS, processing_delay=0.01
            ))
        assert flap(5.0)[0].name == flap(200.0)[0].name
        assert not long_job.cached and long is not short
        [short_verdict], [long_verdict] = short.verdicts, long.verdicts
        assert long_verdict.reconverge_seconds > 200.0
        assert short_verdict.reconverge_seconds < 200.0
        assert again_job.cached and again is short
        assert not slow_job.cached and slow is not short


class TestFrontend:
    def test_serve_loop_round_trip(self, fig2_snapshots, tmp_path):
        healthy, _ = fig2_snapshots
        path = tmp_path / "healthy.json"
        healthy.save(path)
        requests = [
            {"op": "load", "path": str(path), "name": "healthy"},
            {"op": "submit", "question": "reachability",
             "snapshot": "healthy"},
            {"op": "submit", "question": "reachability",
             "snapshot": "healthy", "wait": False},
            {"op": "result", "job": None, "timeout": 5},
            {"op": "nonsense"},
            {"op": "stats"},
            {"op": "shutdown"},
        ]
        stdin = io.StringIO(
            "\n".join(json.dumps(r) for r in requests)
            + "\nnot json\n"  # after shutdown: must not be reached
        )
        stdout = io.StringIO()
        with VerificationService(workers=1) as svc:
            handled = serve_loop(svc, stdin, stdout)
        responses = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        assert handled == len(requests)  # loop stopped at shutdown
        load, answer, async_submit, late, bad, stats, bye = responses
        assert load["ok"] and load["snapshot"] == "healthy"
        assert answer["ok"] and len(answer["rows"]) == 6
        assert answer["state"] == "done"
        assert async_submit["ok"] and "rows" not in async_submit
        assert not late["ok"]  # unknown job id (None)
        assert not bad["ok"] and "unknown op" in bad["error"]
        assert stats["ok"]
        assert stats["stats"]["counters"]["jobs_submitted"] >= 1
        assert bye["ok"] and bye["stopped"]

    def test_frontend_does_not_retain_delivered_jobs(self, fig2_snapshots):
        """A long-lived serve session must not leak settled jobs: only
        async submissions are retained (bounded), and delivering a
        result drops the reference."""
        healthy, _ = fig2_snapshots
        with VerificationService(workers=1) as svc:
            svc.register_snapshot(healthy, name="healthy")
            frontend = ServiceFrontend(svc, max_pending=4)
            submit = {"op": "submit", "question": "reachability",
                      "snapshot": "healthy"}
            response, _ = frontend.handle(submit)
            assert response["ok"]
            assert not frontend._jobs  # wait=true delivered inline
            response, _ = frontend.handle({**submit, "wait": False})
            assert response["ok"] and len(frontend._jobs) == 1
            response, _ = frontend.handle(
                {"op": "result", "job": response["job"], "timeout": 10}
            )
            assert response["ok"]
            assert not frontend._jobs  # delivered: reference dropped
            # Async submissions never grow past the bound (these are
            # result-cache hits, so each settles instantly).
            for _ in range(10):
                frontend.handle({**submit, "wait": False})
            assert len(frontend._jobs) == 4

    def test_serve_loop_surfaces_overload(self, fig2_snapshots, tmp_path):
        healthy, _ = fig2_snapshots
        path = tmp_path / "healthy.json"
        healthy.save(path)
        svc = VerificationService(workers=1, max_queue_depth=1)
        svc.start()
        try:
            gate = _Gate()
            svc.submit_callable(gate, signature=("wall",), cacheable=False)
            assert gate.started.wait(5)
            svc.load_snapshot(path, name="healthy")
            requests = [
                {"op": "submit", "question": "reachability",
                 "snapshot": "healthy", "wait": False},
                {"op": "submit", "question": "detectLoops",
                 "snapshot": "healthy", "wait": False},
            ]
            stdin = io.StringIO(
                "\n".join(json.dumps(r) for r in requests) + "\n"
            )
            stdout = io.StringIO()
            serve_loop(svc, stdin, stdout)
            first, second = [
                json.loads(line) for line in stdout.getvalue().splitlines()
            ]
            assert first["ok"]
            assert not second["ok"]
            assert second["error"] == "overloaded"
            assert second["watermark"] == 1
            gate.release.set()
        finally:
            svc.stop()


class TestServeCli:
    """``mfv serve`` flags are the CLI's only route to service settings."""

    def _serve_stats(self, monkeypatch, capsys, *argv):
        """Run ``mfv serve ARGV`` over one ``stats`` request; returns
        the service stats it answered with."""
        from repro.cli import main

        monkeypatch.setattr(sys, "stdin", io.StringIO('{"op": "stats"}\n'))
        assert main(["serve", *argv]) == 0
        (response,) = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert response["ok"]
        return response["stats"]

    def test_defaults(self, monkeypatch, capsys):
        stats = self._serve_stats(monkeypatch, capsys)
        assert stats["workers"] == DEFAULT_WORKERS
        assert stats["queue_watermark"] == DEFAULT_QUEUE_DEPTH
        assert stats["store"]["capacity"] == DEFAULT_CAPACITY
        assert stats["worker_mode"] == "thread"
        assert "journal" not in stats

    def test_flags_reach_the_service(self, monkeypatch, capsys, tmp_path):
        stats = self._serve_stats(
            monkeypatch, capsys,
            "--store", "3", "--queue-depth", "5", "--workers", "1",
            "--worker-mode", "process", "--journal", str(tmp_path),
        )
        assert stats["store"]["capacity"] == 3
        assert stats["queue_watermark"] == 5
        assert stats["workers"] == 1
        assert stats["worker_mode"] == "process"
        assert stats["journal"]["dir"] == str(tmp_path)

    def test_recover_requires_journal(self, capsys):
        from repro.cli import main

        assert main(["serve", "--recover"]) == 2
        assert "--recover requires --journal" in capsys.readouterr().err

    def test_store_capacity_holds_during_recovery(
        self, fig2_snapshots, fig3_emulated, monkeypatch, capsys, tmp_path
    ):
        """``--store`` sizes the store before recovery re-registers the
        journaled snapshots, so residence never exceeds it."""
        healthy, buggy = fig2_snapshots
        crashed = VerificationService(workers=1, journal_dir=tmp_path)
        for name, snap in (
            ("healthy", healthy), ("buggy", buggy), ("fig3", fig3_emulated[1])
        ):
            crashed.register_snapshot(snap, name=name)
        crashed.journal.close()
        stats = self._serve_stats(
            monkeypatch, capsys,
            "--journal", str(tmp_path), "--recover", "--store", "1",
        )
        store = stats["store"]
        assert store["capacity"] == 1
        assert store["resident"] <= store["capacity"]


class TestServiceObservability:
    def test_job_events_feed_timeline(self, fig2_snapshots):
        from repro.obs import ConvergenceTimeline

        healthy, _ = fig2_snapshots
        with tracing() as tracer:
            with VerificationService(workers=1) as svc:
                svc.register_snapshot(healthy, name="healthy")
                svc.submit(
                    "reachability", snapshot="healthy"
                ).result(timeout=10)
        timeline = ConvergenceTimeline.from_tracer(tracer)
        assert timeline.service_jobs
        event = timeline.service_jobs[-1].detail
        assert event["state"] == "done"
        assert event["label"] == "reachability"
        rendered = timeline.render()
        assert "Service jobs" in rendered
        assert "reachability" in rendered
