"""Resilience-plane tests: journal, recovery, supervision, breakers.

The crash-recovery determinism tests follow the write-ahead contract:
a journal replayed after a seeded mid-job kill must yield byte-identical
answers to an uninterrupted run, because the idempotency key pins the
question and the manifest pins the forwarding content.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.chaos import (
    EvictionStorm,
    JournalStall,
    ServiceChaos,
    ServiceFaultPlan,
    WorkerCrash,
    sampled_service_plan,
)
from repro.service import (
    BreakerBoard,
    BreakerOpenError,
    BreakerState,
    JobFailedError,
    JobJournal,
    JobLostError,
    JobState,
    JobTimeoutError,
    OverloadedError,
    QuestionSpec,
    VerificationService,
    replay_journal,
)
from repro.obs import tracing
from repro.service.frontend import ServiceFrontend, _serialize_value


def _spec(question="reachability", fp=0x1234):
    return QuestionSpec(
        question=question, params=(), snapshot="s", fingerprint=fp
    )


def _canon(value) -> str:
    """Canonical bytes of an answer for byte-identical comparison."""
    return json.dumps(_serialize_value(value), sort_keys=True, default=str)


def _thread_baseline(snapshot) -> str:
    """The thread-mode answer to ``reachability`` over ``snapshot``."""
    with VerificationService(workers=1) as svc:
        svc.register_snapshot(snapshot, name="net")
        return _canon(
            svc.submit("reachability", snapshot="net").result(60).value
        )


def _freeze_first_dispatch(svc) -> list:
    """SIGSTOP the (only) worker process at the first dispatch; returns
    the list the frozen process lands in, for the test to reap."""
    frozen: list = []

    def hook(job, worker_index, dispatch_index):
        if not frozen:
            (child,) = multiprocessing.active_children()
            os.kill(child.pid, signal.SIGSTOP)
            frozen.append(child)

    svc.pool.on_dispatch = hook
    return frozen


def _reap(frozen) -> None:
    for child in frozen:
        if child.is_alive():
            child.kill()
            child.join(5)


def _await_state(board: BreakerBoard, key, state: BreakerState, timeout=2.0):
    """Wait for breaker feedback: the worker records success/failure in
    its on_done hook *after* ``job.result()`` unblocks the caller."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if board.state_of(key) is state:
            return
        time.sleep(0.005)
    assert board.state_of(key) is state


class TestJobJournal:
    def test_submit_settle_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path, fsync_batch=1)
        key, deliveries = journal.record_submit(
            _spec(), priority="interactive", timeout=None
        )
        assert deliveries == 1
        journal.record_start(key)
        journal.record_settle(key, "done")
        journal.close()
        state = replay_journal(tmp_path)
        assert state.records == 3
        assert state.pending() == []
        assert state.jobs[key].settled

    def test_unsettled_submit_stays_pending(self, tmp_path):
        journal = JobJournal(tmp_path, fsync_batch=1)
        key, _ = journal.record_submit(
            _spec(), priority="campaign", timeout=2.5
        )
        journal.record_start(key)
        journal.close()
        state = replay_journal(tmp_path)
        pending = state.pending()
        assert [job.key for job in pending] == [key]
        assert pending[0].started
        assert pending[0].priority == "campaign"
        assert pending[0].timeout == 2.5

    def test_idempotency_key_is_content_addressed(self):
        assert _spec().key() == _spec().key()
        assert _spec().key() != _spec(fp=0x9999).key()
        assert len(_spec().key()) == 16

    def test_torn_final_record_is_skipped(self, tmp_path):
        journal = JobJournal(tmp_path, fsync_batch=1)
        journal.record_submit(_spec(), priority="interactive", timeout=None)
        journal.close()
        with open(tmp_path / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"type": "submit", "key": "deadbeef", "spe')
        state = replay_journal(tmp_path)
        assert state.torn_records == 1
        assert len(state.jobs) == 1  # the torn submit never happened

    def test_redelivery_counts_accumulate(self, tmp_path):
        journal = JobJournal(tmp_path, fsync_batch=1)
        key, _ = journal.record_submit(
            _spec(), priority="interactive", timeout=None
        )
        assert journal.record_redelivery(key) == 2
        assert journal.record_redelivery(key) == 3
        journal.close()
        state = replay_journal(tmp_path)
        assert state.jobs[key].deliveries == 3

    def test_dead_letter_is_terminal(self, tmp_path):
        journal = JobJournal(tmp_path, fsync_batch=64)
        key, _ = journal.record_submit(
            _spec(), priority="interactive", timeout=None
        )
        journal.record_dead_letter(key, "exhausted", 4)
        # dead-letter flushes even with a large batch — terminal promise
        state = replay_journal(tmp_path)
        assert state.jobs[key].dead
        assert state.pending() == []
        journal.close()

    def test_stall_hook_fires_per_record(self, tmp_path):
        journal = JobJournal(tmp_path, fsync_batch=1)
        seen = []
        journal.stall_hook = seen.append
        journal.record_submit(_spec(), priority="interactive", timeout=None)
        journal.record_settle(_spec().key(), "done")
        journal.close()
        assert seen == [0, 1]


class TestCircuitBreakers:
    def _board(self, **kwargs):
        clock = {"t": 0.0}
        board = BreakerBoard(
            threshold=kwargs.pop("threshold", 3),
            cooldown_s=kwargs.pop("cooldown_s", 10.0),
            clock=lambda: clock["t"],
            **kwargs,
        )
        return board, clock

    def test_opens_after_threshold_consecutive_failures(self):
        board, _ = self._board(threshold=3)
        for _ in range(2):
            board.record("snap", ok=False)
        assert board.state_of("snap") is BreakerState.CLOSED
        board.record("snap", ok=False)
        assert board.state_of("snap") is BreakerState.OPEN
        assert not board.allow("snap")
        assert board.fast_answers == 1

    def test_success_resets_the_count(self):
        board, _ = self._board(threshold=2)
        board.record("snap", ok=False)
        board.record("snap", ok=True)
        board.record("snap", ok=False)
        assert board.state_of("snap") is BreakerState.CLOSED

    def test_half_open_probe_then_close(self):
        board, clock = self._board(threshold=1, cooldown_s=5.0)
        board.record("snap", ok=False)
        assert not board.allow("snap")
        clock["t"] = 6.0
        assert board.allow("snap")  # the single half-open probe
        assert board.state_of("snap") is BreakerState.HALF_OPEN
        assert not board.allow("snap")  # second caller must wait
        board.record("snap", ok=True)
        assert board.state_of("snap") is BreakerState.CLOSED
        assert board.allow("snap")

    def test_half_open_failure_reopens(self):
        board, clock = self._board(threshold=1, cooldown_s=5.0)
        board.record("snap", ok=False)
        clock["t"] = 6.0
        assert board.allow("snap")
        board.record("snap", ok=False)
        assert board.state_of("snap") is BreakerState.OPEN
        clock["t"] = 8.0  # the cooldown clock restarted at t=6
        assert not board.allow("snap")

    def test_release_frees_a_wedged_probe(self):
        board, clock = self._board(threshold=1, cooldown_s=5.0)
        board.record("snap", ok=False)
        clock["t"] = 6.0
        assert board.allow("snap")  # probe admitted, then never runs
        board.release("snap")
        assert board.allow("snap")  # next caller gets the probe slot

    def test_transition_hook_sees_every_edge(self):
        edges = []
        board = BreakerBoard(
            threshold=1,
            cooldown_s=0.0,
            on_transition=lambda key, before, after, failures: edges.append(
                (before.value, after.value)
            ),
        )
        board.record("snap", ok=False)
        board.allow("snap")
        board.record("snap", ok=True)
        assert edges == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_detail_payload_shape(self):
        board, _ = self._board(threshold=1)
        board.record(0x1234, ok=False)
        detail = board.detail_for(0x1234)
        assert detail["error"] == "breaker-open"
        assert detail["verdict"] == "UNKNOWN_DEGRADED"
        assert detail["state"] == "open"
        assert detail["breaker_key"] == "0x1234"


class TestServiceBreakers:
    def test_breaker_fast_fails_submissions(self):
        svc = VerificationService(
            workers=1, breaker_threshold=2, breaker_cooldown_s=60.0
        )
        svc.start()
        try:
            for n in range(2):
                job = svc.submit_callable(
                    lambda: 1 / 0, signature=("boom", n),
                    breaker_key="snap", label="boom",
                )
                with pytest.raises(JobFailedError):
                    job.result(5)
            _await_state(svc.breakers, "snap", BreakerState.OPEN)
            fast = svc.submit_callable(
                lambda: 42, signature=("fine", 0),
                breaker_key="snap", label="fine",
            )
            with pytest.raises(BreakerOpenError) as excinfo:
                fast.result(5)
            assert excinfo.value.detail["verdict"] == "UNKNOWN_DEGRADED"
            # Fast answers never reach the queue or a worker.
            assert svc.counters["jobs_submitted"] == 2
            other = svc.submit_callable(
                lambda: 7, signature=("other", 0),
                breaker_key="other-snap", label="other",
            )
            assert other.result(5).value == 7  # per-key isolation
        finally:
            svc.stop()

    def test_breaker_recloses_after_probe_success(self):
        svc = VerificationService(
            workers=1, breaker_threshold=1, breaker_cooldown_s=0.05
        )
        svc.start()
        try:
            job = svc.submit_callable(
                lambda: 1 / 0, signature=("boom",),
                breaker_key="snap", label="boom",
            )
            with pytest.raises(JobFailedError):
                job.result(5)
            _await_state(svc.breakers, "snap", BreakerState.OPEN)
            time.sleep(0.1)
            probe = svc.submit_callable(
                lambda: "ok", signature=("probe",),
                breaker_key="snap", label="probe",
            )
            assert probe.result(5).value == "ok"
            _await_state(svc.breakers, "snap", BreakerState.CLOSED)
        finally:
            svc.stop()


class TestDrainingShutdown:
    def test_drain_finishes_queued_work(self):
        svc = VerificationService(workers=1)
        svc.start()
        jobs = [
            svc.submit_callable(
                (lambda n=n: n), signature=("drainme", n), label=f"j{n}"
            )
            for n in range(4)
        ]
        counts = svc.stop(timeout=10.0)
        assert counts["rejected"] == 0
        assert [job.result(0).value for job in jobs] == [0, 1, 2, 3]

    def test_drain_timeout_rejects_instead_of_stranding(self):
        svc = VerificationService(workers=1)
        svc.start()
        gate = threading.Event()
        blocker = svc.submit_callable(
            lambda: gate.wait(5), signature=("block",), label="blocker"
        )
        queued = [
            svc.submit_callable(
                lambda: True, signature=("q", n), label=f"q{n}"
            )
            for n in range(3)
        ]
        counts = svc.stop(timeout=0.2)
        gate.set()
        assert counts["rejected"] >= 1
        rejected = 0
        for job in queued:
            try:
                job.result(1)
            except OverloadedError as exc:
                assert exc.detail["error"] == "draining"
                rejected += 1
        assert rejected == counts["rejected"]
        del blocker

    def test_draining_service_rejects_new_submissions(self):
        svc = VerificationService(workers=1)
        svc.start()
        svc.stop(timeout=2.0)
        job = svc.submit_callable(
            lambda: 1, signature=("late",), label="late"
        )
        with pytest.raises(OverloadedError) as excinfo:
            job.result(1)
        assert excinfo.value.detail["error"] == "draining"

    def test_drain_emits_obs_event(self):
        from repro.obs import tracing

        with tracing() as tracer:
            svc = VerificationService(workers=1)
            svc.start()
            svc.submit_callable(
                lambda: 1, signature=("one",), label="one"
            ).result(5)
            svc.stop(timeout=5.0)
        drains = [e for e in tracer.events if e.category == "service.drain"]
        assert len(drains) == 1
        # "settled" counts jobs finished *during* the drain window; the
        # job above settled before stop(), so only the shape is pinned.
        assert set(drains[0].detail) >= {"settled", "rejected"}
        assert drains[0].detail["rejected"] == 0


class TestServiceJournalRecovery:
    def test_recover_requeues_unsettled_question(
        self, fig2_snapshots, tmp_path
    ):
        healthy, _ = fig2_snapshots
        journal_dir = tmp_path / "journal"

        # Baseline: an undisturbed run answers the question.
        baseline_svc = VerificationService(workers=1)
        baseline_svc.start()
        baseline_svc.register_snapshot(healthy, name="net")
        baseline = _canon(
            baseline_svc.submit("reachability", snapshot="net")
            .result(60).value
        )
        baseline_svc.stop()

        # "Crash": the journal records the snapshot and an accepted
        # submission, but the service dies before the job ever runs.
        crashed = VerificationService(workers=1, journal_dir=journal_dir)
        crashed.register_snapshot(healthy, name="net")
        crashed.submit("reachability", snapshot="net")
        crashed.journal.flush()
        del crashed  # no stop(): the settle record never lands

        recovered, report = VerificationService.recover(
            journal_dir, workers=1
        )
        assert report.snapshots_recovered == 1
        assert report.jobs_requeued == 1
        assert report.jobs_dead_lettered == 0
        assert recovered.snapshots() == ["net"]
        recovered.start()
        job = recovered.submit("reachability", snapshot="net")
        replayed = _canon(job.result(60).value)
        assert replayed == baseline  # byte-identical to the clean run
        recovered.stop()
        # After the run, the journal shows the obligation settled.
        state = replay_journal(journal_dir)
        assert state.pending() == []

    def test_recover_dead_letters_exhausted_jobs(self, tmp_path):
        journal = JobJournal(tmp_path, fsync_batch=1)
        spec = _spec()
        key, _ = journal.record_submit(
            spec, priority="interactive", timeout=None
        )
        for _ in range(4):
            journal.record_redelivery(key)
        journal.close()
        service, report = VerificationService.recover(
            tmp_path, workers=1, redelivery_limit=3
        )
        assert report.jobs_requeued == 0
        assert report.jobs_dead_lettered == 1
        assert service.dead_letters[0].key == key
        assert service.dead_letters[0].deliveries == 5
        state = replay_journal(tmp_path)
        assert state.jobs[key].dead
        service.stop()

    def test_recover_tolerates_torn_tail(self, fig2_snapshots, tmp_path):
        healthy, _ = fig2_snapshots
        svc = VerificationService(workers=1, journal_dir=tmp_path)
        svc.register_snapshot(healthy, name="net")
        svc.submit("reachability", snapshot="net")
        svc.journal.flush()
        with open(tmp_path / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"type": "settle", "key"')  # torn mid-crash write
        del svc
        recovered, report = VerificationService.recover(tmp_path, workers=1)
        assert report.torn_records == 1
        assert report.jobs_requeued == 1  # the torn settle never happened
        recovered.stop()


class TestSupervisedProcessPool:
    """Process mode: each worker thread supervises its own child."""

    def test_mid_job_kill_is_redelivered_deterministically(
        self, fig2_snapshots, tmp_path
    ):
        healthy, _ = fig2_snapshots
        baseline = _thread_baseline(healthy)
        svc = VerificationService(
            workers=1,
            worker_mode="process",
            journal_dir=tmp_path,
            heartbeat_s=0.5,
        )
        svc.start()
        try:
            svc.register_snapshot(healthy, name="net")
            plan = ServiceFaultPlan(
                name="kill-first-dispatch",
                faults=(WorkerCrash(at_dispatch=1),),
            )
            with ServiceChaos(svc, plan) as chaos:
                job = svc.submit("reachability", snapshot="net")
                value = job.result(120).value
            assert [f["kind"] for f in chaos.fired] == ["worker-crash"]
            assert job.deliveries == 2  # killed once, redelivered once
            assert svc.pool.respawns >= 1
            assert _canon(value) == baseline  # identical despite the kill
            assert not svc.dead_letters  # zero accepted jobs lost
        finally:
            svc.stop()

    def test_redelivery_exhaustion_surfaces_job_lost(
        self, fig2_snapshots, tmp_path
    ):
        healthy, _ = fig2_snapshots
        svc = VerificationService(
            workers=1,
            worker_mode="process",
            journal_dir=tmp_path,
            heartbeat_s=0.5,
            redelivery_limit=0,
        )
        svc.start()
        try:
            svc.register_snapshot(healthy, name="net")
            plan = ServiceFaultPlan(
                name="kill-always", faults=(WorkerCrash(at_dispatch=1),)
            )
            with ServiceChaos(svc, plan):
                job = svc.submit("reachability", snapshot="net")
                with pytest.raises(JobLostError) as excinfo:
                    job.result(120)
            assert excinfo.value.detail["deliveries"] == 2
            assert len(svc.dead_letters) == 1
            letter = svc.dead_letters[0]
            assert letter.question == "reachability"
            state_key = letter.key
        finally:
            svc.stop()
        state = replay_journal(tmp_path)
        assert state.jobs[state_key].dead  # durable, not just in-memory

    def test_hung_worker_is_killed_and_job_redelivered(
        self, fig2_snapshots, tmp_path
    ):
        healthy, _ = fig2_snapshots
        baseline = _thread_baseline(healthy)
        svc = VerificationService(
            workers=1,
            worker_mode="process",
            journal_dir=tmp_path,
            heartbeat_s=0.5,
        )
        svc.start()
        frozen = _freeze_first_dispatch(svc)
        try:
            svc.register_snapshot(healthy, name="net")
            job = svc.submit("reachability", snapshot="net")
            value = job.result(60).value
            assert frozen  # the first delivery really hung
            assert job.deliveries == 2
            assert _canon(value) == baseline
            assert svc.stats()["pool"]["respawns"] >= 1
        finally:
            _reap(frozen)
            svc.stop()

    def test_deadline_kills_a_running_worker(self, fig2_snapshots, tmp_path):
        healthy, _ = fig2_snapshots
        svc = VerificationService(
            workers=1,
            worker_mode="process",
            journal_dir=tmp_path,
            heartbeat_s=30.0,  # no hang verdict inside this test
        )
        svc.start()
        frozen = _freeze_first_dispatch(svc)
        try:
            svc.register_snapshot(healthy, name="net")
            job = svc.submit("reachability", snapshot="net", timeout=1.0)
            with pytest.raises(JobTimeoutError):
                job.result(30)
            assert frozen
            assert svc.stats()["pool"]["respawns"] == 1
        finally:
            _reap(frozen)
            svc.stop()

    def test_idle_worker_death_is_respawned(self):
        svc = VerificationService(workers=1, worker_mode="process")
        svc.start()
        try:
            (first,) = multiprocessing.active_children()
            assert svc.pool.kill_worker(0)
            deadline = time.monotonic() + 5.0
            health = svc.health()
            while time.monotonic() < deadline and not (
                health["worker_respawns"] >= 1
                and health["workers_alive"] == 1
            ):
                time.sleep(0.05)
                health = svc.health()
            assert health["worker_respawns"] >= 1
            assert health["workers_alive"] == 1
            (second,) = multiprocessing.active_children()
            assert second.pid != first.pid
        finally:
            svc.stop()

    @pytest.mark.parametrize("drain", [True, False])
    def test_stop_rejects_the_in_flight_job(
        self, fig2_snapshots, tmp_path, drain
    ):
        """A child still busy when the stop timeout passes is killed,
        and its job settles as a ``draining`` rejection — a caller in
        ``result()`` must never block forever."""
        healthy, _ = fig2_snapshots
        svc = VerificationService(
            workers=1, worker_mode="process", journal_dir=tmp_path
        )
        svc.start()
        frozen = _freeze_first_dispatch(svc)
        try:
            svc.register_snapshot(healthy, name="net")
            job = svc.submit("reachability", snapshot="net")
            deadline = time.monotonic() + 10.0
            while not frozen and time.monotonic() < deadline:
                time.sleep(0.01)
            assert frozen
            counts = svc.stop(timeout=1.0, drain=drain)
        finally:
            _reap(frozen)
            if svc.pool.running:
                svc.stop()
        assert job.state is JobState.REJECTED
        with pytest.raises(OverloadedError) as excinfo:
            job.result(0)
        assert excinfo.value.detail["error"] == "draining"
        assert counts == {"settled": 0, "rejected": 1}

    def test_concurrent_mixed_jobs_match_thread_mode(
        self, fig2_snapshots, tmp_path
    ):
        """More workers than cores and a short switch interval: question
        jobs (a differential one included) race inline callables, every
        answer matches thread mode, and each question is dispatched to
        a child exactly once."""
        healthy, buggy = fig2_snapshots
        asks = [
            ("reachability", "net", None),
            ("detectLoops", "net", None),
            ("routes", "buggy", None),
            ("differentialReachability", "buggy", "net"),
        ]

        def run_all(svc):
            svc.register_snapshot(healthy, name="net")
            svc.register_snapshot(buggy, name="buggy")
            jobs = [
                svc.submit(question, snapshot=name, reference_snapshot=ref)
                for question, name, ref in asks
            ]
            calls = [
                svc.submit_callable(lambda n=n: n, signature=("call", n))
                for n in range(20)
            ]
            assert [c.result(60).value for c in calls] == list(range(20))
            return [_canon(job.result(60).value) for job in jobs]

        with VerificationService(workers=1) as svc:
            baseline = run_all(svc)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        svc = VerificationService(
            workers=3, worker_mode="process", journal_dir=tmp_path
        )
        svc.start()
        try:
            assert run_all(svc) == baseline
            assert svc.stats()["pool"]["dispatches"] == len(asks)
        finally:
            svc.stop()
            sys.setswitchinterval(previous)

    def test_process_mode_requires_no_explicit_journal(self, fig2_snapshots):
        healthy, _ = fig2_snapshots
        svc = VerificationService(workers=1, worker_mode="process")
        assert svc.journal is not None  # scratch manifest auto-created
        svc.start()
        try:
            svc.register_snapshot(healthy, name="net")
            job = svc.submit("detectLoops", snapshot="net")
            assert job.result(120).value is not None
        finally:
            svc.stop()


class TestServiceChaosPlan:
    def test_sampled_plan_is_deterministic(self):
        first = sampled_service_plan(seed=7, crashes=2, stalls=1, storms=1)
        second = sampled_service_plan(seed=7, crashes=2, stalls=1, storms=1)
        assert first == second
        assert first != sampled_service_plan(seed=8, crashes=2, stalls=1,
                                             storms=1)

    def test_describe_shape(self):
        plan = ServiceFaultPlan(
            faults=(
                WorkerCrash(at_dispatch=3),
                JournalStall(at_record=5),
                EvictionStorm(at_submit=2),
            )
        )
        described = plan.describe()
        assert [f["kind"] for f in described["faults"]] == [
            "worker-crash", "journal-stall", "eviction-storm",
        ]

    def test_worker_crash_requires_process_pool(self):
        svc = VerificationService(workers=1)  # thread mode
        plan = ServiceFaultPlan(faults=(WorkerCrash(at_dispatch=1),))
        with pytest.raises(ValueError, match="process"):
            ServiceChaos(svc, plan).arm()

    def test_eviction_storm_fires_on_submit_index(self, fig2_snapshots):
        healthy, _ = fig2_snapshots
        warm = ("reachability", {})
        stormed = ("reachability", {"actions": "FAILURE"})

        def made(tracer):
            return tracer.counters.get(
                "verify.engine_builds", 0
            ) + tracer.counters.get("verify.delta_applies", 0)

        with VerificationService(workers=1) as calm:
            calm.register_snapshot(healthy, name="net")
            expected = calm.submit(*stormed, snapshot="net").result(60).value
        with tracing() as tracer:
            svc = VerificationService(workers=1)
            svc.start()
            try:
                svc.register_snapshot(healthy, name="net")
                svc.submit(*warm, snapshot="net").result(60)  # warms the engine
                before = made(tracer)
                plan = ServiceFaultPlan(
                    faults=(EvictionStorm(at_submit=2, evict=1),)
                )
                with ServiceChaos(svc, plan) as chaos:
                    # A different question, so the result cache cannot
                    # answer it: the job re-registers the evicted state
                    # and rebuilds its engine.
                    job = svc.submit(*stormed, snapshot="net")
                    answer = job.result(60).value
                assert [f["kind"] for f in chaos.fired] == ["eviction-storm"]
                assert svc.store.stats()["evictions"] >= 1
            finally:
                svc.stop()
        assert answer == expected
        assert made(tracer) >= before + 1


class TestHealthAndFrontend:
    def test_health_ready_flips_on_drain(self):
        svc = VerificationService(workers=1)
        svc.start()
        health = svc.health()
        assert health["live"] and health["ready"]
        assert not health["draining"]
        svc.stop()
        health = svc.health()
        assert health["live"] and not health["ready"]
        assert health["draining"]

    def test_frontend_health_and_dead_letter_ops(self):
        svc = VerificationService(workers=1)
        svc.start()
        try:
            frontend = ServiceFrontend(svc)
            response, keep = frontend.handle({"op": "health"})
            assert keep and response["ok"] and response["ready"]
            svc._dead_letter(
                key="abcd", reason="test", deliveries=4,
                question="reachability",
            )
            response, _ = frontend.handle({"op": "dead-letters"})
            assert response["ok"]
            assert response["dead_letters"][0]["key"] == "abcd"
            assert response["dead_letters"][0]["deliveries"] == 4
        finally:
            svc.stop()

    def test_stats_carries_resilience_surfaces(self, tmp_path):
        svc = VerificationService(workers=1, journal_dir=tmp_path)
        svc.start()
        try:
            stats = svc.stats()
            assert stats["worker_mode"] == "thread"
            assert stats["journal"]["dir"] == str(tmp_path)
            assert stats["breakers"]["keys"] == 0
            assert stats["dead_letter_count"] == 0
        finally:
            svc.stop()
