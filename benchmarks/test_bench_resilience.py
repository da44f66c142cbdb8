"""Resilience plane: durability is cheap, crashes lose nothing.

Three measured claims behind the service's crash-safety story:

* **Journal overhead** — running the PR-4 mixed workload with the
  write-ahead journal enabled costs at most 1.05x the un-journaled
  wall time (fsync batching keeps the durability window off the
  critical path);
* **Zero loss under crashes** — a seeded
  :func:`~repro.chaos.sampled_service_plan` SIGKILLing supervised
  process workers mid-job loses zero accepted jobs: every submission
  settles with an answer (redelivered, never dropped) and the
  dead-letter list stays empty;
* **Recovery scales with the log** — ``VerificationService.recover``
  replay time is measured against journal size (records and bytes), so
  the restart cost of a churning service is a curve, not a guess.

Emits ``BENCH_resilience.json``.

Scale: ``MFV_BENCH_SMOKE=1`` shrinks the corpus for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.chaos import ServiceChaos, sampled_service_plan
from repro.service import JobJournal, QuestionSpec, VerificationService
from repro.verify.engine import clear_engine_cache

from benchmarks.conftest import run_once
from benchmarks.test_bench_service import _build_snapshots, _workload

SMOKE = bool(os.environ.get("MFV_BENCH_SMOKE"))
#: Journal sizes (submit records) for the recovery-time curve.
RECOVERY_SIZES = (10, 50) if SMOKE else (10, 100, 500)
#: Jobs submitted into the seeded-crash schedule (distinct specs).
CRASH_JOBS = 6 if SMOKE else 8

#: The gate the tentpole promises, plus a small absolute slack so a
#: sub-second smoke corpus does not fail on scheduler jitter alone.
OVERHEAD_GATE = 1.05
OVERHEAD_SLACK_S = 0.25


def _run_workload(workload, baseline, variant, journal_dir=None):
    """One service pass over the mixed workload; returns (wall, stats)."""
    clear_engine_cache()
    started = time.perf_counter()
    with VerificationService(workers=2, journal_dir=journal_dir) as svc:
        svc.register_snapshot(baseline, name="baseline")
        svc.register_snapshot(variant, name="variant")
        jobs = [
            svc.submit(question, params, snapshot=name)
            for question, params, name in workload
        ]
        for job in jobs:
            assert job.result(timeout=120).value is not None
        stats = svc.stats()
    return time.perf_counter() - started, stats


def _crash_run(workload, baseline, variant, journal_dir):
    """Distinct questions through supervised process workers while a
    seeded plan SIGKILLs them mid-job; returns the loss accounting."""
    specs, seen = [], set()
    for spec in workload:
        key = str(spec)
        if key not in seen:
            seen.add(key)
            specs.append(spec)
        if len(specs) == CRASH_JOBS:
            break
    plan = sampled_service_plan(
        seed=11, crashes=2, dispatch_span=max(4, CRASH_JOBS - 2)
    )
    svc = VerificationService(
        workers=2,
        worker_mode="process",
        journal_dir=journal_dir,
        # Dead workers are detected via is_alive() within milliseconds
        # regardless of this interval; it only sets the hang budget
        # (heartbeat_s * MAX_MISSED). Generous, so a loaded CI box
        # building engines in the children never trips a spurious
        # missed-heartbeat kill.
        heartbeat_s=1.0,
    )
    svc.start()
    try:
        svc.register_snapshot(baseline, name="baseline")
        svc.register_snapshot(variant, name="variant")
        with ServiceChaos(svc, plan) as chaos:
            jobs = [
                svc.submit(question, params, snapshot=name)
                for question, params, name in specs
            ]
            answered = sum(
                1 for job in jobs
                if job.result(timeout=300).value is not None
            )
        stats = svc.stats()
        return {
            "plan": plan.describe(),
            "faults_fired": len(chaos.fired),
            "jobs_submitted": len(jobs),
            "jobs_answered": answered,
            "jobs_lost": len(jobs) - answered,
            "dead_letters": len(svc.dead_letters),
            "redeliveries": stats["pool"]["redeliveries"],
            "worker_respawns": stats["pool"]["respawns"],
        }
    finally:
        svc.stop(timeout=10.0)


def _recovery_curve(tmp_path):
    """recover() wall time vs journal size: N pending submit records
    (crash before anything ran) replayed into a requeued backlog."""
    curve = []
    for size in RECOVERY_SIZES:
        journal_dir = tmp_path / f"journal-{size}"
        journal = JobJournal(journal_dir, fsync_batch=8)
        for n in range(size):
            journal.record_submit(
                QuestionSpec(
                    question="reachability",
                    params=(("dst", f"10.0.{n // 256}.{n % 256}/32"),),
                    snapshot="net",
                    fingerprint=0x5EED + n,
                ),
                priority="interactive",
                timeout=None,
            )
        journal.close()
        journal_bytes = (journal_dir / "journal.jsonl").stat().st_size
        started = time.perf_counter()
        service, recovery = VerificationService.recover(
            journal_dir, workers=1
        )
        wall = time.perf_counter() - started
        assert recovery.jobs_requeued == size
        service.stop(timeout=1.0, drain=False)
        curve.append(
            {
                "records": size,
                "journal_bytes": journal_bytes,
                "wall_seconds": wall,
                "records_per_second": size / max(1e-9, recovery.wall_seconds),
            }
        )
    return curve


def test_resilience_costs_and_loses_nothing(
    benchmark, report, tmp_path
):
    scenario, baseline, variant = _build_snapshots()
    workload = _workload(scenario)

    plain_wall, _ = _run_workload(workload, baseline, variant)

    def journaled():
        return _run_workload(
            workload, baseline, variant,
            journal_dir=tmp_path / "journal-overhead",
        )

    journal_wall, journal_stats = run_once(benchmark, journaled)
    overhead = journal_wall / max(1e-9, plain_wall)

    crash = _crash_run(workload, baseline, variant, tmp_path / "crash")
    curve = _recovery_curve(tmp_path)

    payload = {
        "smoke": SMOKE,
        "workload_requests": len(workload),
        "journal_overhead": {
            "plain_wall_seconds": plain_wall,
            "journal_wall_seconds": journal_wall,
            "overhead_ratio": overhead,
            "gate": OVERHEAD_GATE,
            "journal": journal_stats["journal"],
        },
        "crash_schedule": crash,
        "recovery_curve": curve,
    }
    Path("BENCH_resilience.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    report.add(
        "resilience", "journal overhead (mixed workload)",
        f"<= {OVERHEAD_GATE}x",
        f"{plain_wall:.2f}s -> {journal_wall:.2f}s ({overhead:.3f}x)",
    )
    report.add(
        "resilience", "seeded worker crashes",
        "zero accepted jobs lost",
        f"{crash['jobs_answered']}/{crash['jobs_submitted']} answered, "
        f"{crash['worker_respawns']} respawns, "
        f"{crash['dead_letters']} dead-lettered",
    )
    report.add(
        "resilience", "journal recovery",
        "replay time scales with log size",
        ", ".join(
            f"{point['records']} rec/{point['wall_seconds'] * 1e3:.1f}ms"
            for point in curve
        ),
    )

    assert journal_wall <= plain_wall * OVERHEAD_GATE + OVERHEAD_SLACK_S, (
        f"journal overhead {overhead:.3f}x exceeds the {OVERHEAD_GATE}x gate"
    )
    assert crash["jobs_lost"] == 0
    assert crash["dead_letters"] == 0
    assert crash["faults_fired"] >= 1
    # Replay is linear and fast: even the largest journal recovers in
    # well under a second of pure log folding.
    assert all(point["wall_seconds"] < 5.0 for point in curve)
