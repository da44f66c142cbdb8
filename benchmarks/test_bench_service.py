"""Verification service: amortized engines vs one-shot execution.

The service's economic claim, measured: a mixed interactive workload
(duplicated and distinct questions over a small set of forwarding
states) served by the resident :class:`VerificationService` must build
at least 5x fewer atom-graph engines than one-shot execution — a fresh
session and cold engine cache per request, the cost model of invoking
``mfv`` once per query — and finish the workload faster end to end.
Also exercises the two control-plane properties under load: an overload
burst past the queue watermark yields structured ``overloaded``
rejections with the depth bounded, and an interactive arrival completes
ahead of campaign-class jobs queued before it (no priority inversion).
Emits ``BENCH_service.json``.

Scale: ``MFV_BENCH_SMOKE=1`` shrinks the corpus for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.core.context import ScenarioContext
from repro.core.faults import LinkDown
from repro.core.pipeline import ModelFreeBackend
from repro.corpus.production import production_scenario, scaled_timers
from repro.obs import tracing
from repro.pybf.session import Session
from repro.service import (
    JobPriority,
    JobState,
    OverloadedError,
    VerificationService,
)
from repro.verify.engine import clear_engine_cache

from benchmarks.conftest import run_once

SMOKE = bool(os.environ.get("MFV_BENCH_SMOKE"))
NODES = 6 if SMOKE else 8
ROUTES = 60 if SMOKE else 120
REPS = 3 if SMOKE else 5


def _build_snapshots():
    """Two distinct forwarding states of the production corpus: the
    converged baseline and a single-link-failure variant."""
    scenario = production_scenario(
        NODES, peers=2, routes_per_peer=ROUTES, seed=7
    )
    timers = scaled_timers(ROUTES)
    injectors = tuple(scenario.injectors)
    backend = ModelFreeBackend(
        scenario.topology, timers=timers, quiet_period=30.0
    )
    baseline = backend.run(
        ScenarioContext(name="prod", injectors=injectors),
        snapshot_name="baseline",
    )
    link = scenario.topology.links[0]
    variant = ModelFreeBackend(
        scenario.topology, timers=timers, quiet_period=30.0
    ).run(
        ScenarioContext(
            name="linkdown",
            injectors=injectors,
            faults=(LinkDown(link.a.node, link.z.node),),
        ),
        snapshot_name="variant",
    )
    assert (
        baseline.dataplane.fib_fingerprint()
        != variant.dataplane.fib_fingerprint()
    )
    return scenario, baseline, variant


def _workload(scenario):
    """12 distinct (question, params, snapshot) specs, repeated REPS
    times in a deterministic interleave — the duplicated/distinct mix a
    shared service amortizes and one-shot execution cannot."""
    nodes = sorted(scenario.loopbacks)
    lb = scenario.loopbacks
    specs = [
        ("reachability", {}, "baseline"),
        ("reachability",
         {"startLocation": nodes[0], "dst": f"{lb[nodes[-1]]}/32"},
         "baseline"),
        ("traceroute",
         {"startLocation": nodes[1], "dst": lb[nodes[-2]]}, "baseline"),
        ("routes", {"nodes": nodes[0]}, "baseline"),
        ("routes", {"nodes": nodes[2]}, "baseline"),
        ("detectLoops", {}, "baseline"),
        ("layer3Edges", {}, "baseline"),
        ("reachability", {}, "variant"),
        ("traceroute",
         {"startLocation": nodes[0], "dst": lb[nodes[-1]]}, "variant"),
        ("routes", {"nodes": nodes[1]}, "variant"),
        ("detectLoops", {}, "variant"),
        ("layer3Edges", {}, "variant"),
    ]
    # Interleave by stride so duplicates never arrive back to back:
    # the service sees realistic mixing, not convenient runs.
    workload = []
    for rep in range(REPS):
        for offset in range(len(specs)):
            workload.append(specs[(offset * 5 + rep) % len(specs)])
    return workload


def _run_oneshot(workload, baseline, variant):
    """The cost model of one ``mfv`` invocation per query: every
    request pays a fresh session and a cold engine cache."""
    snapshots = {"baseline": baseline, "variant": variant}
    started = time.perf_counter()
    for question, params, name in workload:
        clear_engine_cache()
        bf = Session()
        bf.init_snapshot(snapshots[name], name=name)
        answer = getattr(bf.q, question)(**params).answer(snapshot=name)
        assert answer.frame() is not None
    wall = time.perf_counter() - started
    clear_engine_cache()
    return wall


def _run_service(workload, baseline, variant):
    started = time.perf_counter()
    with VerificationService(workers=2) as svc:
        svc.register_snapshot(baseline, name="baseline")
        svc.register_snapshot(variant, name="variant")
        jobs = [
            svc.submit(question, params, snapshot=name)
            for question, params, name in workload
        ]
        for job in jobs:
            assert job.result(timeout=60).value is not None
        stats = svc.stats()
    return time.perf_counter() - started, stats


def _overload_burst():
    """Past the watermark: structured rejections, bounded depth, and
    the interactive arrival finishing ahead of queued campaign work."""
    release = threading.Event()
    started = threading.Event()

    def wall():
        started.set()
        release.wait(30)
        return "unblocked"

    svc = VerificationService(workers=1, max_queue_depth=4)
    svc.start()
    try:
        svc.submit_callable(wall, signature=("wall",), cacheable=False)
        assert started.wait(10)
        burst = [
            svc.submit_callable(
                lambda n=n: n, signature=("burst", n),
                priority=JobPriority.CAMPAIGN, cacheable=False,
            )
            for n in range(20)
        ]
        depth_seen = svc.queue.depth
        interactive = svc.submit_callable(
            lambda: "now", signature=("now",),
            priority=JobPriority.INTERACTIVE, cacheable=False,
        )
        rejected = [j for j in burst if j.state is JobState.REJECTED]
        assert rejected, "burst past the watermark must shed load"
        assert depth_seen <= svc.queue.max_depth
        try:
            rejected[0].result(timeout=0)
            raise AssertionError("rejected job must raise OverloadedError")
        except OverloadedError as exc:
            detail = exc.detail
        assert detail["error"] == "overloaded"
        assert detail["watermark"] == 4
        release.set()
        survivors = [j for j in burst if j.state is not JobState.REJECTED]
        for job in (interactive, *survivors):
            job.result(timeout=30)
        inversion_free = all(
            interactive.finished_at <= job.finished_at for job in survivors
        )
        assert inversion_free, "interactive job finished behind campaigns"
        return {
            "submitted": len(burst) + 1,
            "rejected": len(rejected),
            "watermark": 4,
            "max_depth_observed": depth_seen,
            "rejection_detail": {
                k: v for k, v in detail.items() if k != "shed_by"
            },
            "priority_inversion": not inversion_free,
        }
    finally:
        svc.stop()


def test_service_amortizes_engine_builds(benchmark, report):
    scenario, baseline, variant = _build_snapshots()
    workload = _workload(scenario)

    clear_engine_cache()
    with tracing() as tracer:
        oneshot_wall = _run_oneshot(workload, baseline, variant)
    oneshot_builds = tracer.counters["verify.engine_builds"]

    def serve():
        clear_engine_cache()
        with tracing() as service_tracer:
            wall, stats = _run_service(workload, baseline, variant)
        return wall, stats, service_tracer.counters

    service_wall, stats, counters = run_once(benchmark, serve)
    service_builds = counters["verify.engine_builds"]

    build_ratio = oneshot_builds / max(1, service_builds)
    throughput_speedup = oneshot_wall / max(1e-9, service_wall)
    overload = _overload_burst()

    payload = {
        "corpus": {"nodes": NODES, "routes_per_peer": ROUTES, "smoke": SMOKE},
        "workload": {
            "requests": len(workload),
            "distinct_specs": len(set(map(str, workload))),
            "reps": REPS,
        },
        "engine_builds_oneshot": oneshot_builds,
        "engine_builds_service": service_builds,
        "build_ratio": build_ratio,
        "oneshot_wall_seconds": oneshot_wall,
        "service_wall_seconds": service_wall,
        "throughput_speedup": throughput_speedup,
        "service_stats": {
            "store": stats["store"],
            "result_cache": stats["result_cache"],
            "coalesced": stats["counters"]["coalesced"],
            "jobs_submitted": stats["counters"]["jobs_submitted"],
            "result_cache_hits": stats["counters"]["result_cache_hits"],
        },
        "overload": overload,
    }
    Path("BENCH_service.json").write_text(json.dumps(payload, indent=2) + "\n")

    report.add(
        "service", f"engine builds, {len(workload)} mixed requests",
        ">=5x fewer than one-shot",
        f"{oneshot_builds} vs {service_builds} ({build_ratio:.0f}x)",
    )
    report.add(
        "service", "workload wall time",
        "service faster than one-shot",
        f"{oneshot_wall:.2f}s vs {service_wall:.2f}s "
        f"({throughput_speedup:.1f}x)",
    )
    report.add(
        "service", "overload burst",
        "structured rejections, bounded depth",
        f"{overload['rejected']}/{overload['submitted']} rejected, "
        f"depth <= {overload['watermark']}",
    )

    # One engine per distinct forwarding state, not per request.
    assert service_builds == 2
    assert build_ratio >= 5.0
    assert throughput_speedup > 1.0
    assert overload["rejected"] > 0
    assert not overload["priority_inversion"]
