"""Temporal verification bench: incremental vs rebuild-per-checkpoint.

The claim under test is the whole point of threading one warm engine
through a checkpoint stream: evaluating every invariant at every
checkpoint with ``apply_delta`` must beat the brute-force oracle (a
cold, fully precomputed engine per checkpoint) by >= 5x wall time on
the production corpus, while reporting the *identical* violation
intervals. The episode is a repeatedly flapping off-path link (the same
``r7-r5`` link ``test_verify_delta`` uses for its off-path cut) on a
converged deployment — exactly the churning-but-recovering pathology
temporal verification exists for — so the stream carries real transient
blackhole windows no post-convergence check can see. The coalescing
window is zero so every install burst becomes a checkpoint: the most
checkpoint-dense, least favourable setting for the incremental path.

Writes ``BENCH_temporal.json`` for the CI artifact.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.core.context import ScenarioContext
from repro.core.pipeline import ModelFreeBackend
from repro.corpus.production import production_scenario, scaled_timers
from repro.temporal import CheckpointRecorder, evaluate_stream
from repro.verify import engine as engine_mod
from repro.whatif import link_flap_scenarios

SMOKE = bool(os.environ.get("MFV_BENCH_SMOKE"))

NODES = 4 if SMOKE else 8
ROUTES_PER_PEER = 40 if SMOKE else 500
FLAP_COUNT = 2 if SMOKE else 3
ROUNDS = 1 if SMOKE else 3


def _record_flap_stream():
    scenario = production_scenario(
        NODES, peers=2, routes_per_peer=ROUTES_PER_PEER, seed=7
    )
    backend = ModelFreeBackend(
        scenario.topology,
        timers=scaled_timers(ROUTES_PER_PEER),
        quiet_period=30.0,
    )
    context = ScenarioContext(
        name="bench-temporal", injectors=tuple(scenario.injectors)
    )
    backend.run(context)
    deployment = backend.last_run.deployment
    flaps = list(link_flap_scenarios(scenario.topology, hold_seconds=30.0))
    # The off-path link: its churn is small next to the total table, so
    # the apply-vs-rebuild contrast is honest (on-path flaps dirty most
    # of the FIB and legitimately cost close to a rebuild).
    flap = next((f for f in flaps if f.name == "flap:r7-r5"), flaps[-1])
    recorder = CheckpointRecorder(deployment, coalesce=0.0)
    recorder.arm()
    for _ in range(FLAP_COUNT):
        flap.apply(deployment)
        deployment.wait_converged(
            quiet_period=max(30.0, flap.min_quiet_period)
        )
    return recorder.finalize()


def _best_seconds(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_incremental_vs_rebuild_per_checkpoint(benchmark, report, monkeypatch):
    # Lift the dirty-fraction gate so every step takes the delta path —
    # the bench measures the patch, not the cost heuristic.
    monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
    stream = run_once(benchmark, _record_flap_stream)
    incremental_s, incremental = _best_seconds(
        lambda: evaluate_stream(stream, use_delta=True)
    )
    rebuild_s, oracle = _best_seconds(
        lambda: evaluate_stream(stream, use_delta=False)
    )

    assert incremental.intervals == oracle.intervals
    assert incremental.fallbacks == 0

    speedup = rebuild_s / incremental_s if incremental_s > 0 else float("inf")
    payload = {
        "corpus": f"production-{NODES}x{ROUTES_PER_PEER}",
        "smoke": SMOKE,
        "checkpoints": len(stream),
        "violations": len(incremental.intervals),
        "transient": len(incremental.transient),
        "persistent": len(incremental.persistent),
        "incremental_seconds": incremental_s,
        "rebuild_seconds": rebuild_s,
        "speedup": speedup,
        "intervals": [i.to_dict() for i in incremental.intervals],
    }
    Path("BENCH_temporal.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    report.add(
        "temporal",
        "incremental vs rebuild/checkpoint",
        ">=5x",
        f"{speedup:.1f}x over {len(stream)} checkpoints",
    )
    report.add(
        "temporal",
        "transient intervals (link flap)",
        ">=1",
        str(len(incremental.transient)),
    )

    # A flap on the production corpus always opens at least one
    # transient window that the post-convergence check cannot see.
    assert len(incremental.transient) >= 1
    if SMOKE:
        assert speedup > 1.0
    else:
        assert speedup >= 5.0
