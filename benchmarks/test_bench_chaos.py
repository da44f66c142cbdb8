"""Chaos: fault survival and graceful degradation, measured.

The robustness claim behind ``repro.chaos``: the extract/verify
pipeline survives a production corpus run under transient gNMI faults
plus a pod crash — no unhandled exception, the crashed node lands in
the partial snapshot's ``degraded_nodes`` manifest, its destinations
answer ``UNKNOWN_DEGRADED``, and retries are visible as ``gnmi.retry``
counters. The regression gate rides along: an *empty* fault plan must
produce verdicts byte-identical to a build that never heard of chaos.
Emits ``BENCH_chaos.json`` with the fault survival rate, per-node retry
counts, and the degraded-verdict fraction.

Scale: ``MFV_BENCH_SMOKE=1`` shrinks the corpus for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.chaos import acceptance_plan, run_chaos, sampled_plan
from repro.chaos.runner import pairwise_verdicts
from repro.core.context import ScenarioContext
from repro.core.faults import FaultPlan
from repro.core.pipeline import ModelFreeBackend
from repro.corpus.production import production_scenario, scaled_timers
from repro.obs import tracing

from benchmarks.conftest import run_once

SMOKE = bool(os.environ.get("MFV_BENCH_SMOKE"))
NODES = 5 if SMOKE else 8
PEERS = 1 if SMOKE else 2
ROUTES = 50 if SMOKE else 200
SAMPLED_PLANS = 1 if SMOKE else 3
CRASH_AT = 900.0


def _corpus():
    scenario_set = production_scenario(
        NODES, peers=PEERS, routes_per_peer=ROUTES, seed=7
    )
    context = ScenarioContext(
        name="prod", injectors=tuple(scenario_set.injectors)
    )
    return scenario_set.topology, context, scaled_timers(ROUTES)


def test_chaos_survival_and_degradation(benchmark, report):
    topology, context, timers = _corpus()
    names = sorted(spec.name for spec in topology.nodes)
    plan = acceptance_plan(names, crash_at=CRASH_AT)
    crashed = next(f.target for f in plan.faults if f.kind == "node-down")

    def run_acceptance():
        started = time.perf_counter()
        with tracing() as tracer:
            result = run_chaos(
                topology, plan, context=context, seed=0, timers=timers
            )
        return result, dict(tracer.counters), time.perf_counter() - started

    result, counters, wall = run_once(benchmark, run_acceptance)

    # The acceptance scenario: completes, retried visibly, degraded the
    # crashed node explicitly, and answers about it are UNKNOWN — never
    # a fabricated NO_ROUTE.
    assert result.survived
    assert counters.get("gnmi.retry", 0) >= 1
    assert counters.get("chaos.faults", 0) >= len(plan)
    assert crashed in result.degraded_nodes
    assert result.total_retries >= 1
    assert result.degraded_verdict_fraction > 0.0

    # Survival across a sampled plan family (each run catches nothing:
    # an unhandled exception is a bench failure by construction).
    backend = ModelFreeBackend(topology, timers=timers)
    survived = 1  # the acceptance run above
    attempted = 1
    sampled_degraded = []
    for plan_seed in range(SAMPLED_PLANS):
        attempted += 1
        extra = sampled_plan(
            names, seed=plan_seed, intensity=3, crash=False
        )
        snapshot = backend.run(
            context,
            seed=0,
            snapshot_name=f"chaos-sampled-{plan_seed}",
            chaos=extra,
        )
        survived += 1
        sampled_degraded.append(sorted(snapshot.degraded_nodes))
    survival_rate = survived / attempted

    # The fault-free regression gate: an empty plan is byte-identical
    # to the chaos-free baseline — same FIB fingerprint, same verdicts.
    baseline = result.baseline_snapshot
    empty = backend.run(
        context, seed=0, snapshot_name="chaos-empty", chaos=FaultPlan()
    )
    assert "chaos" not in empty.metadata
    assert (
        empty.dataplane.fib_fingerprint()
        == baseline.dataplane.fib_fingerprint()
    )
    base_verdicts = pairwise_verdicts(baseline.dataplane)
    empty_verdicts = pairwise_verdicts(empty.dataplane)
    assert json.dumps(base_verdicts, sort_keys=True) == json.dumps(
        empty_verdicts, sort_keys=True
    )

    payload = {
        "corpus": {
            "nodes": NODES,
            "peers": PEERS,
            "routes_per_peer": ROUTES,
            "smoke": SMOKE,
        },
        "acceptance": result.to_dict(),
        "gnmi_retry_counter": counters.get("gnmi.retry", 0),
        "chaos_fault_counter": counters.get("chaos.faults", 0),
        "fault_survival": {
            "attempted": attempted,
            "survived": survived,
            "rate": survival_rate,
        },
        "retry_counts": dict(result.retries),
        "degraded_verdict_fraction": result.degraded_verdict_fraction,
        "sampled_degraded_nodes": sampled_degraded,
        "fault_free_byte_identical": True,
        "acceptance_wall_seconds": wall,
    }
    Path("BENCH_chaos.json").write_text(json.dumps(payload, indent=2) + "\n")

    report.add(
        "chaos", f"survival under {len(plan)}-fault acceptance plan",
        "completes, degrades gracefully",
        f"{survived}/{attempted} runs survived, "
        f"{crashed} degraded, {result.total_retries} retries",
    )
    report.add(
        "chaos", "degraded verdicts",
        "UNKNOWN_DEGRADED, never NO_ROUTE",
        f"{result.degraded_verdict_fraction:.1%} of rows",
    )
    report.add(
        "chaos", "empty plan vs chaos-free baseline",
        "byte-identical verdicts",
        "identical fingerprints and verdicts",
    )
    assert survival_rate == 1.0
