"""E7: atom-graph engine vs scalar walks on the production corpus.

The atom-graph engine resolves every device's LPM decision once per
destination atom and classifies all ingresses in one graph pass, where
the original evaluation re-walked the network per (ingress, atom) pair
— re-running the longest-prefix match at every hop of every walk. This
bench runs the same workload (full reachability from every ingress plus
the all-pairs matrix) both ways on a generated production-like
topology, checks the answers agree, and emits ``BENCH_verify.json``
with the wall times and counter deltas.

Scale: ``MFV_BENCH_SMOKE=1`` shrinks the corpus for CI smoke runs; the
default size matches the repo's other production-corpus benches.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.context import ScenarioContext
from repro.core.pipeline import ModelFreeBackend
from repro.corpus.production import production_scenario, scaled_timers
from repro.dataplane.delta import DataplaneDelta
from repro.obs import tracing
from repro.verify.engine import (
    AtomGraphEngine,
    DeltaUnapplicable,
    clear_engine_cache,
)
from repro.verify.reachability import ReachabilityAnalysis, pairwise_matrix

from benchmarks.conftest import run_once

SMOKE = bool(os.environ.get("MFV_BENCH_SMOKE"))
NODES = 6 if SMOKE else 16
PEERS = 1 if SMOKE else 3
ROUTES = 60 if SMOKE else 500

# Delta-maintenance corpus (E7b): a 10-node single-peer fabric where
# cutting r7-r5 is off every peer-route shortest path, so the honest
# churn dirties a handful of atoms — the regime the delta path exists
# for. The on-path cut r2-r1 legitimately reroutes a large table slice
# (as next-hop-group rewrites) and is reported, never gated, to keep
# its cost — or its fallback, should it fall back — visible.
DELTA_NODES = 10
DELTA_PEERS = 1
DELTA_ROUTES = 800 if SMOKE else 2000
DELTA_CUT = ("r7", "r5")
DELTA_ONPATH_CUT = ("r2", "r1")
DELTA_ROUNDS = 3


def _build_snapshot():
    scenario = production_scenario(
        NODES, peers=PEERS, routes_per_peer=ROUTES, seed=7
    )
    backend = ModelFreeBackend(
        scenario.topology, timers=scaled_timers(ROUTES), quiet_period=30.0
    )
    return backend.run(
        ScenarioContext(name="prod", injectors=tuple(scenario.injectors))
    )


def _workload(dataplane, use_engine: bool):
    """Full reachability + all-pairs matrix, timed and counter-traced."""
    clear_engine_cache()
    with tracing() as tracer:
        start = time.perf_counter()
        rows = ReachabilityAnalysis(dataplane, use_engine=use_engine).analyze()
        matrix = pairwise_matrix(dataplane, use_engine=use_engine)
        wall = time.perf_counter() - start
    counters = tracer.counters
    return {
        "rows": rows,
        "matrix": matrix,
        "wall_seconds": wall,
        "lpm_lookups": counters.get("verify.lpm_lookups", 0),
        "scalar_walks": counters.get("verify.scalar_walks", 0),
        "index_probes": counters.get("verify.index_probes", 0),
        "graph_builds": counters.get("verify.graph_builds", 0),
        "graph_shared": counters.get("verify.graph_shared", 0),
    }


def _row_key(rows):
    return {(r.ingress, r.dispositions): r.dst_set for r in rows}


def test_e7_engine_vs_scalar_walks(benchmark, report):
    snapshot = run_once(benchmark, _build_snapshot)
    dataplane = snapshot.dataplane

    old = _workload(dataplane, use_engine=False)
    new = _workload(dataplane, use_engine=True)

    # Same answers either way — the engine is a faster evaluator, not a
    # different semantics.
    assert _row_key(old["rows"]) == _row_key(new["rows"])
    assert old["matrix"] == new["matrix"]

    lookup_factor = old["lpm_lookups"] / max(1, new["lpm_lookups"])
    walk_factor = old["scalar_walks"] / max(1, new["scalar_walks"])
    speedup = old["wall_seconds"] / max(1e-9, new["wall_seconds"])

    payload = {
        "corpus": {"nodes": NODES, "peers": PEERS, "routes_per_peer": ROUTES,
                   "smoke": SMOKE},
        "workload": "full reachability (all ingresses) + all-pairs matrix",
        "old": {k: v for k, v in old.items() if k not in ("rows", "matrix")},
        "new": {k: v for k, v in new.items() if k not in ("rows", "matrix")},
        "lpm_lookup_reduction": lookup_factor,
        "scalar_walk_reduction": walk_factor,
        "wall_speedup": speedup,
    }
    Path("BENCH_verify.json").write_text(json.dumps(payload, indent=2) + "\n")

    report.add(
        "E7", "per-hop LPM lookups (old vs engine)",
        ">=5x fewer",
        f"{old['lpm_lookups']} -> {new['lpm_lookups']} "
        f"({lookup_factor:.0f}x)",
    )
    report.add(
        "E7", "verification wall time",
        "speedup",
        f"{old['wall_seconds']:.2f}s -> {new['wall_seconds']:.2f}s "
        f"({speedup:.1f}x)",
    )
    assert lookup_factor >= 5.0
    assert new["wall_seconds"] < old["wall_seconds"]
    # Decision-vector dedup: many atoms resolve to few distinct graphs.
    assert new["graph_builds"] + new["graph_shared"] > 0
    assert new["graph_builds"] <= new["graph_builds"] + new["graph_shared"]


def _build_delta_corpus():
    scenario = production_scenario(
        DELTA_NODES, peers=DELTA_PEERS, routes_per_peer=DELTA_ROUTES, seed=7
    )
    backend = ModelFreeBackend(
        scenario.topology,
        timers=scaled_timers(DELTA_ROUTES),
        quiet_period=30.0,
    )
    context = ScenarioContext(
        name="prod", injectors=tuple(scenario.injectors)
    )
    base = backend.run(context)
    offpath = backend.run(context.with_link_down(*DELTA_CUT))
    onpath = backend.run(context.with_link_down(*DELTA_ONPATH_CUT))
    return base, offpath, onpath


def _cold_seconds(dataplane):
    best = float("inf")
    for _ in range(DELTA_ROUNDS):
        start = time.perf_counter()
        engine = AtomGraphEngine(dataplane)
        engine.precompute()
        best = min(best, time.perf_counter() - start)
    return best


def _delta_seconds(base_engine, dataplane):
    """Min-of-N diff+apply wall seconds (the full incremental path, the
    diff included) plus the last run's stats; None seconds on fallback."""
    best = None
    stats = None
    for _ in range(DELTA_ROUNDS):
        start = time.perf_counter()
        try:
            derived = base_engine.apply_delta(
                DataplaneDelta(base_engine.dataplane, dataplane)
            )
        except DeltaUnapplicable as exc:
            return None, exc.reason, None
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        stats = derived.delta_stats
    return best, None, stats


def test_e7b_delta_apply_vs_cold_rebuild(benchmark, report):
    base, offpath, onpath = run_once(benchmark, _build_delta_corpus)
    clear_engine_cache()
    base_engine = AtomGraphEngine(base.dataplane)
    base_engine.precompute()

    cold = _cold_seconds(offpath.dataplane)
    incremental, fallback, stats = _delta_seconds(
        base_engine, offpath.dataplane
    )
    assert fallback is None, (
        f"off-path cut {DELTA_CUT} unexpectedly fell back: {fallback}"
    )
    ratio = cold / max(1e-9, incremental)

    onpath_cold = _cold_seconds(onpath.dataplane)
    onpath_incremental, onpath_fallback, onpath_stats = _delta_seconds(
        base_engine, onpath.dataplane
    )

    delta_payload = {
        "corpus": {
            "nodes": DELTA_NODES,
            "peers": DELTA_PEERS,
            "routes_per_peer": DELTA_ROUTES,
            "smoke": SMOKE,
        },
        "rounds": DELTA_ROUNDS,
        "offpath_cut": {
            "link": list(DELTA_CUT),
            "cold_seconds": cold,
            "delta_seconds": incremental,
            "ratio": ratio,
            "dirty_atoms": stats.dirty_atoms,
            "total_atoms": stats.total_atoms,
            "dirty_fraction": stats.dirty_fraction,
        },
        "onpath_cut": {
            "link": list(DELTA_ONPATH_CUT),
            "cold_seconds": onpath_cold,
            "delta_seconds": onpath_incremental,
            "fallback": onpath_fallback,
            "ratio": (
                onpath_cold / max(1e-9, onpath_incremental)
                if onpath_incremental is not None
                else None
            ),
            "dirty_fraction": (
                onpath_stats.dirty_fraction
                if onpath_stats is not None
                else None
            ),
        },
    }
    path = Path("BENCH_verify.json")
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["delta"] = delta_payload
    path.write_text(json.dumps(payload, indent=2) + "\n")

    report.add(
        "E7b", "single-link delta apply vs cold rebuild",
        ">=5x faster",
        f"{cold * 1e3:.1f}ms -> {incremental * 1e3:.1f}ms "
        f"({ratio:.1f}x, {stats.dirty_atoms}/{stats.total_atoms} dirty)",
    )
    if onpath_fallback is not None:
        onpath_measured = f"fallback: {onpath_fallback}"
    else:
        onpath_measured = (
            f"{onpath_cold * 1e3:.1f}ms -> {onpath_incremental * 1e3:.1f}ms "
            f"(dirty fraction {onpath_stats.dirty_fraction:.2f})"
        )
    report.add(
        "E7b", "on-path cut (heavy churn, reported not gated)",
        "apply or fall back",
        onpath_measured,
    )

    assert ratio >= 5.0
    # The patch is sparse: the off-path cut must not dirty more than a
    # sliver of the table, or the candidate detection has regressed.
    assert stats.dirty_fraction < 0.1
