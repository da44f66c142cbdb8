"""Run a corpus scenario under a fault plan and score the damage.

The runner executes the model-free pipeline twice over the same
topology/context/seed — once fault-free, once under the plan — and
reports *verdict stability*: the fraction of pairwise reachability
verdicts common to both runs that agree. Answers that exist only under
degradation (pairs involving a degraded node) are excluded from the
stability denominator and reported separately as the degraded-verdict
fraction, because ``UNKNOWN_DEGRADED`` is an absence of proof, not a
disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.context import ScenarioContext
from repro.core.faults import FaultPlan
from repro.core.pipeline import ModelFreeBackend
from repro.core.snapshot import Snapshot
from repro.dataplane.model import Dataplane
from repro.protocols.timers import PRODUCTION_TIMERS, TimerProfile
from repro.topo.model import Topology
from repro.verify.invariants import Pairwise, Probe


def pairwise_verdicts(dataplane: Dataplane) -> dict[str, bool]:
    """Every device pair's :class:`Pairwise` verdict, keyed ``src->dst``."""
    probe = Probe(dataplane)
    failing = dict(Pairwise().findings(probe))
    return {
        f"{src}->{dst}": (src, dst) not in failing
        for src, dst in sorted(probe.matrix())
    }


def verdict_stability(
    baseline: dict[str, bool], faulted: dict[str, bool]
) -> float:
    """Fraction of verdicts present in both runs that agree."""
    common = set(baseline) & set(faulted)
    if not common:
        return 1.0
    agreeing = sum(1 for key in common if baseline[key] == faulted[key])
    return agreeing / len(common)


def degraded_fraction(dataplane: Dataplane) -> float:
    """Fraction of reachability rows answering UNKNOWN_DEGRADED."""
    probe = Probe(dataplane)
    rows = probe.rows()
    return len(probe.degraded()) / len(rows) if rows else 0.0


@dataclass
class ChaosRunReport:
    """Everything the ``mfv chaos`` verb and the bench report."""

    plan: dict
    seed: int
    survived: bool
    degraded_nodes: dict[str, str] = field(default_factory=dict)
    retries: dict[str, int] = field(default_factory=dict)
    fault_log: list = field(default_factory=list)
    stability: float = 1.0
    degraded_verdict_fraction: float = 0.0
    baseline_verification: dict = field(default_factory=dict)
    chaos_verification: dict = field(default_factory=dict)
    baseline_snapshot: Optional[Snapshot] = None
    chaos_snapshot: Optional[Snapshot] = None
    #: ``TemporalReport.to_dict()`` of the faulted run (``temporal=``
    #: opt-in): how the network misbehaved *while* the faults landed,
    #: not just where it ended up.
    temporal: dict = field(default_factory=dict)
    #: Present when ``run_chaos(seeds=...)`` scored the plan over an
    #: ensemble of faulted runs rather than one seed: the seed list,
    #: per-seed stability, and how many distinct faulted outcomes the
    #: sweep produced. ``stability`` then pools agreement across seeds.
    ensemble: dict = field(default_factory=dict)

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    def to_dict(self) -> dict:
        out = {
            "plan": self.plan,
            "seed": self.seed,
            "survived": self.survived,
            "degraded_nodes": dict(self.degraded_nodes),
            "retries": dict(self.retries),
            "total_retries": self.total_retries,
            "faults_fired": len(self.fault_log),
            "stability": self.stability,
            "degraded_verdict_fraction": self.degraded_verdict_fraction,
            "baseline_verification": self.baseline_verification,
            "chaos_verification": self.chaos_verification,
        }
        if self.temporal:
            out["temporal"] = self.temporal
        if self.ensemble:
            out["ensemble"] = self.ensemble
        return out


def run_chaos(
    topology: Topology,
    plan: FaultPlan,
    *,
    context: Optional[ScenarioContext] = None,
    seed: int = 0,
    timers: TimerProfile = PRODUCTION_TIMERS,
    quiet_period: float = 30.0,
    convergence_max_time: float = 86_400.0,
    temporal=None,
    seeds: Optional[Sequence[int]] = None,
) -> ChaosRunReport:
    """Fault-free baseline + faulted run, scored for verdict stability.

    Both runs share the topology, context, and seed, so with an empty
    plan the two snapshots' verdicts are byte-identical — the bench's
    fault-free regression gate.

    ``temporal`` (True or a sequence of temporal invariants) records a
    checkpoint stream through the *faulted* run, so the scenario is
    also scored on its transient behavior — the report's ``temporal``
    dict carries the violation intervals.

    ``seeds`` scores the plan over an *ensemble* of faulted runs: one
    baseline/faulted pair per seed on the same warm backend, stability
    pooled across every pair (agreements over common verdicts, summed
    across seeds). Fault timing is seed-jittered, so one seed's
    stability is a sample, not a verdict. Degraded pairs stay out of
    every denominator, and identical faulted fingerprints share one
    verdict computation. The report's scalar fields (snapshots, logs,
    verification) come from the first seed; the ``ensemble`` dict
    carries the per-seed breakdown.
    """
    seed_list = tuple(seeds) if seeds is not None else (seed,)
    if not seed_list:
        seed_list = (seed,)
    sweep = len(seed_list) > 1
    backend = ModelFreeBackend(
        topology,
        timers=timers,
        quiet_period=quiet_period,
        convergence_max_time=convergence_max_time,
    )
    # fingerprint -> pairwise verdicts, shared across the sweep: seeds
    # (and baseline/faulted pairs) that converge identically pay one
    # matrix, mirroring the ensemble runner's outcome dedup.
    verdict_cache: dict[int, dict[str, bool]] = {}

    def verdicts_of(snapshot: Snapshot) -> dict[str, bool]:
        fingerprint = snapshot.dataplane.fib_fingerprint()
        cached = verdict_cache.get(fingerprint)
        if cached is None:
            cached = pairwise_verdicts(snapshot.dataplane)
            verdict_cache[fingerprint] = cached
        return cached

    pairs = []
    for run_seed in seed_list:
        suffix = f":seed-{run_seed}" if sweep else ""
        baseline = backend.run(
            context,
            seed=run_seed,
            snapshot_name=f"chaos:baseline{suffix}",
            verify=True,
        )
        faulted = backend.run(
            context,
            seed=run_seed,
            snapshot_name=f"chaos:{plan.name}{suffix}",
            verify=True,
            chaos=plan,
            temporal=temporal,
        )
        pairs.append((run_seed, baseline, faulted))

    agreeing = 0
    common_total = 0
    per_seed_stability = {}
    degraded_fractions = []
    for run_seed, baseline, faulted in pairs:
        base_verdicts = verdicts_of(baseline)
        fault_verdicts = verdicts_of(faulted)
        common = set(base_verdicts) & set(fault_verdicts)
        agreeing += sum(
            1 for key in common if base_verdicts[key] == fault_verdicts[key]
        )
        common_total += len(common)
        per_seed_stability[run_seed] = verdict_stability(
            base_verdicts, fault_verdicts
        )
        degraded_fractions.append(degraded_fraction(faulted.dataplane))

    stability = agreeing / common_total if common_total else 1.0
    ensemble_info = {}
    if sweep:
        distinct_faulted = len(
            {f.dataplane.fib_fingerprint() for _, _, f in pairs}
        )
        ensemble_info = {
            "seeds": list(seed_list),
            "per_seed_stability": {
                str(s): round(v, 6) for s, v in per_seed_stability.items()
            },
            "distinct_faulted_outcomes": distinct_faulted,
        }

    first_seed, baseline, faulted = pairs[0]
    chaos_meta = faulted.metadata.get("chaos", {})
    return ChaosRunReport(
        plan=plan.describe(),
        seed=first_seed,
        survived=True,
        degraded_nodes=dict(faulted.degraded_nodes),
        retries=dict(faulted.metadata.get("extraction_retries", {})),
        fault_log=list(chaos_meta.get("log", [])),
        stability=stability,
        degraded_verdict_fraction=(
            sum(degraded_fractions) / len(degraded_fractions)
        ),
        baseline_verification=dict(baseline.metadata.get("verification", {})),
        chaos_verification=dict(faulted.metadata.get("verification", {})),
        baseline_snapshot=baseline,
        chaos_snapshot=faulted,
        temporal=dict(faulted.metadata.get("temporal", {})),
        ensemble=ensemble_info,
    )
