"""Run a corpus scenario under a fault plan and score the damage.

A chaos run is a fold over the cold run matrix
(:func:`~repro.ensemble.runner.run_members`): per seed, a fault-free
baseline member and a faulted member over the same topology, context
and seed. It reports *verdict stability*: the fraction of pairwise
reachability verdicts common to a baseline and its faulted run that
agree. The verdicts are the ensemble lift's ``reach:`` rows, which
leave out pairs answering UNKNOWN_DEGRADED — an absence of proof, not
a disagreement — so those stay out of the stability denominator and
are reported separately as the degraded-verdict fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

from repro.core.context import ScenarioContext
from repro.core.faults import FaultPlan
from repro.core.pipeline import ModelFreeBackend, run_sharded
from repro.core.snapshot import Snapshot
from repro.dataplane.model import Dataplane
from repro.ensemble.runner import outcome_rows, run_members
from repro.protocols.timers import PRODUCTION_TIMERS, TimerProfile
from repro.topo.model import Topology
from repro.verify.invariants import Pairwise, Probe, verification_summary


def degraded_fraction(
    dataplane: Dataplane, probe: Optional[Probe] = None
) -> float:
    """Fraction of reachability rows answering UNKNOWN_DEGRADED
    (``probe``, when given, is ``dataplane``'s)."""
    if probe is None:
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
    baseline/faulted pair per seed, stability pooled across every pair
    (agreements over common verdicts, summed across seeds). Fault
    timing is seed-jittered, so one seed's stability is a sample, not a
    verdict. The report's scalar fields (snapshots, logs, verification)
    come from the first seed; the ``ensemble`` dict carries the
    per-seed breakdown. ``seeds=None`` runs ``seed`` alone; an empty
    sequence is a ValueError.
    """
    seed_list = tuple(seeds) if seeds is not None else (seed,)
    if not seed_list:
        raise ValueError("no seeds to run a chaos plan over")
    backend = ModelFreeBackend(
        topology,
        timers=timers,
        quiet_period=quiet_period,
        convergence_max_time=convergence_max_time,
    )
    members = [
        member
        for run_seed in seed_list
        for member in ((run_seed, None, None), (run_seed, plan, temporal))
    ]
    _, records, _ = run_sharded(partial(run_members, backend, context), members)
    pairs = list(zip(records[::2], records[1::2]))

    agreeing = common_total = 0
    degraded_total = 0.0
    per_seed_stability = {}
    # One probe per record: its rows and sample walks serve the
    # stability rows, the degraded fraction and the first seed's
    # verification summaries.
    probes = [
        (Probe(base.snapshot.dataplane), Probe(fault.snapshot.dataplane))
        for base, fault in pairs
    ]
    for (baseline, faulted), (base_probe, fault_probe) in zip(pairs, probes):
        base_rows = outcome_rows(Pairwise(), base_probe)
        fault_rows = outcome_rows(Pairwise(), fault_probe)
        common = base_rows.keys() & fault_rows.keys()
        agree = sum(base_rows[key][0] == fault_rows[key][0] for key in common)
        agreeing += agree
        common_total += len(common)
        per_seed_stability[baseline.seed] = (
            agree / len(common) if common else 1.0
        )
        degraded_total += degraded_fraction(
            faulted.snapshot.dataplane, fault_probe
        )

    ensemble_info = {}
    if len(seed_list) > 1:
        ensemble_info = {
            "seeds": list(seed_list),
            "per_seed_stability": {
                str(s): round(v, 6) for s, v in per_seed_stability.items()
            },
            "distinct_faulted_outcomes": len(
                {faulted.fingerprint for _, faulted in pairs}
            ),
        }

    baseline, faulted = (record.snapshot for record in pairs[0])
    base_probe, fault_probe = probes[0]
    chaos_meta = faulted.metadata.get("chaos", {})
    return ChaosRunReport(
        plan=plan.describe(),
        seed=seed_list[0],
        survived=True,
        degraded_nodes=dict(faulted.degraded_nodes),
        retries=dict(faulted.metadata.get("extraction_retries", {})),
        fault_log=list(chaos_meta.get("log", [])),
        stability=agreeing / common_total if common_total else 1.0,
        degraded_verdict_fraction=degraded_total / len(pairs),
        baseline_verification=verification_summary(
            baseline.dataplane, base_probe
        ),
        chaos_verification=verification_summary(
            faulted.dataplane, fault_probe
        ),
        baseline_snapshot=baseline,
        chaos_snapshot=faulted,
        temporal=dict(faulted.metadata.get("temporal", {})),
        ensemble=ensemble_info,
    )
