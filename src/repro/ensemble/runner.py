"""The ensemble runner: N seeded runs, one set-level verdict.

The paper's §6 mitigation (run the emulation many times in parallel and
compare dataplanes) is promoted here from a boolean "deterministic?"
flag to ACORN-style verification of the *set* of possible converged
states: a seed sweep — optionally crossed with a set of
:class:`~repro.core.faults.FaultPlan`\\ s so timing and fault
nondeterminism are both sampled — whose outcomes dedup by
``fib_fingerprint``. Most seeds converge identically, so the ensemble
pays one atom-graph engine per *distinct* converged state (pinned in a
:class:`~repro.service.store.SnapshotStore`), then folds every
invariant row across the outcomes into holds-always / holds-sometimes
/ never with concrete witnesses.

Execution shards the (seed, plan) matrix round-robin across the same
process pool as :class:`~repro.whatif.campaign.WhatIfCampaign`
(:func:`~repro.core.pipeline.run_sharded`) — each shard runs its
members on one warm backend in its own process and ships plain-data run
records back; verification and the fold happen in the parent, where
the obs collector and the store live. Temporal streams (``temporal=``)
are evaluated *per member run* — transient behaviour differs between
seeds even when the final states collide — and fold into
``temporal:*`` rows whose witnesses carry the violating
``[t_start, t_end)`` interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.context import ScenarioContext
from repro.core.faults import FaultPlan
from repro.core.pipeline import ModelFreeBackend, run_sharded
from repro.core.snapshot import Snapshot
from repro.ensemble.verdicts import (
    HOLDS_ALWAYS,
    HOLDS_SOMETIMES,
    NEVER,
    EnsembleWitness,
    InvariantVerdict,
    RowObservation,
    fold_observations,
)
from repro.obs import bus
from repro.protocols.timers import PRODUCTION_TIMERS, TimerProfile
from repro.service.store import SnapshotStore
from repro.topo.model import Topology
from repro.verify.invariants import (
    Blackhole,
    Invariant,
    Loop,
    Pairwise,
    Probe,
    Waypoint,
)
from repro.verify.reachability import ReachabilityRow

DEFAULT_SEEDS = 4
TEMPORAL_PREFIX = "temporal:"
#: Row-name prefix for the per-pair reachability rows.
REACH_PREFIX = "reach:"
_ROW_NAMES = {Loop: "no-forwarding-loop", Blackhole: "no-blackhole"}


def default_ensemble_invariants() -> list[Invariant]:
    """The standard battery: loops, blackholes, all-pairs rows."""
    return [Loop(), Blackhole(), Pairwise()]


def outcome_rows(
    invariant: Invariant, probe: Probe
) -> dict[str, tuple[bool, str]]:
    """The ensemble lift: ``{row: (holds, detail)}`` on one outcome.

    :class:`Pairwise` answers one ``reach:src->dst`` row per device
    pair, omitting pairs that answer UNKNOWN_DEGRADED — absence of
    proof stays out of the fold denominator, matching the chaos
    runner's stability scoring. Every other invariant answers one row,
    whose detail is its first finding: the row itself for a snapshot
    flow, the violating ingress for a waypoint.
    """
    if isinstance(invariant, Pairwise):
        failing = dict(invariant.findings(probe))
        degraded = probe.degraded_pairs()
        return {
            f"{REACH_PREFIX}{src}->{dst}": (
                (src, dst) not in failing,
                failing.get((src, dst), ""),
            )
            for src, dst in sorted(probe.matrix())
            if (src, dst) not in degraded
        }
    if isinstance(invariant, Waypoint):
        name = f"waypoint:{invariant.dst}-via-{invariant.via}"
    else:
        name = _ROW_NAMES[type(invariant)]
    for key, detail in invariant.findings(probe):
        if isinstance(key, ReachabilityRow):
            return {name: (False, str(key))}
        return {name: (False, f"{key[0]} {detail}")}
    return {name: (True, "")}


@dataclass(frozen=True)
class RunRecord:
    """One member run — plain data, so it crosses the pool boundary."""

    seed: int
    plan_name: str
    snapshot: Snapshot
    #: ``TemporalReport.to_dict()`` of this member's run ({} when the
    #: ensemble did not opt into temporal verification).
    temporal: dict = field(default_factory=dict)

    @property
    def fingerprint(self) -> int:
        return self.snapshot.dataplane.fib_fingerprint()


@dataclass
class EnsembleOutcome:
    """One distinct converged state and every member that reached it."""

    fingerprint: int
    snapshot: Snapshot
    #: (seed, plan_name) in submission order; the first member is the
    #: outcome's canonical witness.
    members: list = field(default_factory=list)
    degraded: tuple = ()

    @property
    def multiplicity(self) -> int:
        return len(self.members)

    def to_dict(self) -> dict:
        return {
            "fingerprint": f"{self.fingerprint:#x}",
            "multiplicity": self.multiplicity,
            "members": [
                {"seed": seed, "plan": plan} for seed, plan in self.members
            ],
            "degraded_nodes": list(self.degraded),
        }


@dataclass
class EnsembleReport:
    """The whole ensemble's output: outcomes plus folded verdicts."""

    topology_name: str
    runs: int
    outcomes: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    seeds: tuple = ()
    plans: tuple = ()
    temporal_invariants: tuple = ()
    workers: int = 1

    @property
    def distinct(self) -> int:
        return len(self.outcomes)

    @property
    def deterministic(self) -> bool:
        return self.distinct <= 1

    @property
    def unstable(self) -> list:
        """Every verdict that is not holds-always (exit-code 2 rows)."""
        return [v for v in self.verdicts if v.verdict != HOLDS_ALWAYS]

    def verdict_counts(self) -> dict[str, int]:
        counts = {HOLDS_ALWAYS: 0, HOLDS_SOMETIMES: 0, NEVER: 0}
        for verdict in self.verdicts:
            counts[verdict.verdict] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "topology": self.topology_name,
            "runs": self.runs,
            "distinct_outcomes": self.distinct,
            "deterministic": self.deterministic,
            "seeds": list(self.seeds),
            "plans": list(self.plans),
            "temporal_invariants": list(self.temporal_invariants),
            "workers": self.workers,
            "verdict_counts": self.verdict_counts(),
            "outcomes": [o.to_dict() for o in self.outcomes],
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def render(self) -> str:
        counts = self.verdict_counts()
        lines = [
            f"ensemble: {self.topology_name} — {self.runs} run(s), "
            f"{self.distinct} distinct outcome(s)"
            + (f", {self.workers} workers" if self.workers > 1 else ""),
            "",
            "outcomes:",
        ]
        for outcome in self.outcomes:
            members = ", ".join(
                f"seed {seed}" + (f"+{plan}" if plan else "")
                for seed, plan in outcome.members
            )
            suffix = (
                f"  degraded: {', '.join(outcome.degraded)}"
                if outcome.degraded
                else ""
            )
            lines.append(
                f"  {outcome.fingerprint:#018x}  x{outcome.multiplicity}"
                f"  [{members}]{suffix}"
            )
        lines.append("")
        lines.append(
            f"verdicts: {counts[HOLDS_ALWAYS]} holds-always, "
            f"{counts[HOLDS_SOMETIMES]} holds-sometimes, "
            f"{counts[NEVER]} never"
        )
        for verdict in self.unstable:
            lines.append(f"  {verdict}")
        return "\n".join(lines)


def temporal_invariant_names(temporal) -> tuple:
    """The temporal row names a ``temporal=`` spec will produce."""
    if temporal is None or temporal is False:
        return ()
    from repro.temporal.invariants import default_invariants, stream_name

    if temporal is True:
        temporal = default_invariants()
    return tuple(stream_name(i) for i in temporal)


def fold_records(
    records: Sequence[RunRecord],
    *,
    invariants: Sequence[Invariant],
    temporal_names: tuple = (),
    engine_of: Optional[Callable[[Snapshot], object]] = None,
    dedup: bool = True,
    observe: bool = True,
    topology_name: str = "",
    seeds: tuple = (),
    plans: tuple = (),
    workers: int = 1,
) -> EnsembleReport:
    """Dedup run records by fingerprint and fold every invariant row.

    ``dedup=False`` is the brute-force oracle shape: every record is
    its own outcome (weight 1, one engine each), which the dedup path
    must match verdict-for-verdict. ``engine_of`` supplies the engine
    per outcome snapshot — a store's pinned engine on the dedup path, a
    cold throwaway build on the oracle path, or None for the
    content-keyed module cache.
    """
    collector = bus.ACTIVE
    emit = observe and collector.enabled
    outcomes: list[EnsembleOutcome] = []
    index_of: dict[int, int] = {}
    for record in records:
        fingerprint = record.fingerprint
        index = index_of.get(fingerprint) if dedup else None
        if index is None:
            if dedup:
                index_of[fingerprint] = len(outcomes)
            outcomes.append(
                EnsembleOutcome(
                    fingerprint=fingerprint,
                    snapshot=record.snapshot,
                    degraded=tuple(sorted(record.snapshot.degraded_nodes)),
                )
            )
            index = len(outcomes) - 1
        elif emit:
            collector.count("ensemble.dedup_hits")
        outcomes[index].members.append((record.seed, record.plan_name))

    observations: dict[str, list[RowObservation]] = {}
    for outcome in outcomes:
        seed, plan = outcome.members[0]
        if invariants:
            engine = (
                engine_of(outcome.snapshot) if engine_of is not None else None
            )
            probe = Probe(outcome.snapshot.dataplane, engine=engine)
        for invariant in invariants:
            for name, (holds, detail) in outcome_rows(
                invariant, probe
            ).items():
                observations.setdefault(name, []).append(
                    RowObservation(
                        holds=holds,
                        weight=outcome.multiplicity,
                        witness=EnsembleWitness(
                            seed=seed,
                            plan=plan,
                            fingerprint=outcome.fingerprint,
                            detail=detail,
                        ),
                    )
                )
        if emit:
            collector.emit(
                "ensemble.outcome",
                outcome.snapshot.convergence_seconds,
                fingerprint=f"{outcome.fingerprint:#x}",
                multiplicity=outcome.multiplicity,
                seed=seed,
                plan=plan,
                degraded=len(outcome.degraded),
            )

    # Temporal rows fold per member run, never per outcome: two seeds
    # can converge to the same final fingerprint via different
    # transient behaviour, and the transient is the point.
    if temporal_names:
        for record in records:
            by_invariant: dict[str, list[dict]] = {}
            for interval in record.temporal.get("intervals", []):
                by_invariant.setdefault(
                    interval.get("invariant", ""), []
                ).append(interval)
            for name in temporal_names:
                bad = by_invariant.get(name, [])
                first = bad[0] if bad else {}
                observations.setdefault(
                    f"{TEMPORAL_PREFIX}{name}", []
                ).append(
                    RowObservation(
                        holds=not bad,
                        weight=1,
                        witness=EnsembleWitness(
                            seed=record.seed,
                            plan=record.plan_name,
                            fingerprint=record.fingerprint,
                            detail=first.get("detail", ""),
                            t_start=first.get("t_start"),
                            t_end=first.get("t_end"),
                        ),
                    )
                )

    verdicts = fold_observations(observations)
    report = EnsembleReport(
        topology_name=topology_name,
        runs=len(records),
        outcomes=outcomes,
        verdicts=verdicts,
        seeds=tuple(seeds),
        plans=tuple(plans),
        temporal_invariants=tuple(
            f"{TEMPORAL_PREFIX}{name}" for name in temporal_names
        ),
        workers=workers,
    )
    if emit:
        collector.count("ensemble.runs", len(records))
        collector.count("ensemble.outcomes", len(outcomes))
        for verdict in report.unstable:
            collector.count("ensemble.unstable")
            witness = verdict.witnesses[0] if verdict.witnesses else None
            collector.emit(
                "ensemble.verdict",
                0.0,
                invariant=verdict.invariant,
                verdict=verdict.verdict,
                holds=verdict.holds,
                total=verdict.total,
                witness_seed=witness.seed if witness else None,
                witness_plan=witness.plan if witness else "",
                t_start=witness.t_start if witness else None,
                t_end=witness.t_end if witness else None,
            )
    registry = bus.metrics_registry()
    if observe and registry.enabled:
        registry.counter(
            "ensemble.runs", "Member runs executed by ensembles"
        ).inc(len(records))
        registry.counter(
            "ensemble.outcomes", "Distinct converged states across ensembles"
        ).inc(len(outcomes))
        verdicts_metric = registry.counter(
            "ensemble.verdicts",
            "Folded invariant verdicts by class",
            ("verdict",),
        )
        for kind, count in report.verdict_counts().items():
            if count:
                verdicts_metric.inc(count, verdict=kind)
    return report


def brute_force_verdicts(
    records: Sequence[RunRecord],
    *,
    invariants: Optional[Sequence[Invariant]] = None,
    temporal_names: tuple = (),
) -> list[InvariantVerdict]:
    """The no-dedup oracle: verify every member run independently.

    Each record gets its own cold, uncached engine and a weight-1
    observation per row — what a naive per-seed loop would pay. Tests
    assert the deduped ensemble matches this row-for-row; the bench
    measures how much slower it is.
    """
    from repro.verify.engine import AtomGraphEngine

    battery = (
        list(invariants)
        if invariants is not None
        else default_ensemble_invariants()
    )
    report = fold_records(
        records,
        invariants=battery,
        temporal_names=temporal_names,
        engine_of=lambda snap: AtomGraphEngine(snap.dataplane, _observe=False),
        dedup=False,
        observe=False,
    )
    return report.verdicts


class EnsembleRunner:
    """Run the (seed x plan) matrix and verify the outcome set."""

    def __init__(
        self,
        topology: Topology,
        *,
        context: Optional[ScenarioContext] = None,
        seeds: Sequence[int] = range(DEFAULT_SEEDS),
        plans: Optional[Sequence[Optional[FaultPlan]]] = None,
        invariants: Optional[Sequence[Invariant]] = None,
        temporal=None,
        cluster=None,
        timers: TimerProfile = PRODUCTION_TIMERS,
        quiet_period: float = 30.0,
        convergence_max_time: float = 86_400.0,
        store: Optional[SnapshotStore] = None,
    ) -> None:
        self.topology = topology
        self.context = context if context is not None else ScenarioContext()
        self.seeds = tuple(seeds)
        plan_list = list(plans) if plans else [None]
        self.plans = plan_list
        self.invariants = (
            list(invariants)
            if invariants is not None
            else default_ensemble_invariants()
        )
        self.temporal = temporal
        self.cluster = cluster
        self.timers = timers
        self.quiet_period = quiet_period
        self.convergence_max_time = convergence_max_time
        # The store pins one engine per distinct outcome — the dedup
        # economics. Sized to hold the whole matrix so a small default
        # capacity never evicts mid-fold.
        self.store = (
            store
            if store is not None
            else SnapshotStore(
                capacity=max(8, len(self.seeds) * len(plan_list))
            )
        )
        #: Per-member records of the most recent :meth:`run`, in matrix
        #: order — the brute-force oracle and examples read these.
        self.last_records: list[RunRecord] = []

    @property
    def matrix(self) -> list:
        """(seed, plan) members in submission order: seeds major."""
        return [(seed, plan) for seed in self.seeds for plan in self.plans]

    def __getstate__(self) -> dict:
        # A pool shard needs only the run settings: the store (locks,
        # live engines) and the previous run's records stay here.
        return {**self.__dict__, "store": None, "last_records": []}

    def run(self, workers: int = 1) -> EnsembleReport:
        """Execute every member and fold the verdicts.

        ``workers > 1`` shards the matrix round-robin across a process
        pool (:func:`~repro.core.pipeline.run_sharded`), one warm backend
        per shard; the fold runs here, where the store and the obs
        collector live.
        """
        _, records, used = run_sharded(self._run_members, self.matrix, workers)
        self.last_records = records
        return fold_records(
            records,
            invariants=self.invariants,
            temporal_names=temporal_invariant_names(self.temporal),
            engine_of=self.store.engine,
            topology_name=self.topology.name,
            seeds=self.seeds,
            plans=tuple(_plan_name(plan) for plan in self.plans),
            workers=used,
        )

    def _run_members(self, members) -> tuple[None, list[RunRecord]]:
        backend = ModelFreeBackend(
            self.topology,
            cluster=self.cluster,
            timers=self.timers,
            quiet_period=self.quiet_period,
            convergence_max_time=self.convergence_max_time,
        )
        records = []
        for seed, plan in members:
            name = f"ensemble:seed-{seed}"
            if plan is not None:
                name += f":{plan.name}"
            snapshot = backend.run(
                self.context,
                seed=seed,
                snapshot_name=name,
                chaos=plan,
                temporal=self.temporal,
            )
            records.append(
                RunRecord(
                    seed=seed,
                    plan_name=_plan_name(plan),
                    snapshot=snapshot,
                    temporal=dict(snapshot.metadata.get("temporal", {})),
                )
            )
        return None, records


def _plan_name(plan: Optional[FaultPlan]) -> str:
    return "" if plan is None else plan.name
