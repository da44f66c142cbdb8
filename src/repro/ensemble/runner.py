"""The ensemble runner: N seeded runs, one set-level verdict.

The paper's §6 mitigation (run the emulation many times in parallel and
compare dataplanes) is promoted here from a boolean "deterministic?"
flag to ACORN-style verification of the *set* of possible converged
states: a seed sweep — optionally crossed with a set of
:class:`~repro.chaos.plan.FaultPlan`\\ s so timing and fault
nondeterminism are both sampled — whose outcomes dedup by
``fib_fingerprint``. Most seeds converge identically, so the ensemble
pays one atom-graph engine per *distinct* converged state (pinned in a
:class:`~repro.service.store.SnapshotStore`), then folds every
invariant row across the outcomes into holds-always / holds-sometimes
/ never with concrete witnesses.

Execution shards the (seed, plan) matrix round-robin across a process
pool exactly like :class:`~repro.whatif.campaign.WhatIfCampaign` —
each shard runs its members on one warm backend in its own process and
ships plain-data run records back; verification and the fold happen in
the parent, where the obs collector and the store live. Temporal
streams (``temporal=``) are evaluated *per member run* — transient
behaviour differs between seeds even when the final states collide —
and fold into ``temporal:*`` rows whose witnesses carry the violating
``[t_start, t_end)`` interval.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.chaos.plan import FaultPlan
from repro.core.context import ScenarioContext
from repro.core.pipeline import ModelFreeBackend
from repro.core.snapshot import Snapshot
from repro.ensemble.invariants import (
    EnsembleInvariant,
    OutcomeProbe,
    default_ensemble_invariants,
)
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

logger = logging.getLogger(__name__)

DEFAULT_SEEDS = 4
TEMPORAL_PREFIX = "temporal:"


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
    if temporal is True:
        from repro.temporal import default_invariants

        return tuple(i.name for i in default_invariants())
    return tuple(i.name for i in temporal)


def fold_records(
    records: Sequence[RunRecord],
    *,
    invariants: Sequence[EnsembleInvariant],
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
            probe = OutcomeProbe(outcome.snapshot.dataplane, engine=engine)
        for invariant in invariants:
            for name, (holds, detail) in invariant.rows(probe).items():
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
    invariants: Optional[Sequence[EnsembleInvariant]] = None,
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
        invariants: Optional[Sequence[EnsembleInvariant]] = None,
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
        #: Per-member records of the most recent :meth:`run` — the
        #: deprecated multirun wrapper and tests read these.
        self.last_records: list[RunRecord] = []

    @property
    def matrix(self) -> list:
        """(seed, plan) members in submission order: seeds major."""
        return [(seed, plan) for seed in self.seeds for plan in self.plans]

    def run(self, workers: int = 1) -> EnsembleReport:
        """Execute every member and fold the verdicts.

        ``workers > 1`` shards the matrix round-robin across a process
        pool, one warm backend per shard; falls back to the sequential
        path when the pool cannot start, like the what-if campaign.
        """
        members = self.matrix
        records = None
        used = 1
        if workers > 1 and len(members) > 1:
            try:
                records = self._run_parallel(members, workers)
                used = min(workers, len(members))
            except Exception as exc:  # pool unavailable (sandbox, pickling)
                logger.warning(
                    "process-pool ensemble failed (%s); running sequentially",
                    exc,
                )
        if records is None:
            records = self._run_sequential(members)
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

    # -- execution ---------------------------------------------------------------

    def _run_sequential(self, members) -> list[RunRecord]:
        backend = ModelFreeBackend(
            self.topology,
            cluster=self.cluster,
            timers=self.timers,
            quiet_period=self.quiet_period,
            convergence_max_time=self.convergence_max_time,
        )
        return [
            _execute_member(backend, self.context, seed, plan, self.temporal)
            for seed, plan in members
        ]

    def _run_parallel(self, members, workers: int) -> list[RunRecord]:
        from concurrent.futures import ProcessPoolExecutor

        shards = [members[i::workers] for i in range(workers)]
        shards = [shard for shard in shards if shard]
        payloads = [
            (
                self.topology,
                shard,
                self.context,
                self.timers,
                self.quiet_period,
                self.convergence_max_time,
                self.temporal,
            )
            for shard in shards
        ]
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            shard_records = list(pool.map(_ensemble_shard, payloads))
        by_member = {}
        for records in shard_records:
            for record in records:
                by_member[(record.seed, record.plan_name)] = record
        # Original matrix order, not shard order.
        return [
            by_member[(seed, _plan_name(plan))] for seed, plan in members
        ]


def _plan_name(plan: Optional[FaultPlan]) -> str:
    return "" if plan is None else plan.name


def _execute_member(
    backend: ModelFreeBackend,
    context: ScenarioContext,
    seed: int,
    plan: Optional[FaultPlan],
    temporal,
) -> RunRecord:
    name = f"ensemble:seed-{seed}"
    if plan is not None:
        name += f":{plan.name}"
    snapshot = backend.run(
        context,
        seed=seed,
        snapshot_name=name,
        chaos=plan,
        temporal=temporal,
    )
    return RunRecord(
        seed=seed,
        plan_name=_plan_name(plan),
        snapshot=snapshot,
        temporal=dict(snapshot.metadata.get("temporal", {})),
    )


def _ensemble_shard(payload) -> list:
    """Pool worker: run one member shard on its own warm backend.

    Module-level (not a closure) so it pickles; the worker process has
    the default no-op obs collector — shard runs are untraced by
    design, and the parent re-emits ensemble events when it folds.
    """
    (
        topology,
        members,
        context,
        timers,
        quiet_period,
        max_time,
        temporal,
    ) = payload
    backend = ModelFreeBackend(
        topology,
        timers=timers,
        quiet_period=quiet_period,
        convergence_max_time=max_time,
    )
    return [
        _execute_member(backend, context, seed, plan, temporal)
        for seed, plan in members
    ]
