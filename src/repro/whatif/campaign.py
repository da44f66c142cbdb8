"""The campaign runner: one warm deployment, many what-if questions.

The economics this subsystem exists for: a cold emulation pays the full
infrastructure bring-up plus initial convergence (the paper's 12–17
minute startup at 1000 devices) *per scenario*, while a warm deployment
pays it once — each scenario then costs only the incremental
re-convergence after the perturbation plus the re-convergence after the
revert, both of which the IGP/BGP machinery completes in seconds to
minutes. Correctness is anchored two ways:

* after every revert the extracted dataplane fingerprint must equal the
  baseline's — if it does not, the deployment is considered polluted and
  the campaign falls back to a **cold reset** (fresh deployment) before
  the next scenario, charging the bring-up to the offending scenario;
* :func:`cold_run` re-runs any scenario from scratch with the
  perturbation pre-applied, giving tests and benchmarks an oracle to
  compare warm-path AFTs against by fingerprint.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence

from repro.core.context import ScenarioContext
from repro.core.faults import FaultPlan
from repro.core.pipeline import ModelFreeBackend, phase, run_sharded
from repro.core.snapshot import Snapshot
from repro.dataplane.model import Dataplane
from repro.gnmi.server import dump_afts
from repro.kube.cluster import KubeCluster
from repro.kube.kne import KneDeployment
from repro.obs import bus
from repro.protocols.timers import TimerProfile, PRODUCTION_TIMERS
from repro.topo.model import Topology
from repro.verify.differential import BaselineDiff
from repro.whatif.report import CampaignReport, ScenarioVerdict

logger = logging.getLogger(__name__)

_SAMPLE_REGRESSIONS = 3


@dataclass
class CampaignEnsembleResult:
    """A campaign swept across seeds, with set-level verdicts.

    One ``harmless:<scenario>`` row per scenario, folded across the
    seed sweep into holds-always / holds-sometimes / never: a scenario
    whose severity depends on message timing surfaces as
    holds-sometimes with the offending seed as witness, instead of
    silently inheriting whichever verdict seed 0 happened to produce.
    """

    seeds: tuple
    #: Per-seed :class:`~repro.whatif.report.CampaignReport`\ s, in
    #: seed order.
    reports: list = field(default_factory=list)
    #: Folded :class:`~repro.ensemble.InvariantVerdict` rows.
    verdicts: list = field(default_factory=list)

    @property
    def unstable(self) -> list:
        from repro.ensemble.verdicts import HOLDS_ALWAYS

        return [v for v in self.verdicts if v.verdict != HOLDS_ALWAYS]

    def to_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "reports": [r.to_dict() for r in self.reports],
        }


class WhatIfCampaign:
    """Run a set of fault scenarios against one warm deployment."""

    def __init__(
        self,
        topology: Topology,
        scenarios: Sequence[FaultPlan],
        *,
        context: Optional[ScenarioContext] = None,
        cluster: Optional[KubeCluster] = None,
        timers: TimerProfile = PRODUCTION_TIMERS,
        quiet_period: float = 30.0,
        convergence_max_time: float = 86_400.0,
        seed: int = 0,
        store=None,
        temporal=None,
    ) -> None:
        self.topology = topology
        self.scenarios = list(scenarios)
        for plan in self.scenarios:
            plan.topology_faults()  # substrate faults: refuse before deploy
        self.context = context if context is not None else ScenarioContext()
        self.cluster = cluster
        self.timers = timers
        self.quiet_period = quiet_period
        self.convergence_max_time = convergence_max_time
        self.seed = seed
        # Opt-in transient-state scoring: True (default invariants) or a
        # sequence of invariants. Each scenario's apply→converge
        # window is recorded and evaluated, and the interval counts land
        # on its verdict (temporal_* fields).
        self.temporal = temporal
        # Optional verification-service SnapshotStore: the baseline
        # snapshot registers there, so service questions asked after a
        # campaign reuse its engine. Sequential path only — process-pool
        # shards cannot share an in-memory store.
        self.store = store
        # Per-phase durations from the most recent run (span names are
        # prefixed "whatif:<scenario>" so they never collide with the
        # pipeline's own deploy/converge/extract phases in a timeline).
        self.phases: dict[str, dict[str, float]] = {}

    def __getstate__(self) -> dict:
        # A pool shard runs on its own backend; the store (locks, live
        # engines) stays in this process.
        return {**self.__dict__, "store": None}

    def run(self, workers: int = 1) -> CampaignReport:
        """Execute every scenario; returns the campaign report.

        ``workers > 1`` shards scenarios round-robin across independent
        deployments in a process pool
        (:func:`~repro.core.pipeline.run_sharded`) — each worker pays its
        own cold bring-up, which amortizes only when its shard is large.
        """
        return self._run(self.seed, workers)

    def run_ensemble(
        self,
        seeds: Sequence[int],
        workers: int = 1,
    ) -> CampaignEnsembleResult:
        """Run the whole campaign once per seed and fold the verdicts.

        Scenario stability is scored over the ensemble rather than one
        run: each scenario contributes a ``harmless`` observation per
        seed (holds iff its severity is 0), folded by the ensemble
        verdict algebra with the seed, scenario, and post-perturbation
        fingerprint as witness.
        """
        from repro.ensemble.verdicts import (
            EnsembleWitness,
            RowObservation,
            fold_observations,
        )

        seed_list = tuple(seeds)
        reports = []
        rows: dict[str, list[RowObservation]] = {}
        for run_seed in seed_list:
            report = self._run(run_seed, workers)
            reports.append(report)
            for verdict in report.verdicts:
                rows.setdefault(f"harmless:{verdict.scenario}", []).append(
                    RowObservation(
                        holds=verdict.severity == 0,
                        weight=1,
                        witness=EnsembleWitness(
                            seed=run_seed,
                            plan=verdict.scenario,
                            fingerprint=verdict.fib_fingerprint,
                            detail=f"severity {verdict.severity}",
                        ),
                    )
                )
        return CampaignEnsembleResult(
            seeds=seed_list,
            reports=reports,
            verdicts=fold_observations(rows),
        )

    def _run(self, seed: int, workers: int) -> CampaignReport:
        reports, verdicts, used = run_sharded(
            partial(self._run_sequential, seed), self.scenarios, workers
        )
        # Baseline facts from the first shard; every shard re-derives
        # the same baseline from the same seed and context.
        return replace(
            reports[0],
            verdicts=verdicts,
            cold_resets=sum(not v.reverted_clean for v in verdicts),
            workers=used,
        )

    # -- sequential (the real machinery) ------------------------------------------

    def _run_sequential(
        self, seed: int, scenarios: Sequence[FaultPlan]
    ) -> tuple[CampaignReport, list[ScenarioVerdict]]:
        backend = ModelFreeBackend(
            self.topology,
            cluster=self.cluster,
            timers=self.timers,
            quiet_period=self.quiet_period,
            convergence_max_time=self.convergence_max_time,
            store=self.store,
        )
        self.phases = {}
        baseline, deployment = self._deploy_baseline(backend, seed)
        diff = BaselineDiff(baseline.dataplane)
        report = CampaignReport(
            topology_name=self.topology.name,
            baseline_invariants=dict(diff.baseline_invariants),
            baseline_startup_seconds=baseline.startup_seconds,
            baseline_convergence_seconds=baseline.convergence_seconds,
        )
        for scenario in scenarios:
            verdict = self._run_scenario(scenario, deployment, diff)
            collector = bus.ACTIVE
            if collector.enabled:
                collector.count("whatif.scenarios")
                delta_fields = {}
                stats = diff.last_delta_stats
                if stats is not None:
                    # How the scenario's engine came to be: a sparse
                    # patch of the baseline's (dirty atom count) or a
                    # cold rebuild (fallback reason).
                    delta_fields = {
                        "delta_dirty_atoms": stats.dirty_atoms,
                        "delta_fallback": stats.fallback,
                        "delta_apply_seconds": stats.apply_seconds,
                    }
                temporal_fields = {}
                if self.temporal is not None and self.temporal is not False:
                    temporal_fields = {
                        "temporal_violations": verdict.temporal_violations,
                        "temporal_transient": verdict.temporal_transient,
                    }
                collector.emit(
                    "whatif.verdict",
                    deployment.kernel.now,
                    scenario=verdict.scenario,
                    kind=verdict.kind,
                    severity=verdict.severity,
                    new_loops=verdict.new_loops,
                    new_blackholes=verdict.new_blackholes,
                    new_unreachable_pairs=verdict.new_unreachable_pairs,
                    regressed=verdict.regressed,
                    changed=verdict.changed,
                    reconverge_seconds=verdict.reconverge_seconds,
                    reverted_clean=verdict.reverted_clean,
                    **delta_fields,
                    **temporal_fields,
                )
            if not verdict.reverted_clean:
                # The warm deployment no longer matches the baseline —
                # every later verdict would diff against polluted state.
                # Pay for a fresh bring-up and charge it to this
                # scenario's revert cost, keeping the incremental-vs-
                # cold accounting honest.
                logger.warning(
                    "scenario %s did not revert cleanly; cold reset",
                    scenario.name,
                )
                if collector.enabled:
                    collector.count("whatif.cold_resets")
                fresh, deployment = self._deploy_baseline(backend, seed)
                verdict = replace(
                    verdict,
                    revert_seconds=verdict.revert_seconds
                    + fresh.startup_seconds
                    + fresh.convergence_seconds,
                )
                if fresh.dataplane.fib_fingerprint() != diff.fingerprint:
                    # Same seed + context is deterministic, so this only
                    # fires if the topology itself is seed-sensitive;
                    # re-anchor rather than diff against a stale baseline.
                    diff = BaselineDiff(fresh.dataplane)
            report.verdicts.append(verdict)
        return report, report.verdicts

    def _deploy_baseline(
        self, backend: ModelFreeBackend, seed: int
    ) -> tuple[Snapshot, KneDeployment]:
        snapshot = backend.run(
            self.context,
            seed=seed,
            snapshot_name=f"{self.topology.name}:whatif-baseline",
        )
        assert backend.last_run is not None
        return snapshot, backend.last_run.deployment

    def _run_scenario(
        self,
        scenario: FaultPlan,
        deployment: KneDeployment,
        diff: BaselineDiff,
    ) -> ScenarioVerdict:
        kernel = deployment.kernel
        phases = self.phases
        prefix = f"whatif:{scenario.name}"
        quiet = max(self.quiet_period, scenario.min_quiet_period)
        recorder = None
        if self.temporal is not None and self.temporal is not False:
            from repro.temporal import CheckpointRecorder

            recorder = CheckpointRecorder(deployment)
        temporal_report = None
        with phase(prefix, kernel, phases):
            if recorder is not None:
                recorder.arm()
            with phase(f"{prefix}:apply", kernel, phases):
                scenario.apply(deployment)
            with phase(f"{prefix}:converge", kernel, phases):
                reconverge_seconds = deployment.wait_converged(
                    quiet_period=quiet,
                    max_time=self.convergence_max_time,
                )
            if recorder is not None:
                from repro.temporal import evaluate_stream

                with phase(f"{prefix}:temporal", kernel, phases):
                    stream = recorder.finalize()
                    invariants = (
                        None
                        if self.temporal is True
                        else list(self.temporal)
                    )
                    temporal_report = evaluate_stream(stream, invariants)
            with phase(f"{prefix}:extract", kernel, phases):
                live = sorted(
                    set(deployment.routers) - deployment.failed_nodes()
                )
                dataplane = Dataplane.from_afts(
                    dump_afts(deployment, nodes=live)
                )
            with phase(f"{prefix}:verify", kernel, phases):
                comparison = diff.compare(dataplane)
            with phase(f"{prefix}:revert", kernel, phases):
                if scenario.self_reverting:
                    # The flap's restore already ran inside the converge
                    # window, so the extracted state *is* the post-revert
                    # state — no extra convergence to pay for.
                    revert_seconds = 0.0
                    restored_fingerprint = dataplane.fib_fingerprint()
                else:
                    scenario.revert(deployment)
                    revert_seconds = deployment.wait_converged(
                        quiet_period=self.quiet_period,
                        max_time=self.convergence_max_time,
                    )
                    restored_fingerprint = Dataplane.from_afts(
                        dump_afts(deployment)
                    ).fib_fingerprint()
        samples = tuple(
            str(row) for row in comparison.rows if row.regressed
        )[:_SAMPLE_REGRESSIONS]
        temporal_fields = {}
        if temporal_report is not None:
            temporal_fields = {
                "temporal_checkpoints": temporal_report.checkpoints,
                "temporal_violations": len(temporal_report.intervals),
                "temporal_transient": len(temporal_report.transient),
                "temporal_worst": (
                    str(temporal_report.intervals[0])
                    if temporal_report.intervals
                    else ""
                ),
            }
        return ScenarioVerdict(
            scenario=scenario.name,
            kind=scenario.kind,
            reconverge_seconds=reconverge_seconds,
            revert_seconds=revert_seconds,
            reverted_clean=restored_fingerprint == diff.fingerprint,
            regressed=comparison.regressed,
            improved=comparison.improved,
            changed=comparison.changed,
            new_loops=comparison.new_loops,
            new_blackholes=comparison.new_blackholes,
            new_unreachable_pairs=comparison.new_unreachable_pairs,
            sample_regressions=samples,
            fib_fingerprint=dataplane.fib_fingerprint(),
            **temporal_fields,
        )


def cold_run(
    topology: Topology,
    scenario: FaultPlan,
    *,
    context: Optional[ScenarioContext] = None,
    timers: TimerProfile = PRODUCTION_TIMERS,
    quiet_period: float = 30.0,
    convergence_max_time: float = 86_400.0,
    seed: int = 0,
) -> Snapshot:
    """Run one scenario the expensive way: fresh deployment, fault
    pre-applied via the scenario's cold-run context.

    This is the oracle the warm path is validated against: for a
    link-expressible scenario, the warm post-perturbation AFTs and the
    cold run's AFTs must agree by fingerprint (asserted for a sampled
    subset in tests and the whatif benchmark).
    """
    backend = ModelFreeBackend(
        topology,
        timers=timers,
        quiet_period=quiet_period,
        convergence_max_time=convergence_max_time,
    )
    cold_context = scenario.to_context(
        context if context is not None else ScenarioContext(), topology
    )
    return backend.run(
        cold_context,
        seed=seed,
        snapshot_name=f"{topology.name}:cold:{scenario.name}",
    )
