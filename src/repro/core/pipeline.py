"""The two verification backends.

:class:`ModelFreeBackend` is the paper's system: emulate, converge,
extract, verify. :class:`NativeBatfishBackend` is the traditional
model-based flow over the *same inputs*, so every experiment can compare
them on equal terms.

Both backends run their stages inside observability phase spans
(:mod:`repro.obs`) and attach the per-phase breakdown to
``Snapshot.metadata["phases"]`` — simulated seconds for stages that
advance the kernel clock, wall seconds for the ones (extraction, the
model computation) that do real work while simulated time stands still.

:func:`run_sharded` is the one shard pool the seed and fault sweeps
(what-if campaign, ensemble) fan their members out on.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.batfish_model.ibdp import ModelRun, run_model
from repro.batfish_model.issues import DEFAULT_ASSUMPTIONS, ModelAssumptions
from repro.core.context import ScenarioContext
from repro.core.faults import inject
from repro.core.snapshot import PartialSnapshot, Snapshot
from repro.corpus.routes import RouteInjector
from repro.gnmi.server import extract_afts
from repro.kube.cluster import KubeCluster
from repro.kube.kne import KneDeployment
from repro.obs import bus
from repro.protocols.timers import TimerProfile, PRODUCTION_TIMERS
from repro.sim.kernel import SimKernel
from repro.topo.model import Topology

logger = logging.getLogger(__name__)

# The model backend has no simulated clock: its computation is a single
# synchronous fixed point, conceptually evaluated at the epoch rather
# than over a timeline. Every obs record it emits is therefore stamped
# with this constant — the ``backend="model"`` detail on the record is
# what tells a timeline reader the timestamp is a placeholder, not a
# claim that the event happened at boot.
MODEL_EPOCH = 0.0


@dataclass
class EmulationRun:
    """A live emulation behind a snapshot (kept for operator access)."""

    deployment: KneDeployment
    injectors: list[RouteInjector] = field(default_factory=list)


@contextmanager
def phase(
    name: str,
    kernel: Optional[SimKernel],
    phases: dict[str, dict[str, float]],
) -> Iterator[None]:
    """Measure one pipeline phase in simulated and wall seconds.

    Durations always land in ``phases`` (they are cheap — two clock
    reads); a span is additionally recorded when a collector is
    installed, so traced runs see the same numbers with full nesting.
    ``kernel`` may be None for stages with no simulated clock (the model
    backend, offline verification).
    """
    collector = bus.ACTIVE
    sim_start = kernel.now if kernel is not None else 0.0
    span = (
        collector.begin(name, sim_start, category="phase")
        if collector.enabled
        else None
    )
    wall_start = time.perf_counter()
    try:
        yield
    finally:
        sim_end = kernel.now if kernel is not None else 0.0
        wall_seconds = time.perf_counter() - wall_start
        sim_seconds = sim_end - sim_start
        phases[name] = {
            "sim_seconds": sim_seconds,
            "wall_seconds": wall_seconds,
        }
        if span is not None:
            collector.end(span, sim_end)
        registry = bus.metrics_registry()
        if registry.enabled:
            registry.histogram(
                "pipeline.phase_wall_seconds",
                "Wall seconds spent per pipeline phase",
                ("phase",),
            ).observe(wall_seconds, phase=name)
            registry.histogram(
                "pipeline.phase_sim_seconds",
                "Simulated seconds advanced per pipeline phase",
                ("phase",),
                unit="sim",
            ).observe(sim_seconds, phase=name)


def run_sharded(
    run_shard: Callable[[list], tuple[object, list]],
    members: Sequence,
    workers: int = 1,
) -> tuple[list, list, int]:
    """Run ``members`` on up to ``workers`` processes, results in order.

    ``run_shard(shard)`` runs a list of members — on one
    :class:`ModelFreeBackend` — and returns ``(head, results)``: one
    shard-level value and exactly one result per member, in shard order.
    The members are dealt round-robin to ``min(workers, len(members))``
    processes, so shard ``i`` holds ``members[i::n]`` and its results
    go back to those positions; a duplicate member comes back once per
    occurrence. Returns ``(heads, results, used)`` with heads in shard
    order.

    ``run_shard`` crosses to the pool pickled, and whatever a shard
    records on the obs bus stays in its child. One worker, one member,
    or a pool that cannot start (no semaphores in a sandbox) runs the
    whole list in process as one shard. An exception a member raises
    reaches the caller once, with the type it has in process.
    """
    members = list(members)
    used = min(workers, len(members))
    if used > 1:
        from concurrent.futures import ProcessPoolExecutor

        try:
            pool = ProcessPoolExecutor(max_workers=used)
        except (OSError, NotImplementedError) as exc:
            logger.warning(
                "process pool unavailable (%s); running in process", exc
            )
        else:
            with pool:
                outputs = list(
                    pool.map(
                        run_shard, [members[i::used] for i in range(used)]
                    )
                )
            results: list = [None] * len(members)
            for i, (_, shard_results) in enumerate(outputs):
                results[i::used] = shard_results
            return [head for head, _ in outputs], results, used
    head, results = run_shard(members)
    return [head], list(results), 1


class ModelFreeBackend:
    """Configuration + context -> converged, extracted dataplane.

    The returned :class:`Snapshot` is pure data; the live deployment
    stays accessible via :attr:`last_run` for the operator-tooling flow
    (SSH into routers, poke at protocol state).
    """

    def __init__(
        self,
        topology: Topology,
        *,
        cluster: Optional[KubeCluster] = None,
        timers: TimerProfile = PRODUCTION_TIMERS,
        quiet_period: float = 30.0,
        convergence_max_time: float = 86_400.0,
    ) -> None:
        self.topology = topology
        self.cluster = cluster
        self.timers = timers
        self.quiet_period = quiet_period
        self.convergence_max_time = convergence_max_time
        self.last_run: Optional[EmulationRun] = None
        #: (CheckpointStream, TemporalReport) of the most recent
        #: ``temporal=`` run; None otherwise.
        self.last_temporal = None

    def run(
        self,
        context: Optional[ScenarioContext] = None,
        *,
        seed: int = 0,
        snapshot_name: Optional[str] = None,
        verify: bool = False,
        chaos=None,
        temporal=None,
    ) -> Snapshot:
        """Execute the full upper stage once and extract AFTs.

        With ``verify=True`` the standard invariant battery (loops,
        blackholes, all-pairs reachability) runs inside a ``verify``
        phase span, so ``metadata["phases"]`` and ``mfv obs timeline``
        report query-engine time alongside deploy/converge/extract;
        the counts land in ``metadata["verification"]``.

        ``chaos`` accepts a :class:`~repro.core.faults.FaultPlan`: the
        substrate runs under that fault schedule, extraction degrades
        gracefully (a node unextractable past the retry budget lands in
        the returned :class:`PartialSnapshot`'s ``degraded_nodes``
        manifest instead of failing the run), and every fault/retry/
        degradation is visible on the obs timeline.

        ``temporal`` opts into transient-state verification: ``True``
        checks the default invariants (transient loops, blackhole
        windows), or pass a sequence of
        :class:`~repro.verify.invariants.Invariant`. A
        checkpoint recorder arms right after deploy — route injection,
        link cuts, and chaos faults all churn on the record — and the
        resulting violation intervals land in ``metadata["temporal"]``
        (full stream + report on :attr:`last_temporal`).
        """
        if context is None:
            context = ScenarioContext()
        phases: dict[str, dict[str, float]] = {}
        deployment = KneDeployment(
            self.topology,
            cluster=self.cluster or KubeCluster(),
            timers=self.timers,
            seed=seed,
        )
        chaos_injector = None
        if chaos is not None and not chaos.is_empty:
            from repro.chaos.injector import ChaosInjector

            chaos_injector = ChaosInjector(deployment, chaos).arm()
        kernel = deployment.kernel
        with phase("deploy", kernel, phases):
            deployment.deploy()
        recorder = None
        if temporal is not None and temporal is not False:
            from repro.temporal import CheckpointRecorder

            recorder = CheckpointRecorder(deployment)
            recorder.arm()
        with phase("inject", kernel, phases):
            injectors = [
                RouteInjector(spec, deployment.kernel, deployment.fabric,
                              timers=self.timers)
                for spec in context.injectors
            ]
            for injector in injectors:
                injector.start()
            for fault in context.faults:
                inject(deployment, fault)
        with phase("converge", kernel, phases):
            deployment.wait_converged(
                quiet_period=self.quiet_period,
                max_time=self.convergence_max_time,
            )
            if chaos_injector is not None and kernel.now < chaos.horizon:
                # The network quiesced before the plan finished: a
                # chaos run is not converged until every scheduled
                # fault has fired (and every restore come back) and the
                # network has re-quiesced around the damage.
                kernel.run(until=chaos.horizon)
                deployment.wait_converged(
                    quiet_period=self.quiet_period,
                    max_time=self.convergence_max_time,
                )
        temporal_report = None
        if recorder is not None:
            from repro.temporal import evaluate_stream

            with phase("temporal", kernel, phases):
                stream = recorder.finalize()
                invariants = None if temporal is True else list(temporal)
                temporal_report = evaluate_stream(stream, invariants)
                self.last_temporal = (stream, temporal_report)
        with phase("extract", kernel, phases):
            extraction = extract_afts(deployment)
        self.last_run = EmulationRun(deployment=deployment, injectors=injectors)
        metadata = {
            "context": context.name,
            "devices": len(self.topology),
            "kube_nodes_used": deployment.report.nodes_used,
            "injected_routes": sum(i.routes_sent for i in injectors),
            "phases": phases,
        }
        if extraction.retries:
            metadata["extraction_retries"] = dict(extraction.retries)
        if temporal_report is not None:
            metadata["temporal"] = temporal_report.to_dict()
        if chaos_injector is not None:
            metadata["chaos"] = {
                "plan": chaos.name,
                "plan_seed": chaos.seed,
                "faults": len(chaos),
                "log": [list(entry) for entry in chaos_injector.log],
            }
        snapshot_cls = Snapshot
        if extraction.degraded:
            # Graceful degradation: the run completes as a partial
            # snapshot with an explicit manifest; answers about the
            # degraded nodes become UNKNOWN_DEGRADED downstream.
            snapshot_cls = PartialSnapshot
            metadata["degraded_addresses"] = dict(
                extraction.degraded_addresses
            )
            collector = bus.ACTIVE
            if collector.enabled:
                for node, reason in extraction.degraded.items():
                    collector.count("pipeline.degraded")
                    collector.emit(
                        "pipeline.degraded",
                        kernel.now,
                        node=node,
                        reason=reason,
                    )
            logger.warning(
                "extraction degraded for %d node(s): %s",
                len(extraction.degraded),
                ", ".join(sorted(extraction.degraded)),
            )
        snapshot = snapshot_cls(
            name=snapshot_name or f"{self.topology.name}:{context.name}",
            afts=extraction.afts,
            backend="emulation",
            seed=seed,
            startup_seconds=deployment.report.startup_seconds,
            convergence_seconds=deployment.report.convergence_seconds,
            metadata=metadata,
            degraded_nodes=dict(extraction.degraded),
        )
        if verify:
            _run_verify_phase(snapshot, kernel, phases)
        return snapshot


class NativeBatfishBackend:
    """The traditional model-based flow over the same inputs."""

    def __init__(
        self,
        topology: Topology,
        *,
        assumptions: ModelAssumptions = DEFAULT_ASSUMPTIONS,
    ) -> None:
        self.topology = topology
        self.assumptions = assumptions
        self.last_model_run: Optional[ModelRun] = None

    def run(
        self,
        context: Optional[ScenarioContext] = None,
        *,
        snapshot_name: Optional[str] = None,
        verify: bool = False,
    ) -> Snapshot:
        if context is None:
            context = ScenarioContext()
        if context.injectors:
            raise NotImplementedError(
                "the model baseline does not support live route injection"
            )
        configs = {spec.name: spec.config for spec in self.topology.nodes}
        non_arista = [
            spec.name for spec in self.topology.nodes if spec.vendor != "arista"
        ]
        if non_arista:
            raise NotImplementedError(
                "the reference model only ships an Arista parser; "
                f"cannot model: {', '.join(non_arista)}"
            )
        phases: dict[str, dict[str, float]] = {}
        with phase("model", None, phases):
            model_run = run_model(configs, self.assumptions)
        self.last_model_run = model_run
        snapshots = model_run.snapshots
        if context.faults:
            snapshots = _apply_link_cuts(self.topology, snapshots, context)
        snapshot = Snapshot(
            name=snapshot_name or f"{self.topology.name}:{context.name}:model",
            afts=snapshots,
            backend="model",
            metadata={
                "context": context.name,
                "unrecognized_lines": model_run.unrecognized_by_device(),
                "phases": phases,
            },
        )
        if verify:
            _run_verify_phase(snapshot, None, phases)
        return snapshot


def _run_verify_phase(
    snapshot: Snapshot,
    kernel: Optional[SimKernel],
    phases: dict[str, dict[str, float]],
) -> None:
    """The shared verification stage: invariant battery in a phase span.

    Simulated time stands still here (like extraction), so the span's
    interesting number is its wall duration — the query-engine cost the
    atom-graph engine is built to shrink.
    """
    from repro.verify.invariants import verification_summary

    with phase("verify", kernel, phases):
        snapshot.metadata["verification"] = verification_summary(
            snapshot.dataplane
        )


def _apply_link_cuts(topology, snapshots, context: ScenarioContext):
    """The model's crude link-cut handling: disable the interfaces.

    Note this (unlike emulation) does not re-run the protocols — a
    deliberate simplification matching how operators often misuse
    model link-cut toggles; the model recomputation path is exercised by
    re-running :func:`run_model` on modified configs instead.
    """
    import copy

    out = copy.deepcopy(snapshots)
    for fault in context.faults:
        link = topology.find_link(fault.a, fault.z)
        if link is None:
            logger.warning(
                "context %r cuts a nonexistent link %s-%s; ignoring",
                context.name, fault.a, fault.z,
            )
            collector = bus.ACTIVE
            if collector.enabled:
                collector.emit(
                    "pipeline.warning",
                    MODEL_EPOCH,
                    reason="unknown-link",
                    backend="model",
                    a_node=fault.a,
                    z_node=fault.z,
                    context=context.name,
                )
            continue
        for end in link.endpoints():
            snapshot = out.get(end.node)
            if snapshot is None:
                continue
            snapshot.interfaces = [
                iface
                if iface.name != end.interface
                else type(iface)(
                    name=iface.name,
                    ipv4_address=iface.ipv4_address,
                    prefix_length=iface.prefix_length,
                    enabled=False,
                )
                for iface in snapshot.interfaces
            ]
    return out
