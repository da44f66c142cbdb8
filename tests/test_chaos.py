"""repro.chaos: fault plans, the injector, and graceful degradation.

The contract under test is the robustness story end to end: a seeded
:class:`FaultPlan` replays byte-identically, transient faults are
retried away, unrecoverable faults degrade to an explicit
``PartialSnapshot`` manifest, and degraded destinations answer
``UNKNOWN_DEGRADED`` consistently from both the scalar walker and the
atom-graph engine — never a fabricated ``NO_ROUTE``.
"""

import math
import pickle
from dataclasses import replace
from typing import Optional, Sequence

import pytest

from repro.chaos import ChaosInjector, acceptance_plan, run_chaos, sampled_plan
from repro.chaos.runner import ChaosRunReport, degraded_fraction
from repro.core.context import ScenarioContext
from repro.core.faults import (
    ConvergenceStall,
    FaultPlan,
    GnmiFlake,
    NodeDown,
    SlowBoot,
    StaleAft,
)
from repro.core.pipeline import ModelFreeBackend
from repro.core.snapshot import PartialSnapshot, Snapshot
from repro.corpus.fig2 import fig2_scenario
from repro.corpus.fig3 import fig3_scenario
from repro.dataplane.forwarding import Disposition, ForwardingWalk
from repro.dataplane.model import Dataplane
from repro.ensemble.runner import outcome_rows
from repro.gnmi import server as gnmi_server
from repro.gnmi.server import ExtractionError, dump_afts, extract_afts
from repro.kube.kne import ConvergenceTimeout, KneDeployment
from repro.net.addr import parse_ipv4
from repro.obs import ConvergenceTimeline, tracing
from repro.protocols.timers import FAST_TIMERS, PRODUCTION_TIMERS, TimerProfile
from repro.topo.model import Topology
from repro.verify.invariants import Pairwise, Probe, verification_summary
from repro.verify.reachability import ReachabilityAnalysis, pairwise_matrix


def fig2_backend():
    return ModelFreeBackend(
        fig2_scenario().topology, timers=FAST_TIMERS, quiet_period=5.0
    )


class TestFaultPlan:
    def plan(self):
        return FaultPlan(
            name="mix",
            seed=11,
            faults=(
                NodeDown("r3", at=1000.0),
                GnmiFlake(node="r1", failures=2),
                SlowBoot(node="r2", factor=2.5),
                StaleAft(node="r4", serves=1),
            ),
        )

    def test_picklable_roundtrip(self):
        plan = self.plan()
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_scheduled_excludes_slow_boots(self):
        kinds = [f.kind for f in self.plan().scheduled()]
        assert "slow-boot" not in kinds
        assert len(kinds) == 3

    def test_scheduled_sorted_by_time(self):
        times = [f.at for f in self.plan().scheduled()]
        assert times == sorted(times)

    def test_len_and_empty(self):
        assert len(self.plan()) == 4
        assert not self.plan().is_empty
        assert FaultPlan().is_empty

    def test_describe_names_every_fault(self):
        described = self.plan().describe()
        targets = {f["target"] for f in described["faults"]}
        assert targets == {"r1", "r2", "r3", "r4"}

    def test_sampled_plan_deterministic(self):
        nodes = [f"r{i}" for i in range(1, 7)]
        assert sampled_plan(nodes, seed=3) == sampled_plan(nodes, seed=3)
        assert sampled_plan(nodes, seed=3) != sampled_plan(nodes, seed=4)

    def test_acceptance_plan_shape(self):
        plan = acceptance_plan(["r1", "r2", "r3"], crash_at=500.0)
        kinds = sorted(f.kind for f in plan.faults)
        assert kinds.count("node-down") == 1
        assert "gnmi-flake" in kinds


class TestGnmiFaultInjection:
    """Injector faults on the extraction path of one warm deployment."""

    @pytest.fixture(scope="class")
    def deployment(self):
        dep = KneDeployment(
            fig2_scenario().topology, timers=FAST_TIMERS, seed=3
        )
        dep.deploy()
        dep.wait_converged(quiet_period=5.0)
        return dep

    def arm(self, deployment, plan):
        injector = ChaosInjector(deployment, plan).arm()
        # Fire the activations scheduled at (or before) the current
        # simulated time; future protocol events stay queued.
        deployment.kernel.run(until=deployment.kernel.now)
        return injector

    def test_flake_retries_and_recovers(self, deployment):
        plan = FaultPlan(faults=(GnmiFlake(node="r1", failures=2),))
        injector = self.arm(deployment, plan)
        with tracing() as tracer:
            report = extract_afts(deployment)
        assert report.degraded == {}
        assert report.retries["r1"] == 2
        assert injector.fired("gnmi-flake") == 2
        assert tracer.counters["gnmi.retry"] == 2
        assert set(report.afts) == set(deployment.routers)

    def test_backoff_doubles_up_to_the_cap(self, deployment, monkeypatch):
        monkeypatch.setattr(gnmi_server, "BACKOFF_BASE", 2.0)
        monkeypatch.setattr(gnmi_server, "BACKOFF_CAP", 3.0)
        self.arm(
            deployment, FaultPlan(faults=(GnmiFlake(node="r1", failures=3),))
        )
        with tracing() as tracer:
            report = extract_afts(deployment)
        assert report.retries["r1"] == 3
        (backoff,) = [
            record
            for record in tracer.registry.collect()
            if record["name"] == "gnmi.retry_backoff_sim_seconds"
        ]
        # Delays 2, then min(3, 4), then min(3, 8) simulated seconds.
        assert backoff["count"] == 3
        assert backoff["sum"] == 8.0

    def test_flake_exhaustion_degrades(self, deployment):
        plan = FaultPlan(faults=(GnmiFlake(node="r1", failures=99),))
        self.arm(deployment, plan)
        report = extract_afts(deployment, max_attempts=3)
        assert "r1" in report.degraded
        assert "flake" in report.degraded["r1"]
        assert report.degraded_addresses["r1"]
        assert report.is_partial
        assert "r1" not in report.afts
        # The strict wrapper refuses a partial result.
        self.arm(deployment, FaultPlan(faults=(
            GnmiFlake(node="r1", failures=99),
        )))
        with pytest.raises(ExtractionError):
            dump_afts(deployment)
        # Clear the leftover flakes so later tests see a healthy node.
        ChaosInjector(deployment, FaultPlan()).arm()

    def test_stale_aft_detected_and_retried(self, deployment):
        plan = FaultPlan(faults=(StaleAft(node="r2", serves=1),))
        injector = self.arm(deployment, plan)
        report = extract_afts(deployment)
        assert report.degraded == {}
        assert report.retries.get("r2", 0) >= 1
        assert injector.fired("stale-aft") == 1

    def test_truncated_aft_detected_and_retried(self, deployment):
        plan = FaultPlan(
            faults=(StaleAft(node="r2", serves=1, truncate=True),)
        )
        injector = self.arm(deployment, plan)
        report = extract_afts(deployment)
        assert report.degraded == {}
        assert injector.fired("truncated-aft") == 1

    def test_empty_armed_plan_changes_nothing(self, deployment):
        injector = self.arm(deployment, FaultPlan())
        report = extract_afts(deployment)
        assert report.degraded == {}
        assert report.retries == {}
        assert injector.log == []


class TestPodCrashDegradation:
    """A crash past the retry budget degrades gracefully end to end."""

    @pytest.fixture(scope="class")
    def snapshot(self):
        plan = FaultPlan(
            name="crash-r3", faults=(NodeDown("r3", at=1000.0),)
        )
        return fig2_backend().run(
            seed=0, snapshot_name="chaos-crash", chaos=plan
        )

    def test_partial_snapshot_with_manifest(self, snapshot):
        assert isinstance(snapshot, PartialSnapshot)
        assert snapshot.is_partial
        assert set(snapshot.degraded_nodes) == {"r3"}
        assert snapshot.metadata["degraded_addresses"]["r3"]
        assert snapshot.metadata["chaos"]["faults"] == 1

    def test_degraded_destination_answers_unknown(self, snapshot):
        dataplane = snapshot.dataplane
        assert dataplane.degraded_nodes == frozenset({"r3"})
        assert dataplane.degraded_owned
        address = next(iter(dataplane.degraded_owned))
        result = ForwardingWalk(dataplane).walk("r1", address)
        assert [t.disposition for t in result.traces] == [
            Disposition.UNKNOWN_DEGRADED
        ]

    def test_never_misreported_as_no_route(self, snapshot):
        rows = ReachabilityAnalysis(snapshot.dataplane).analyze()
        degraded_rows = [
            row
            for row in rows
            if Disposition.UNKNOWN_DEGRADED in row.dispositions
        ]
        assert degraded_rows
        for row in degraded_rows:
            assert Disposition.NO_ROUTE not in row.dispositions

    def test_engine_agrees_with_walker(self, snapshot):
        dataplane = snapshot.dataplane
        assert pairwise_matrix(dataplane, use_engine=True) == pairwise_matrix(
            dataplane, use_engine=False
        )

    def test_blackhole_detector_excludes_degraded(self, snapshot):
        from repro.verify.invariants import detect_blackholes

        degraded = set(snapshot.dataplane.degraded_owned)
        for row in detect_blackholes(snapshot.dataplane):
            assert row.sample_destination not in degraded

    def test_json_roundtrip_preserves_degradation(self, snapshot):
        restored = Snapshot.from_dict(snapshot.to_dict())
        assert isinstance(restored, PartialSnapshot)
        assert restored.degraded_nodes == snapshot.degraded_nodes
        assert (
            restored.dataplane.fib_fingerprint()
            == snapshot.dataplane.fib_fingerprint()
        )

    def test_degraded_nodes_question(self, snapshot):
        from repro.pybf.session import Session

        session = Session()
        session.init_snapshot(snapshot, name="crash")
        answer = session.q.degradedNodes().answer(snapshot="crash")
        rows = list(answer.frame())
        assert [row["Node"] for row in rows] == ["r3"]
        assert rows[0]["Reason"]

    def test_service_counts_degraded_answers(self, snapshot):
        from repro.service.service import VerificationService

        with VerificationService(workers=1) as svc:
            svc.register_snapshot(snapshot, name="partial")
            job = svc.submit("degradedNodes", snapshot="partial")
            answer = job.result(timeout=10).value
            assert [row["Node"] for row in answer.frame()] == ["r3"]
            job = svc.submit("reachability", snapshot="partial")
            assert job.result(timeout=10).value is not None
            assert svc.counters["degraded_answers"] == 2

    def test_degraded_answer_fraction_gauge(self, snapshot):
        from repro.service.service import VerificationService

        svc = VerificationService(workers=1)
        with svc:
            svc.register_snapshot(snapshot, name="partial")
            healthy = svc.submit_callable(lambda: "ok", signature=("ok",))
            assert healthy.result(timeout=10).value == "ok"
            job = svc.submit("reachability", snapshot="partial")
            assert job.result(timeout=10).value is not None
        # stop() joined the worker, so both settle hooks have run.
        gauge = svc.metrics.gauge("service.degraded_answer_fraction")
        assert svc.counters["jobs_completed"] == 2
        assert svc.counters["degraded_answers"] == 1
        assert gauge.labels().value == pytest.approx(0.5)


class TestDegradedGateway:
    """A next hop owned by a live node that was never extracted: the
    path's proof runs through the hole, so it answers UNKNOWN_DEGRADED
    — not ``exits-network`` — and stays out of every denominator."""

    PLAN = FaultPlan(name="flake-r2", faults=(GnmiFlake("r2", failures=100),))

    @pytest.fixture(scope="class")
    def snapshot(self):
        backend = ModelFreeBackend(
            fig3_scenario().topology, timers=FAST_TIMERS, quiet_period=5.0
        )
        return backend.run(seed=0, chaos=self.PLAN)

    def test_row_answers_unknown_degraded(self, snapshot):
        dataplane = snapshot.dataplane
        assert set(snapshot.degraded_nodes) == {"r2"}
        result = ForwardingWalk(dataplane).walk("r1", parse_ipv4("2.2.2.3"))
        assert [t.disposition for t in result.traces] == [
            Disposition.UNKNOWN_DEGRADED
        ]
        walker = ReachabilityAnalysis(dataplane, use_engine=False).analyze()
        engine = ReachabilityAnalysis(dataplane).analyze()
        assert [(str(r), r.dispositions) for r in engine] == [
            (str(r), r.dispositions) for r in walker
        ]
        assert all(
            Disposition.EXITS_NETWORK not in row.dispositions
            for row in engine
        )

    def test_pairs_degraded_and_out_of_the_fold(self, snapshot):
        probe = Probe(snapshot.dataplane)
        assert probe.degraded_pairs() == {("r1", "r3"), ("r3", "r1")}
        rows = outcome_rows(Pairwise(), probe)
        assert "reach:r1->r3" not in rows
        assert "reach:r3->r1" not in rows

    def test_chaos_stability_unharmed(self):
        report = run_chaos(
            fig3_scenario().topology,
            self.PLAN,
            timers=FAST_TIMERS,
            quiet_period=5.0,
        )
        assert report.stability == 1.0

    def test_one_probe_per_record(self, monkeypatch):
        """The stability rows, the degraded fraction and the first
        seed's two summaries share each record's probe: two probes, and
        one pass of sample walks each (three probes per faulted
        snapshot walked 24 times)."""
        built = []
        original = Probe.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Probe, "__init__", counting)
        with tracing() as tracer:
            report = run_chaos(
                fig3_scenario().topology,
                self.PLAN,
                timers=FAST_TIMERS,
                quiet_period=5.0,
            )
        assert len(built) == 2
        assert tracer.counters["verify.scalar_walks"] < 18
        assert report.chaos_verification == {
            "loops": 0,
            "blackholes": 0,
            "unreachable_pairs": 2,
            "degraded": 2,
        }


class TestDeterminism:
    """Same (plan, topology, seed) -> byte-identical replay."""

    def _run(self, chaos, name):
        return fig2_backend().run(seed=7, snapshot_name=name, chaos=chaos)

    def test_same_seed_same_plan_identical(self):
        plan = FaultPlan(
            name="replay",
            seed=5,
            faults=(
                GnmiFlake(node="r1", failures=2),
                NodeDown("r4", at=1000.0),
                SlowBoot(node="r2", factor=2.0),
            ),
        )
        first = self._run(plan, "replay-a")
        second = self._run(plan, "replay-b")
        assert first.metadata["chaos"]["log"] == second.metadata["chaos"]["log"]
        assert first.degraded_nodes == second.degraded_nodes
        assert (
            first.dataplane.fib_fingerprint()
            == second.dataplane.fib_fingerprint()
        )
        assert first.metadata.get("extraction_retries") == second.metadata.get(
            "extraction_retries"
        )

    def test_empty_plan_identical_to_no_chaos(self):
        baseline = self._run(None, "plain")
        empty = self._run(FaultPlan(), "empty-plan")
        assert "chaos" not in baseline.metadata
        assert "chaos" not in empty.metadata
        assert not isinstance(empty, PartialSnapshot)
        assert (
            baseline.dataplane.fib_fingerprint()
            == empty.dataplane.fib_fingerprint()
        )
        assert pairwise_matrix(baseline.dataplane) == pairwise_matrix(
            empty.dataplane
        )


class TestRunChaosOracle:
    """``run_chaos`` as a fold over run-matrix records equals the
    parent's own seed loop on 48 cases: fig2 and fig3, six plans, one
    seed or three, with and without a temporal stream.

    Pipeline runs are memoized per (corpus, backend settings, seed,
    plan, temporal, context), so both sides fold the same converged
    states and the comparison isolates the member list and the fold;
    the pipeline's own replay determinism is :class:`TestDeterminism`'s.
    """

    PLANS = ("acceptance", "sampled-0", "sampled-1", "sampled-2",
             "no-crash-0", "no-crash-1")

    @pytest.fixture(scope="class")
    def memo_runs(self):
        runs = {}
        original = ModelFreeBackend.run

        def run(self, context=None, *, seed=0, snapshot_name=None,
                verify=False, chaos=None, temporal=None):
            key = (self.topology.name, self.timers, self.quiet_period,
                   self.convergence_max_time, context, seed, chaos, temporal)
            if key not in runs:
                runs[key] = original(
                    self, context, seed=seed, chaos=chaos, temporal=temporal
                )
            snapshot = replace(runs[key], metadata=dict(runs[key].metadata))
            if verify:
                snapshot.metadata["verification"] = verification_summary(
                    snapshot.dataplane
                )
            return snapshot

        patch = pytest.MonkeyPatch()
        patch.setattr(ModelFreeBackend, "run", run)
        yield runs
        patch.undo()

    @pytest.mark.parametrize("temporal", (None, True))
    @pytest.mark.parametrize("seeds", (None, (0, 1, 2)))
    @pytest.mark.parametrize("plan_kind", PLANS)
    @pytest.mark.parametrize("corpus", ("fig2", "fig3"))
    def test_matches_parent_run_chaos(
        self, memo_runs, corpus, plan_kind, seeds, temporal
    ):
        scenario = fig2_scenario() if corpus == "fig2" else fig3_scenario()
        topology = scenario.topology
        names = sorted(spec.name for spec in topology.nodes)
        if plan_kind == "acceptance":
            plan = acceptance_plan(names)
        else:
            kind, plan_seed = plan_kind.rsplit("-", 1)
            plan = sampled_plan(
                names, seed=int(plan_seed), crash=kind == "sampled"
            )
        kwargs = dict(
            seeds=seeds, temporal=temporal, timers=FAST_TIMERS,
            quiet_period=5.0,
        )
        new = run_chaos(topology, plan, **kwargs).to_dict()
        old = parent_run_chaos(topology, plan, **kwargs).to_dict()
        for report in (new, old):
            report.get("temporal", {}).pop("apply_seconds_total", None)
        assert new == old


class TestConvergenceStall:
    def test_stall_raises_structured_timeout_then_heals(self):
        dep = KneDeployment(
            fig2_scenario().topology, timers=FAST_TIMERS, seed=2
        )
        plan = FaultPlan(
            faults=(ConvergenceStall(at=0.0, duration=1e9, period=1.0),)
        )
        ChaosInjector(dep, plan).arm()
        dep.deploy()
        deadline = dep.kernel.now + 120.0
        with pytest.raises(ConvergenceTimeout) as excinfo:
            dep.wait_converged(quiet_period=5.0, max_time=deadline)
        assert excinfo.value.elapsed > 0
        assert not dep.report.converged
        assert math.isnan(dep.report.convergence_seconds)


class TestChannelLoss:
    def test_lossy_channel_drops_deterministically(self):
        from repro.sim.channel import Channel
        from repro.sim.kernel import SimKernel

        def pattern(seed):
            kernel = SimKernel(seed=seed)
            channel = Channel(kernel, lambda payload: None)
            channel.drop_rate = 0.5
            outcomes = []
            for i in range(64):
                outcomes.append(channel.send(i) is None)
            return outcomes, channel.messages_dropped

        first, dropped = pattern(seed=9)
        second, _ = pattern(seed=9)
        assert first == second
        assert 0 < dropped < 64

    def test_zero_drop_rate_consumes_no_rng(self):
        from repro.sim.channel import Channel
        from repro.sim.kernel import SimKernel

        plain = SimKernel(seed=4)
        lossless = SimKernel(seed=4)
        channel = Channel(lossless, lambda payload: None)
        for i in range(16):
            channel.send(i)
        # The wire consumed exactly the jitter draws a chaos-free build
        # would have: the next value of both rng streams must agree.
        for _ in range(16):
            plain.rng.random()
        assert plain.rng.random() == lossless.rng.random()


class TestTimelineChaosSection:
    def test_chaos_events_render(self):
        from repro.obs import bus

        with tracing() as tracer:
            collector = bus.ACTIVE
            collector.emit(
                "chaos.fault", 12.0,
                action="activate", kind="node-down", target="r3",
            )
            collector.emit(
                "pipeline.degraded", 900.0, node="r3", reason="pod-failed"
            )
        timeline = ConvergenceTimeline.from_tracer(tracer)
        assert len(timeline.chaos_faults) == 1
        assert len(timeline.degraded) == 1
        text = timeline.render()
        assert "Chaos faults" in text
        assert "node-down" in text
        assert "Degraded nodes" in text
        assert "pod-failed" in text


# -- the parent's run_chaos, kept verbatim as an oracle --------------------------
#
# Before the run matrix, run_chaos ran its own (baseline, faulted) seed
# loop on one backend with ``verify=True`` and a fingerprint-keyed
# verdict cache. The fold over ``run_members`` records must report the
# same thing.


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


def parent_run_chaos(
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
