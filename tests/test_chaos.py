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

import pytest

from repro.chaos import ChaosInjector, acceptance_plan, sampled_plan
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
from repro.dataplane.forwarding import Disposition, ForwardingWalk
from repro.gnmi import server as gnmi_server
from repro.gnmi.server import ExtractionError, dump_afts, extract_afts
from repro.kube.kne import ConvergenceTimeout, KneDeployment
from repro.obs import ConvergenceTimeline, tracing
from repro.protocols.timers import FAST_TIMERS
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
