"""Tests for the observability subsystem (repro.obs)."""

import pytest

from repro.core.context import ScenarioContext
from repro.core.pipeline import ModelFreeBackend, NativeBatfishBackend
from repro.corpus.fig2 import fig2_scenario
from repro.obs import (
    NULL,
    ConvergenceTimeline,
    Tracer,
    bus,
    read_jsonl,
    summary_text,
    tracing,
    write_jsonl,
)
from repro.protocols.timers import FAST_TIMERS
from repro.sim.kernel import SimKernel


class TestBus:
    def test_default_collector_is_disabled(self):
        assert bus.active() is NULL
        assert not bus.active().enabled

    def test_null_collector_methods_are_noops(self):
        NULL.emit("x", 1.0, node="r1", a=1)
        NULL.count("x")
        span = NULL.begin("p", 0.0)
        NULL.end(span, 1.0)  # must not raise

    def test_tracing_installs_and_restores(self):
        assert bus.active() is NULL
        with tracing() as tracer:
            assert bus.active() is tracer
            assert tracer.enabled
        assert bus.active() is NULL

    def test_tracing_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert bus.active() is NULL

    def test_emit_and_count(self):
        tracer = Tracer()
        tracer.emit("cat", 1.5, node="r1", detail_key=7)
        tracer.count("hits")
        tracer.count("hits", 2)
        assert tracer.events[0].t == 1.5
        assert tracer.events[0].detail == {"detail_key": 7}
        assert tracer.counters == {"hits": 3}

    def test_phase_spans_nest(self):
        tracer = Tracer()
        outer = tracer.begin("outer", 0.0)
        inner = tracer.begin("inner", 1.0)
        assert inner.parent == "outer"
        tracer.end(inner, 2.0)
        tracer.end(outer, 3.0)
        assert outer.parent is None
        assert inner.sim_seconds == 1.0
        assert outer.sim_seconds == 3.0

    def test_non_phase_spans_do_not_stack(self):
        tracer = Tracer()
        deploy = tracer.begin("deploy", 0.0)
        boot_a = tracer.begin("boot:a", 1.0, category="kube.boot", node="a")
        boot_b = tracer.begin("boot:b", 1.5, category="kube.boot", node="b")
        # Concurrent boot spans both attach to the open phase, not to
        # each other.
        assert boot_a.parent == "deploy"
        assert boot_b.parent == "deploy"
        tracer.end(boot_b, 2.0)
        tracer.end(boot_a, 2.5)
        tracer.end(deploy, 3.0)
        assert [s.name for s in tracer.phase_spans()] == ["deploy"]


class TestKernelInstrumentation:
    def test_dispatch_counted_when_tracing(self):
        with tracing() as tracer:
            kernel = SimKernel()
            for _ in range(5):
                kernel.schedule(1.0, lambda: None, label="tick:x")
            kernel.run()
        assert tracer.counters["kernel.dispatch"] == 5
        assert tracer.counters["kernel.dispatch.tick"] == 5

    def test_disabled_collector_records_nothing(self):
        kernel = SimKernel()
        for _ in range(5):
            kernel.schedule(1.0, lambda: None)
        kernel.run()
        # Nothing leaked into the module-level collector.
        assert bus.active() is NULL


@pytest.fixture(scope="module")
def fig2_traced():
    scenario = fig2_scenario()
    with tracing() as tracer:
        backend = ModelFreeBackend(
            scenario.topology, timers=FAST_TIMERS, quiet_period=5.0
        )
        snapshot = backend.run(snapshot_name="traced")
    return tracer, snapshot


class TestPipelineTrace:
    def test_phase_spans_recorded(self, fig2_traced):
        tracer, _snapshot = fig2_traced
        names = [s.name for s in tracer.phase_spans()]
        assert names == ["deploy", "inject", "converge", "extract"]

    def test_snapshot_metadata_phases(self, fig2_traced):
        tracer, snapshot = fig2_traced
        phases = snapshot.metadata["phases"]
        assert set(phases) == {"deploy", "inject", "converge", "extract"}
        deploy_span = next(
            s for s in tracer.phase_spans() if s.name == "deploy"
        )
        # Metadata durations match the recorded spans.
        assert phases["deploy"]["sim_seconds"] == pytest.approx(
            deploy_span.sim_seconds
        )
        assert phases["deploy"]["sim_seconds"] == pytest.approx(
            snapshot.startup_seconds
        )

    def test_untraced_run_still_has_phases(self):
        scenario = fig2_scenario()
        snapshot = ModelFreeBackend(
            scenario.topology, timers=FAST_TIMERS, quiet_period=5.0
        ).run()
        assert snapshot.metadata["phases"]["deploy"]["sim_seconds"] > 0
        assert bus.active() is NULL

    def test_boot_span_per_pod(self, fig2_traced):
        tracer, _snapshot = fig2_traced
        boots = [s for s in tracer.spans if s.category == "kube.boot"]
        assert {s.node for s in boots} == {f"r{i}" for i in range(1, 7)}
        assert all(s.closed and s.sim_seconds > 0 for s in boots)

    def test_scheduling_decisions_recorded(self, fig2_traced):
        tracer, _snapshot = fig2_traced
        scheduled = tracer.events_in("kube.pod.scheduled")
        assert {e.node for e in scheduled} == {f"r{i}" for i in range(1, 7)}
        assert all(e.detail["kube_node"] for e in scheduled)

    def test_protocol_events_and_counters(self, fig2_traced):
        tracer, _snapshot = fig2_traced
        assert tracer.events_in("isis.adjacency.up")
        assert tracer.events_in("bgp.session.up")
        assert tracer.events_in("route.install")
        assert tracer.counters["isis.lsp.sent"] > 0
        assert tracer.counters["bgp.update.sent"] > 0
        assert tracer.counters["kernel.dispatch"] > 100

    def test_aft_dump_events(self, fig2_traced):
        tracer, _snapshot = fig2_traced
        dumps = tracer.events_in("gnmi.aft.dump")
        assert {e.node for e in dumps} == {f"r{i}" for i in range(1, 7)}
        assert all(e.detail["entries"] > 0 for e in dumps)


class TestConvergenceTimeline:
    def test_per_device_milestones(self, fig2_traced):
        tracer, _snapshot = fig2_traced
        timeline = ConvergenceTimeline.from_tracer(tracer)
        assert set(timeline.devices) == {f"r{i}" for i in range(1, 7)}
        for device in timeline.devices.values():
            assert device.booted_at is not None
            assert device.last_adjacency_up is not None
            assert device.last_route_install is not None
            assert device.routes > 0
            # Causality: boot before adjacency before final route.
            assert device.booted_at <= device.last_adjacency_up
            assert device.last_adjacency_up <= device.last_route_install

    def test_phases_dict_shape(self, fig2_traced):
        tracer, _snapshot = fig2_traced
        phases = ConvergenceTimeline.from_tracer(tracer).phases_dict()
        assert phases["converge"]["sim_seconds"] > 0
        assert phases["extract"]["wall_seconds"] > 0

    def test_render_mentions_everything(self, fig2_traced):
        tracer, _snapshot = fig2_traced
        text = ConvergenceTimeline.from_tracer(tracer).render()
        assert "Phases:" in text
        assert "deploy" in text and "converge" in text
        assert "r1" in text and "r6" in text
        assert "kernel.dispatch" in text
        assert "Total events recorded" in text

    def test_summary_text(self, fig2_traced):
        tracer, _snapshot = fig2_traced
        text = summary_text(tracer)
        assert "Counters:" in text
        assert "Last route installed" in text
        # The profiling extensions: top-N slowest spans and per-name
        # wall-duration percentiles.
        assert "Slowest spans" in text
        assert "Span durations (wall ms):" in text
        assert "p99" in text

    def test_phase_histograms_on_tracer_registry(self, fig2_traced):
        tracer, _snapshot = fig2_traced
        kinds = {
            (r["kind"], r["name"]) for r in tracer.registry.collect()
        }
        assert ("histogram", "pipeline.phase_wall_seconds") in kinds
        assert ("histogram", "pipeline.phase_sim_seconds") in kinds
        wall = tracer.registry.histogram(
            "pipeline.phase_wall_seconds",
            "Wall seconds spent per pipeline phase",
            ("phase",),
        )
        assert wall.labels(phase="deploy").count == 1


class TestJsonlRoundTrip:
    def test_round_trip_preserves_report(self, fig2_traced, tmp_path):
        tracer, _snapshot = fig2_traced
        path = tmp_path / "trace.jsonl"
        lines = write_jsonl(tracer, path)
        # One line per event, per span, and per metric *series* (every
        # counter, gauge, and histogram child in the registry).
        assert lines == (
            len(tracer.events)
            + len(tracer.spans)
            + len(tracer.registry.collect())
        )
        restored = read_jsonl(path)
        original = ConvergenceTimeline.from_tracer(tracer)
        loaded = ConvergenceTimeline.from_tracer(restored)
        assert loaded.phases_dict() == original.phases_dict()
        assert loaded.counters == original.counters
        assert loaded.total_events == original.total_events
        assert set(loaded.devices) == set(original.devices)
        # The whole metrics plane survives, histograms included.
        assert restored.registry.collect() == tracer.registry.collect()

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown trace record kind"):
            read_jsonl(path)


class TestLinkCutWarning:
    def test_model_backend_warns_on_unknown_link(self, caplog):
        scenario = fig2_scenario()
        context = ScenarioContext().with_link_down("r1", "nonexistent")
        with tracing() as tracer:
            with caplog.at_level("WARNING"):
                snapshot = NativeBatfishBackend(scenario.topology).run(context)
        warnings = tracer.events_in("pipeline.warning")
        assert len(warnings) == 1
        assert warnings[0].detail["reason"] == "unknown-link"
        assert warnings[0].detail["z_node"] == "nonexistent"
        assert "nonexistent" in caplog.text
        # The cut is ignored; the run still completes.
        assert snapshot.backend == "model"
        timeline = ConvergenceTimeline.from_tracer(tracer)
        assert timeline.warnings
        assert "unknown-link" in timeline.render()

    def test_valid_link_cut_does_not_warn(self):
        scenario = fig2_scenario()
        context = ScenarioContext().with_link_down("r1", "r2")
        with tracing() as tracer:
            NativeBatfishBackend(scenario.topology).run(context)
        assert tracer.events_in("pipeline.warning") == []


class TestSharedContextDefault:
    def test_run_default_contexts_are_independent(self):
        # Regression: the default ScenarioContext used to be a shared
        # mutable dataclass instance across all backend runs.
        scenario = fig2_scenario()
        backend = NativeBatfishBackend(scenario.topology)
        first = backend.run()
        second = backend.run()
        assert first.metadata["context"] == "base"
        assert second.metadata["context"] == "base"
        import inspect

        for cls in (ModelFreeBackend, NativeBatfishBackend):
            default = inspect.signature(cls.run).parameters["context"].default
            assert default is None

    def test_multirun_default_context_not_shared(self):
        # Same bug class in the multi-run entry points: a defaulted context
        # must be None in the signature and a fresh ScenarioContext per
        # instance, never one instance shared across runners.
        import inspect

        from repro.ensemble import EnsembleRunner
        from repro.whatif import WhatIfCampaign

        scenario = fig2_scenario()
        for cls in (EnsembleRunner, WhatIfCampaign):
            default = inspect.signature(cls.__init__).parameters["context"].default
            assert default is None
        first = EnsembleRunner(scenario.topology)
        second = EnsembleRunner(scenario.topology)
        assert first.context is not second.context
        campaigns = [WhatIfCampaign(scenario.topology, []) for _ in range(2)]
        assert campaigns[0].context is not campaigns[1].context


class TestModelWarningClock:
    def test_model_warning_stamped_at_model_epoch(self):
        # The model backend has no simulated clock — its warnings are
        # stamped at MODEL_EPOCH and tagged backend="model" so timeline
        # readers know the timestamp is a placeholder.
        from repro.core.pipeline import MODEL_EPOCH

        scenario = fig2_scenario()
        context = ScenarioContext().with_link_down("r1", "nonexistent")
        with tracing() as tracer:
            NativeBatfishBackend(scenario.topology).run(context)
        [warning] = tracer.events_in("pipeline.warning")
        assert warning.t == MODEL_EPOCH
        assert warning.detail["backend"] == "model"
