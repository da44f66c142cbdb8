"""Tests for the metrics plane (repro.obs.metrics) and its surfaces.

Covers the registry itself (families, labels, histogram quantiles,
enable/disable), the Prometheus and JSONL exposition paths, trace-
context propagation (``job_scope``), the service counter migration,
the frontend ``{"op": "metrics"}`` surface, and the per-job waterfall.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import bus, read_jsonl, tracing, write_jsonl
from repro.obs import metrics as obs_metrics
from repro.obs.export import (
    read_metrics_jsonl,
    write_metrics_jsonl,
)
from repro.obs.metrics import (
    DEFAULT,
    SIM_BUCKETS,
    WALL_BUCKETS,
    MetricsRegistry,
    diff_records,
    render_prometheus,
)
from repro.obs.timeline import waterfall_text
from repro.service import Job, JobPriority, JobQueue, VerificationService
from repro.service.frontend import ServiceFrontend
from repro.service.workers import WorkerPool


class TestRegistry:
    def test_counter_unlabeled_and_labeled(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        lookups = registry.counter("lookups", labelnames=("result",))
        lookups.inc(result="hit")
        lookups.inc(3, result="miss")
        assert registry.counter("hits").value == 3
        assert registry.counter_values() == {
            "hits": 3,
            "lookups{result=hit}": 1,
            "lookups{result=miss}": 3,
        }

    def test_family_is_idempotent(self):
        registry = MetricsRegistry(enabled=True)
        first = registry.counter("x", "first help")
        second = registry.counter("x", "other help")
        assert first is second
        assert first.help == "first help"

    def test_label_schema_enforced(self):
        registry = MetricsRegistry(enabled=True)
        family = registry.counter("y", labelnames=("a",))
        with pytest.raises(ValueError, match="expected labels"):
            family.labels(b="1")

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry(enabled=True)
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.labels().value == 4

    def test_histogram_counts_and_quantiles(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.005, 0.05, 0.5):
            hist.observe(value)
        child = hist.labels()
        assert child.count == 4
        assert child.counts == [2, 1, 1, 0]
        assert child.sum == pytest.approx(0.56)
        # Interpolated within the bucket the quantile lands in.
        assert 0.0 < child.quantile(0.25) <= 0.01
        assert 0.1 < child.quantile(0.99) <= 1.0

    def test_histogram_overflow_bucket_quantile(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("big", buckets=(1.0,))
        hist.observe(100.0)
        # No upper edge to interpolate toward: report the lower bound.
        assert hist.labels().quantile(0.99) == 1.0

    def test_sim_unit_picks_sim_buckets(self):
        registry = MetricsRegistry(enabled=True)
        wall = registry.histogram("w")
        sim = registry.histogram("s", unit="sim")
        assert wall.buckets == WALL_BUCKETS
        assert sim.buckets == SIM_BUCKETS
        assert wall.buckets != sim.buckets

    def test_default_buckets_read_the_module_constants(self, monkeypatch):
        monkeypatch.setattr(obs_metrics, "WALL_BUCKETS", (0.25, 0.5, 1.0))
        monkeypatch.setattr(obs_metrics, "SIM_BUCKETS", (10.0, 100.0))
        registry = MetricsRegistry(enabled=True)
        assert registry.histogram("w").buckets == (0.25, 0.5, 1.0)
        assert registry.histogram("s", unit="sim").buckets == (10.0, 100.0)

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        family = registry.counter("ghost")
        family.inc(result="anything")  # label schema not even checked
        registry.histogram("ghost2").observe(1.0)
        assert registry.families() == []
        assert registry.series_count() == 0
        assert registry.counter_values() == {}
        assert registry.collect() == []

    def test_series_count(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("a").inc()
        hist = registry.histogram("b", labelnames=("p",))
        hist.observe(1.0, p="x")
        hist.observe(1.0, p="y")
        assert registry.series_count() == 3

    def test_default_registry_exists_and_is_enabled_by_default(self):
        assert isinstance(DEFAULT, MetricsRegistry)
        assert DEFAULT.enabled and MetricsRegistry().enabled


class TestPrometheusRendering:
    def test_counter_gauge_histogram_exposition(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("service.jobs_submitted", "Jobs accepted").inc(7)
        registry.gauge("service.queue_depth").set(3)
        hist = registry.histogram(
            "service.job_queue_seconds",
            labelnames=("priority",),
            buckets=(0.1, 1.0),
        )
        hist.observe(0.05, priority="interactive")
        hist.observe(5.0, priority="interactive")
        text = render_prometheus(registry)
        assert "# TYPE service_jobs_submitted_total counter" in text
        assert "service_jobs_submitted_total 7" in text
        assert "service_queue_depth 3" in text
        # Cumulative buckets ending at +Inf, plus _sum/_count.
        assert (
            'service_job_queue_seconds_bucket{le="0.1",priority="interactive"} 1'
            in text or
            'service_job_queue_seconds_bucket{priority="interactive",le="0.1"} 1'
            in text
        )
        assert 'le="+Inf"' in text
        assert "service_job_queue_seconds_count" in text
        assert "service_job_queue_seconds_sum" in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("c", labelnames=("msg",)).inc(msg='say "hi"\n')
        text = render_prometheus(registry)
        assert r"say \"hi\"\n" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry(enabled=True)) == ""


class TestRecordsAndDiff:
    def _loaded(self) -> MetricsRegistry:
        registry = MetricsRegistry(enabled=True)
        registry.counter("c", labelnames=("k",)).inc(2, k="v")
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        return registry

    def test_collect_round_trips_every_kind(self, tmp_path):
        registry = self._loaded()
        path = tmp_path / "metrics.jsonl"
        lines = write_metrics_jsonl(registry, path)
        assert lines == 3
        kinds = {
            json.loads(line)["kind"]
            for line in path.read_text().splitlines()
        }
        assert kinds == {"counter", "gauge", "histogram"}
        restored = read_metrics_jsonl(path)
        assert restored.collect() == registry.collect()

    def test_delta_export(self, tmp_path):
        registry = self._loaded()
        before = registry.collect()
        registry.counter("c", labelnames=("k",)).inc(3, k="v")
        registry.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        path = tmp_path / "delta.jsonl"
        lines = write_metrics_jsonl(registry, path, since=before)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert lines == 2  # the unchanged gauge is omitted
        by_kind = {r["kind"]: r for r in records}
        assert by_kind["counter"]["value"] == 3
        assert by_kind["histogram"]["count"] == 1
        assert by_kind["histogram"]["counts"] == [1, 0, 0]

    def test_diff_gauge_carries_level(self):
        registry = self._loaded()
        before = registry.collect()
        registry.gauge("g").set(9.0)
        delta = diff_records(before, registry.collect())
        assert delta == [{"kind": "gauge", "name": "g", "value": 9.0}]

    def test_malformed_metric_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "histogram", "buckets": []}\n')
        with pytest.raises(ValueError, match="malformed histogram"):
            read_jsonl(path)


class TestJobContext:
    def test_job_scope_tags_events_and_spans(self):
        with tracing() as tracer:
            with bus.job_scope(42, "interactive"):
                assert bus.current_job().job_id == 42
                tracer.emit("anything", 1.0)
                span = tracer.begin("work", 1.0)
                tracer.end(span, 2.0)
            assert bus.current_job() is None
        assert tracer.events[0].detail["job"] == 42
        assert span.attrs == {"job": 42}

    def test_metrics_registry_resolves_tracer_then_default(self):
        assert bus.metrics_registry() is DEFAULT
        with tracing() as tracer:
            assert bus.metrics_registry() is tracer.registry
            assert tracer.registry.enabled  # tracing is the opt-in
        assert bus.metrics_registry() is DEFAULT


class TestWorkerPoolConcurrency:
    def test_registry_survives_worker_hammering(self):
        """Many worker threads recording into one registry: every
        increment and observation lands exactly once."""
        registry = MetricsRegistry(enabled=True)
        jobs_n, incs_per_job = 40, 50

        def work(n):
            counter = registry.counter("hammer.count", labelnames=("lane",))
            hist = registry.histogram("hammer.lat", buckets=(0.5, 1.0))
            for i in range(incs_per_job):
                counter.inc(lane=str(n % 4))
                hist.observe((i % 3) * 0.4)
            return n

        queue = JobQueue(max_depth=jobs_n + 1)
        pool = WorkerPool(queue, workers=8, max_retries=0)
        jobs = []
        for n in range(jobs_n):
            job = Job(("hammer", n), (lambda n=n: work(n)),
                      priority=JobPriority.CAMPAIGN)
            queue.submit(job)
            jobs.append(job)
        pool.start()
        try:
            for job in jobs:
                job.result(timeout=10)
        finally:
            pool.stop()
        total = sum(registry.counter_values().values())
        assert total == jobs_n * incs_per_job
        child_counts = [
            c.count
            for c in registry.histogram("hammer.lat").children()
        ]
        assert sum(child_counts) == jobs_n * incs_per_job


@pytest.fixture()
def service():
    svc = VerificationService(workers=1, max_queue_depth=8)
    svc.start()
    yield svc
    svc.stop()


def _settle(condition, timeout=5.0):
    """Wait for post-settle bookkeeping (the on_done hook runs after
    the job's result is delivered to waiters)."""
    import time as _time

    deadline = _time.monotonic() + timeout
    while not condition():
        if _time.monotonic() > deadline:
            pytest.fail("on_done bookkeeping never settled")
        _time.sleep(0.005)


class TestServiceMetrics:
    def test_stats_namespaces_counters_with_aliases(self, service):
        service.submit_callable(lambda: 1, signature=("s1",)).result(5)
        _settle(lambda: service.counters["jobs_completed"] == 1)
        stats = service.stats()
        assert stats["counters"]["jobs_submitted"] == 1
        assert stats["counters"]["jobs_completed"] == 1
        # Deprecated flat aliases survive one release.
        assert stats["jobs_submitted"] == 1
        assert stats["jobs_completed"] == 1

    def test_counters_property_reads_registry(self, service):
        service.submit_callable(lambda: 1, signature=("c1",)).result(5)
        _settle(lambda: service.counters["jobs_completed"] == 1)
        values = service.metrics.counter_values()
        assert values["service.jobs_completed"] == 1

    def test_queue_and_run_histograms_by_priority(self, service):
        service.submit_callable(
            lambda: 1, signature=("h1",), priority=JobPriority.INTERACTIVE
        ).result(5)
        hist = service.metrics.histogram("service.job_queue_seconds")
        _settle(lambda: hist.labels(priority="interactive").count == 1)
        run = service.metrics.histogram("service.job_run_seconds")
        assert run.labels(priority="interactive").count == 1
        # Other priority classes are preregistered but untouched.
        assert hist.labels(priority="campaign").count == 0

    def test_frontend_metrics_op_prometheus(self, service):
        service.submit_callable(lambda: 1, signature=("m1",)).result(5)
        _settle(lambda: service.counters["jobs_completed"] == 1)
        frontend = ServiceFrontend(service)
        response, keep = frontend.handle({"op": "metrics"})
        assert keep and response["ok"]
        assert response["format"] == "prometheus"
        text = response["text"]
        # The acceptance surface: queue-wait and engine-build
        # histograms, with priority-class children preregistered.
        assert "service_job_queue_seconds_bucket" in text
        assert "verify_engine_build_seconds_bucket" in text
        for priority in ("interactive", "differential", "campaign"):
            assert f'priority="{priority}"' in text

    def test_frontend_metrics_op_records(self, service):
        frontend = ServiceFrontend(service)
        response, _ = frontend.handle(
            {"op": "metrics", "format": "records"}
        )
        assert response["ok"] and response["format"] == "records"
        kinds = {record["kind"] for record in response["records"]}
        assert kinds == {"counter", "gauge", "histogram"}
        response, _ = frontend.handle(
            {"op": "metrics", "format": "nonsense"}
        )
        assert not response["ok"]

    def test_service_metrics_stay_on_when_plane_disabled(self, monkeypatch):
        """Counters are part of the stats API, so the service falls
        back to a private registry when the default plane is off."""
        monkeypatch.setattr(
            obs_metrics, "DEFAULT", MetricsRegistry(enabled=False)
        )
        svc = VerificationService(workers=1)
        svc.start()
        try:
            svc.submit_callable(lambda: 1, signature=("off",)).result(5)
            _settle(lambda: svc.counters["jobs_completed"] == 1)
            assert svc.metrics.enabled
        finally:
            svc.stop()


class TestWaterfall:
    def _traced_job(self, tmp_path):
        with tracing() as tracer:
            with VerificationService(workers=1) as svc:
                job = svc.submit_callable(lambda: "ok", signature=("w",))
                job.result(timeout=5)
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        return path, job.id

    def test_waterfall_renders_lifecycle(self, tmp_path):
        path, job_id = self._traced_job(tmp_path)
        text = waterfall_text(read_jsonl(path), job_id)
        assert f"Job {job_id} waterfall" in text
        assert "queued" in text
        assert "running" in text
        assert "done" in text
        assert "total" in text and "attempts 1" in text

    def test_waterfall_unknown_job_raises(self, tmp_path):
        path, job_id = self._traced_job(tmp_path)
        with pytest.raises(KeyError):
            waterfall_text(read_jsonl(path), job_id + 999)

    def test_waterfall_cli(self, tmp_path, capsys):
        from repro.cli import main

        path, job_id = self._traced_job(tmp_path)
        assert main(["obs", "waterfall", str(path), str(job_id)]) == 0
        out = capsys.readouterr().out
        assert "waterfall" in out
        assert main(["obs", "waterfall", str(path), "424242"]) == 2

    def test_metrics_cli(self, tmp_path, capsys):
        from repro.cli import main

        path, _ = self._traced_job(tmp_path)
        assert main(["obs", "metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out
        assert main(
            ["obs", "metrics", str(path), "--format", "records"]
        ) == 0
        out = capsys.readouterr().out
        first = json.loads(out.splitlines()[0])
        assert first["kind"] in ("counter", "gauge", "histogram")
