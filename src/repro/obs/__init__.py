"""``repro.obs`` — tracing, metrics, and convergence timelines.

The standing measurement layer of the emulation pipeline: a
zero-dependency event bus + span tracer keyed off simulated time
(:mod:`repro.obs.bus`), a labeled metrics registry with wall- and
sim-time histograms (:mod:`repro.obs.metrics`), a convergence-timeline
report (:mod:`repro.obs.timeline`), and JSONL export for offline
analysis (:mod:`repro.obs.export`).

Typical use::

    from repro.obs import tracing, ConvergenceTimeline

    with tracing() as tracer:
        snapshot = ModelFreeBackend(topology).run()
    print(ConvergenceTimeline.from_tracer(tracer).render())

With no tracer installed, every instrumentation site reduces to one
attribute load and a false branch — the no-op collector keeps the
disabled cost negligible even in the kernel's dispatch loop. The
metrics plane has the same property: sites ask
:func:`~repro.obs.bus.metrics_registry` (the installed tracer's
registry, else the process-wide :data:`~repro.obs.metrics.DEFAULT`)
and skip all work when it is disabled (``MetricsRegistry(enabled=False)``).
"""

from repro.obs import bus, metrics
from repro.obs.bus import (
    NULL,
    Collector,
    JobContext,
    ObsEvent,
    Span,
    Tracer,
    active,
    current_job,
    install,
    job_scope,
    metrics_registry,
    tracing,
    uninstall,
)
from repro.obs.export import (
    read_jsonl,
    read_metrics_jsonl,
    write_jsonl,
    write_metrics_jsonl,
)
from repro.obs.metrics import (
    MetricsRegistry,
    diff_records,
    render_prometheus,
)
from repro.obs.timeline import ConvergenceTimeline, DeviceTimeline, summary_text

__all__ = [
    "NULL",
    "Collector",
    "ConvergenceTimeline",
    "DeviceTimeline",
    "JobContext",
    "MetricsRegistry",
    "ObsEvent",
    "Span",
    "Tracer",
    "active",
    "bus",
    "current_job",
    "diff_records",
    "install",
    "job_scope",
    "metrics",
    "metrics_registry",
    "read_jsonl",
    "read_metrics_jsonl",
    "render_prometheus",
    "summary_text",
    "tracing",
    "uninstall",
    "write_jsonl",
    "write_metrics_jsonl",
]
