"""The observability event bus: events, spans, counters, collectors.

Everything dynamic in the pipeline runs on simulated time, so every
event and span here is keyed off a ``SimKernel`` clock value passed in
by the instrumentation site (the bus itself never reads a clock — that
keeps it dependency-free and lets offline consumers replay traces).

The bus is a process-wide slot holding one :class:`Collector`. The
default is the shared no-op :data:`NULL` collector, whose ``enabled``
flag is ``False``; instrumentation sites guard their work behind that
flag, so a disabled run pays one attribute load and one branch per
site — negligible even inside the kernel's event dispatch loop.

Wall-clock durations are recorded alongside simulated ones on spans
because two pipeline phases (AFT extraction, verification) do real work
while simulated time stands still.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.obs import metrics as _metrics


@dataclass
class ObsEvent:
    """One point-in-time fact: something happened at simulated ``t``."""

    t: float
    category: str
    node: str = ""
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": "event",
            "t": self.t,
            "category": self.category,
            "node": self.node,
            "detail": self.detail,
        }


@dataclass
class Span:
    """A named interval of simulated time (plus its wall-clock cost).

    Spans of category ``"phase"`` nest: beginning one while another is
    open records the open one as ``parent``, which is how the timeline
    report aggregates per-phase durations. Non-phase spans (e.g. one
    boot span per pod) may overlap freely and attach to whichever phase
    was open when they began.
    """

    name: str
    category: str = "phase"
    node: str = ""
    t_start: float = 0.0
    t_end: Optional[float] = None
    wall_seconds: float = 0.0
    parent: Optional[str] = None
    #: Correlation attributes (e.g. ``{"job": 7}`` from a job scope).
    attrs: dict = field(default_factory=dict, compare=False)
    _wall_start: float = field(default=0.0, repr=False, compare=False)

    @property
    def closed(self) -> bool:
        return self.t_end is not None

    @property
    def sim_seconds(self) -> float:
        """Simulated duration (0.0 until the span is closed)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        record = {
            "kind": "span",
            "name": self.name,
            "category": self.category,
            "node": self.node,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "wall_seconds": self.wall_seconds,
            "parent": self.parent,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class Collector:
    """The no-op collector interface; also the disabled implementation.

    Subclasses that actually record set ``enabled = True``.
    Instrumentation sites are expected to check ``bus.ACTIVE.enabled``
    before building event detail, so these method bodies exist only for
    callers that don't bother guarding.
    """

    enabled = False

    def emit(self, category: str, t: float, node: str = "", **detail) -> None:
        """Record a point event at simulated time ``t``."""

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the aggregate counter ``name``."""

    def begin(
        self,
        name: str,
        t: float,
        *,
        category: str = "phase",
        node: str = "",
    ) -> Span:
        """Open a span at simulated time ``t``."""
        return Span(name=name, category=category, node=node, t_start=t)

    def end(self, span: Span, t: float) -> Span:
        """Close ``span`` at simulated time ``t``."""
        return span


#: The shared disabled collector. Instrumentation compares cost against
#: this: one ``bus.ACTIVE.enabled`` load per site when it is installed.
NULL = Collector()


# -- trace-context propagation -------------------------------------------------
#
# One verification job flows submit -> admission -> queue -> worker ->
# engine build -> answer, crossing threads on the way. The worker wraps
# each execution in a job scope; every event and span the active tracer
# records on that thread carries the job id, which is how
# ``mfv obs waterfall <job_id>`` reassembles the per-job story.

_JOB_CONTEXT = threading.local()


@dataclass(frozen=True)
class JobContext:
    """The correlation context a worker thread runs a job under."""

    job_id: int
    priority: str = ""


def current_job() -> Optional[JobContext]:
    """The job context of the calling thread (None outside a scope)."""
    return getattr(_JOB_CONTEXT, "context", None)


@contextmanager
def job_scope(
    job_id: int,
    priority: str = "",
    registry: Optional[_metrics.MetricsRegistry] = None,
) -> Iterator[JobContext]:
    """Tag everything recorded on this thread with ``job_id``.

    With ``registry``, it also becomes the thread's ambient metrics
    registry for the scope (see :func:`metrics_registry`): the worker
    pool passes its service's private registry here, so engine builds
    and store lookups inside a job land on that service's plane.
    """
    context = JobContext(job_id=job_id, priority=priority)
    previous = getattr(_JOB_CONTEXT, "context", None)
    previous_registry = getattr(_JOB_CONTEXT, "registry", None)
    _JOB_CONTEXT.context = context
    if registry is not None:
        _JOB_CONTEXT.registry = registry
    try:
        yield context
    finally:
        _JOB_CONTEXT.context = previous
        _JOB_CONTEXT.registry = previous_registry


class Tracer(Collector):
    """A recording collector: events, spans, and aggregate counters.

    Counters live on a per-tracer :class:`~repro.obs.metrics.MetricsRegistry`
    (so a traced run exports histograms and gauges alongside its events);
    :attr:`counters` keeps the historical flat ``{name: value}`` view.
    """

    enabled = True

    def __init__(
        self, registry: Optional[_metrics.MetricsRegistry] = None
    ) -> None:
        self.events: list[ObsEvent] = []
        self.spans: list[Span] = []
        # A tracer's registry is always enabled: installing a tracer IS
        # the opt-in, independent of the process-default knob.
        self.registry = (
            registry
            if registry is not None
            else _metrics.MetricsRegistry(enabled=True)
        )
        self._phase_stack: list[Span] = []

    @property
    def counters(self) -> dict:
        """Flat counter view (migrated onto :attr:`registry`)."""
        return self.registry.counter_values()

    # -- recording ---------------------------------------------------------

    def emit(self, category: str, t: float, node: str = "", **detail) -> None:
        context = getattr(_JOB_CONTEXT, "context", None)
        if context is not None and "job" not in detail:
            detail["job"] = context.job_id
        self.events.append(
            ObsEvent(t=t, category=category, node=node, detail=detail)
        )

    def count(self, name: str, n: int = 1) -> None:
        self.registry.counter(name).labels().inc(n)

    def begin(
        self,
        name: str,
        t: float,
        *,
        category: str = "phase",
        node: str = "",
    ) -> Span:
        context = getattr(_JOB_CONTEXT, "context", None)
        span = Span(
            name=name,
            category=category,
            node=node,
            t_start=t,
            parent=self._phase_stack[-1].name if self._phase_stack else None,
            attrs={"job": context.job_id} if context is not None else {},
            _wall_start=time.perf_counter(),
        )
        self.spans.append(span)
        if category == "phase":
            self._phase_stack.append(span)
        return span

    def end(self, span: Span, t: float) -> Span:
        span.t_end = t
        span.wall_seconds = time.perf_counter() - span._wall_start
        if span in self._phase_stack:
            self._phase_stack.remove(span)
        return span

    # -- queries -----------------------------------------------------------

    def events_in(self, category: str) -> list[ObsEvent]:
        return [e for e in self.events if e.category == category]

    def phase_spans(self) -> list[Span]:
        return [s for s in self.spans if s.category == "phase" and s.closed]

    def __repr__(self) -> str:
        return (
            f"Tracer(events={len(self.events)}, spans={len(self.spans)}, "
            f"counters={len(self.counters)})"
        )


#: The currently installed collector. Hot paths read this attribute
#: directly (``bus.ACTIVE.enabled``) rather than calling a function.
ACTIVE: Collector = NULL


def active() -> Collector:
    """The currently installed collector (the no-op :data:`NULL` when
    tracing is off)."""
    return ACTIVE


def metrics_registry() -> _metrics.MetricsRegistry:
    """The metrics registry instrumentation should record into.

    Resolution order: a recording tracer's own registry (so traced
    runs export their metrics with the trace), then the calling
    thread's job-scope registry (a worker running a service job), then
    the process-wide :data:`repro.obs.metrics.DEFAULT` plane (enabled).
    Hot paths call this once per operation, not per loop iteration.
    """
    registry = getattr(ACTIVE, "registry", None)
    if registry is not None:
        return registry
    registry = getattr(_JOB_CONTEXT, "registry", None)
    return registry if registry is not None else _metrics.DEFAULT


def install(collector: Collector) -> Collector:
    """Install ``collector`` process-wide; returns it for chaining."""
    global ACTIVE
    ACTIVE = collector
    return collector


def uninstall() -> None:
    """Restore the no-op collector."""
    install(NULL)


@contextmanager
def tracing(collector: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a :class:`Tracer` for the duration of a ``with`` block.

    The previously installed collector is restored on exit, so nested
    or sequential traced runs cannot leak instrumentation into later
    untraced ones.
    """
    tracer = collector if collector is not None else Tracer()
    previous = ACTIVE
    install(tracer)
    try:
        yield tracer
    finally:
        install(previous)
