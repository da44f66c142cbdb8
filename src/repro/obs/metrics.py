"""``repro.obs.metrics`` — the zero-dependency metrics registry.

Events and spans (:mod:`repro.obs.bus`) answer "what happened"; this
module answers "how is it distributed". A :class:`MetricsRegistry`
holds named metric *families* — labeled counters, gauges, and
fixed-bucket histograms — that every hot path in the pipeline and the
verification service records into: kernel dispatch, pipeline phases,
engine builds, job queue wait/run per priority class, store occupancy,
coalescing and shed rates, chaos retry/backoff.

Design constraints, in order:

1. **Cheap enough to leave on.** The registry is enabled by default
   (``MetricsRegistry(enabled=False)`` is the off switch); a disabled
   registry's families are shared no-op singletons, so instrumentation
   costs one attribute load and a false branch — the same budget as
   the event bus. ``BENCH_obs.json`` holds the enabled/disabled wall-time ratio
   under 5% on the production verify workload.
2. **Two time dimensions.** Pipeline stages advance a *simulated*
   clock while extraction/verification burn *wall* time with the
   simulated clock frozen, so histograms pick their default bucket
   boundaries by ``unit``: ``"wall"`` (:data:`WALL_BUCKETS`,
   sub-millisecond to a minute) or ``"sim"`` (:data:`SIM_BUCKETS`,
   sub-second to hours); a family can pass its own ``buckets``.
3. **No dependencies.** Prometheus text exposition
   (:func:`render_prometheus`) and JSONL records
   (:meth:`MetricsRegistry.collect`) are rendered by hand; quantiles
   are streaming estimates interpolated from the fixed buckets, not a
   stored sample set.

The process-wide default registry is :data:`DEFAULT`. A recording
:class:`~repro.obs.bus.Tracer` carries its *own* registry so traced
runs export their metrics alongside the trace; resolution between the
two is :func:`repro.obs.bus.metrics_registry`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "DEFAULT",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SIM_BUCKETS",
    "WALL_BUCKETS",
    "diff_records",
    "render_prometheus",
]

#: Default wall-clock bucket upper bounds (seconds). Engine builds and
#: query answers land between 1 ms and a few seconds; the tail buckets
#: catch pathological builds without unbounded cardinality.
WALL_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Default simulated-time bucket upper bounds (seconds). Convergence
#: and chaos backoff live between sub-second and hours of sim time.
SIM_BUCKETS: tuple[float, ...] = (
    0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0,
    300.0, 600.0, 1800.0, 3600.0, 7200.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class _Child:
    """One labeled series inside a family."""

    __slots__ = ("labels", "_lock")

    def __init__(self, labels: dict) -> None:
        self.labels = dict(labels)
        self._lock = threading.Lock()


class _CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, labels: dict) -> None:
        super().__init__(labels)
        self.value: Union[int, float] = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        with self._lock:
            self.value += n


class _GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, labels: dict) -> None:
        super().__init__(labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)


class _HistogramChild(_Child):
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, labels: dict, bounds: Sequence[float]) -> None:
        super().__init__(labels)
        self.bounds = tuple(bounds)
        # counts[i] observations fell in (bounds[i-1], bounds[i]];
        # counts[-1] is the +Inf overflow bucket.
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Streaming quantile estimate interpolated from the buckets.

        Exact enough for "p99 interactive latency" dashboards: the
        error is bounded by the bucket width the quantile lands in.
        The overflow bucket reports its lower bound (there is no upper
        edge to interpolate toward).
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0.0
        lower = 0.0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                if index < len(self.bounds):
                    lower = self.bounds[index]
                continue
            if seen + bucket_count >= rank:
                if index >= len(self.bounds):
                    return lower
                upper = self.bounds[index]
                fraction = (rank - seen) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
            seen += bucket_count
            if index < len(self.bounds):
                lower = self.bounds[index]
        return lower

    def quantiles(
        self, qs: Iterable[float] = (0.5, 0.9, 0.99)
    ) -> dict[float, float]:
        return {q: self.quantile(q) for q in qs}


class _Family:
    """A named metric with a fixed label schema and per-labelset children."""

    kind = "metric"

    def __init__(
        self, name: str, help: str, labelnames: tuple[str, ...]
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: dict[tuple, _Child] = {}
        self._lock = threading.Lock()

    def _make_child(self, labels: dict) -> _Child:
        raise NotImplementedError

    def labels(self, **labels) -> _Child:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child(labels)
        return child

    def children(self) -> list[_Child]:
        with self._lock:
            return list(self._children.values())

    @property
    def _default(self) -> _Child:
        """The unlabeled child (only valid when labelnames is empty)."""
        return self.labels()


class Counter(_Family):
    """A monotonically increasing sum (optionally labeled)."""

    kind = "counter"

    def _make_child(self, labels: dict) -> _CounterChild:
        return _CounterChild(labels)

    def inc(self, n: Union[int, float] = 1, **labels) -> None:
        self.labels(**labels).inc(n)

    @property
    def value(self) -> Union[int, float]:
        return sum(child.value for child in self.children())


class Gauge(_Family):
    """A point-in-time level (occupancy, depth, fraction)."""

    kind = "gauge"

    def _make_child(self, labels: dict) -> _GaugeChild:
        return _GaugeChild(labels)

    def set(self, value: float, **labels) -> None:
        self.labels(**labels).set(value)

    def inc(self, n: float = 1.0, **labels) -> None:
        self.labels(**labels).inc(n)

    def dec(self, n: float = 1.0, **labels) -> None:
        self.labels(**labels).dec(n)


class Histogram(_Family):
    """Fixed-bucket distribution with streaming quantile summaries."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: Sequence[float],
    ) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = tuple(buckets)

    def _make_child(self, labels: dict) -> _HistogramChild:
        return _HistogramChild(labels, self.buckets)

    def observe(self, value: float, **labels) -> None:
        self.labels(**labels).observe(value)


class _NullChild:
    """Shared no-op child: every mutator is a pass."""

    labels: dict = {}
    value = 0
    sum = 0.0
    count = 0
    counts: list = []
    bounds: tuple = ()

    def inc(self, n=1, **labels) -> None:
        pass

    def dec(self, n=1, **labels) -> None:
        pass

    def set(self, value, **labels) -> None:
        pass

    def observe(self, value, **labels) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def quantiles(self, qs=(0.5, 0.9, 0.99)) -> dict:
        return {q: 0.0 for q in qs}


class _NullFamily(_NullChild):
    """Shared no-op family: ``labels()`` returns the no-op child."""

    name = ""
    help = ""
    labelnames: tuple = ()
    kind = "null"
    buckets: tuple = ()

    def labels(self, **labels) -> "_NullFamily":
        return self

    def children(self) -> list:
        return []


_NULL_FAMILY = _NullFamily()


class MetricsRegistry:
    """Named metric families, one process- or tracer-scoped instance.

    Families are created on first use and are idempotent: asking for an
    existing name returns the existing family (help/labels/buckets from
    the first creation win). A disabled registry hands back a shared
    no-op family, so callers never branch on :attr:`enabled` themselves
    unless they want to skip building label values.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- family accessors ----------------------------------------------------

    def _family(self, cls, name: str, help: str, labelnames, **kwargs):
        if not self.enabled:
            return _NULL_FAMILY
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = cls(name, help, tuple(labelnames), **kwargs)
                    self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._family(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._family(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        unit: str = "wall",
    ) -> Histogram:
        if buckets is None:
            buckets = SIM_BUCKETS if unit == "sim" else WALL_BUCKETS
        return self._family(
            Histogram, name, help, labelnames, buckets=buckets
        )

    # -- introspection -------------------------------------------------------

    def families(self) -> list[_Family]:
        with self._lock:
            return list(self._families.values())

    def series_count(self) -> int:
        """Total labeled series across all families (the cardinality a
        scrape pays for)."""
        return sum(len(f.children()) for f in self.families())

    def counter_values(self) -> dict[str, Union[int, float]]:
        """Flat ``{name: value}`` of every counter series. Unlabeled
        counters appear under their bare name (the historical
        ``Tracer.counters`` shape); labeled series are flattened as
        ``name{k=v,...}``."""
        values: dict[str, Union[int, float]] = {}
        for family in self.families():
            if family.kind != "counter":
                continue
            for child in family.children():
                if child.labels:
                    key = "%s{%s}" % (
                        family.name,
                        ",".join(
                            f"{k}={v}" for k, v in sorted(child.labels.items())
                        ),
                    )
                else:
                    key = family.name
                values[key] = child.value
        return values

    # -- records (JSONL snapshot / delta) ------------------------------------

    def collect(self) -> list[dict]:
        """Every series as a JSON-safe record (the JSONL export shape).

        Record kinds mirror the trace format: ``counter``, ``gauge``,
        and ``histogram`` (buckets + per-bucket counts + sum/count).
        """
        records: list[dict] = []
        for family in self.families():
            for child in family.children():
                record: dict = {"kind": family.kind, "name": family.name}
                if child.labels:
                    record["labels"] = dict(child.labels)
                if family.kind == "histogram":
                    with child._lock:
                        record["buckets"] = list(child.bounds)
                        record["counts"] = list(child.counts)
                        record["sum"] = child.sum
                        record["count"] = child.count
                else:
                    record["value"] = child.value
                records.append(record)
        records.sort(key=lambda r: (r["name"], sorted(r.get("labels", {}).items())))
        return records

    def load_record(self, record: dict) -> None:
        """Absorb one :meth:`collect`-shaped record (JSONL import)."""
        kind = record.get("kind")
        name = record["name"]
        labels = record.get("labels", {})
        if kind == "counter":
            family = self.counter(name, labelnames=tuple(labels))
            family.labels(**labels).inc(record["value"])
        elif kind == "gauge":
            family = self.gauge(name, labelnames=tuple(labels))
            family.labels(**labels).set(record["value"])
        elif kind == "histogram":
            family = self.histogram(
                name,
                labelnames=tuple(labels),
                buckets=record.get("buckets", ()),
            )
            child = family.labels(**labels)
            if isinstance(child, _HistogramChild):
                with child._lock:
                    counts = list(record.get("counts", ()))
                    if len(counts) == len(child.counts):
                        child.counts = [
                            have + got
                            for have, got in zip(child.counts, counts)
                        ]
                    child.sum += record.get("sum", 0.0)
                    child.count += record.get("count", 0)
        else:
            raise ValueError(f"unknown metric record kind: {kind!r}")

    def clear(self) -> None:
        with self._lock:
            self._families.clear()


def diff_records(before: list[dict], after: list[dict]) -> list[dict]:
    """The delta between two :meth:`MetricsRegistry.collect` snapshots.

    Counters and histograms subtract (series absent from ``before``
    count from zero); gauges are levels, so the delta carries the
    ``after`` value. Series that did not change are omitted — the
    delta export is meant for cheap periodic shipping.
    """

    def key(record: dict) -> tuple:
        return (
            record["name"],
            tuple(sorted(record.get("labels", {}).items())),
        )

    prior = {key(r): r for r in before}
    delta: list[dict] = []
    for record in after:
        old = prior.get(key(record))
        if record["kind"] == "gauge":
            if old is None or old.get("value") != record.get("value"):
                delta.append(dict(record))
            continue
        if record["kind"] == "counter":
            base = old.get("value", 0) if old else 0
            change = record["value"] - base
            if change:
                delta.append(dict(record, value=change))
            continue
        # histogram
        base_counts = old.get("counts", []) if old else []
        counts = list(record.get("counts", ()))
        if len(base_counts) != len(counts):
            base_counts = [0] * len(counts)
        changed = [c - b for c, b in zip(counts, base_counts)]
        if any(changed):
            delta.append(
                dict(
                    record,
                    counts=changed,
                    sum=record.get("sum", 0.0)
                    - (old.get("sum", 0.0) if old else 0.0),
                    count=record.get("count", 0)
                    - (old.get("count", 0) if old else 0),
                )
            )
    return delta


# -- Prometheus text exposition ----------------------------------------------


def _prom_name(name: str) -> str:
    """Metric names here use dots (``service.jobs_submitted``);
    Prometheus requires ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    sanitized = "".join(
        c if c.isalnum() or c in "_:" else "_" for c in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: Union[int, float]) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, int) else f"{value:.9g}"


def _prom_labels(labels: dict, extra: Optional[tuple] = None) -> str:
    pairs = sorted(labels.items())
    if extra is not None:
        pairs = pairs + [extra]
    if not pairs:
        return ""
    body = ",".join(
        '%s="%s"'
        % (
            _prom_name(str(k)),
            str(v).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"),
        )
        for k, v in pairs
    )
    return "{%s}" % body


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (v0.0.4).

    Counters get a ``_total`` suffix, histograms the standard
    ``_bucket``/``_sum``/``_count`` triplet with cumulative ``le``
    buckets ending at ``+Inf``.
    """
    lines: list[str] = []
    for family in sorted(registry.families(), key=lambda f: f.name):
        base = _prom_name(family.name)
        if family.kind == "counter":
            name = base if base.endswith("_total") else base + "_total"
            lines.append(f"# HELP {name} {family.help or family.name}")
            lines.append(f"# TYPE {name} counter")
            for child in family.children():
                lines.append(
                    f"{name}{_prom_labels(child.labels)} "
                    f"{_prom_value(child.value)}"
                )
        elif family.kind == "gauge":
            lines.append(f"# HELP {base} {family.help or family.name}")
            lines.append(f"# TYPE {base} gauge")
            for child in family.children():
                lines.append(
                    f"{base}{_prom_labels(child.labels)} "
                    f"{_prom_value(child.value)}"
                )
        elif family.kind == "histogram":
            lines.append(f"# HELP {base} {family.help or family.name}")
            lines.append(f"# TYPE {base} histogram")
            for child in family.children():
                with child._lock:
                    counts = list(child.counts)
                    total = child.count
                    acc_sum = child.sum
                cumulative = 0
                for bound, bucket_count in zip(child.bounds, counts):
                    cumulative += bucket_count
                    lines.append(
                        f"{base}_bucket"
                        f"{_prom_labels(child.labels, ('le', f'{bound:g}'))} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{base}_bucket"
                    f"{_prom_labels(child.labels, ('le', '+Inf'))} {total}"
                )
                lines.append(
                    f"{base}_sum{_prom_labels(child.labels)} "
                    f"{_prom_value(acc_sum)}"
                )
                lines.append(
                    f"{base}_count{_prom_labels(child.labels)} {total}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide default registry — the always-on metrics plane the
#: verification service records into when no tracer is installed.
DEFAULT = MetricsRegistry()
