"""Incremental temporal evaluation over a checkpoint stream.

One warm :class:`~repro.verify.engine.AtomGraphEngine` is threaded
through the stream with ``apply_delta`` — each checkpoint costs a
sparse patch, not a rebuild — and every invariant is evaluated against
every checkpoint. Findings are stitched into
:class:`~repro.temporal.invariants.ViolationInterval` rows.

``use_delta=False`` is the brute-force oracle: a cold, fully
precomputed engine per checkpoint, identical interval logic. The test
suite holds the two modes to row-for-row equality; the benchmark holds
them ≥5× apart in wall time. When a delta is structurally unappliable
(or dirties more atoms than the engine's ``DELTA_THRESHOLD`` allows), the
incremental mode falls back to a cold build for that step and keeps
going — correctness never depends on the fast path being available.

Flow universe: every owned address that exists at *any* checkpoint,
against every ingress device. Using a single checkpoint's address map
would drop exactly the destinations a flap temporarily un-owns.

Metrics (registry + flat trace counters, matching the ``verify.delta_*``
plane): ``verify.temporal_checkpoints``, ``verify.temporal_violations``,
``verify.temporal_fallbacks``, and the ``verify.temporal_apply_seconds``
per-step histogram.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.dataplane.forwarding import ForwardingWalk, WalkResult
from repro.obs import bus
from repro.temporal.checkpoints import Checkpoint, CheckpointStream
from repro.temporal.invariants import (
    TemporalInvariant,
    ViolationInterval,
    describe_key,
)
from repro.verify.engine import AtomGraphEngine, DeltaUnapplicable


class CheckpointProbe:
    """What one invariant may ask about one checkpoint."""

    def __init__(
        self,
        checkpoint: Checkpoint,
        engine: AtomGraphEngine,
        universe: dict[int, str],
        ingresses: Sequence[str],
        prev_t: Optional[float],
    ) -> None:
        self.checkpoint = checkpoint
        self.engine = engine
        self.universe = universe
        self.ingresses = ingresses
        self._prev_t = prev_t
        self._walker: Optional[ForwardingWalk] = None

    @property
    def t(self) -> float:
        return self.checkpoint.t

    def flows(self, dst: Optional[str] = None):
        """(ingress, address, owner) triples over the flow universe."""
        from repro.net.addr import parse_ipv4

        wanted = None if dst is None else parse_ipv4(dst)
        for address in sorted(self.universe):
            if wanted is not None and address != wanted:
                continue
            owner = self.universe[address]
            for ingress in self.ingresses:
                if ingress == owner:
                    continue
                yield ingress, address, owner

    def dispositions(self, ingress: str, address: int) -> frozenset:
        return self.engine.dispositions(
            ingress, self.engine.atom_index_of(address)
        )

    def walk(self, ingress: str, address: int) -> WalkResult:
        if self._walker is None:
            self._walker = ForwardingWalk(self.checkpoint.dataplane)
        return self._walker.walk(ingress, address)

    def install_rate(self) -> Optional[float]:
        """Installs per sim-second over this checkpoint's window."""
        if self._prev_t is None:
            return None
        elapsed = self.t - self._prev_t
        if elapsed <= 0:
            return None
        return self.checkpoint.installs / elapsed


@dataclass
class TemporalReport:
    """Violation intervals plus how the evaluation went."""

    intervals: list[ViolationInterval] = field(default_factory=list)
    checkpoints: int = 0
    fallbacks: int = 0
    fallback_reasons: list[str] = field(default_factory=list)
    apply_seconds: list[float] = field(default_factory=list)
    use_delta: bool = True

    @property
    def transient(self) -> list[ViolationInterval]:
        return [i for i in self.intervals if i.transient]

    @property
    def persistent(self) -> list[ViolationInterval]:
        return [i for i in self.intervals if not i.transient]

    def to_dict(self) -> dict:
        return {
            "checkpoints": self.checkpoints,
            "violations": len(self.intervals),
            "transient": len(self.transient),
            "persistent": len(self.persistent),
            "fallbacks": self.fallbacks,
            "fallback_reasons": list(self.fallback_reasons),
            "apply_seconds_total": sum(self.apply_seconds),
            "use_delta": self.use_delta,
            "intervals": [i.to_dict() for i in self.intervals],
        }

    def render(self) -> str:
        lines = [
            f"Temporal verification: {self.checkpoints} checkpoints, "
            f"{len(self.intervals)} violation interval(s) "
            f"({len(self.transient)} transient, "
            f"{len(self.persistent)} persistent)"
        ]
        for interval in self.intervals:
            lines.append(f"  {interval}")
        if self.fallbacks:
            lines.append(
                f"  ({self.fallbacks} step(s) fell back to a cold rebuild: "
                f"{', '.join(self.fallback_reasons)})"
            )
        return "\n".join(lines)


def _cold_engine(checkpoint: Checkpoint) -> AtomGraphEngine:
    engine = AtomGraphEngine(checkpoint.dataplane, _observe=False)
    engine.precompute()
    return engine


def evaluate_stream(
    stream: CheckpointStream,
    invariants: Optional[Sequence[TemporalInvariant]] = None,
    *,
    use_delta: bool = True,
) -> TemporalReport:
    """Evaluate ``invariants`` at every checkpoint of ``stream``.

    Intervals are ordered by (t_start, invariant, witness) so
    incremental and oracle runs compare row-for-row.
    """
    from repro.temporal.invariants import default_invariants

    checks = (
        list(invariants) if invariants is not None else default_invariants()
    )
    report = TemporalReport(checkpoints=len(stream), use_delta=use_delta)
    if not stream.checkpoints:
        return report
    universe = stream.destination_universe()
    ingresses = stream.node_names()
    registry = bus.metrics_registry()

    # (invariant-index, key) -> (t_start, ingress, destination, detail)
    open_intervals: dict = {}
    closed: list[ViolationInterval] = []

    engine: Optional[AtomGraphEngine] = None
    prev_t: Optional[float] = None
    for checkpoint in stream.checkpoints:
        start = time.perf_counter()
        if engine is None or not use_delta or checkpoint.delta is None:
            engine = _cold_engine(checkpoint)
        else:
            try:
                engine = engine.apply_delta(checkpoint.delta)
            except DeltaUnapplicable as exc:
                report.fallbacks += 1
                report.fallback_reasons.append(exc.reason)
                engine = _cold_engine(checkpoint)
        step_seconds = time.perf_counter() - start
        report.apply_seconds.append(step_seconds)
        if registry.enabled:
            registry.histogram(
                "verify.temporal_apply_seconds",
                "Wall seconds advancing the warm engine one checkpoint",
            ).observe(step_seconds)

        probe = CheckpointProbe(
            checkpoint, engine, universe, ingresses, prev_t
        )
        for slot, invariant in enumerate(checks):
            active = invariant.findings(probe)
            for key, detail in active.items():
                handle = (slot, key)
                if handle not in open_intervals:
                    ingress, destination = describe_key(key)
                    open_intervals[handle] = (
                        checkpoint.t,
                        ingress,
                        destination,
                        str(detail),
                    )
            for handle in [
                h
                for h in open_intervals
                if h[0] == slot and h[1] not in active
            ]:
                t_start, ingress, destination, detail = open_intervals.pop(
                    handle
                )
                interval = ViolationInterval(
                    invariant=invariant.name,
                    t_start=t_start,
                    t_end=checkpoint.t,
                    ingress=ingress,
                    destination=destination,
                    detail=detail,
                    transient=True,
                )
                if interval.duration > invariant.max_sim_s:
                    closed.append(interval)
        prev_t = checkpoint.t

    final_t = stream.final.t
    for (slot, _key), (t_start, ingress, destination, detail) in sorted(
        open_intervals.items(),
        key=lambda item: (item[1][0], item[0][0], item[1][1], item[1][2]),
    ):
        # Still violating at the last (converged) checkpoint: persistent,
        # never suppressed by the transient tolerance.
        closed.append(
            ViolationInterval(
                invariant=checks[slot].name,
                t_start=t_start,
                t_end=final_t,
                ingress=ingress,
                destination=destination,
                detail=detail,
                transient=False,
            )
        )

    report.intervals = sorted(
        closed,
        key=lambda i: (i.t_start, i.invariant, i.ingress, i.destination),
    )

    collector = bus.ACTIVE
    if registry.enabled:
        registry.counter(
            "verify.temporal_checkpoints",
            "Checkpoints evaluated for temporal invariants",
        ).inc(len(stream))
        registry.counter(
            "verify.temporal_violations",
            "Temporal violation intervals reported",
        ).inc(len(report.intervals))
        if report.fallbacks:
            registry.counter(
                "verify.temporal_fallbacks",
                "Temporal steps that fell back to a cold engine build",
            ).inc(report.fallbacks)
    if collector.enabled:
        for interval in report.intervals:
            collector.emit(
                "temporal.violation",
                interval.t_start,
                node=interval.ingress,
                invariant=interval.invariant,
                t_end=interval.t_end,
                destination=interval.destination,
                transient=interval.transient,
                detail=interval.detail,
            )
    return report
