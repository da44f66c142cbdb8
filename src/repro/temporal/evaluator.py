"""Incremental temporal evaluation over a checkpoint stream.

One engine lineage is advanced through the stream with
:func:`~repro.verify.engine.advance_engine` — each checkpoint costs a
patch of the previous checkpoint's engine (per next-hop group for the
IGP's rewrites, per atom for structural changes), never a rebuild —
and every invariant is evaluated against every checkpoint. Findings are
stitched into :class:`~repro.temporal.invariants.ViolationInterval`
rows. Every step goes through the content-keyed engine cache: given
the caller's ``base`` engine (a what-if campaign passes its baseline's),
checkpoint 0 is that engine itself, and the final checkpoint's engine
stays cached for whoever verifies the converged state next.

``use_delta=False`` is the brute-force oracle: a cold, fully
precomputed engine per checkpoint, identical interval logic. The test
suite holds the two modes to row-for-row equality; the benchmark holds
them ≥5× apart in wall time. When a delta is structurally unappliable
(or its structural changes reach more atoms than the engine's
``DELTA_THRESHOLD`` allows), the incremental mode falls back to a cold
build for that step and keeps going — correctness never depends on the
fast path being available.

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

from repro.obs import bus
from repro.temporal.checkpoints import Checkpoint, CheckpointStream
from repro.temporal.invariants import (
    ViolationInterval,
    default_invariants,
    describe_key,
    stream_name,
)
from repro.verify.engine import AtomGraphEngine, advance_engine, engine_for
from repro.verify.invariants import Invariant, Probe


class _CheckpointProbe(Probe):
    """One checkpoint seen through the warm engine, plus the stream's
    parts: the flow universe, the ingresses, ``t`` and the install
    rate."""

    def __init__(
        self,
        checkpoint: Checkpoint,
        engine: AtomGraphEngine,
        universe: dict[int, str],
        ingresses: Sequence[str],
        prev_t: Optional[float],
    ) -> None:
        super().__init__(checkpoint.dataplane, engine)
        self.checkpoint = checkpoint
        self.universe = universe
        self.ingresses = ingresses
        self._prev_t = prev_t

    @property
    def t(self) -> float:
        return self.checkpoint.t

    def flows(self, address: Optional[int] = None):
        """(ingress, owned address) flows over the whole stream's
        universe, keyed as such, with the address's owner."""
        for flow_address in sorted(self.universe):
            if address is not None and flow_address != address:
                continue
            owner = self.universe[flow_address]
            for ingress in self.ingresses:
                if ingress == owner:
                    continue
                yield (
                    (ingress, flow_address),
                    self.dispositions(ingress, flow_address),
                    owner,
                )

    def owned(self, key) -> bool:
        return True  # the universe holds owned addresses only

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


def evaluate_stream(
    stream: CheckpointStream,
    invariants: Optional[Sequence[Invariant]] = None,
    *,
    use_delta: bool = True,
    base: Optional[AtomGraphEngine] = None,
) -> TemporalReport:
    """Evaluate ``invariants`` at every checkpoint of ``stream``.

    ``base`` is the engine the lineage starts from (checkpoint 0
    derives from it, or is it); without one, checkpoint 0 comes from
    the engine cache. Intervals are ordered by (t_start, invariant,
    witness) so incremental and oracle runs compare row-for-row.
    """
    checks = (
        list(invariants) if invariants is not None else default_invariants()
    )
    names = [stream_name(invariant) for invariant in checks]
    report = TemporalReport(checkpoints=len(stream), use_delta=use_delta)
    if not stream.checkpoints:
        return report
    universe = stream.destination_universe()
    ingresses = stream.node_names()
    registry = bus.metrics_registry()

    # (invariant-index, key) -> (t_start, ingress, destination, detail)
    open_intervals: dict = {}
    closed: list[ViolationInterval] = []

    engine = base
    prev_t: Optional[float] = None
    for checkpoint in stream.checkpoints:
        start = time.perf_counter()
        if not use_delta:
            engine = AtomGraphEngine(checkpoint.dataplane)
            engine.precompute()
        elif engine is None:
            engine = engine_for(checkpoint.dataplane)
        else:
            engine, reason = advance_engine(
                engine, checkpoint.dataplane, checkpoint.delta
            )
            if reason is not None:
                report.fallbacks += 1
                report.fallback_reasons.append(reason)
        step_seconds = time.perf_counter() - start
        report.apply_seconds.append(step_seconds)
        if registry.enabled:
            registry.histogram(
                "verify.temporal_apply_seconds",
                "Wall seconds advancing the warm engine one checkpoint",
            ).observe(step_seconds)

        probe = _CheckpointProbe(
            checkpoint, engine, universe, ingresses, prev_t
        )
        for slot, invariant in enumerate(checks):
            active = dict(invariant.findings(probe))
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
                    invariant=names[slot],
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
                invariant=names[slot],
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
