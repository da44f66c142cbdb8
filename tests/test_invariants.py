"""The one invariant vocabulary against the three it replaced.

The oracle section below copies, verbatim, the definitions that stood
before :mod:`repro.verify.invariants` became the only place an
invariant is defined: the snapshot checks, the temporal invariants
with their ``CheckpointProbe``, the ensemble battery with its
``OutcomeProbe``, and the chaos runner's two verdict helpers. Every
lift — snapshot, stream, ensemble and baseline pair — must equal its
oracle row for row, detail strings included, on the shipped corpora
and on generated dataplanes, and must not walk more than it did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import runner as chaos_runner
from repro.core.context import ScenarioContext
from repro.core.faults import FaultPlan, NodeDown
from repro.core.pipeline import ModelFreeBackend
from repro.corpus.production import production_scenario, scaled_timers
from repro.dataplane.delta import DataplaneDelta
from repro.dataplane.forwarding import Disposition, ForwardingWalk, WalkResult
from repro.dataplane.model import Dataplane
from repro.ensemble import EnsembleWitness, RowObservation, RunRecord
from repro.ensemble import fold_observations, fold_records
from repro.ensemble.runner import outcome_rows
from repro.gnmi.aft import (
    AftInterface,
    AftIpv4Entry,
    AftNextHop,
    AftNextHopGroup,
    AftSnapshot,
)
from repro.net.addr import format_ipv4, parse_ipv4
from repro.obs import tracing
from repro.protocols.timers import FAST_TIMERS
from repro.temporal import CheckpointRecorder, evaluate_stream
from repro.temporal import invariants as tinv
from repro.temporal.checkpoints import Checkpoint, CheckpointStream
from repro.temporal.evaluator import _CheckpointProbe
from repro.verify import invariants as inv
from repro.verify.differential import BaselineDiff
from repro.verify.engine import AtomGraphEngine
from repro.verify.reachability import (
    ReachabilityAnalysis,
    ReachabilityRow,
    pairwise_matrix,
)
from repro.whatif import link_flap_scenarios
from tests.test_verify_engine import _acl_line_dataplane

# == Oracles: the pre-refactor definitions, verbatim ===========================

# -- snapshot checks -----------------------------------------------------------

def detect_loops(dataplane: Dataplane) -> list[ReachabilityRow]:
    """Every (ingress, destination set) that forwards in a cycle."""
    return _loops(ReachabilityAnalysis(dataplane).analyze())


def _loops(rows: list[ReachabilityRow]) -> list[ReachabilityRow]:
    return [row for row in rows if Disposition.LOOP in row.dispositions]


def detect_blackholes(dataplane: Dataplane) -> list[ReachabilityRow]:
    """Destinations dropped (no route / null-routed) from some ingress.

    Restricted to destinations some device in the network actually owns
    — unowned space legitimately has no route at the edge.
    """
    return _blackholes(dataplane, ReachabilityAnalysis(dataplane).analyze())


def _blackholes(
    dataplane: Dataplane, rows: list[ReachabilityRow]
) -> list[ReachabilityRow]:
    owned = set(dataplane.address_owner)
    return [
        row
        for row in rows
        if {Disposition.NO_ROUTE, Disposition.NULL_ROUTED} & row.dispositions
        and any(address in row.dst_set for address in owned)
    ]


@dataclass(frozen=True)
class PairwiseViolation:
    """A (src, dst) device pair that cannot communicate."""
    src: str
    dst: str

    def __str__(self) -> str:
        return f"{self.src} cannot reach {self.dst}"


def verify_pairwise_reachability(
    dataplane: Dataplane,
) -> list[PairwiseViolation]:
    """Check the all-pairs invariant; returns the violating pairs."""
    matrix = pairwise_matrix(dataplane)
    return [
        PairwiseViolation(src, dst)
        for (src, dst), reachable in sorted(matrix.items())
        if not reachable
    ]


def detect_degraded(dataplane: Dataplane) -> list[ReachabilityRow]:
    """Rows whose verdict is UNKNOWN_DEGRADED (partial snapshot).

    These are *absence-of-proof* rows, not violations: the destination
    belongs to a node whose forwarding state could not be extracted.
    """
    return _degraded(ReachabilityAnalysis(dataplane).analyze())


def _degraded(rows: list[ReachabilityRow]) -> list[ReachabilityRow]:
    return [
        row for row in rows if Disposition.UNKNOWN_DEGRADED in row.dispositions
    ]


def verification_summary(dataplane: Dataplane) -> dict[str, int]:
    """The standard invariant battery as counts (pipeline verify phase).

    All checks share one cached atom-graph engine, and the loop,
    blackhole and degraded counts filter one set of reachability rows,
    so the battery is a single set of per-atom graph passes and one
    row merge. The ``degraded`` count appears only for partial
    snapshots, keeping fault-free summaries byte-identical to earlier
    releases.
    """
    rows = ReachabilityAnalysis(dataplane).analyze()
    violations = verify_pairwise_reachability(dataplane)
    summary = {
        "loops": len(_loops(rows)),
        "blackholes": len(_blackholes(dataplane, rows)),
        "unreachable_pairs": len(violations),
    }
    if dataplane.degraded_nodes or dataplane.degraded_owned:
        summary["degraded"] = len(_degraded(rows))
    return summary


# -- chaos verdict helpers -----------------------------------------------------


def pairwise_verdicts(dataplane: Dataplane) -> dict[str, bool]:
    """The all-pairs matrix with JSON-friendly ``src->dst`` keys."""
    return {
        f"{src}->{dst}": reachable
        for (src, dst), reachable in sorted(pairwise_matrix(dataplane).items())
    }


def degraded_fraction(dataplane: Dataplane) -> float:
    """Fraction of reachability rows answering UNKNOWN_DEGRADED."""
    rows = ReachabilityAnalysis(dataplane).analyze()
    if not rows:
        return 0.0
    degraded = sum(
        1
        for row in rows
        if Disposition.UNKNOWN_DEGRADED in row.dispositions
    )
    return degraded / len(rows)


# -- temporal invariants -------------------------------------------------------

NO_TRANSIENT_LOOP = "no-transient-loop"
BLACKHOLE_WINDOW = "blackhole-window"
MAX_CHURN = "max-churn"
WAYPOINT_ALWAYS = "waypoint-always"

_BLACKHOLE = frozenset({Disposition.NO_ROUTE, Disposition.NULL_ROUTED})


@dataclass(frozen=True)
class ViolationInterval:
    """One violation's lifetime, with its witness atom.

    ``ingress``/``destination`` witness the violating flow (empty for
    network-wide invariants like churn). ``transient`` is True when the
    violation cleared before the stream's final checkpoint.
    """

    invariant: str
    t_start: float
    t_end: float
    ingress: str = ""
    destination: str = ""
    detail: str = ""
    transient: bool = True

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
            "ingress": self.ingress,
            "destination": self.destination,
            "detail": self.detail,
            "transient": self.transient,
        }

    def __str__(self) -> str:
        witness = ""
        if self.ingress or self.destination:
            witness = f" {self.ingress}->{self.destination}"
        tail = f" ({self.detail})" if self.detail else ""
        kind = "transient" if self.transient else "persistent"
        return (
            f"[{self.t_start:10.1f}, {self.t_end:10.1f})s "
            f"{self.invariant:<17}{witness} {kind}{tail}"
        )


class TemporalInvariant:
    """Base: findings active at one checkpoint, keyed for continuity.

    ``findings(probe)`` returns ``{key: detail}``; the evaluator opens
    an interval when a key first appears and closes it when the key
    vanishes. Keys must therefore be stable across checkpoints for the
    same logical violation — (ingress, destination) pairs for flow
    invariants, a constant for network-wide ones.
    """

    name = "invariant"
    #: Transient intervals lasting <= this many sim-seconds are noise.
    max_sim_s = 0.0

    def findings(self, probe) -> dict:
        raise NotImplementedError


class NoTransientLoop(TemporalInvariant):
    """No forwarding loop, even mid-convergence, lasting > ``max_sim_s``."""

    name = NO_TRANSIENT_LOOP

    def __init__(self, max_sim_s: float = 0.0) -> None:
        self.max_sim_s = max_sim_s

    def findings(self, probe) -> dict:
        active = {}
        for ingress, address, owner in probe.flows():
            if Disposition.LOOP in probe.dispositions(ingress, address):
                active[(ingress, address)] = (
                    f"loop toward {owner}"
                )
        return active


class BlackholeWindow(TemporalInvariant):
    """Traffic to ``dst`` (default: every owned address) must not fall
    into NO_ROUTE/NULL_ROUTED for longer than ``max_sim_s``."""

    name = BLACKHOLE_WINDOW

    def __init__(
        self, dst: Optional[str] = None, max_sim_s: float = 0.0
    ) -> None:
        self.dst = dst
        self.max_sim_s = max_sim_s

    def findings(self, probe) -> dict:
        active = {}
        for ingress, address, owner in probe.flows(dst=self.dst):
            if probe.dispositions(ingress, address) & _BLACKHOLE:
                active[(ingress, address)] = f"blackhole toward {owner}"
        return active


class MaxChurn(TemporalInvariant):
    """Route-install rate across the network stays <= ``installs_per_s``.

    Rate is measured per checkpoint window: installs coalesced into the
    checkpoint divided by sim-time elapsed since the previous one.
    """

    name = MAX_CHURN

    def __init__(self, installs_per_s: float) -> None:
        self.installs_per_s = installs_per_s

    def findings(self, probe) -> dict:
        rate = probe.install_rate()
        if rate is not None and rate > self.installs_per_s:
            return {
                "rate": (
                    f"{rate:.1f} installs/s > "
                    f"limit {self.installs_per_s:.1f}"
                )
            }
        return {}


class WaypointAlways(TemporalInvariant):
    """Every successful path to ``dst`` traverses device ``via`` at
    every checkpoint — service-chain insertion that must hold even
    while routes are moving."""

    name = WAYPOINT_ALWAYS

    def __init__(self, dst: str, via: str, max_sim_s: float = 0.0) -> None:
        from repro.net.addr import parse_ipv4

        self.dst = dst
        self.address = parse_ipv4(dst)
        self.via = via
        self.max_sim_s = max_sim_s

    def findings(self, probe) -> dict:
        active = {}
        for ingress in probe.ingresses:
            if ingress == self.via:
                continue
            result = probe.walk(ingress, self.address)
            for trace in result.traces:
                if not trace.disposition.is_success:
                    continue
                if all(hop.device != self.via for hop in trace.hops):
                    active[(ingress, self.address)] = (
                        f"path skips waypoint {self.via}"
                    )
                    break
        return active


def default_invariants() -> list[TemporalInvariant]:
    """The `mfv temporal` defaults: loops and blackholes, zero
    tolerance — every positive-width transient window is reported."""
    return [NoTransientLoop(), BlackholeWindow()]


def describe_key(key) -> tuple[str, str]:
    """(ingress, destination-text) for an invariant finding key."""
    if isinstance(key, tuple) and len(key) == 2:
        ingress, address = key
        return str(ingress), format_ipv4(address)
    return "", ""


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



# -- ensemble battery ----------------------------------------------------------

_BLACKHOLE = frozenset({Disposition.NO_ROUTE, Disposition.NULL_ROUTED})

#: Row-name prefix for the per-pair reachability rows.
REACH_PREFIX = "reach:"


class OutcomeProbe:
    """One distinct converged state, with lazily shared analyses.

    Everything an invariant can ask for funnels through one
    :class:`ReachabilityAnalysis` (hence one engine): the classified
    reachability rows, the all-pairs matrix, and sample walks.
    """

    def __init__(
        self,
        dataplane: Dataplane,
        *,
        engine: Optional[AtomGraphEngine] = None,
    ) -> None:
        self.dataplane = dataplane
        self.analysis = ReachabilityAnalysis(dataplane, engine=engine)
        self._rows = None
        self._matrix = None

    def reach_rows(self):
        if self._rows is None:
            self._rows = self.analysis.analyze()
        return self._rows

    def matrix(self):
        if self._matrix is None:
            self._matrix = pairwise_matrix(
                self.dataplane, engine=self.analysis.engine
            )
        return self._matrix

    def walk(self, ingress: str, destination: int):
        return self.analysis.walk(ingress, destination)

    def degraded_pairs(self) -> set:
        """(src, dst) pairs whose verdict is UNKNOWN_DEGRADED.

        Pairs whose destination node vanished from the dataplane are
        already absent from the matrix; this catches the subtler case —
        both endpoints extracted, but the path's proof runs through a
        degraded node.
        """
        dataplane = self.dataplane
        if not (dataplane.degraded_nodes or dataplane.degraded_owned):
            return set()
        pairs = set()
        for row in self.reach_rows():
            if Disposition.UNKNOWN_DEGRADED not in row.dispositions:
                continue
            for name, device in dataplane.devices.items():
                if name == row.ingress:
                    continue
                if any(
                    address in row.dst_set
                    for address in device.local_addresses
                ):
                    pairs.add((row.ingress, name))
        return pairs


class EnsembleInvariant:
    """Base: named boolean rows evaluated against one outcome probe."""

    name = "invariant"

    def rows(self, probe: OutcomeProbe) -> dict[str, tuple[bool, str]]:
        raise NotImplementedError


class NoForwardingLoop(EnsembleInvariant):
    """No (ingress, destination set) forwards in a cycle."""

    name = "no-forwarding-loop"

    def rows(self, probe: OutcomeProbe) -> dict[str, tuple[bool, str]]:
        looping = [
            row
            for row in probe.reach_rows()
            if Disposition.LOOP in row.dispositions
        ]
        detail = str(looping[0]) if looping else ""
        return {self.name: (not looping, detail)}


class NoBlackhole(EnsembleInvariant):
    """No owned destination is dropped (NO_ROUTE / NULL_ROUTED)."""

    name = "no-blackhole"

    def rows(self, probe: OutcomeProbe) -> dict[str, tuple[bool, str]]:
        owned = set(probe.dataplane.address_owner)
        holes = []
        for row in probe.reach_rows():
            if not (_BLACKHOLE & row.dispositions):
                continue
            if any(address in row.dst_set for address in owned):
                holes.append(row)
        detail = str(holes[0]) if holes else ""
        return {self.name: (not holes, detail)}


class PairwiseReachable(EnsembleInvariant):
    """One row per device pair: ``reach:src->dst``.

    Pairs answering UNKNOWN_DEGRADED are omitted from the outcome's
    rows entirely — absence of proof stays out of the fold denominator,
    matching the chaos runner's stability scoring.
    """

    name = "pairwise-reachable"

    def rows(self, probe: OutcomeProbe) -> dict[str, tuple[bool, str]]:
        degraded = probe.degraded_pairs()
        return {
            f"{REACH_PREFIX}{src}->{dst}": (
                ok,
                "" if ok else f"{src} cannot reach {dst}",
            )
            for (src, dst), ok in sorted(probe.matrix().items())
            if (src, dst) not in degraded
        }


class Waypoint(EnsembleInvariant):
    """Every successful path to ``dst`` traverses device ``via``."""

    def __init__(self, dst: str, via: str) -> None:
        self.dst = dst
        self.address = parse_ipv4(dst)
        self.via = via
        self.name = f"waypoint:{dst}-via-{via}"

    def rows(self, probe: OutcomeProbe) -> dict[str, tuple[bool, str]]:
        for ingress in probe.dataplane.node_names():
            if ingress == self.via:
                continue
            result = probe.walk(ingress, self.address)
            for trace in result.traces:
                if not trace.disposition.is_success:
                    continue
                if all(hop.device != self.via for hop in trace.hops):
                    return {
                        self.name: (
                            False,
                            f"{ingress} path skips waypoint {self.via}",
                        )
                    }
        return {self.name: (True, "")}


def default_ensemble_invariants() -> list[EnsembleInvariant]:
    """The standard battery: loops, blackholes, all-pairs rows."""
    return [NoForwardingLoop(), NoBlackhole(), PairwiseReachable()]


# == Lifts against oracles =====================================================


def _stream_oracle(stream, invariants):
    """The stream stitching as it stood, over the oracle probe: a cold
    engine per checkpoint, intervals as dicts."""
    universe = stream.destination_universe()
    ingresses = stream.node_names()
    open_intervals: dict = {}
    closed = []
    prev_t = None
    for checkpoint in stream.checkpoints:
        engine = _cold(checkpoint.dataplane)
        probe = CheckpointProbe(checkpoint, engine, universe, ingresses, prev_t)
        for slot, invariant in enumerate(invariants):
            active = invariant.findings(probe)
            for key, detail in active.items():
                if (slot, key) not in open_intervals:
                    ingress, destination = describe_key(key)
                    open_intervals[(slot, key)] = (
                        checkpoint.t, ingress, destination, str(detail)
                    )
            for handle in [
                h for h in open_intervals if h[0] == slot and h[1] not in active
            ]:
                t_start, ingress, destination, detail = open_intervals.pop(
                    handle
                )
                interval = ViolationInterval(
                    invariants[slot].name, t_start, checkpoint.t,
                    ingress, destination, detail, True,
                )
                if interval.duration > invariant.max_sim_s:
                    closed.append(interval)
        prev_t = checkpoint.t
    for (slot, _key), (t_start, ingress, destination, detail) in sorted(
        open_intervals.items(),
        key=lambda item: (item[1][0], item[0][0], item[1][1], item[1][2]),
    ):
        closed.append(
            ViolationInterval(
                invariants[slot].name, t_start, stream.final.t,
                ingress, destination, detail, False,
            )
        )
    closed.sort(key=lambda i: (i.t_start, i.invariant, i.ingress, i.destination))
    return [interval.to_dict() for interval in closed]


def _cold(dataplane: Dataplane) -> AtomGraphEngine:
    engine = AtomGraphEngine(dataplane, _observe=False)
    engine.precompute()
    return engine


def _walks(tracer) -> int:
    return tracer.counters.get("verify.scalar_walks", 0)


def _waypoints(dataplane: Dataplane) -> list[tuple[str, str]]:
    """Two waypoint specs per dataplane: toward the last device's first
    address, via the first and the second device."""
    names = dataplane.node_names()
    owned = sorted(
        address
        for address, owner in dataplane.address_owner.items()
        if owner == names[-1]
    )
    return [(format_ipv4(owned[0]), via) for via in names[:2]]


def _rows(rows: list[ReachabilityRow]) -> list[tuple]:
    """Rows by value (a trace's header space compares by identity)."""
    return [
        (
            str(row),
            row.ingress,
            row.dst_set,
            row.dispositions,
            row.sample_destination,
            [(t.disposition, t.hops) for t in row.sample_traces],
        )
        for row in rows
    ]


def assert_snapshot_lifts(dataplane: Dataplane) -> None:
    for lifted, oracle in (
        (inv.detect_loops, detect_loops),
        (inv.detect_blackholes, detect_blackholes),
        (inv.detect_degraded, detect_degraded),
    ):
        assert _rows(lifted(dataplane)) == _rows(oracle(dataplane))
    assert [
        (v.src, v.dst, str(v))
        for v in inv.verify_pairwise_reachability(dataplane)
    ] == [
        (v.src, v.dst, str(v)) for v in verify_pairwise_reachability(dataplane)
    ]
    assert inv.verification_summary(dataplane) == verification_summary(
        dataplane
    )
    assert chaos_runner.pairwise_verdicts(dataplane) == pairwise_verdicts(
        dataplane
    )
    assert chaos_runner.degraded_fraction(dataplane) == degraded_fraction(
        dataplane
    )


def _ensemble_pairs(waypoints):
    pairs = [
        (inv.Loop(), NoForwardingLoop()),
        (inv.Blackhole(), NoBlackhole()),
        (inv.Pairwise(), PairwiseReachable()),
    ]
    for dst, via in waypoints:
        pairs.append((inv.Waypoint(dst, via), Waypoint(dst, via)))
    return pairs


def assert_ensemble_lift(dataplane: Dataplane, waypoints) -> None:
    """One outcome's rows, in order, on a shared precomputed engine."""
    pairs = _ensemble_pairs(waypoints)
    engine = _cold(dataplane)
    with tracing() as lifted:
        probe = inv.Probe(dataplane, engine)
        rows = [list(outcome_rows(new, probe).items()) for new, _ in pairs]
    with tracing() as oracle:
        old_probe = OutcomeProbe(dataplane, engine=engine)
        expected = [list(old.rows(old_probe).items()) for _, old in pairs]
    assert rows == expected
    assert _walks(lifted) <= _walks(oracle)


def assert_fold_lift(snapshots, waypoints) -> None:
    """``fold_records`` over one record per snapshot equals the oracle
    fold of the oracle rows, and walks no more."""
    records = [
        RunRecord(seed=seed, plan_name=f"s{seed}", snapshot=snapshot)
        for seed, snapshot in enumerate(snapshots)
    ]
    engines = {id(s): _cold(s.dataplane) for s in snapshots}
    pairs = _ensemble_pairs(waypoints)
    with tracing() as lifted:
        verdicts = fold_records(
            records,
            invariants=[new for new, _ in pairs],
            engine_of=lambda snapshot: engines[id(snapshot)],
            dedup=False,
            observe=False,
        ).verdicts
    observations: dict = {}
    with tracing() as oracle:
        for record in records:
            probe = OutcomeProbe(
                record.snapshot.dataplane, engine=engines[id(record.snapshot)]
            )
            for _, old in pairs:
                for name, (holds, detail) in old.rows(probe).items():
                    observations.setdefault(name, []).append(
                        RowObservation(
                            holds=holds,
                            weight=1,
                            witness=EnsembleWitness(
                                seed=record.seed,
                                plan=record.plan_name,
                                fingerprint=record.fingerprint,
                                detail=detail,
                            ),
                        )
                    )
    assert verdicts == fold_observations(observations)
    assert _walks(lifted) <= _walks(oracle)


def _stream_pairs(stream, waypoints):
    universe = sorted(stream.destination_universe())
    pairs = [
        (inv.Loop(), NoTransientLoop()),
        (inv.Blackhole(), BlackholeWindow()),
        (inv.Loop(max_sim_s=0.3), NoTransientLoop(max_sim_s=0.3)),
        (tinv.MaxChurn(2.0), MaxChurn(2.0)),
    ]
    if universe:
        dst = format_ipv4(universe[len(universe) // 2])
        pairs.append((inv.Blackhole(dst), BlackholeWindow(dst)))
    for dst, via in waypoints:
        pairs.append((inv.Waypoint(dst, via), WaypointAlways(dst, via)))
    return pairs


def assert_stream_lift(stream: CheckpointStream, waypoints) -> None:
    """Per checkpoint, every invariant's findings (in order) and walk
    count; over the stream, the stitched intervals both ways."""
    pairs = _stream_pairs(stream, waypoints)
    universe = stream.destination_universe()
    ingresses = stream.node_names()
    prev_t = None
    for checkpoint in stream.checkpoints:
        engine = _cold(checkpoint.dataplane)
        with tracing() as lifted:
            probe = _CheckpointProbe(
                checkpoint, engine, universe, ingresses, prev_t
            )
            found = [list(dict(new.findings(probe)).items()) for new, _ in pairs]
        with tracing() as oracle:
            old_probe = CheckpointProbe(
                checkpoint, engine, universe, ingresses, prev_t
            )
            expected = [list(old.findings(old_probe).items()) for _, old in pairs]
        assert found == expected
        assert _walks(lifted) <= _walks(oracle)
        prev_t = checkpoint.t
    intervals = _stream_oracle(stream, [old for _, old in pairs])
    for use_delta in (True, False):
        report = evaluate_stream(
            stream, [new for new, _ in pairs], use_delta=use_delta
        )
        assert [i.to_dict() for i in report.intervals] == intervals


def assert_baseline_lift(reference: Dataplane, snapshot: Dataplane) -> None:
    diff = BaselineDiff(reference)
    base = verification_summary(reference)
    assert diff.baseline_invariants == base
    same = diff.compare(reference)
    assert same.identical and same.invariants == base
    assert (same.new_loops, same.new_blackholes, same.new_unreachable_pairs) == (
        0, 0, 0
    )
    comparison = diff.compare(snapshot)
    summary = verification_summary(snapshot)
    assert comparison.invariants == summary
    assert (
        comparison.new_loops,
        comparison.new_blackholes,
        comparison.new_unreachable_pairs,
    ) == (
        max(0, summary["loops"] - base["loops"]),
        max(0, summary["blackholes"] - base["blackholes"]),
        max(0, summary["unreachable_pairs"] - base["unreachable_pairs"]),
    )


# -- fixed inputs ----------------------------------------------------------------


def _flap_stream(backend, topology, *, hold, quiet):
    deployment = backend.last_run.deployment
    scenario = next(iter(link_flap_scenarios(topology, hold_seconds=hold)))
    recorder = CheckpointRecorder(deployment)
    recorder.arm()
    scenario.apply(deployment)
    deployment.wait_converged(quiet_period=max(quiet, scenario.min_quiet_period))
    return recorder.finalize()


@pytest.fixture(scope="module")
def production():
    scenario = production_scenario(6, peers=1, routes_per_peer=40, seed=7)
    backend = ModelFreeBackend(
        scenario.topology, timers=scaled_timers(40), quiet_period=30.0
    )
    snapshot = backend.run(
        ScenarioContext(name="prod", injectors=tuple(scenario.injectors))
    )
    stream = _flap_stream(backend, scenario.topology, hold=30.0, quiet=30.0)
    return snapshot, stream


@pytest.fixture(scope="module")
def fig3_stream(fig3):
    backend = ModelFreeBackend(fig3.topology, timers=FAST_TIMERS, quiet_period=5.0)
    backend.run(ScenarioContext())
    return _flap_stream(backend, fig3.topology, hold=15.0, quiet=5.0)


@pytest.fixture(scope="module")
def fig2_crash(fig2):
    plan = FaultPlan(name="crash-r3", faults=(NodeDown("r3", at=1000.0),))
    backend = ModelFreeBackend(fig2.topology, timers=FAST_TIMERS, quiet_period=5.0)
    return backend.run(seed=0, snapshot_name="crash-r3", chaos=plan)


@pytest.fixture(scope="module")
def fixed(fig2_snapshots, fig3_emulated, production, fig2_crash):
    healthy, buggy = fig2_snapshots
    return {
        "fig2": healthy,
        "fig2-buggy": buggy,
        "fig3": fig3_emulated[1],
        "production-6": production[0],
        "fig2-crash-r3": fig2_crash,
    }


FIXED = ("fig2", "fig2-buggy", "fig3", "production-6", "fig2-crash-r3")


class TestFixedInputs:
    @pytest.mark.parametrize("name", FIXED)
    def test_snapshot_lifts(self, fixed, name):
        assert_snapshot_lifts(fixed[name].dataplane)

    def test_snapshot_lifts_acl_line(self):
        assert_snapshot_lifts(_acl_line_dataplane())
        assert_snapshot_lifts(_acl_line_dataplane(permitted_src="0.0.0.0/0"))

    @pytest.mark.parametrize("name", FIXED)
    def test_ensemble_lift(self, fixed, name):
        dataplane = fixed[name].dataplane
        assert_ensemble_lift(dataplane, _waypoints(dataplane))

    def test_ensemble_lift_acl_line(self):
        dataplane = _acl_line_dataplane()
        assert_ensemble_lift(dataplane, _waypoints(dataplane))

    def test_fold_lift(self, fixed):
        snapshots = [fixed[name] for name in FIXED if name.startswith("fig2")]
        assert_fold_lift(snapshots, _waypoints(snapshots[0].dataplane))

    def test_baseline_lift(self, fixed):
        assert_baseline_lift(
            fixed["fig2"].dataplane, fixed["fig2-buggy"].dataplane
        )
        assert_baseline_lift(
            fixed["fig2-buggy"].dataplane, fixed["fig2-crash-r3"].dataplane
        )

    def test_fig3_flap_stream(self, fig3_stream):
        assert len(fig3_stream) >= 2
        assert_stream_lift(
            fig3_stream, _waypoints(fig3_stream.final.dataplane)
        )

    def test_production_flap_stream(self, production):
        stream = production[1]
        assert len(stream) >= 2
        assert_stream_lift(stream, _waypoints(stream.final.dataplane))


# -- generated inputs ------------------------------------------------------------


def _iface(name, cidr):
    address, _, length = cidr.partition("/")
    return AftInterface(
        name=name,
        ipv4_address=address,
        prefix_length=int(length),
        enabled=True,
    )


#: A service address whichever device the generator picks announces.
ANYCAST = "9.9.9.9"


def _loopback(index: int) -> str:
    octet = index + 1
    return f"{octet}.{octet}.{octet}.{octet}"


@dataclass(frozen=True)
class _Net:
    """A line (or ring) of devices d0..dn-1, link k addressed
    10.0.k.0/31 on its lower end and 10.0.k.1/31 on its upper."""

    size: int
    ring: bool
    degraded: Optional[str]

    @property
    def names(self) -> list[str]:
        return [f"d{i}" for i in range(self.size)]

    def links(self) -> list[tuple[int, int]]:
        links = [(i, i + 1) for i in range(self.size - 1)]
        return links + [(self.size - 1, 0)] if self.ring else links

    def ports(self, index: int) -> list[tuple[str, str, str]]:
        """(interface, own address, peer address) per link of a device."""
        out = []
        for k, (a, z) in enumerate(self.links()):
            if index == a:
                out.append((f"eth{k}", f"10.0.{k}.0", f"10.0.{k}.1"))
            elif index == z:
                out.append((f"eth{k}", f"10.0.{k}.1", f"10.0.{k}.0"))
        return out

    def prefixes(self) -> list[str]:
        """Static-route targets: every loopback and link, the anycast
        address, an aggregate over the links and a default route (both
        cover unowned space)."""
        return (
            [f"{_loopback(i)}/32" for i in range(self.size)]
            + [f"10.0.{k}.0/31" for k in range(len(self.links()))]
            + [f"{ANYCAST}/32", "10.0.0.0/16", "0.0.0.0/0"]
        )


nets = st.builds(
    _Net,
    size=st.integers(3, 6),
    ring=st.booleans(),
    degraded=st.none() | st.sampled_from([f"d{i}" for i in range(3)]),
)


def _routes(net: _Net):
    """Per device, a static per prefix: none, discard, one neighbour or
    ECMP over all of them — null routes, blackholes and loops alike."""

    def device(index):
        ports = net.ports(index)
        ecmp = len(ports) + 1
        return st.lists(
            st.sampled_from(["none", "discard", *range(1, ecmp + 1)]),
            min_size=len(net.prefixes()),
            max_size=len(net.prefixes()),
        )

    return st.tuples(*(device(i) for i in range(net.size)))


def _dataplane(
    net: _Net, routes, anycast: Optional[int] = None, down: Optional[int] = None
) -> Dataplane:
    """``anycast`` names the device that owns :data:`ANYCAST`; link
    ``down`` loses its interfaces (and so its owned addresses), as in
    the middle of a flap."""
    afts = {}
    for index, name in enumerate(net.names):
        ports = net.ports(index)
        aft = AftSnapshot(device=name)
        aft.interfaces = [_iface("lo", f"{_loopback(index)}/32")] + [
            _iface(port, f"{own}/31")
            for port, own, _ in ports
            if port != f"eth{down}"
        ]
        if index == anycast:
            aft.interfaces.append(_iface("lo1", f"{ANYCAST}/32"))
        for hop, (port, _, peer) in enumerate(ports, start=1):
            aft.next_hops[hop] = AftNextHop(
                index=hop, interface=port, ip_address=peer
            )
            aft.next_hop_groups[hop] = AftNextHopGroup(
                group_id=hop, next_hop_indices=(hop,)
            )
        ecmp = len(ports) + 1
        aft.next_hop_groups[ecmp] = AftNextHopGroup(
            group_id=ecmp, next_hop_indices=tuple(range(1, ecmp))
        )
        own = f"{_loopback(index)}/32"
        aft.entries = [AftIpv4Entry(prefix=own, entry_type="receive")]
        for prefix, choice in zip(net.prefixes(), routes[index]):
            if prefix == own or choice == "none":
                continue
            if choice == "discard":
                aft.entries.append(
                    AftIpv4Entry(prefix=prefix, entry_type="discard")
                )
            else:
                aft.entries.append(
                    AftIpv4Entry(
                        prefix=prefix, entry_type="forward", next_hop_group=choice
                    )
                )
        afts[name] = aft
    if net.degraded is None:
        return Dataplane.from_afts(afts)
    lost = afts.pop(net.degraded)
    return Dataplane.from_afts(
        afts,
        degraded_nodes={net.degraded: "crashed"},
        degraded_addresses={
            net.degraded: [iface.ipv4_address for iface in lost.interfaces]
        },
    )


def _state(draw, net: _Net) -> Dataplane:
    return _dataplane(
        net,
        draw(_routes(net)),
        anycast=draw(st.none() | st.integers(0, net.size - 1)),
        down=draw(st.none() | st.integers(0, len(net.links()) - 1)),
    )


@st.composite
def dataplane_pairs(draw):
    net = draw(nets)
    return _state(draw, net), _state(draw, net)


@st.composite
def streams(draw):
    """2–4 generated states of one network as a checkpoint stream:
    routes, the anycast owner and a downed link all move between
    checkpoints, so the stream's owned universe is no one state's."""
    net = draw(nets)
    checkpoints = []
    t = 0.0
    for index in range(draw(st.integers(2, 4))):
        dataplane = _state(draw, net)
        previous = checkpoints[-1].dataplane if checkpoints else None
        checkpoints.append(
            Checkpoint(
                index=index,
                t=t,
                dataplane=dataplane,
                delta=(
                    None
                    if previous is None
                    else DataplaneDelta(previous, dataplane)
                ),
                installs=draw(st.integers(0, 6)),
            )
        )
        t += draw(st.sampled_from([0.0, 0.25, 1.0, 3.0]))
    return CheckpointStream(checkpoints)


class TestGeneratedInputs:
    @settings(deadline=None)
    @given(dataplane_pairs())
    def test_snapshot_ensemble_and_baseline_lifts(self, pair):
        reference, snapshot = pair
        for dataplane in pair:
            assert_snapshot_lifts(dataplane)
            assert_ensemble_lift(dataplane, _waypoints(dataplane))
        assert_baseline_lift(reference, snapshot)

    @settings(deadline=None)
    @given(streams())
    def test_stream_lift(self, stream):
        assert_stream_lift(stream, _waypoints(stream.final.dataplane))


# -- parse_waypoint ----------------------------------------------------------------


class TestParseWaypoint:
    def test_parses(self):
        waypoint = inv.parse_waypoint("2.2.2.1:r2")
        assert (waypoint.dst, waypoint.via) == ("2.2.2.1", "r2")
        assert waypoint.address == 0x02020201

    @pytest.mark.parametrize(
        "spec", ["2.2.2.1", "2.2.2.1:", ":r2", "", "2.2.2.x:r2", "2.2.2:r2"]
    )
    def test_rejects(self, spec):
        with pytest.raises(ValueError):
            inv.parse_waypoint(spec)
