"""Network-wide invariants, each defined once and lifted four ways.

An invariant is one predicate over the *flows* of a :class:`Probe`:
``findings(probe)`` yields ``(key, detail)`` for every flow that
violates it, lazily, so a lift that needs only the first finding stops
there. A snapshot probe's flows are its reachability rows — every
atom, from every ingress. The temporal evaluator's per-checkpoint
probe narrows them to (ingress, owned address) flows over the stream's
destination universe.

The *lifts* turn findings into verdicts, and each owns the names its
verdicts carry:

* snapshot — :func:`detect_loops`, :func:`detect_blackholes`,
  :func:`detect_degraded`, :func:`verify_pairwise_reachability` and
  :func:`verification_summary` below;
* stream — :func:`repro.temporal.evaluate_stream` stitches each
  checkpoint's findings into ``[t_start, t_end)`` intervals;
* ensemble — :func:`repro.ensemble.fold_records` folds one
  ``(holds, detail)`` row per invariant across distinct outcomes;
* baseline pair — :class:`repro.verify.differential.BaselineDiff`
  charges a snapshot the summary counts it adds, and the chaos runner
  scores verdict stability from :class:`Pairwise` findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.dataplane.forwarding import Disposition, WalkResult
from repro.dataplane.model import Dataplane
from repro.net.addr import parse_ipv4
from repro.verify.engine import AtomGraphEngine
from repro.verify.reachability import (
    ReachabilityAnalysis,
    ReachabilityRow,
    pairwise_matrix,
)

_BLACKHOLE = frozenset({Disposition.NO_ROUTE, Disposition.NULL_ROUTED})


class Probe:
    """What an invariant may ask about one forwarding state.

    Everything funnels through one lazily built
    :class:`ReachabilityAnalysis`, hence one engine: the classified
    rows, the all-pairs matrix, point dispositions and sample walks.
    ``engine`` shares a prebuilt engine; by default the content-keyed
    engine cache supplies one.
    """

    def __init__(
        self, dataplane: Dataplane, engine: Optional[AtomGraphEngine] = None
    ) -> None:
        self.dataplane = dataplane
        self.ingresses = dataplane.node_names()
        self._engine = engine
        self._analysis: Optional[ReachabilityAnalysis] = None
        self._rows: Optional[list[ReachabilityRow]] = None
        self._matrix: Optional[dict[tuple[str, str], bool]] = None

    @property
    def analysis(self) -> ReachabilityAnalysis:
        if self._analysis is None:
            self._analysis = ReachabilityAnalysis(
                self.dataplane, engine=self._engine
            )
        return self._analysis

    def rows(self) -> list[ReachabilityRow]:
        if self._rows is None:
            self._rows = self.analysis.analyze()
        return self._rows

    def matrix(self) -> dict[tuple[str, str], bool]:
        if self._matrix is None:
            self._matrix = pairwise_matrix(
                self.dataplane, engine=self.analysis.engine
            )
        return self._matrix

    def degraded(self) -> list[ReachabilityRow]:
        """Rows answering UNKNOWN_DEGRADED: absence of proof, not a
        violation — the destination's owner was never extracted."""
        return [
            row
            for row in self.rows()
            if Disposition.UNKNOWN_DEGRADED in row.dispositions
        ]

    def degraded_pairs(self) -> set[tuple[str, str]]:
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
        for row in self.degraded():
            for name, device in dataplane.devices.items():
                if name == row.ingress:
                    continue
                if any(
                    address in row.dst_set
                    for address in device.local_addresses
                ):
                    pairs.add((row.ingress, name))
        return pairs

    def flows(
        self, address: Optional[int] = None
    ) -> Iterator[tuple[object, frozenset, Optional[str]]]:
        """``(key, dispositions, owner)`` per flow.

        Here a flow is one reachability row (restricted to the rows
        covering ``address`` when given); a row spans many owners, so
        ``owner`` is None.
        """
        for row in self.rows():
            if address is None or address in row.dst_set:
                yield row, row.dispositions, None

    def owned(self, key) -> bool:
        """Does the flow reach any address a device owns?"""
        return any(
            address in key.dst_set for address in self.dataplane.address_owner
        )

    def dispositions(self, ingress: str, address: int) -> frozenset:
        engine = self.analysis.engine
        return engine.dispositions(ingress, engine.atom_index_of(address))

    def walk(self, ingress: str, address: int) -> WalkResult:
        return self.analysis.walk(ingress, address)


def _toward(what: str, owner: Optional[str]) -> str:
    return what if owner is None else f"{what} toward {owner}"


class Invariant:
    """Base: one predicate, violated by the findings it yields.

    ``max_sim_s`` is read only by the stream lift: transient intervals
    lasting no longer than that many simulated seconds are expected
    convergence noise and suppressed.
    """

    max_sim_s = 0.0

    def findings(self, probe: Probe) -> Iterator[tuple[object, str]]:
        raise NotImplementedError


class Loop(Invariant):
    """No flow forwards in a cycle."""

    def __init__(self, max_sim_s: float = 0.0) -> None:
        self.max_sim_s = max_sim_s

    def findings(self, probe: Probe) -> Iterator[tuple[object, str]]:
        for key, dispositions, owner in probe.flows():
            if Disposition.LOOP in dispositions:
                yield key, _toward("loop", owner)


class Blackhole(Invariant):
    """No flow to an owned destination (``dst`` only, when given) is
    dropped as NO_ROUTE / NULL_ROUTED — unowned space legitimately has
    no route at the edge."""

    def __init__(
        self, dst: Optional[str] = None, max_sim_s: float = 0.0
    ) -> None:
        self.dst = dst
        self.address = None if dst is None else parse_ipv4(dst)
        self.max_sim_s = max_sim_s

    def findings(self, probe: Probe) -> Iterator[tuple[object, str]]:
        for key, dispositions, owner in probe.flows(self.address):
            if dispositions & _BLACKHOLE and probe.owned(key):
                yield key, _toward("blackhole", owner)


class Pairwise(Invariant):
    """Every device reaches every address every other device owns;
    findings are the failing (src, dst) pairs, sorted."""

    def findings(self, probe: Probe) -> Iterator[tuple[object, str]]:
        for (src, dst), reachable in sorted(probe.matrix().items()):
            if not reachable:
                yield (src, dst), f"{src} cannot reach {dst}"


class Waypoint(Invariant):
    """Every successful path to ``dst`` traverses device ``via``;
    findings are keyed by each violating ingress."""

    def __init__(self, dst: str, via: str, max_sim_s: float = 0.0) -> None:
        self.dst = dst
        self.address = parse_ipv4(dst)
        self.via = via
        self.max_sim_s = max_sim_s

    def findings(self, probe: Probe) -> Iterator[tuple[object, str]]:
        for ingress in probe.ingresses:
            if ingress == self.via:
                continue
            for trace in probe.walk(ingress, self.address).traces:
                if trace.disposition.is_success and all(
                    hop.device != self.via for hop in trace.hops
                ):
                    yield (
                        (ingress, self.address),
                        f"path skips waypoint {self.via}",
                    )
                    break


def parse_waypoint(spec: str) -> Waypoint:
    """``DEST_IP:VIA_NODE`` as a :class:`Waypoint`.

    Raises ValueError when either part is missing or the destination
    is not an IPv4 address.
    """
    dst, _, via = spec.partition(":")
    if not dst or not via:
        raise ValueError(f"waypoint {spec!r} is not DEST_IP:VIA_NODE")
    return Waypoint(dst, via)


# -- the snapshot lift ---------------------------------------------------------


def _keys(invariant: Invariant, probe: Probe) -> list:
    return [key for key, _ in invariant.findings(probe)]


def detect_loops(dataplane: Dataplane) -> list[ReachabilityRow]:
    """Every (ingress, destination set) that forwards in a cycle."""
    return _keys(Loop(), Probe(dataplane))


def detect_blackholes(dataplane: Dataplane) -> list[ReachabilityRow]:
    """Owned destinations dropped (no route / null-routed) from some
    ingress."""
    return _keys(Blackhole(), Probe(dataplane))


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
    return [
        PairwiseViolation(src, dst)
        for src, dst in _keys(Pairwise(), Probe(dataplane))
    ]


def detect_degraded(dataplane: Dataplane) -> list[ReachabilityRow]:
    """Rows whose verdict is UNKNOWN_DEGRADED (partial snapshot)."""
    return Probe(dataplane).degraded()


def verification_summary(
    dataplane: Dataplane, probe: Optional[Probe] = None
) -> dict[str, int]:
    """The standard invariant battery as counts (pipeline verify phase).

    One probe serves every check, so the battery is a single set of
    per-atom graph passes and one row merge; a caller that already
    holds ``dataplane``'s probe passes it. The ``degraded`` count
    appears only for partial snapshots, keeping fault-free summaries
    byte-identical to earlier releases.
    """
    if probe is None:
        probe = Probe(dataplane)
    summary = {
        "loops": len(_keys(Loop(), probe)),
        "blackholes": len(_keys(Blackhole(), probe)),
        "unreachable_pairs": len(_keys(Pairwise(), probe)),
    }
    if dataplane.degraded_nodes or dataplane.degraded_owned:
        summary["degraded"] = len(probe.degraded())
    return summary
