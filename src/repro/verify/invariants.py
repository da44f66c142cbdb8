"""Network-wide invariant checks."""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataplane.forwarding import Disposition
from repro.dataplane.model import Dataplane
from repro.verify.reachability import (
    ReachabilityAnalysis,
    ReachabilityRow,
    pairwise_matrix,
)


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
