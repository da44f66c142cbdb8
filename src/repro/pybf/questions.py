"""The question library (the ``bf.q`` namespace)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dataplane.forwarding import Disposition
from repro.net.addr import format_ipv4, parse_ipv4
from repro.net.headerspace import HeaderSpace
from repro.net.addr import Prefix
from repro.pybf.answer import Frame, TableAnswer
from repro.verify.differential import differential_reachability
from repro.verify.invariants import detect_loops
from repro.verify.reachability import ReachabilityAnalysis
from repro.verify.traceroute import traceroute as run_traceroute

if TYPE_CHECKING:
    from repro.pybf.session import Session


def _dst_space(dst: Optional[str]) -> Optional[HeaderSpace]:
    if dst is None:
        return None
    return HeaderSpace.dst_prefix(Prefix.parse(dst))


def _dispositions_text(dispositions) -> str:
    return ",".join(sorted(d.value for d in dispositions))


@dataclass
class _Question:
    session: "Session"
    name: str

    def _snapshot(self, name: Optional[str]):
        return self.session.get_snapshot(name)


class ReachabilityQuestion(_Question):
    """Exhaustive reachability with disposition filters.

    ``actions="SUCCESS"`` keeps delivered traffic, ``"FAILURE"`` keeps
    dropped/looping traffic (Pybatfish's vocabulary).
    """

    def __init__(
        self,
        session: "Session",
        *,
        startLocation: Optional[str] = None,
        dst: Optional[str] = None,
        actions: str = "SUCCESS",
    ) -> None:
        super().__init__(session, "reachability")
        self.start = startLocation
        self.dst = dst
        self.actions = actions.upper()

    def answer(self, snapshot: Optional[str] = None) -> TableAnswer:
        snap = self._snapshot(snapshot)
        analysis = ReachabilityAnalysis(
            snap.dataplane, engine=self.session.get_engine(snapshot)
        )
        ingress = [self.start] if self.start else None
        rows = analysis.analyze(ingress, dst_space=_dst_space(self.dst))
        want_success = self.actions == "SUCCESS"
        out = []
        for row in rows:
            success = all(d.is_success for d in row.dispositions)
            if success != want_success:
                continue
            witness = ""
            if row.sample_traces:
                packet = row.sample_traces[0].sample_packet()
                witness = str(packet) if packet is not None else ""
            out.append(
                {
                    "Ingress": row.ingress,
                    "Destination": format_ipv4(row.sample_destination),
                    "Covered_Addresses": len(row.dst_set),
                    "Dispositions": _dispositions_text(row.dispositions),
                    "Flow": witness,
                    "Trace": str(row.sample_traces[0]) if row.sample_traces else "",
                }
            )
        return TableAnswer(
            self.name,
            Frame(
                ["Ingress", "Destination", "Covered_Addresses",
                 "Dispositions", "Flow", "Trace"],
                out,
            ),
        )


class DifferentialReachabilityQuestion(_Question):
    """Exhaustively compare forwarding across two snapshots."""

    def __init__(
        self,
        session: "Session",
        *,
        dst: Optional[str] = None,
        ingress: Optional[str] = None,
    ) -> None:
        super().__init__(session, "differentialReachability")
        self.dst = dst
        self.ingress = ingress

    def answer(
        self,
        snapshot: Optional[str] = None,
        reference_snapshot: Optional[str] = None,
    ) -> TableAnswer:
        snap = self._snapshot(snapshot)
        ref = self._snapshot(reference_snapshot)
        rows = differential_reachability(
            ref.dataplane,
            snap.dataplane,
            ingress_nodes=[self.ingress] if self.ingress else None,
            dst_space=_dst_space(self.dst),
        )
        out = []
        for row in rows:
            out.append(
                {
                    "Ingress": row.ingress,
                    "Destination": format_ipv4(row.sample_destination),
                    "Covered_Addresses": len(row.dst_set),
                    "Reference_Dispositions": _dispositions_text(
                        row.reference_dispositions
                    ),
                    "Snapshot_Dispositions": _dispositions_text(
                        row.snapshot_dispositions
                    ),
                    "Regressed": row.regressed,
                    "Reference_Trace": (
                        str(row.reference_traces[0]) if row.reference_traces else ""
                    ),
                    "Snapshot_Trace": (
                        str(row.snapshot_traces[0]) if row.snapshot_traces else ""
                    ),
                }
            )
        regressed = sum(1 for r in out if r["Regressed"])
        return TableAnswer(
            self.name,
            Frame(
                [
                    "Ingress",
                    "Destination",
                    "Covered_Addresses",
                    "Reference_Dispositions",
                    "Snapshot_Dispositions",
                    "Regressed",
                    "Reference_Trace",
                    "Snapshot_Trace",
                ],
                out,
            ),
            summary=f"{len(out)} differences ({regressed} regressions)",
        )


class TracerouteQuestion(_Question):
    """Virtual traceroute for one concrete destination."""
    def __init__(
        self, session: "Session", *, startLocation: str, dst: str
    ) -> None:
        super().__init__(session, "traceroute")
        self.start = startLocation
        self.dst = dst

    def answer(self, snapshot: Optional[str] = None) -> TableAnswer:
        snap = self._snapshot(snapshot)
        result = run_traceroute(snap.dataplane, self.start, self.dst)
        rows = [
            {
                "Ingress": self.start,
                "Destination": self.dst,
                "Disposition": trace.disposition.value,
                "Hops": len(trace.hops),
                "Trace": str(trace),
            }
            for trace in result.traces
        ]
        return TableAnswer(
            self.name, Frame(["Ingress", "Destination", "Disposition",
                              "Hops", "Trace"], rows)
        )


class RoutesQuestion(_Question):
    """FIB contents per device (from the extracted AFTs).

    With ``reference_snapshot`` the answer is differential: only entries
    that differ between the two snapshots, tagged with a
    ``Snapshot_Status`` of ``ONLY_IN_SNAPSHOT`` / ``ONLY_IN_REFERENCE``
    / ``CHANGED`` (mirroring Pybatfish's differential routes answer).
    """

    def __init__(self, session: "Session", *, nodes: Optional[str] = None) -> None:
        super().__init__(session, "routes")
        self.nodes = nodes

    def _collect(self, snap) -> dict[tuple[str, str], dict]:
        entries: dict[tuple[str, str], dict] = {}
        for name in snap.dataplane.node_names():
            if self.nodes and name != self.nodes:
                continue
            device = snap.dataplane.devices[name]
            for prefix, entry in device.trie.items():
                hops = "; ".join(
                    f"{format_ipv4(h.gateway) if h.gateway is not None else 'attached'}"
                    f" via {h.interface}"
                    for h in entry.hops
                )
                entries[(name, str(prefix))] = {
                    "Node": name,
                    "Prefix": str(prefix),
                    "Entry_Type": entry.entry_type,
                    "Next_Hops": hops,
                }
        return entries

    def answer(
        self,
        snapshot: Optional[str] = None,
        reference_snapshot: Optional[str] = None,
    ) -> TableAnswer:
        current = self._collect(self._snapshot(snapshot))
        if reference_snapshot is None:
            return TableAnswer(
                self.name,
                Frame(
                    ["Node", "Prefix", "Entry_Type", "Next_Hops"],
                    list(current.values()),
                ),
            )
        reference = self._collect(self._snapshot(reference_snapshot))
        rows = []
        for key in sorted(set(current) | set(reference)):
            new_row = current.get(key)
            ref_row = reference.get(key)
            if new_row == ref_row:
                continue
            if new_row is None:
                status, row = "ONLY_IN_REFERENCE", dict(ref_row)
            elif ref_row is None:
                status, row = "ONLY_IN_SNAPSHOT", dict(new_row)
            else:
                status, row = "CHANGED", dict(new_row)
                row["Reference_Next_Hops"] = ref_row["Next_Hops"]
            row["Snapshot_Status"] = status
            rows.append(row)
        return TableAnswer(
            self.name,
            Frame(
                ["Node", "Prefix", "Entry_Type", "Next_Hops",
                 "Snapshot_Status"],
                rows,
            ),
            summary=f"{len(rows)} differing FIB entries",
        )


class EdgesQuestion(_Question):
    """Derived L3 edges (Batfish's layer-3 edges question)."""

    def __init__(self, session: "Session") -> None:
        super().__init__(session, "layer3Edges")

    def answer(self, snapshot: Optional[str] = None) -> TableAnswer:
        snap = self._snapshot(snapshot)
        rows = [
            {
                "Interface": f"{edge.device}[{edge.interface}]",
                "Remote_Interface": f"{edge.peer_device}[{edge.peer_interface}]",
            }
            for edge in snap.dataplane.edges
        ]
        return TableAnswer(
            self.name, Frame(["Interface", "Remote_Interface"], rows)
        )


class DetectLoopsQuestion(_Question):
    """Find destinations that forward in a cycle."""
    def __init__(self, session: "Session") -> None:
        super().__init__(session, "detectLoops")

    def answer(self, snapshot: Optional[str] = None) -> TableAnswer:
        snap = self._snapshot(snapshot)
        rows = [
            {
                "Ingress": row.ingress,
                "Destination": format_ipv4(row.sample_destination),
                "Covered_Addresses": len(row.dst_set),
                "Trace": str(row.sample_traces[0]) if row.sample_traces else "",
            }
            for row in detect_loops(snap.dataplane)
        ]
        return TableAnswer(
            self.name,
            Frame(["Ingress", "Destination", "Covered_Addresses", "Trace"], rows),
        )


class SearchFiltersQuestion(_Question):
    """Which traffic does an ACL permit or deny? (Batfish: searchFilters)

    ``action`` is ``"permit"`` or ``"deny"``; the answer enumerates, per
    matching ACL, the exact header space with a witness packet.
    """

    def __init__(
        self,
        session: "Session",
        *,
        nodes: Optional[str] = None,
        filters: Optional[str] = None,
        action: str = "permit",
    ) -> None:
        super().__init__(session, "searchFilters")
        self.nodes = nodes
        self.filters = filters
        self.action = action.lower()

    def answer(self, snapshot: Optional[str] = None) -> TableAnswer:
        snap = self._snapshot(snapshot)
        rows = []
        for node in snap.dataplane.node_names():
            if self.nodes and node != self.nodes:
                continue
            device = snap.dataplane.devices[node]
            for name, acl in sorted(device.acls.items()):
                if self.filters and name != self.filters:
                    continue
                permitted = acl.permit_space()
                space = (
                    permitted
                    if self.action == "permit"
                    else permitted.complement()
                )
                if space.is_empty():
                    continue
                witness = space.sample()
                rows.append(
                    {
                        "Node": node,
                        "Filter_Name": name,
                        "Action": self.action.upper(),
                        "Flow": str(witness) if witness else "",
                    }
                )
        return TableAnswer(
            self.name, Frame(["Node", "Filter_Name", "Action", "Flow"], rows)
        )


class FilterLineReachabilityQuestion(_Question):
    """Find unreachable (shadowed) ACL rules (Batfish's
    filterLineReachability): a rule no packet can ever hit because
    earlier rules cover its entire match space."""

    def __init__(
        self,
        session: "Session",
        *,
        nodes: Optional[str] = None,
        filters: Optional[str] = None,
    ) -> None:
        super().__init__(session, "filterLineReachability")
        self.nodes = nodes
        self.filters = filters

    def answer(self, snapshot: Optional[str] = None) -> TableAnswer:
        from repro.net.headerspace import HeaderSpace

        snap = self._snapshot(snapshot)
        rows = []
        for node in snap.dataplane.node_names():
            if self.nodes and node != self.nodes:
                continue
            device = snap.dataplane.devices[node]
            for name, acl in sorted(device.acls.items()):
                if self.filters and name != self.filters:
                    continue
                covered = HeaderSpace.empty()
                for rule in acl.rules:
                    reachable = rule.match_space() - covered
                    if reachable.is_empty():
                        rows.append(
                            {
                                "Node": node,
                                "Filter_Name": name,
                                "Unreachable_Line": rule.describe(),
                                "Sequence": rule.seq,
                            }
                        )
                    covered = covered | rule.match_space()
        return TableAnswer(
            self.name,
            Frame(
                ["Node", "Filter_Name", "Unreachable_Line", "Sequence"], rows
            ),
            summary=f"{len(rows)} unreachable filter lines",
        )


class DegradedNodesQuestion(_Question):
    """Which nodes of a snapshot are degraded, and why?

    Over a full snapshot the answer is empty. Over a
    :class:`~repro.core.snapshot.PartialSnapshot` it lists every node
    whose extraction exhausted the retry budget, the recorded reason,
    and the addresses whose reachability answers are
    ``UNKNOWN_DEGRADED`` as a result.
    """

    def __init__(self, session: "Session") -> None:
        super().__init__(session, "degradedNodes")

    def answer(self, snapshot: Optional[str] = None) -> TableAnswer:
        snap = self._snapshot(snapshot)
        degraded = getattr(snap, "degraded_nodes", {}) or {}
        addresses = snap.metadata.get("degraded_addresses", {})
        rows = [
            {
                "Node": node,
                "Reason": reason,
                "Degraded_Addresses": ", ".join(addresses.get(node, [])),
            }
            for node, reason in sorted(degraded.items())
        ]
        return TableAnswer(
            self.name,
            Frame(["Node", "Reason", "Degraded_Addresses"], rows),
            summary=f"{len(rows)} degraded node(s)",
        )


class QuestionLibrary:
    """The ``bf.q`` namespace."""

    def __init__(self, session: "Session") -> None:
        self._session = session

    def reachability(self, **kwargs) -> ReachabilityQuestion:
        return ReachabilityQuestion(self._session, **kwargs)

    def differentialReachability(
        self, **kwargs
    ) -> DifferentialReachabilityQuestion:
        return DifferentialReachabilityQuestion(self._session, **kwargs)

    def traceroute(self, **kwargs) -> TracerouteQuestion:
        return TracerouteQuestion(self._session, **kwargs)

    def routes(self, **kwargs) -> RoutesQuestion:
        return RoutesQuestion(self._session, **kwargs)

    def layer3Edges(self) -> EdgesQuestion:
        return EdgesQuestion(self._session)

    def detectLoops(self) -> DetectLoopsQuestion:
        return DetectLoopsQuestion(self._session)

    def searchFilters(self, **kwargs) -> SearchFiltersQuestion:
        return SearchFiltersQuestion(self._session, **kwargs)

    def filterLineReachability(self, **kwargs) -> FilterLineReachabilityQuestion:
        return FilterLineReachabilityQuestion(self._session, **kwargs)

    def degradedNodes(self) -> DegradedNodesQuestion:
        return DegradedNodesQuestion(self._session)
