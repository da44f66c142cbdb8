"""Exhaustive reachability analysis.

Since the atom-graph engine (:mod:`repro.verify.engine`) landed, the
hot path classifies every (ingress, atom) pair from precomputed
per-atom verdict tables — one graph pass per atom serves all
ingresses — and the scalar :class:`ForwardingWalk` is only invoked to
produce witness traces for the final merged rows (and as the exact
fallback for ACL-tainted queries). Pass ``use_engine=False`` to force
the original walk-per-pair evaluation; it is kept as the reference
oracle and the benchmark baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.dataplane.forwarding import (
    Disposition,
    ForwardingWalk,
    Trace,
    WalkResult,
    dst_atoms,
)
from repro.dataplane.model import Dataplane
from repro.net.addr import format_ipv4
from repro.net.headerspace import HeaderSpace
from repro.net.intervals import IntervalSet
from repro.verify.engine import AtomGraphEngine, engine_for


@dataclass(frozen=True)
class ReachabilityRow:
    """One (ingress, destination set) result of a reachability query."""

    ingress: str
    dst_set: IntervalSet
    dispositions: frozenset[Disposition]
    sample_destination: int
    sample_traces: tuple[Trace, ...]

    def __str__(self) -> str:
        kinds = ",".join(sorted(d.value for d in self.dispositions))
        more = len(self.dst_set) - 1
        suffix = f" (+{more} more addresses)" if more else ""
        return (
            f"{self.ingress} -> {format_ipv4(self.sample_destination)}"
            f"{suffix}: {kinds}"
        )


class ReachabilityAnalysis:
    """Precomputes destination atoms for one dataplane and answers
    exhaustive reachability queries over them.

    ``engine`` may be supplied to share a prebuilt
    :class:`~repro.verify.engine.AtomGraphEngine`; by default one is
    fetched from the content-keyed engine cache, so constructing this
    class repeatedly for the same forwarding state is cheap.
    """

    def __init__(
        self,
        dataplane: Dataplane,
        *,
        engine: Optional[AtomGraphEngine] = None,
        use_engine: bool = True,
    ) -> None:
        self.dataplane = dataplane
        self.walker = ForwardingWalk(dataplane)
        self.use_engine = use_engine
        if use_engine:
            self.engine: Optional[AtomGraphEngine] = (
                engine if engine is not None else engine_for(dataplane)
            )
            self.atoms = self.engine.atoms
        else:
            self.engine = None
            self.atoms = dst_atoms(dataplane)

    def analyze(
        self,
        ingress_nodes: Optional[Iterable[str]] = None,
        dst_space: Optional[HeaderSpace] = None,
    ) -> list[ReachabilityRow]:
        """Classify the (restricted) destination space from each ingress.

        Atoms with identical disposition sets are merged per ingress, so
        the result is a compact exact partition of the query space.
        """
        nodes = list(ingress_nodes or self.dataplane.node_names())
        restriction = dst_space.dst_values() if dst_space is not None else None
        if self.engine is None:
            return self._analyze_scalar(nodes, restriction)
        self.engine.precompute()
        # Only the atoms the restriction overlaps, found by bisection:
        # a point query visits one atom, not the whole partition.
        pieces = (
            list(enumerate(self.atoms))
            if restriction is None
            else list(self.engine.overlapping(restriction))
        )
        rows: list[ReachabilityRow] = []
        for ingress in nodes:
            # dispositions -> pieces, ascending and disjoint; each bucket
            # is unioned once below, its first piece's min is the sample.
            merged: dict[frozenset[Disposition], list[IntervalSet]] = {}
            for index, piece in pieces:
                dispositions = self.engine.dispositions(ingress, index)
                merged.setdefault(dispositions, []).append(piece)
            for dispositions, bucket in merged.items():
                sample = bucket[0].sample()
                result = self.walker.walk(ingress, sample)
                rows.append(
                    ReachabilityRow(
                        ingress=ingress,
                        dst_set=IntervalSet.union_all(bucket),
                        dispositions=dispositions,
                        sample_destination=sample,
                        sample_traces=result.traces,
                    )
                )
        return rows

    def _analyze_scalar(
        self, nodes: list[str], restriction: Optional[IntervalSet]
    ) -> list[ReachabilityRow]:
        """The original walk-per-(ingress, atom) evaluation (oracle)."""
        rows: list[ReachabilityRow] = []
        for ingress in nodes:
            merged: dict[frozenset[Disposition], list] = {}
            for atom in self.atoms:
                piece = atom if restriction is None else (atom & restriction)
                if piece.is_empty():
                    continue
                result = self.walker.walk(ingress, piece.sample())
                bucket = merged.setdefault(result.dispositions, [piece, result])
                if bucket[0] is not piece:
                    bucket[0] = bucket[0] | piece
            for dispositions, (dst_set, result) in merged.items():
                rows.append(
                    ReachabilityRow(
                        ingress=ingress,
                        dst_set=dst_set,
                        dispositions=dispositions,
                        sample_destination=result.destination,
                        sample_traces=result.traces,
                    )
                )
        return rows

    def walk(self, ingress: str, destination: int) -> WalkResult:
        return self.walker.walk(ingress, destination)

    def failures(
        self, ingress_nodes: Optional[Iterable[str]] = None
    ) -> list[ReachabilityRow]:
        """Rows whose disposition set contains any failure."""
        return [
            row
            for row in self.analyze(ingress_nodes)
            if any(not d.is_success for d in row.dispositions)
        ]


def verify_pairwise_reachability_text(dataplane: Dataplane) -> str:
    """Human-readable all-pairs verdict (for examples and CLI output)."""
    matrix = pairwise_matrix(dataplane)
    failures = [pair for pair, ok in sorted(matrix.items()) if not ok]
    if not failures:
        return f"PASS: all {len(matrix)} device pairs reachable"
    lines = [f"FAIL: {len(failures)} of {len(matrix)} device pairs unreachable"]
    lines.extend(f"  {src} cannot reach {dst}" for src, dst in failures)
    return "\n".join(lines)


def pairwise_matrix(
    dataplane: Dataplane,
    *,
    engine: Optional[AtomGraphEngine] = None,
    use_engine: bool = True,
) -> dict[tuple[str, str], bool]:
    """Full-mesh device reachability by owned addresses.

    ``matrix[a, b]`` is True when *every* address owned by ``b`` is
    ACCEPTED at ``b`` for packets entering at ``a`` (and a has at least
    one path there).

    On the engine path each owned address maps to its destination atom
    once, and every (src, dst) check is a table lookup on the shared
    per-atom verdict — the per-address re-walks only survive as the
    exact fallback for ACL-tainted verdicts (and as the oracle under
    ``use_engine=False``). The first failing address still short-
    circuits its device pair.
    """
    names = dataplane.node_names()
    matrix: dict[tuple[str, str], bool] = {}
    if not use_engine:
        walker = ForwardingWalk(dataplane)
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                addresses = sorted(dataplane.devices[dst].local_addresses)
                ok = bool(addresses)
                for address in addresses:
                    if not _walk_accepts_at(walker, src, dst, address):
                        ok = False
                        break
                matrix[(src, dst)] = ok
        return matrix

    shared = engine if engine is not None else engine_for(dataplane)
    walker = shared.walker
    # Owned address -> atom index, resolved once for all N² pairs.
    atom_of = {
        address: shared.atom_index_of(address)
        for device in names
        for address in dataplane.devices[device].local_addresses
    }
    for src in names:
        for dst in names:
            if src == dst:
                continue
            addresses = sorted(dataplane.devices[dst].local_addresses)
            ok = bool(addresses)
            for address in addresses:
                verdict = shared.verdict(src, atom_of[address])
                if verdict.tainted:
                    accepted = _walk_accepts_at(walker, src, dst, address)
                else:
                    accepted = (
                        verdict.dispositions == {Disposition.ACCEPTED}
                        and verdict.accepts == {dst}
                    )
                if not accepted:
                    ok = False
                    break
            matrix[(src, dst)] = ok
    return matrix


def _walk_accepts_at(
    walker: ForwardingWalk, src: str, dst: str, address: int
) -> bool:
    """Scalar-walk check: all traces ACCEPTED with ``dst`` as last hop."""
    result = walker.walk(src, address)
    return bool(result.traces) and all(
        t.disposition is Disposition.ACCEPTED and t.hops[-1].device == dst
        for t in result.traces
    )
