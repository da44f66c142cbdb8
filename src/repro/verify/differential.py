"""Differential reachability between two dataplane snapshots.

This is the query the paper leans on twice:

* E1 (Fig. 2): same backend, two *configurations* (healthy vs. buggy) —
  the diff localizes exactly which traffic a change breaks;
* E3 (Fig. 3): same configuration, two *backends* (model-based vs.
  emulation-derived) — the diff surfaces where the model diverges from
  the real control plane.

The analysis is exhaustive over the union of both snapshots' destination
atoms: every possible destination address is classified in both
snapshots, and every (ingress, atom) whose disposition set changed is
reported with a concrete witness flow and both traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.dataplane.forwarding import (
    Disposition,
    ForwardingWalk,
    Trace,
)
from repro.dataplane.model import Dataplane
from repro.net.addr import MAX_IPV4, format_ipv4
from repro.net.headerspace import HeaderSpace
from repro.net.intervals import IntervalSet, overlapping
from repro.verify.engine import AtomGraphEngine, engine_for


def _merged_pieces(
    ref_engine: AtomGraphEngine, new_engine: AtomGraphEngine
) -> tuple[list[IntervalSet], list[int], list[int], list[int]]:
    """The merge of two engines' partitions: its pieces, their lower
    bounds, and each piece's ref and snapshot atom indexes.

    Each engine's atoms are contiguous ascending spans covering the
    whole space, so cutting at the union of their lower bounds yields
    pieces lying inside exactly one atom of each engine — within a
    piece both verdicts are constant, which is all the comparison loop
    needs. The pieces tile the space the same way, so a restriction
    can bisect ``lows`` for the pieces it overlaps.
    """
    lows = sorted(
        {atom.min() for atom in ref_engine.atoms}
        | {atom.min() for atom in new_engine.atoms}
    )
    uppers = lows[1:] + [MAX_IPV4 + 1]
    pieces = [IntervalSet.span(lo, hi - 1) for lo, hi in zip(lows, uppers)]
    ref_of = [ref_engine.atom_index_of(lo) for lo in lows]
    new_of = [new_engine.atom_index_of(lo) for lo in lows]
    return pieces, lows, ref_of, new_of


@dataclass(frozen=True)
class DifferentialRow:
    """One (ingress, destination set) whose behaviour differs."""

    ingress: str
    dst_set: IntervalSet
    sample_destination: int
    reference_dispositions: frozenset[Disposition]
    snapshot_dispositions: frozenset[Disposition]
    reference_traces: tuple[Trace, ...]
    snapshot_traces: tuple[Trace, ...]

    @property
    def regressed(self) -> bool:
        """Success in the reference, any failure in the snapshot."""
        ref_ok = all(d.is_success for d in self.reference_dispositions)
        new_ok = all(d.is_success for d in self.snapshot_dispositions)
        return ref_ok and not new_ok

    @property
    def improved(self) -> bool:
        ref_ok = all(d.is_success for d in self.reference_dispositions)
        new_ok = all(d.is_success for d in self.snapshot_dispositions)
        return new_ok and not ref_ok

    def __str__(self) -> str:
        ref = ",".join(sorted(d.value for d in self.reference_dispositions))
        new = ",".join(sorted(d.value for d in self.snapshot_dispositions))
        return (
            f"{self.ingress} -> {format_ipv4(self.sample_destination)} "
            f"(covering {len(self.dst_set)} addrs): {ref} => {new}"
        )


#: BaselineComparison field -> the verification_summary count it charges.
_CHARGED = {
    "new_loops": "loops",
    "new_blackholes": "blackholes",
    "new_unreachable_pairs": "unreachable_pairs",
}


@dataclass(frozen=True)
class BaselineComparison:
    """One snapshot judged against a fixed baseline.

    ``new_*`` counts are invariant *deltas* clamped at zero: a what-if
    scenario is charged for the loops/blackholes/unreachable pairs it
    introduces, never credited for ones the baseline already had.
    """

    rows: tuple[DifferentialRow, ...]
    invariants: dict[str, int]
    new_loops: int
    new_blackholes: int
    new_unreachable_pairs: int
    identical: bool = False

    @property
    def regressed(self) -> int:
        return sum(1 for row in self.rows if row.regressed)

    @property
    def improved(self) -> int:
        return sum(1 for row in self.rows if row.improved)

    @property
    def changed(self) -> int:
        return len(self.rows)


class BaselineDiff:
    """Many snapshots, one baseline: the campaign's verification core.

    Holds the reference dataplane plus everything derivable from it that
    every comparison needs — its fingerprint, its invariant summary —
    computed once. :meth:`compare` short-circuits on fingerprint
    equality (the common case for a cleanly reverted scenario and for
    any failure the IGP routes around without behaviour change), so the
    atom-graph engine only runs for snapshots that actually differ.
    """

    def __init__(self, reference: Dataplane) -> None:
        from repro.verify.invariants import verification_summary

        self.reference = reference
        self.fingerprint = reference.fib_fingerprint()
        self.baseline_invariants = verification_summary(reference)
        # The baseline's engine, pinned for the campaign's lifetime: it
        # is the delta base every differing scenario derives from
        # (verification_summary above already built and cached it).
        self.reference_engine = engine_for(reference)
        #: Lineage record of the latest :meth:`compare`'s snapshot
        #: engine: :class:`~repro.verify.engine.DeltaStats` after a
        #: non-identical comparison, None after a fingerprint skip.
        self.last_delta_stats = None

    def compare(self, snapshot: Dataplane) -> BaselineComparison:
        from repro.obs import bus
        from repro.verify.invariants import verification_summary

        if snapshot.fib_fingerprint() == self.fingerprint:
            collector = bus.ACTIVE
            if collector.enabled:
                collector.count("verify.baseline_diff_skips")
            self.last_delta_stats = None
            return self._judge((), self.baseline_invariants, identical=True)
        # Rows first: differential_reachability derives the snapshot's
        # engine from the pinned baseline engine via the delta path (or
        # finds it cached — a temporal stream leaves its final engine
        # there), and the invariant summary below reuses it from the
        # content cache — so a single-link scenario verifies in time
        # proportional to its churn, never to the network. The pin,
        # not the LRU, serves as reference: checkpoint engines pass
        # through the LRU and may have evicted the baseline's.
        rows = differential_reachability(
            self.reference, snapshot, reference_engine=self.reference_engine
        )
        self.last_delta_stats = engine_for(snapshot).delta_stats
        return self._judge(rows, verification_summary(snapshot))

    def _judge(
        self, rows, invariants: dict[str, int], identical: bool = False
    ) -> BaselineComparison:
        """Charge ``invariants`` for every summary count it adds over
        the baseline's, clamped at zero."""
        return BaselineComparison(
            rows=tuple(rows),
            invariants=dict(invariants),
            identical=identical,
            **{
                field: max(0, invariants[key] - self.baseline_invariants[key])
                for field, key in _CHARGED.items()
            },
        )


def differential_reachability(
    reference: Dataplane,
    snapshot: Dataplane,
    *,
    ingress_nodes: Optional[Iterable[str]] = None,
    dst_space: Optional[HeaderSpace] = None,
    reference_engine: Optional[AtomGraphEngine] = None,
) -> list[DifferentialRow]:
    """All behaviour differences between two snapshots.

    Only ingress devices present in both snapshots are compared.
    Adjacent differing atoms with identical (before, after) disposition
    pairs are merged, so each row is a maximal destination set with one
    coherent behaviour change.

    Both sides are evaluated by their (content-cached) atom-graph
    engines, so the comparison per (ingress, atom) is two table
    lookups; scalar walks run only to attach witness traces to
    differing rows and for ACL-tainted atoms, whose header-space splits
    require the exact walk comparison.

    Each snapshot keeps its *own* partition — the snapshot engine is
    derived incrementally from the reference's via :func:`engine_for`'s
    delta path when their churn allows — and the comparison iterates
    the merge of both partitions' boundaries (identical to the union
    partition, since boundaries are exactly the two prefix sets'
    endpoints). ``reference_engine`` supplies the reference's engine
    when the caller holds one (it is the snapshot engine's lineage
    base).
    """
    common = set(reference.node_names()) & set(snapshot.node_names())
    nodes = sorted(common if ingress_nodes is None else
                   common & set(ingress_nodes))
    restriction = dst_space.dst_values() if dst_space is not None else None
    ref_engine = (
        reference_engine
        if reference_engine is not None
        else engine_for(reference)
    )
    new_engine = engine_for(snapshot, base=ref_engine)
    ref_engine.precompute()
    new_engine.precompute()
    pieces, lows, ref_of, new_of = _merged_pieces(ref_engine, new_engine)
    # Only the pieces the restriction overlaps, found by bisection.
    visits = (
        list(enumerate(pieces))
        if restriction is None
        else list(overlapping(pieces, lows, restriction))
    )
    ref_walk = ForwardingWalk(reference)
    new_walk = ForwardingWalk(snapshot)
    rows: list[DifferentialRow] = []
    for ingress in nodes:
        # (before, after) dispositions -> [pieces, before walk, after
        # walk]; pieces arrive ascending and are unioned once below.
        merged: dict[tuple, list] = {}
        for k, piece in visits:
            probe = piece.sample()
            ref_verdict = ref_engine.verdict(ingress, ref_of[k])
            new_verdict = new_engine.verdict(ingress, new_of[k])
            if ref_verdict.tainted or new_verdict.tainted:
                # ACLs may split the space on non-destination fields:
                # compare the exact per-slice behaviour, not samples.
                before = ref_walk.walk(ingress, probe)
                after = new_walk.walk(ingress, probe)
                if before.behaviour_equal(after):
                    continue
                key = (before.dispositions, after.dispositions)
            else:
                # No ACL anywhere reachable: every trace carries the
                # full queried space, so behaviour equality reduces to
                # disposition-set equality — no walk needed, and walks
                # for witness traces run once per merged row.
                if ref_verdict.dispositions == new_verdict.dispositions:
                    continue
                key = (ref_verdict.dispositions, new_verdict.dispositions)
                if key in merged:
                    merged[key][0].append(piece)
                    continue
                before = ref_walk.walk(ingress, probe)
                after = new_walk.walk(ingress, probe)
            merged.setdefault(key, [[], before, after])[0].append(piece)
        for (ref_d, new_d), (bucket, before, after) in merged.items():
            rows.append(
                DifferentialRow(
                    ingress=ingress,
                    dst_set=IntervalSet.union_all(bucket),
                    sample_destination=before.destination,
                    reference_dispositions=ref_d,
                    snapshot_dispositions=new_d,
                    reference_traces=before.traces,
                    snapshot_traces=after.traces,
                )
            )
    return rows
