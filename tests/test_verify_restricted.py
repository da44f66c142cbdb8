"""Restricted queries against the scalar oracle.

``ReachabilityAnalysis.analyze(ingress, dst_space)`` and
``differential_reachability(dst_space=...)`` visit only the atoms the
restriction overlaps, found by bisecting the engine's partition. Both
must return exactly the rows of the walk-per-(ingress, atom) scalar
path — same order, same merged destination sets, same samples, same
witness traces — on restrictions that straddle atom boundaries, on
multi-rect spaces, on /32s at an atom's first and last address, on a
prefix that covers no FIB prefix, and on an ACL-tainted ingress.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.dataplane.forwarding import ForwardingWalk, dst_atoms
from repro.net.addr import MAX_IPV4, Prefix, parse_ipv4
from repro.net.headerspace import Field, HeaderSpace, Rect
from repro.net.intervals import IntervalSet
from repro.verify.differential import (
    DifferentialRow,
    differential_reachability,
)
from repro.verify.engine import engine_for
from repro.verify.reachability import ReachabilityAnalysis

from tests.test_verify_engine import _acl_line_dataplane


def trace_key(trace):
    space = trace.space.rects if trace.space is not None else None
    return (trace.disposition, trace.hops, space)


def reach_rows(rows):
    return [
        (
            row.ingress,
            row.dst_set,
            row.dispositions,
            row.sample_destination,
            tuple(trace_key(t) for t in row.sample_traces),
        )
        for row in rows
    ]


def diff_rows(rows):
    return [
        (
            row.ingress,
            row.dst_set,
            row.sample_destination,
            row.reference_dispositions,
            row.snapshot_dispositions,
            tuple(trace_key(t) for t in row.reference_traces),
            tuple(trace_key(t) for t in row.snapshot_traces),
        )
        for row in rows
    ]


def scalar_differential(reference, snapshot, dst_space):
    """The walk-per-(ingress, atom) differential: both snapshots walked
    at every restricted atom of their union partition."""
    nodes = sorted(set(reference.node_names()) & set(snapshot.node_names()))
    restriction = dst_space.dst_values()
    ref_walk = ForwardingWalk(reference)
    new_walk = ForwardingWalk(snapshot)
    rows = []
    for ingress in nodes:
        merged: dict[tuple, list] = {}
        for atom in dst_atoms(reference, snapshot):
            piece = atom & restriction
            if piece.is_empty():
                continue
            before = ref_walk.walk(ingress, piece.sample())
            after = new_walk.walk(ingress, piece.sample())
            if before.behaviour_equal(after):
                continue
            key = (before.dispositions, after.dispositions)
            bucket = merged.setdefault(key, [piece, before, after])
            if bucket[0] is not piece:
                bucket[0] = bucket[0] | piece
        for (ref_d, new_d), (dst_set, before, after) in merged.items():
            rows.append(
                DifferentialRow(
                    ingress=ingress,
                    dst_set=dst_set,
                    sample_destination=before.destination,
                    reference_dispositions=ref_d,
                    snapshot_dispositions=new_d,
                    reference_traces=before.traces,
                    snapshot_traces=after.traces,
                )
            )
    return rows


def assert_reachability_matches(dataplane, dst_space, ingress=None):
    nodes = [ingress] if ingress is not None else None
    fast = ReachabilityAnalysis(dataplane).analyze(nodes, dst_space)
    slow = ReachabilityAnalysis(dataplane, use_engine=False).analyze(
        nodes, dst_space
    )
    assert reach_rows(fast) == reach_rows(slow)
    return fast


def assert_differential_matches(reference, snapshot, dst_space):
    fast = differential_reachability(reference, snapshot, dst_space=dst_space)
    slow = scalar_differential(reference, snapshot, dst_space)
    assert diff_rows(fast) == diff_rows(slow)
    return fast


def dst(*spans) -> HeaderSpace:
    return HeaderSpace.dst_set(
        IntervalSet.union_all(IntervalSet.span(lo, hi) for lo, hi in spans)
    )


def wide_atom(dataplane):
    """An atom of more than one address, away from both ends."""
    atoms = engine_for(dataplane).atoms
    return next(
        atom for atom in atoms[1:-1] if atom.max() > atom.min()
    )


@pytest.fixture(scope="module")
def pair(fig2_snapshots):
    healthy, buggy = fig2_snapshots
    return healthy.dataplane, buggy.dataplane


@pytest.fixture(scope="module")
def acl_line():
    return _acl_line_dataplane()


class TestRestrictedReachability:
    def test_straddles_atom_boundaries(self, pair):
        dataplane = pair[0]
        atoms = engine_for(dataplane).atoms
        middle = len(atoms) // 2
        space = dst((atoms[middle].min() + 1, atoms[middle + 2].min()))
        assert len(assert_reachability_matches(dataplane, space)) >= 1

    def test_multi_rect_space(self, pair):
        dataplane = pair[1]
        space = HeaderSpace((
            Rect(dst_ip=IntervalSet.from_prefix(Prefix.parse("10.0.0.0/8"))),
            Rect(
                dst_ip=IntervalSet.from_prefix(Prefix.parse("10.1.0.0/16")),
                dst_port=IntervalSet.span(22, 22),
            ),
            Rect(dst_ip=IntervalSet.from_prefix(Prefix.parse("0.0.0.0/30"))),
            Rect(dst_ip=IntervalSet.span(MAX_IPV4 - 4, MAX_IPV4)),
        ))
        assert_reachability_matches(dataplane, space)

    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_point_query_at_atom_edge(self, pair, edge, monkeypatch):
        dataplane = pair[0]
        atom = wide_atom(dataplane)
        address = atom.min() if edge == "first" else atom.max()
        engine = engine_for(dataplane)
        calls = []
        inner = engine.dispositions

        def counting(ingress, index):
            calls.append((ingress, index))
            return inner(ingress, index)

        monkeypatch.setattr(engine, "dispositions", counting)
        space = dst((address, address))
        rows = assert_reachability_matches(dataplane, space)
        assert all(row.dst_set == IntervalSet.of(address) for row in rows)
        index = engine.atom_index_of(address)
        ingresses = dataplane.node_names()
        # One atom is visited, once per ingress.
        assert sorted(calls) == sorted((i, index) for i in ingresses)

    def test_prefix_covering_no_fib_prefix(self, pair):
        dataplane = pair[0]
        prefix = Prefix.parse("203.0.113.0/24")
        assert not any(
            prefix.contains_prefix(p) for p in dataplane.all_prefixes()
        )
        assert_reachability_matches(
            dataplane, HeaderSpace.dst_prefix(prefix)
        )

    def test_acl_tainted_ingress(self, acl_line):
        target = parse_ipv4("3.3.3.3")
        engine = engine_for(acl_line)
        assert engine.verdict("a", engine.atom_index_of(target)).tainted
        for space in (
            dst((target, target)),
            dst((parse_ipv4("3.3.3.0"), parse_ipv4("3.3.3.7"))),
            dst((0, parse_ipv4("2.2.2.2")), (target, MAX_IPV4)),
        ):
            rows = assert_reachability_matches(acl_line, space, ingress="a")
            assert rows

    @given(data=st.data())
    def test_generated_restrictions(self, pair, acl_line, data):
        dataplane = data.draw(st.sampled_from([pair[0], pair[1], acl_line]))
        space = data.draw(restrictions(engine_for(dataplane).atoms))
        assert_reachability_matches(dataplane, space)


class TestRestrictedDifferential:
    def test_straddles_atom_boundaries(self, pair):
        healthy, buggy = pair
        atoms = dst_atoms(healthy, buggy)
        space = dst((atoms[1].max(), atoms[-2].min()))
        assert assert_differential_matches(healthy, buggy, space)

    def test_multi_rect_space(self, pair):
        healthy, buggy = pair
        space = HeaderSpace((
            Rect(dst_ip=IntervalSet.from_prefix(Prefix.parse("10.0.0.0/9"))),
            Rect(
                dst_ip=IntervalSet.from_prefix(Prefix.parse("0.0.0.0/1")),
                ip_proto=IntervalSet.of(17),
            ),
        ))
        assert_differential_matches(healthy, buggy, space)

    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_point_query_at_atom_edge(self, pair, edge):
        healthy, buggy = pair
        for atom in dst_atoms(healthy, buggy)[1:-1]:
            address = atom.min() if edge == "first" else atom.max()
            assert_differential_matches(
                healthy, buggy, dst((address, address))
            )

    def test_prefix_covering_no_fib_prefix(self, pair):
        healthy, buggy = pair
        prefix = Prefix.parse("203.0.113.0/24")
        assert not any(
            prefix.contains_prefix(p)
            for dataplane in pair
            for p in dataplane.all_prefixes()
        )
        assert_differential_matches(
            healthy, buggy, HeaderSpace.dst_prefix(prefix)
        )

    def test_acl_tainted_ingress(self, acl_line):
        # The same line with b's filter opened to every source: traffic
        # from a to c's loopback changes behaviour on the ACL's slice.
        opened = _acl_line_dataplane(permitted_src="0.0.0.0/0")
        rows = assert_differential_matches(
            acl_line, opened, dst((parse_ipv4("3.0.0.0"), MAX_IPV4))
        )
        assert any(row.ingress == "a" for row in rows)

    @given(data=st.data())
    def test_generated_restrictions(self, pair, data):
        healthy, buggy = pair
        if data.draw(st.booleans()):
            healthy, buggy = buggy, healthy
        space = data.draw(restrictions(dst_atoms(healthy, buggy)))
        assert_differential_matches(healthy, buggy, space)


@st.composite
def restrictions(draw, atoms):
    """1–3 rects whose destination spans start and end on, just before
    or just after atom boundaries (or anywhere)."""

    def bound():
        atom = draw(st.sampled_from(atoms))
        edge = draw(st.sampled_from([atom.min(), atom.max()]))
        value = edge + draw(st.sampled_from([-1, 0, 1]))
        return min(max(value, 0), MAX_IPV4)

    rects = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            lo, hi = sorted((bound(), bound()))
        else:
            lo = draw(st.integers(0, MAX_IPV4))
            hi = draw(st.integers(lo, min(lo + 4096, MAX_IPV4)))
        rect = Rect(dst_ip=IntervalSet.span(lo, hi))
        if draw(st.booleans()):
            rect = rect.with_field(Field.DST_PORT, IntervalSet.span(80, 443))
        rects.append(rect)
    return HeaderSpace(rects)
