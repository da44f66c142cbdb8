"""D2 (§6): exhaustive single-link-cut context sweep.

Paper: checking "the network maintains reachability in the face of any
single link cut" is done model-free by running one emulation per context
and differential checks across the produced dataplanes — linear in
links, while exhaustive k-cut sweeps grow combinatorially (the trade-off
against model-centric approaches like Minesweeper).
"""

from repro.core.context import ScenarioContext, k_link_cut_count
from repro.core.differential import compare_snapshots
from repro.core.pipeline import ModelFreeBackend
from repro.protocols.timers import FAST_TIMERS
from repro.topo.builder import ring_topology
from repro.whatif import single_link_failures

from benchmarks.conftest import run_once
from tests.helpers import isis_config

RING_SIZE = 5


def build_ring():
    """A 5-ring with IS-IS everywhere: 1-link-cut tolerant by design."""
    topology = ring_topology(RING_SIZE)
    addresses = {}
    for j, link in enumerate(topology.links):
        base = f"10.0.{j}"
        addresses.setdefault(link.a.node, []).append(
            (link.a.interface, f"{base}.0/31")
        )
        addresses.setdefault(link.z.node, []).append(
            (link.z.interface, f"{base}.1/31")
        )
    for i, spec in enumerate(topology.nodes, start=1):
        spec.config = isis_config(
            spec.name, i, f"2.2.2.{i}", addresses[spec.name]
        )
    return topology


def sweep():
    topology = build_ring()
    backend = ModelFreeBackend(
        topology, timers=FAST_TIMERS, quiet_period=5.0
    )
    baseline = backend.run(ScenarioContext(), snapshot_name="baseline")
    results = []
    for plan in single_link_failures(topology):
        context = plan.to_context(ScenarioContext(), topology)
        snapshot = ModelFreeBackend(
            topology, timers=FAST_TIMERS, quiet_period=5.0
        ).run(context, snapshot_name=context.name)
        regressions = [
            row
            for row in compare_snapshots(baseline, snapshot)
            if row.regressed
        ]
        # Only loopback reachability matters for the invariant; the cut
        # link's own /31 legitimately disappears.
        loopback_regressions = [
            row
            for row in regressions
            if any(
                __import__("repro.net.addr", fromlist=["parse_ipv4"]).parse_ipv4(
                    f"2.2.2.{i}"
                )
                in row.dst_set
                for i in range(1, RING_SIZE + 1)
            )
        ]
        results.append((context, loopback_regressions))
    return results


def test_d2_single_cut_sweep(benchmark, report):
    results = run_once(benchmark, sweep)
    assert len(results) == RING_SIZE  # one emulation per link
    violating = [ctx.name for ctx, rows in results if rows]
    report.add(
        "D2", f"single-link-cut sweep over {RING_SIZE}-ring",
        "invariant checkable, one emulation per context",
        f"{len(results)} contexts emulated, "
        f"{len(violating)} loopback-reachability violations",
    )
    # A ring survives any single cut.
    assert violating == []


def test_d2_k_cut_cost_growth(benchmark, report):
    """The §6 cost argument: contexts needed for exhaustive k-cut sweeps
    grow combinatorially, which is where model-centric approaches win."""
    run_once(benchmark, lambda: None)
    links = 60
    growth = [k_link_cut_count(links, k) for k in (1, 2, 3)]
    report.add(
        "D2", f"contexts for k cuts of {links} links (k=1,2,3)",
        "exponential growth",
        " / ".join(str(g) for g in growth),
    )
    assert growth[0] == 60
    assert growth[1] > 25 * growth[0]
    assert growth[2] > 15 * growth[1]
