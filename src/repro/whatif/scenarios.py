"""What-if generators: the standard failure sweeps as fault plans.

Every single link, every single node, all k-link combinations
(Plankton's exploding scenario space), and link flaps (the transient
case a converged-state-only model cannot express at all), each as
:class:`~repro.core.faults.FaultPlan`\\ s of topology faults.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from repro.core.faults import FaultPlan, LinkDown, NodeDown
from repro.topo.model import Topology

# The perf ledger's workloads still annotate with this name; it goes
# with the next change to the benchmark.
FaultScenario = FaultPlan


def _unique_node_pairs(topology: Topology) -> list[tuple[str, str]]:
    """Distinct endpoint pairs, deduplicating parallel links.

    ``KneDeployment.set_link_state`` resolves a pair via
    ``Topology.find_link`` (first match), so parallel links between one
    node pair would all map to the same perturbation — sweep each pair
    once.
    """
    seen: set[frozenset[str]] = set()
    pairs: list[tuple[str, str]] = []
    for link in topology.links:
        key = frozenset((link.a.node, link.z.node))
        if key in seen:
            continue
        seen.add(key)
        pairs.append((link.a.node, link.z.node))
    return pairs


def single_link_failures(topology: Topology) -> Iterator[FaultPlan]:
    """One plan per link: the paper's §6 exhaustive single-cut sweep."""
    for a_node, z_node in _unique_node_pairs(topology):
        yield FaultPlan(f"link:{a_node}-{z_node}", (LinkDown(a_node, z_node),))


def single_node_failures(topology: Topology) -> Iterator[FaultPlan]:
    """One plan per node: kill the pod, drop every adjacency at once."""
    for spec in topology.nodes:
        yield FaultPlan(f"node:{spec.name}", (NodeDown(spec.name),))


def k_link_failures(topology: Topology, k: int = 2) -> Iterator[FaultPlan]:
    """All k-combinations of link failures (combinatorial — use with care)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for combo in combinations(_unique_node_pairs(topology), k):
        label = "+".join(f"{a}-{z}" for a, z in combo)
        yield FaultPlan(
            f"klink:{label}", tuple(LinkDown(a, z) for a, z in combo)
        )


def link_flap_scenarios(
    topology: Topology, hold_seconds: float = 30.0
) -> Iterator[FaultPlan]:
    """Per-link down→up flaps: does the network *return* to baseline?"""
    if hold_seconds <= 0:
        raise ValueError(f"hold_seconds must be > 0, got {hold_seconds}")
    for a_node, z_node in _unique_node_pairs(topology):
        yield FaultPlan(
            f"flap:{a_node}-{z_node}",
            (LinkDown(a_node, z_node, restore_after=hold_seconds),),
        )
