"""Scenario context: everything beyond configurations.

A context carries the "additional context such as route advertisements"
of the paper's Fig. 1 — external BGP announcements via route injectors —
plus cold link cuts (:class:`~repro.core.faults.LinkDown`) applied to
the emulation before convergence is measured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.faults import LinkDown
from repro.corpus.routes import InjectorSpec


@dataclass(frozen=True)
class ScenarioContext:
    """One emulation scenario.

    ``faults`` are cuts in place from the start and never restored:
    anything timed belongs in a warm
    :meth:`FaultPlan.apply <repro.core.faults.FaultPlan.apply>` or a
    chaos plan, and a node kill reaches a context as the cuts of its
    links (:meth:`FaultPlan.to_context
    <repro.core.faults.FaultPlan.to_context>`).
    """

    name: str = "base"
    faults: tuple[LinkDown, ...] = ()
    injectors: tuple[InjectorSpec, ...] = ()

    def __post_init__(self) -> None:
        for fault in self.faults:
            # A permanent cut is the plain LinkDown of its two ends.
            if not isinstance(fault, LinkDown) or fault != LinkDown(fault.a, fault.z):
                raise ValueError(
                    f"context {self.name!r}: only link cuts at 0 that are "
                    f"never restored, not {fault!r}"
                )

    def with_link_down(self, a: str, z: str) -> "ScenarioContext":
        return replace(
            self,
            name=f"{self.name}+cut:{a}-{z}",
            faults=self.faults + (LinkDown(a, z),),
        )


def k_link_cut_count(num_links: int, k: int) -> int:
    """Contexts needed for an exhaustive k-cut sweep (for cost analysis)."""
    from math import comb

    return comb(num_links, k)
