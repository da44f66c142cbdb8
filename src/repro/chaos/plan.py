"""Chaos plan builders over the :mod:`repro.core.faults` vocabulary:
the acceptance plan and seeded sampled plans."""

from __future__ import annotations

import random

from repro.core.faults import FaultPlan, GnmiFlake, NodeDown, StaleAft


def acceptance_plan(
    nodes: list[str],
    *,
    crash_at: float = 900.0,
    flake_failures: int = 2,
) -> FaultPlan:
    """The ISSUE's acceptance scenario: transient gNMI flakes on two
    nodes plus one unrecovered pod crash. Deterministic (no sampling):
    the flaked and crashed nodes are the first names in sorted order.
    """
    ordered = sorted(nodes)
    if not ordered:
        return FaultPlan(name="acceptance", faults=())
    crashed = ordered[0]
    flaked = ordered[1:3] or ordered[:1]
    faults: list = [
        GnmiFlake(node=node, failures=flake_failures) for node in flaked
    ]
    faults.append(NodeDown(crashed, at=crash_at))
    return FaultPlan(name="acceptance", faults=tuple(faults))


def sampled_plan(
    nodes: list[str],
    *,
    seed: int = 0,
    intensity: int = 3,
    crash: bool = True,
    crash_at: float = 900.0,
) -> FaultPlan:
    """A randomly sampled plan over ``nodes`` (its own ``Random(seed)``,
    never the kernel's rng): ``intensity`` gNMI flake/stale faults, plus
    optionally one pod crash. Same seed, same plan — the CLI's default
    plan source."""
    rng = random.Random(seed)
    ordered = sorted(nodes)
    faults: list = []
    for _ in range(max(0, intensity)):
        node = rng.choice(ordered)
        if rng.random() < 0.5:
            faults.append(
                GnmiFlake(node=node, failures=rng.randint(1, 3))
            )
        else:
            faults.append(
                StaleAft(node=node, serves=1, truncate=rng.random() < 0.5)
            )
    if crash and ordered:
        faults.append(NodeDown(rng.choice(ordered), at=crash_at))
    return FaultPlan(name=f"sampled-{seed}", seed=seed, faults=tuple(faults))
