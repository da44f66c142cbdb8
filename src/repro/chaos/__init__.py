"""repro.chaos — deterministic fault injection for the emulation substrate.

A seeded, declarative fault layer in the spirit of chaos engineering:
a :class:`~repro.core.faults.FaultPlan` describes pod crashes, slow boots,
gNMI flakes, stale/truncated AFT responses, lossy virtual wires, and
convergence stalls; :class:`~repro.chaos.injector.ChaosInjector` arms a
plan against one deployment, driving every fault from the simulated-time
kernel so any seed replays byte-identically; and
:func:`~repro.chaos.runner.run_chaos` scores a corpus scenario's verdict
stability under a plan against its fault-free baseline.

The point is not the faults — it is proving the *pipeline* degrades
gracefully: retries with capped backoff, health probes with
restart-and-reconverge, and partial snapshots whose degraded nodes
answer ``UNKNOWN_DEGRADED`` instead of a fabricated ``NO_ROUTE``.

The same discipline extends one layer up:
:class:`~repro.chaos.service_plan.ServiceFaultPlan` breaks the
verification *service* (SIGKILLed worker processes, journal-write
stalls, store eviction storms), keyed to deterministic service counters
so crash schedules replay exactly; :class:`ServiceChaos` arms one
against a running service.
"""

from repro.chaos.injector import CHAOS_FAULT, ChaosInjector
from repro.chaos.plan import acceptance_plan, sampled_plan
from repro.chaos.runner import ChaosRunReport, run_chaos
from repro.chaos.service_plan import (
    EvictionStorm,
    JournalStall,
    ServiceChaos,
    ServiceFault,
    ServiceFaultPlan,
    WorkerCrash,
    sampled_service_plan,
)

__all__ = [
    "CHAOS_FAULT",
    "ChaosInjector",
    "ChaosRunReport",
    "EvictionStorm",
    "JournalStall",
    "ServiceChaos",
    "ServiceFault",
    "ServiceFaultPlan",
    "WorkerCrash",
    "acceptance_plan",
    "run_chaos",
    "sampled_plan",
    "sampled_service_plan",
]
