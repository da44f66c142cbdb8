"""Service-level chaos: seeded faults against the verification service.

:class:`~repro.core.faults.FaultPlan` breaks the emulation substrate;
:class:`ServiceFaultPlan` breaks the *service* that answers questions
about it — worker processes SIGKILLed mid-job, journal writes stalled,
the snapshot store hit by eviction storms. Faults are declarative and
keyed to deterministic service counters (the Nth dispatch, the Nth
journal record, the Nth submission), never wall-clock time, so a plan
replays exactly: the resilience tests assert that a replayed crash
schedule yields byte-identical answers to an undisturbed run.

:class:`ServiceChaos` arms a plan against one
:class:`~repro.service.service.VerificationService` by installing the
service's chaos hooks (``pool.on_dispatch``, ``journal.stall_hook``,
``service.on_submit``) and restores them on disarm; each fault fires at
most once and is recorded in ``fired`` for reporting.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass
from typing import Optional, Union

logger = logging.getLogger(__name__)

KIND_WORKER_CRASH = "worker-crash"
KIND_JOURNAL_STALL = "journal-stall"
KIND_EVICTION_STORM = "eviction-storm"


@dataclass(frozen=True)
class WorkerCrash:
    """SIGKILL the worker executing the ``at_dispatch``-th dispatched
    job (1-based, counted across the pool). Requires process mode —
    thread workers share the service's fate and cannot be crashed in
    isolation."""

    at_dispatch: int

    @property
    def kind(self) -> str:
        return KIND_WORKER_CRASH

    @property
    def target(self) -> str:
        return f"dispatch#{self.at_dispatch}"


@dataclass(frozen=True)
class JournalStall:
    """Stall the journal append path for ``stall_s`` wall seconds when
    the ``at_record``-th record (0-based ``records_written`` count) is
    about to be appended — the slow-disk / fsync-storm failure mode the
    submission path must survive without dropping accepted work."""

    at_record: int
    stall_s: float = 0.05

    @property
    def kind(self) -> str:
        return KIND_JOURNAL_STALL

    @property
    def target(self) -> str:
        return f"record#{self.at_record}"


@dataclass(frozen=True)
class EvictionStorm:
    """Forcibly evict ``evict`` LRU entries from the snapshot store on
    the ``at_submit``-th submission (1-based) — mass cache-pressure
    that exercises the ``DeploymentLostError`` retry path under load."""

    at_submit: int
    evict: int = 2

    @property
    def kind(self) -> str:
        return KIND_EVICTION_STORM

    @property
    def target(self) -> str:
        return f"submit#{self.at_submit}"


ServiceFault = Union[WorkerCrash, JournalStall, EvictionStorm]


@dataclass(frozen=True)
class ServiceFaultPlan:
    """A named, seeded schedule of service-plane faults."""

    name: str = "service-chaos"
    seed: int = 0
    faults: tuple = ()

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def worker_crashes(self) -> list[WorkerCrash]:
        return [f for f in self.faults if isinstance(f, WorkerCrash)]

    def journal_stalls(self) -> list[JournalStall]:
        return [f for f in self.faults if isinstance(f, JournalStall)]

    def eviction_storms(self) -> list[EvictionStorm]:
        return [f for f in self.faults if isinstance(f, EvictionStorm)]

    def describe(self) -> dict:
        """JSON-friendly description (CLI/bench reporting)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [
                {"kind": f.kind, "target": f.target}
                for f in self.faults
            ],
        }

    def __len__(self) -> int:
        return len(self.faults)


def sampled_service_plan(
    *,
    seed: int = 0,
    crashes: int = 2,
    dispatch_span: int = 8,
    stalls: int = 1,
    storms: int = 0,
) -> ServiceFaultPlan:
    """A randomly sampled service plan (its own ``Random(seed)``):
    ``crashes`` worker kills spread over the first ``dispatch_span``
    dispatches, plus optional journal stalls and eviction storms. Same
    seed, same plan — the resilience bench's crash-schedule source."""
    rng = random.Random(seed)
    span = max(1, dispatch_span)
    indices = rng.sample(range(1, span + 1), min(max(0, crashes), span))
    faults: list[ServiceFault] = [
        WorkerCrash(at_dispatch=i) for i in sorted(indices)
    ]
    for _ in range(max(0, stalls)):
        faults.append(
            JournalStall(
                at_record=rng.randint(1, 4 * span),
                stall_s=rng.uniform(0.01, 0.05),
            )
        )
    for _ in range(max(0, storms)):
        faults.append(
            EvictionStorm(at_submit=rng.randint(1, span), evict=2)
        )
    return ServiceFaultPlan(
        name=f"service-sampled-{seed}", seed=seed, faults=tuple(faults)
    )


class ServiceChaos:
    """Arms one :class:`ServiceFaultPlan` against a running service.

    Context manager: hooks install on ``__enter__``/:meth:`arm` and the
    previous hooks are restored on ``__exit__``/:meth:`disarm`. Faults
    fire at most once; ``fired`` holds ``{"kind", "target", "at"}``
    records in firing order for reports and assertions.
    """

    def __init__(self, service, plan: ServiceFaultPlan) -> None:
        self.service = service
        self.plan = plan
        self.fired: list[dict] = []
        self._armed = False
        self._prev_dispatch = None
        self._prev_stall = None
        self._prev_submit = None
        self._pending_crashes = {
            f.at_dispatch: f for f in plan.worker_crashes()
        }
        self._pending_stalls = {
            f.at_record: f for f in plan.journal_stalls()
        }
        self._pending_storms = {
            f.at_submit: f for f in plan.eviction_storms()
        }

    # -- lifecycle ------------------------------------------------------------

    def arm(self) -> "ServiceChaos":
        if self._armed:
            return self
        pool = self.service.pool
        if self._pending_crashes and self.service.worker_mode != "process":
            raise ValueError(
                "worker-crash faults need worker_mode='process' "
                "(thread workers share the service's fate)"
            )
        if self._pending_crashes:
            self._prev_dispatch = pool.on_dispatch
            pool.on_dispatch = self._on_dispatch
        if self._pending_stalls and self.service.journal is not None:
            self._prev_stall = self.service.journal.stall_hook
            self.service.journal.stall_hook = self._on_journal_record
        if self._pending_storms:
            self._prev_submit = self.service.on_submit
            self.service.on_submit = self._on_submit
        self._armed = True
        return self

    def disarm(self) -> None:
        if not self._armed:
            return
        pool = self.service.pool
        if self._pending_crashes or self._prev_dispatch is not None:
            pool.on_dispatch = self._prev_dispatch
        if self.service.journal is not None and (
            self.service.journal.stall_hook is self._on_journal_record
        ):
            self.service.journal.stall_hook = self._prev_stall
        if self.service.on_submit is self._on_submit:
            self.service.on_submit = self._prev_submit
        self._armed = False

    def __enter__(self) -> "ServiceChaos":
        return self.arm()

    def __exit__(self, *exc) -> None:
        self.disarm()

    # -- hook implementations --------------------------------------------------

    def _record(self, fault) -> None:
        self.fired.append(
            {"kind": fault.kind, "target": fault.target, "at": time.time()}
        )

    def _on_dispatch(self, job, worker_index: int, dispatch_index: int):
        fault = self._pending_crashes.pop(dispatch_index, None)
        if fault is not None:
            logger.info(
                "chaos: killing worker %d at dispatch %d (job %s)",
                worker_index, dispatch_index, job.id,
            )
            self.service.pool.kill_worker(worker_index)
            self._record(fault)
        if self._prev_dispatch is not None:
            self._prev_dispatch(job, worker_index, dispatch_index)

    def _on_journal_record(self, record_index: int) -> None:
        fault = self._pending_stalls.pop(record_index, None)
        if fault is not None:
            logger.info(
                "chaos: stalling journal %.3fs at record %d",
                fault.stall_s, record_index,
            )
            time.sleep(fault.stall_s)
            self._record(fault)
        if self._prev_stall is not None:
            self._prev_stall(record_index)

    def _on_submit(self, submit_index: int) -> None:
        fault = self._pending_storms.pop(submit_index, None)
        if fault is not None:
            evicted = self.service.store.evict(fault.evict)
            logger.info(
                "chaos: eviction storm at submit %d evicted %d",
                submit_index, evicted,
            )
            self._record(fault)
        if self._prev_submit is not None:
            self._prev_submit(submit_index)


__all__ = [
    "EvictionStorm",
    "JournalStall",
    "ServiceChaos",
    "ServiceFault",
    "ServiceFaultPlan",
    "WorkerCrash",
    "sampled_service_plan",
]
