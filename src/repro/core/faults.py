"""The one fault vocabulary: what breaks, when, and for how long.

Faults are frozen, picklable descriptions (names, simulated seconds,
rates), never closures over live objects. Topology faults
(:class:`LinkDown`, :class:`NodeDown`) break the network and reach a
deployment only through :func:`inject`; substrate faults break the
emulation substrate and only the chaos injector arms them. A
:class:`FaultPlan` runs warm (:meth:`~FaultPlan.apply`; ``at`` counts
from the apply), as a cold chaos run (``at`` is absolute), or as a cold
context (:meth:`~FaultPlan.to_context`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Optional, Union

if TYPE_CHECKING:
    from repro.core.context import ScenarioContext
    from repro.kube.kne import KneDeployment
    from repro.topo.model import Topology


class _OnNode:
    @property
    def target(self) -> str:
        return self.node


@dataclass(frozen=True)
class LinkDown:
    """Cut the (first) link between ``a`` and ``z``."""

    a: str
    z: str
    at: float = 0.0
    restore_after: Optional[float] = None
    kind: ClassVar[str] = "link-down"
    restore_kind: ClassVar[str] = "link-up"

    @property
    def target(self) -> str:
        return f"{self.a}-{self.z}"

    def set(self, deployment: "KneDeployment", up: bool) -> None:
        (deployment.link_up if up else deployment.link_down)(self.a, self.z)


@dataclass(frozen=True)
class NodeDown(_OnNode):
    """Kill ``node``'s pod: every adjacency drops and its FIB freezes.

    Never restored, the node ends up in the snapshot's
    ``degraded_nodes`` manifest; restored, its links to live peers come
    back and the network re-converges.
    """

    node: str
    at: float = 0.0
    restore_after: Optional[float] = None
    kind: ClassVar[str] = "node-down"
    restore_kind: ClassVar[str] = "node-up"

    def set(self, deployment: "KneDeployment", up: bool) -> None:
        (deployment.node_up if up else deployment.node_down)(self.node)


TOPOLOGY_FAULTS = (LinkDown, NodeDown)


def inject(
    deployment: "KneDeployment",
    fault: Union[LinkDown, NodeDown],
    label: str = "",
    on_restore: Optional[Callable[[Union[LinkDown, NodeDown]], None]] = None,
) -> None:
    """Take ``fault``'s link or node down now; schedule its restore.

    The restore is a kernel event ``restore_after`` seconds out,
    labelled ``label``; ``on_restore(fault)`` runs just before it.
    """
    fault.set(deployment, up=False)
    if fault.restore_after is not None:

        def restore() -> None:
            if on_restore is not None:
                on_restore(fault)
            fault.set(deployment, up=True)

        deployment.kernel.schedule(fault.restore_after, restore, label=label)


@dataclass(frozen=True)
class SlowBoot(_OnNode):
    """Stretch ``node``'s boot time by ``factor`` (takes effect at
    deploy; the ``at`` of scheduled faults does not apply)."""

    node: str
    factor: float = 3.0
    kind: ClassVar[str] = "slow-boot"


@dataclass(frozen=True)
class GnmiFlake(_OnNode):
    """From ``at`` on, the next ``failures`` gNMI Gets against ``node``
    raise a transient ``GnmiUnavailableError`` — the classic RPC flake
    the retry/backoff path must absorb."""

    node: str
    failures: int = 2
    at: float = 0.0
    kind: ClassVar[str] = "gnmi-flake"


@dataclass(frozen=True)
class StaleAft(_OnNode):
    """From ``at`` on, the next ``serves`` AFT dumps from ``node`` are
    wrong: a response captured at activation time (stale), or — with
    ``truncate`` — the live response with its entry list cut short. Both
    carry a FIB version behind the live counter, which is what the
    extraction staleness re-check keys off."""

    node: str
    serves: int = 1
    at: float = 0.0
    truncate: bool = False
    kind: ClassVar[str] = "stale-aft"


@dataclass(frozen=True)
class LinkLoss:
    """Make the (first) link between ``a`` and ``z`` lossy: each
    direction drops sends with probability ``drop_rate`` from ``at``
    until ``at + duration`` (drawn from the kernel's seeded rng, so the
    loss pattern replays exactly)."""

    a: str
    z: str
    drop_rate: float = 0.1
    at: float = 0.0
    duration: float = 60.0
    kind: ClassVar[str] = "link-loss"

    @property
    def target(self) -> str:
        return f"{self.a}<->{self.z}"


@dataclass(frozen=True)
class ConvergenceStall:
    """Inject global FIB-version churn every ``period`` seconds from
    ``at`` until ``at + duration``: the convergence detector never sees
    a quiet window while the stall lasts, which is how the watchdog's
    ``ConvergenceTimeout`` path gets exercised."""

    at: float = 0.0
    duration: float = 120.0
    period: float = 1.0
    kind: ClassVar[str] = "convergence-stall"
    target: ClassVar[str] = "global"


Fault = Union[
    LinkDown, NodeDown, SlowBoot, GnmiFlake, StaleAft, LinkLoss,
    ConvergenceStall,
]


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of faults.

    ``seed`` identifies the plan for reporting and drives any plan
    *generation* (see :func:`repro.chaos.plan.sampled_plan`); fault
    *timing* is fully declarative, so two runs of the same plan against
    the same topology seed replay identically.
    """

    name: str = "chaos"
    faults: tuple[Fault, ...] = ()
    seed: int = 0

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def horizon(self) -> float:
        """The last activation or topology restore (0.0 if none).

        A restore counts: a run that quiesces before it would be
        declared converged with the fault still in place. A loss or
        stall ``duration`` does not: a huge one is how a permanent
        condition is written.
        """
        return max(
            (
                f.at + (f.restore_after or 0.0)
                if isinstance(f, TOPOLOGY_FAULTS)
                else f.at
                for f in self.scheduled()
            ),
            default=0.0,
        )

    # -- warm (what-if) ---------------------------------------------------------

    def topology_faults(self) -> tuple:
        """The faults, or ``ValueError`` if one is a substrate fault:
        a warm deployment can only lose links and nodes."""
        for fault in self.faults:
            if not isinstance(fault, TOPOLOGY_FAULTS):
                raise ValueError(
                    f"plan {self.name!r}: a warm what-if takes link and "
                    f"node faults only, not {fault.kind}"
                )
        return self.faults

    @property
    def kind(self) -> str:
        """The what-if verdict kind: ``link-cut``, ``k-link-cut``,
        ``link-flap``, ``node-down`` or ``mixed``."""
        kinds = {f.kind for f in self.faults}
        restored = {f.restore_after is not None for f in self.faults}
        if kinds == {"node-down"}:
            return "node-down"
        if kinds == {"link-down"} and restored == {True}:
            return "link-flap"
        if kinds == {"link-down"} and restored == {False}:
            return "link-cut" if len(self.faults) == 1 else "k-link-cut"
        return "mixed"

    def apply(self, deployment: "KneDeployment") -> None:
        """Perturb a live, converged deployment.

        A fault at 0 goes down now, a later one ``at`` seconds from now.
        Restores are pre-scheduled on the simulated clock, so one
        ``wait_converged`` over :attr:`min_quiet_period` sees every
        transition.
        """
        for fault in self.topology_faults():
            label = f"whatif-flap-restore:{fault.target}"
            if fault.at == 0:
                inject(deployment, fault, label)
            else:
                deployment.kernel.schedule(
                    fault.at,
                    lambda f=fault, label=label: inject(deployment, f, label),
                    label=f"whatif-fault:{fault.target}",
                )

    def revert(self, deployment: "KneDeployment") -> None:
        """Undo :meth:`apply`: bring back what does not restore itself."""
        for fault in self.topology_faults():
            if fault.restore_after is None:
                fault.set(deployment, up=True)

    @property
    def self_reverting(self) -> bool:
        return all(f.restore_after is not None for f in self.faults)

    @property
    def min_quiet_period(self) -> float:
        """Quiet window floor so pre-scheduled faults aren't missed."""
        return self.horizon + 1.0 if self.horizon > 0 else 0.0

    def to_context(
        self, base: "ScenarioContext", topology: "Topology"
    ) -> "ScenarioContext":
        """The equivalent cold-run context (the oracle formulation).

        Only the steady state has a cold form: a self-restoring fault
        adds nothing, a link cut adds itself, and a node kill adds a cut
        of each attached link. That last is where warm and cold differ:
        a cold node-down run still boots the dead node, so its own
        (isolated) FIB is present in the cold extraction and absent from
        the warm one.
        """
        context = base
        for fault in self.topology_faults():
            if fault.restore_after is not None:
                continue
            if isinstance(fault, NodeDown):
                for link in topology.links_of(fault.node):
                    context = context.with_link_down(link.a.node, link.z.node)
            else:
                context = context.with_link_down(fault.a, fault.z)
        return context

    # -- cold (chaos) -----------------------------------------------------------

    def scheduled(self) -> list:
        """Faults with a scheduled activation, in firing order.

        SlowBoot is excluded — it modulates deploy-time boot draws
        rather than firing as a kernel event.
        """
        timed = [f for f in self.faults if not isinstance(f, SlowBoot)]
        return sorted(timed, key=lambda f: (f.at, f.kind, f.target))

    def slow_boots(self) -> dict[str, float]:
        factors: dict[str, float] = {}
        for fault in self.faults:
            if isinstance(fault, SlowBoot):
                factors[fault.node] = max(
                    factors.get(fault.node, 1.0), fault.factor
                )
        return factors

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
