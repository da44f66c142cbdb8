"""The injector: arms a :class:`~repro.core.faults.FaultPlan` against one
deployment.

Everything is driven by the deployment's simulated-time kernel:
activations are kernel events, loss draws come from the kernel's seeded
rng, and gNMI faults fire synchronously inside the extraction path — so
one (plan, topology, seed) triple replays byte-identically, including
its failures. The injector keeps a ``log`` of every activation and
firing, which is what the determinism regression test compares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.faults import (
    ConvergenceStall,
    FaultPlan,
    GnmiFlake,
    LinkLoss,
    StaleAft,
    TOPOLOGY_FAULTS,
    inject,
)
from repro.gnmi.aft import AftSnapshot
from repro.gnmi.server import GnmiUnavailableError
from repro.net.addr import Prefix
from repro.obs import bus
from repro.rib.fib import Fib, FibAction, FibEntry

if TYPE_CHECKING:
    from repro.kube.kne import KneDeployment

#: Category for fault activations/firings on the obs timeline.
CHAOS_FAULT = "chaos.fault"

# The stall fault churns a scratch FIB on this prefix (TEST-NET-3,
# never routed by any corpus topology).
_STALL_PREFIX = Prefix.parse("203.0.113.255/32")


class ChaosInjector:
    """Applies one :class:`FaultPlan` to one deployment.

    Must be armed *before* ``deploy()`` so boot-time faults and early
    activations land; arming an empty plan changes nothing (no rng
    draws, no events), which is what keeps fault-free runs
    byte-identical to a build without chaos at all.
    """

    def __init__(self, deployment: "KneDeployment", plan: FaultPlan) -> None:
        self.deployment = deployment
        self.plan = plan
        #: (sim_time, "activate"|"fire", kind, target) — the replayable
        #: record the determinism test asserts on.
        self.log: list[tuple[float, str, str, str]] = []
        self._slow_boots = plan.slow_boots()
        # node -> remaining injected RPC failures
        self._flakes: dict[str, int] = {}
        # node -> {"remaining", "payload" (captured stale dict or None),
        #          "truncate"}
        self._stale: dict[str, dict] = {}
        self._stall_fib = Fib()
        self._stall_present = False
        self._armed = False

    # -- arming ---------------------------------------------------------------

    def arm(self) -> "ChaosInjector":
        """Attach to the deployment and schedule every timed fault."""
        if self._armed:
            return self
        self._armed = True
        self.deployment.chaos = self
        for router in self.deployment.routers.values():
            router.fault_injector = self
        kernel = self.deployment.kernel
        for fault in self.plan.scheduled():
            kernel.schedule_at(
                max(fault.at, kernel.now),
                lambda f=fault: self._activate(f),
                label=f"chaos:{fault.kind}",
            )
        return self

    def on_router_created(self, router) -> None:
        """Deployment hook: every new router gets the gNMI fault hook."""
        router.fault_injector = self

    def boot_factor(self, node: str) -> float:
        """Deploy hook: boot-time stretch for ``node`` (1.0 = none)."""
        return self._slow_boots.get(node, 1.0)

    # -- activation -----------------------------------------------------------

    def _record(self, action: str, kind: str, target: str) -> None:
        now = self.deployment.kernel.now
        self.log.append((now, action, kind, target))
        collector = bus.ACTIVE
        if collector.enabled:
            collector.count("chaos.faults")
            collector.emit(
                CHAOS_FAULT, now, action=action, kind=kind, target=target
            )
        registry = bus.metrics_registry()
        if registry.enabled:
            registry.counter(
                "chaos.fault_records",
                "Chaos activations and firings by fault kind",
                ("action", "kind"),
            ).inc(action=action, kind=kind)

    def _activate(self, fault) -> None:
        self._record("activate", fault.kind, fault.target)
        if isinstance(fault, TOPOLOGY_FAULTS):
            inject(
                self.deployment,
                fault,
                f"chaos:restart:{fault.target}",
                on_restore=lambda f: self._record(
                    "fire", f.restore_kind, f.target
                ),
            )
        elif isinstance(fault, GnmiFlake):
            self._flakes[fault.node] = (
                self._flakes.get(fault.node, 0) + fault.failures
            )
        elif isinstance(fault, StaleAft):
            payload: Optional[dict] = None
            if not fault.truncate:
                router = self.deployment.routers[fault.node]
                payload = AftSnapshot.from_router(
                    router, now=self.deployment.kernel.now
                ).to_dict()
                # The served snapshot must read as predating the live
                # FIB, or the extraction staleness re-check could not
                # tell it from a fresh dump.
                meta = dict(payload.get("meta", {}))
                meta["fib-version"] = max(
                    0, int(meta.get("fib-version", 1)) - 1
                )
                payload["meta"] = meta
            self._stale[fault.node] = {
                "remaining": fault.serves,
                "payload": payload,
                "truncate": fault.truncate,
            }
        elif isinstance(fault, LinkLoss):
            self._set_loss(fault, fault.drop_rate)
            self.deployment.kernel.schedule(
                fault.duration,
                lambda: self._clear_loss(fault),
                label="chaos:link-heal",
            )
        elif isinstance(fault, ConvergenceStall):
            self._stall_tick(
                until=self.deployment.kernel.now + fault.duration,
                period=fault.period,
            )

    def _loss_channels(self, fault: LinkLoss):
        link = self.deployment.topology.find_link(fault.a, fault.z)
        if link is None:
            return []
        channels = []
        for node, interface in (
            (link.a.node, link.a.interface),
            (link.z.node, link.z.interface),
        ):
            channel = self.deployment._channels.get((node, interface))
            if channel is not None:
                channels.append(channel)
        return channels

    def _set_loss(self, fault: LinkLoss, rate: float) -> None:
        for channel in self._loss_channels(fault):
            channel.drop_rate = rate

    def _clear_loss(self, fault: LinkLoss) -> None:
        self._record("fire", "link-heal", fault.target)
        self._set_loss(fault, 0.0)

    def _stall_tick(self, *, until: float, period: float) -> None:
        """Alternate a scratch-FIB insert/remove: each tick bumps the
        process-wide FIB version, so the convergence detector never
        observes a quiet window while the stall lasts."""
        kernel = self.deployment.kernel
        if self._stall_present:
            self._stall_fib.remove_entry(_STALL_PREFIX, kernel.now)
        else:
            self._stall_fib.set_entry(
                FibEntry(prefix=_STALL_PREFIX, action=FibAction.DISCARD),
                kernel.now,
            )
        self._stall_present = not self._stall_present
        if kernel.now + period <= until:
            kernel.schedule(
                period,
                lambda: self._stall_tick(until=until, period=period),
                label="chaos:stall",
            )
        else:
            self._record("fire", "stall-end", "global")

    # -- gNMI hooks (called from GnmiServer) ----------------------------------

    def before_gnmi_get(self, node: str, path: str) -> None:
        """Raise a transient failure if a flake is active for ``node``."""
        remaining = self._flakes.get(node, 0)
        if remaining <= 0:
            return
        self._flakes[node] = remaining - 1
        self._record("fire", "gnmi-flake", node)
        raise GnmiUnavailableError(
            f"{node}: injected gNMI flake on {path} "
            f"({remaining - 1} failure(s) left)"
        )

    def transform_aft(self, node: str, full: dict) -> dict:
        """Serve a stale or truncated AFT response while a fault holds.

        Both variants report a FIB version behind the live counter,
        which the extraction staleness re-check detects.
        """
        state = self._stale.get(node)
        if not state or state["remaining"] <= 0:
            return full
        state["remaining"] -= 1
        if state["payload"] is not None:
            self._record("fire", "stale-aft", node)
            return state["payload"]
        self._record("fire", "truncated-aft", node)
        return _truncate_response(full)

    def fired(self, kind: Optional[str] = None) -> int:
        """How many faults (optionally of one kind) actually fired.

        Counts ``fire`` log entries only; activations are visible via
        ``len(log)``.
        """
        return sum(
            1
            for _, action, k, _ in self.log
            if action == "fire" and (kind is None or k == kind)
        )


def _truncate_response(full: dict) -> dict:
    """A copy of ``full`` with the AFT entry list cut in half and the
    reported FIB version knocked back one — a dump torn mid-write."""
    out = dict(full)
    instances = [dict(i) for i in full["network-instances"]["network-instance"]]
    afts = dict(instances[0]["afts"])
    ipv4 = dict(afts["ipv4-unicast"])
    entries = list(ipv4["ipv4-entry"])
    ipv4["ipv4-entry"] = entries[: max(1, len(entries) // 2)]
    afts["ipv4-unicast"] = ipv4
    instances[0]["afts"] = afts
    out["network-instances"] = {"network-instance": instances}
    meta = dict(full.get("meta", {}))
    meta["fib-version"] = max(0, int(meta.get("fib-version", 1)) - 1)
    out["meta"] = meta
    return out
