"""KNE-style deployment: topology in, running emulated network out.

Responsibilities, mirroring the real Kubernetes Network Emulator flow:

1. build a pod per topology node (resource requests from the vendor's
   container footprint unless the topology overrides them);
2. schedule pods onto the cluster (bin packing — this is where the
   paper's 60-routers-per-32-vCPU-node capacity comes from);
3. model infrastructure startup: cluster init, image pulls, staggered
   container creation, then per-router OS boot (the paper's 12–17 minute
   one-time cost);
4. wire virtual links (a :class:`~repro.sim.channel.Channel` pair per
   topology link) and the routed :class:`~repro.kube.fabric.Fabric`;
5. push configurations once routers finish booting;
6. detect convergence by watching the dataplane stabilize at all
   routers (§5: "we detect convergence to be complete once we observe
   the dataplane to stabilize at all routers").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.kube.cluster import KubeCluster
from repro.kube.fabric import Fabric
from repro.obs import bus
from repro.kube.pod import Pod, PodPhase
from repro.kube.scheduler import Scheduler
from repro.protocols.timers import TimerProfile, PRODUCTION_TIMERS
from repro.rib.fib import global_fib_version
from repro.sim.channel import Channel
from repro.sim.kernel import QuiescenceTimeout, SimKernel
from repro.topo.model import Link, Topology
from repro.vendors.base import RouterOS, SshSession
from repro.vendors.quirks import quirks_for
from repro.vendors.registry import create_router

# Infrastructure startup model (simulated seconds).
_CLUSTER_INIT = 240.0
_IMAGE_PULL = 180.0
_POD_CREATE_STAGGER = (4.0, 8.0)  # sequential per kube node
_CONFIG_PUSH_DELAY = (20.0, 60.0)  # agent-ready + config load after boot

_LINK_LATENCY = 0.0005
_LINK_JITTER = 0.001

# Default simulated-time deadline for deploy(): generous multiples of
# the worst-case startup model, so only a genuinely wedged bring-up
# (a pod that never boots or configures) trips it.
_DEPLOY_MAX_TIME = 14_400.0


class ConvergenceTimeout(RuntimeError):
    """The network failed to quiesce before the deadline.

    Carries the routers whose FIBs were still churning inside the final
    quiet window (``unstable``) — an empty list means the churn came
    from outside the routers' own FIBs (e.g. injected global-version
    noise or fabric traffic).
    """

    def __init__(self, message: str, *, unstable: list[str], elapsed: float) -> None:
        super().__init__(message)
        self.unstable = list(unstable)
        self.elapsed = elapsed

    def __reduce__(self):
        # The keyword-only fields ride in a partial, so the exception
        # survives a process-pool round trip with its type intact.
        return (
            partial(type(self), unstable=self.unstable, elapsed=self.elapsed),
            self.args,
        )


class DeployTimeout(RuntimeError):
    """``deploy()`` hit its simulated-time deadline.

    ``pending`` names each pod that never finished bring-up, mapped to
    where it got stuck (pod phase, or ``unconfigured`` for a running
    router that never received its configuration).
    """

    def __init__(self, message: str, *, pending: dict[str, str]) -> None:
        super().__init__(message)
        self.pending = dict(pending)

    def __reduce__(self):
        return partial(type(self), pending=self.pending), self.args


@dataclass
class DeploymentReport:
    """Timing and placement facts about one bring-up."""

    startup_seconds: float = 0.0
    convergence_seconds: float = 0.0
    placements: dict[str, str] = field(default_factory=dict)
    nodes_used: int = 0
    # False once wait_converged gives up — convergence_seconds is NaN
    # then, never a plausible-looking number.
    converged: bool = True


class ConvergenceDetector:
    """Stability poll over the process-wide FIB change counter.

    The counter is bumped by every FIB mutation on every device, so a
    single integer comparison per event scales to thousand-router
    topologies where per-device polling would dominate the run.
    """

    def __init__(
        self, routers: list[RouterOS], fabric: Optional[Fabric] = None
    ) -> None:
        self.routers = routers
        self.fabric = fabric
        self._snapshot = global_fib_version()
        self._all_running = False

    def poll(self) -> bool:
        """True when nothing changed since the previous poll."""
        current = global_fib_version()
        if current != self._snapshot:
            self._snapshot = current
            return False
        if self.fabric is not None and self.fabric.busy():
            return False
        if not self._all_running:
            self._all_running = all(
                r.state.value == "running" for r in self.routers
            )
        return self._all_running


class KneDeployment:
    """A running (emulated) instance of one topology."""

    def __init__(
        self,
        topology: Topology,
        *,
        cluster: Optional[KubeCluster] = None,
        kernel: Optional[SimKernel] = None,
        timers: TimerProfile = PRODUCTION_TIMERS,
        seed: int = 0,
    ) -> None:
        topology.validate()
        self.topology = topology
        self.kernel = kernel or SimKernel(seed=seed)
        self.cluster = cluster or KubeCluster()
        self.timers = timers
        self.fabric = Fabric(self.kernel)
        self.routers: dict[str, RouterOS] = {}
        self.pods: dict[str, Pod] = {}
        self._channels: dict[tuple[str, str], Channel] = {}
        self.report = DeploymentReport()
        self._deployed = False
        # Routers whose config push has completed (empty configs count:
        # the push event itself is the completion signal).
        self._configured: set[str] = set()
        # A repro.chaos.ChaosInjector arms itself here before deploy();
        # None means a perfectly reliable substrate (the default).
        self.chaos = None

        for spec in topology.nodes:
            quirks = quirks_for(spec.vendor, spec.os_version)
            self.pods[spec.name] = Pod(
                name=spec.name,
                vendor=spec.vendor,
                cpu=spec.cpu or quirks.container_cpu,
                memory_gb=spec.memory_gb or quirks.container_memory_gb,
            )

    # -- bring-up -------------------------------------------------------------

    def deploy(self, *, max_time: float = _DEPLOY_MAX_TIME) -> DeploymentReport:
        """Schedule, boot, wire, and configure the whole topology.

        Advances simulated time to the point where every router is
        running with its configuration applied (protocol convergence
        continues afterwards; see :meth:`wait_converged`). A bring-up
        that has not finished by ``max_time`` simulated seconds raises
        :class:`DeployTimeout` naming the stuck pods, instead of
        spinning the kernel until ``max_events``.
        """
        if self._deployed:
            raise RuntimeError("deployment already started")
        self._deployed = True
        scheduler = Scheduler(self.cluster)
        self.report.placements = scheduler.schedule(list(self.pods.values()))
        self.report.nodes_used = len(set(self.report.placements.values()))

        self._create_routers()
        self._wire_links()

        # Staggered container creation per kube node, after infra init.
        create_time: dict[str, float] = {}
        per_node_cursor: dict[str, float] = {}
        base = _CLUSTER_INIT + _IMAGE_PULL
        for pod in sorted(self.pods.values(), key=lambda p: p.name):
            assert pod.node is not None
            cursor = per_node_cursor.get(pod.node, base)
            cursor += self.kernel.jitter(*_POD_CREATE_STAGGER)
            per_node_cursor[pod.node] = cursor
            create_time[pod.name] = cursor

        for name, router in self.routers.items():
            pod = self.pods[name]
            quirks = router.quirks
            boot = self.kernel.rng.uniform(
                quirks.boot_time_min, quirks.boot_time_max
            )
            if self.chaos is not None:
                # Slow-boot faults stretch the boot deterministically
                # (factor 1.0 when the node is unaffected; no rng draw).
                boot *= self.chaos.boot_factor(name)
            start_at = create_time[name]
            pod.phase = PodPhase.BOOTING
            self.kernel.schedule_at(
                start_at,
                lambda r=router, b=boot: self._power_on(r, b),
                label=f"pod-create:{name}",
            )
            config = self.topology.node(name).config

            def _push(r: RouterOS = router, c: str = config, p: Pod = pod) -> None:
                p.phase = PodPhase.RUNNING
                p.running_at = self.kernel.now
                delay = self.kernel.jitter(*_CONFIG_PUSH_DELAY)
                collector = bus.ACTIVE
                if collector.enabled:
                    collector.emit(
                        "kube.pod.running", self.kernel.now, node=r.name
                    )
                self.kernel.schedule(
                    delay,
                    lambda: self._apply_config(r, c),
                    label=f"config:{r.name}",
                )

            router.on_boot(_push)

        # Run until every config push has happened, bounded by a
        # simulated-time deadline so a wedged bring-up fails loudly.
        def _all_configured() -> bool:
            return len(self._configured) == len(self.routers)

        try:
            self.kernel.run_until_quiet(
                0.0,
                poll=_all_configured,
                max_time=self.kernel.now + max_time,
                max_events=10_000_000,
            )
        except QuiescenceTimeout as exc:
            pending = self._pending_bringup()
            raise DeployTimeout(
                f"deployment incomplete after {self.kernel.now:.0f}s "
                f"simulated ({'queue drained' if exc.drained else 'deadline'}); "
                f"stuck: {', '.join(sorted(pending)) or 'unknown'}",
                pending=pending,
            ) from exc
        # run_until_quiet with 0 window returns at the first poll success;
        # record the startup cost now.
        self.report.startup_seconds = self.kernel.now
        return self.report

    def _apply_config(self, router: RouterOS, config: str) -> None:
        router.apply_config(config)
        self._configured.add(router.name)

    def _pending_bringup(self) -> dict[str, str]:
        """Pods that never finished bring-up, mapped to where they stuck."""
        pending: dict[str, str] = {}
        for name in self.routers:
            pod = self.pods[name]
            if pod.phase is not PodPhase.RUNNING:
                pending[name] = pod.phase.value
            elif name not in self._configured:
                pending[name] = "unconfigured"
        return pending

    def _power_on(self, router: RouterOS, boot_time: float) -> None:
        """Power a router on, with a per-pod boot span when tracing."""
        collector = bus.ACTIVE
        if collector.enabled:
            span = collector.begin(
                f"boot:{router.name}",
                self.kernel.now,
                category="kube.boot",
                node=router.name,
            )
            router.on_boot(lambda: bus.ACTIVE.end(span, self.kernel.now))
        router.power_on(boot_time)

    def _create_routers(self) -> None:
        for spec in self.topology.nodes:
            router = create_router(
                spec.vendor,
                spec.name,
                self.kernel,
                self.fabric,
                os_version=spec.os_version,
                timers=self.timers,
            )
            self.routers[spec.name] = router
            self.fabric.add_router(router)
            if self.chaos is not None:
                self.chaos.on_router_created(router)

    def _wire_links(self) -> None:
        for link in self.topology.links:
            a_router = self.routers[link.a.node]
            z_router = self.routers[link.z.node]
            a_port = a_router.port(link.a.interface)
            z_port = z_router.port(link.z.interface)
            to_z = Channel(
                self.kernel,
                z_port.receive,
                latency=_LINK_LATENCY,
                jitter=_LINK_JITTER,
                name=f"{link.a}->{link.z}",
            )
            to_a = Channel(
                self.kernel,
                a_port.receive,
                latency=_LINK_LATENCY,
                jitter=_LINK_JITTER,
                name=f"{link.z}->{link.a}",
            )
            a_port.attach(to_z)
            z_port.attach(to_a)
            self._channels[(link.a.node, link.a.interface)] = to_z
            self._channels[(link.z.node, link.z.interface)] = to_a
            self.fabric.add_wire(
                link.a.node, link.a.interface, link.z.node, link.z.interface
            )

    # -- convergence ---------------------------------------------------------------

    def wait_converged(
        self,
        *,
        quiet_period: float = 30.0,
        max_time: float = 86_400.0,
    ) -> float:
        """Run until the dataplane is stable everywhere.

        Returns the convergence duration in simulated seconds, measured
        from when this call started (i.e. excluding the quiet window and
        excluding infrastructure startup, matching the paper's
        convergence metric).

        When ``max_time`` elapses without quiescence this raises
        :class:`ConvergenceTimeout` naming the routers whose FIBs were
        still churning — it never reports a plausible-looking success
        number for a network that did not converge. The report records
        ``converged=False`` and a NaN duration in that case.
        """
        started = self.kernel.now
        detector = ConvergenceDetector(
            list(self.routers.values()), fabric=self.fabric
        )
        try:
            self.kernel.run_until_quiet(
                quiet_period,
                poll=detector.poll,
                max_time=started + max_time,
            )
        except QuiescenceTimeout as exc:
            self.report.converged = False
            self.report.convergence_seconds = float("nan")
            unstable = sorted(
                name
                for name, router in self.routers.items()
                if self.kernel.now - router.rib.fib.last_change_time
                <= quiet_period
            )
            raise ConvergenceTimeout(
                f"no convergence within {max_time:.0f}s simulated; "
                f"still churning: {', '.join(unstable) or 'none (external churn)'}",
                unstable=unstable,
                elapsed=self.kernel.now - started,
            ) from exc
        self.report.converged = True
        converged_at = max(
            [r.rib.fib.last_change_time for r in self.routers.values()] + [started]
        )
        self.report.convergence_seconds = max(0.0, converged_at - started)
        return self.report.convergence_seconds

    # -- operator surface --------------------------------------------------------------

    def ssh(self, node: str) -> SshSession:
        """An interactive session onto an emulated router."""
        return SshSession(self._router(node))

    def router(self, node: str) -> RouterOS:
        return self._router(node)

    def _router(self, node: str) -> RouterOS:
        router = self.routers.get(node)
        if router is None:
            raise KeyError(f"no such node: {node}")
        return router

    # -- scenario context (link cuts) -----------------------------------------------------

    def set_link_state(self, a_node: str, z_node: str, up: bool) -> Link:
        """Cut or restore the (first) link between two nodes."""
        link = self.topology.find_link(a_node, z_node)
        if link is None:
            raise KeyError(f"no link between {a_node} and {z_node}")
        self._set_link(link, up)
        return link

    def _set_link(self, link: Link, up: bool) -> None:
        ends = [(link.a.node, link.a.interface), (link.z.node, link.z.interface)]
        for node, interface in ends:
            channel = self._channels.get((node, interface))
            if channel is not None:
                if up:
                    channel.set_up()
                else:
                    channel.set_down()
            self.routers[node].ports[interface].set_link_state(up)

    def link_down(self, a_node: str, z_node: str) -> Link:
        return self.set_link_state(a_node, z_node, up=False)

    def link_up(self, a_node: str, z_node: str) -> Link:
        return self.set_link_state(a_node, z_node, up=True)

    # -- node lifecycle (what-if campaigns) ---------------------------------------------

    def node_down(self, name: str) -> list[Link]:
        """Kill a router's pod: every attached link drops at once.

        The router object stays around (its FIB freezes as-is, which is
        why AFT extraction must skip failed nodes — see
        :func:`repro.gnmi.server.dump_afts`'s ``nodes`` filter); what the
        rest of the network observes is the simultaneous loss of every
        adjacency, exactly what a hardware failure looks like from one
        hop away.
        """
        pod = self.pods.get(name)
        if pod is None:
            raise KeyError(f"no such node: {name}")
        if pod.phase is PodPhase.FAILED:
            return []
        links = list(self.topology.links_of(name))
        for link in links:
            self._set_link(link, up=False)
        pod.phase = PodPhase.FAILED
        collector = bus.ACTIVE
        if collector.enabled:
            collector.emit("kube.pod.failed", self.kernel.now, node=name)
        return links

    def node_up(self, name: str) -> list[Link]:
        """Restore a failed pod and re-enable its links.

        Only links whose far end is itself alive come back up — a link
        to another failed node stays down until that node recovers.
        """
        pod = self.pods.get(name)
        if pod is None:
            raise KeyError(f"no such node: {name}")
        if pod.phase is not PodPhase.FAILED:
            return []
        pod.phase = PodPhase.RUNNING
        restored: list[Link] = []
        for link in self.topology.links_of(name):
            other = link.z.node if link.a.node == name else link.a.node
            if self.pods[other].phase is PodPhase.FAILED:
                continue
            self._set_link(link, up=True)
            restored.append(link)
        collector = bus.ACTIVE
        if collector.enabled:
            collector.emit("kube.pod.restored", self.kernel.now, node=name)
        return restored

    def failed_nodes(self) -> set[str]:
        return {
            name
            for name, pod in self.pods.items()
            if pod.phase is PodPhase.FAILED
        }

    # -- health probes & recovery (chaos hardening) ------------------------------------

    def pod_health(self) -> dict[str, str]:
        """A kubelet-style health probe over every pod.

        Maps each node to ``healthy``, its pod phase (``failed``,
        ``booting``, ...), or ``unconfigured`` for a running router that
        never received its configuration.
        """
        health: dict[str, str] = {}
        for name, pod in self.pods.items():
            if pod.phase is not PodPhase.RUNNING:
                health[name] = pod.phase.value
            elif name not in self._configured:
                health[name] = "unconfigured"
            else:
                health[name] = "healthy"
        return health

    def restart_and_reconverge(
        self,
        name: str,
        *,
        quiet_period: float = 30.0,
        max_time: float = 86_400.0,
    ) -> float:
        """Restore a failed pod, then wait for the network to re-settle.

        The recovery half of the health-probe loop: returns the
        re-convergence duration, or raises :class:`ConvergenceTimeout`
        if the network never quiesces after the restart.
        """
        self.node_up(name)
        return self.wait_converged(
            quiet_period=quiet_period, max_time=max_time
        )
