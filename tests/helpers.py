"""Test harness utilities: a minimal emulated network without KNE.

``mini_net`` wires routers directly (no pod scheduling, no boot-time
model) so protocol unit tests converge in milliseconds of simulated
time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kube.fabric import Fabric
from repro.kube.kne import ConvergenceDetector
from repro.protocols.timers import FAST_TIMERS, TimerProfile
from repro.sim.channel import Channel
from repro.sim.kernel import SimKernel
from repro.vendors.base import RouterOS
from repro.vendors.registry import create_router


@dataclass
class MiniNet:
    kernel: SimKernel
    fabric: Fabric
    routers: dict[str, RouterOS]
    channels: dict[tuple[str, str], Channel]

    def converge(self, quiet: float = 2.0, max_time: float = 3600.0) -> float:
        detector = ConvergenceDetector(
            list(self.routers.values()), fabric=self.fabric
        )
        return self.kernel.run_until_quiet(
            quiet, poll=detector.poll, max_time=max_time
        )

    def _set_link(self, a: str, a_port: str, z: str, z_port: str, up: bool) -> None:
        for node, port in ((a, a_port), (z, z_port)):
            channel = self.channels.get((node, port))
            if channel is not None:
                channel.set_up() if up else channel.set_down()
            self.routers[node].ports[port].set_link_state(up)

    def link_down(self, a: str, a_port: str, z: str, z_port: str) -> None:
        self._set_link(a, a_port, z, z_port, up=False)

    def link_up(self, a: str, a_port: str, z: str, z_port: str) -> None:
        self._set_link(a, a_port, z, z_port, up=True)

    def router(self, name: str) -> RouterOS:
        return self.routers[name]


def mini_net(
    configs: dict[str, str],
    links: list[tuple[str, str, str, str]],
    *,
    vendors: dict[str, str] | None = None,
    os_versions: dict[str, str] | None = None,
    timers: TimerProfile = FAST_TIMERS,
    seed: int = 0,
) -> MiniNet:
    """Build a running network: configs keyed by router name, links as
    (a, a_port, z, z_port) tuples. Routers boot instantly."""
    kernel = SimKernel(seed=seed)
    fabric = Fabric(kernel)
    vendors = vendors or {}
    os_versions = os_versions or {}
    routers: dict[str, RouterOS] = {}
    for name in configs:
        router = create_router(
            vendors.get(name, "arista"),
            name,
            kernel,
            fabric,
            os_version=os_versions.get(name, ""),
            timers=timers,
        )
        routers[name] = router
        fabric.add_router(router)
    channels: dict[tuple[str, str], Channel] = {}
    for a, a_port, z, z_port in links:
        pa = routers[a].port(a_port)
        pz = routers[z].port(z_port)
        to_z = Channel(kernel, pz.receive, name=f"{a}:{a_port}->{z}:{z_port}")
        to_a = Channel(kernel, pa.receive, name=f"{z}:{z_port}->{a}:{a_port}")
        pa.attach(to_z)
        pz.attach(to_a)
        channels[(a, a_port)] = to_z
        channels[(z, z_port)] = to_a
        fabric.add_wire(a, a_port, z, z_port)
    for name, router in routers.items():
        router.power_on(0.01)
        router.on_boot(lambda r=router, c=configs[name]: r.apply_config(c))
    return MiniNet(kernel=kernel, fabric=fabric, routers=routers,
                   channels=channels)


def isis_config(
    name: str,
    index: int,
    loopback: str,
    interfaces: list[tuple[str, str]],
) -> str:
    """A minimal EOS IS-IS config: interfaces as (name, addr/len)."""
    lines = [
        f"hostname {name}",
        "ip routing",
        "router isis default",
        f"   net 49.0001.0000.0000.{index:04d}.00",
        "   address-family ipv4 unicast",
        "interface Loopback0",
        f"   ip address {loopback}/32",
        "   isis enable default",
        "   isis passive",
    ]
    for iface, address in interfaces:
        lines += [
            f"interface {iface}",
            "   no switchport",
            f"   ip address {address}",
            "   isis enable default",
        ]
    return "\n".join(lines) + "\n"
