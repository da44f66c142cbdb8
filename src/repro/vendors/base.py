"""Base router OS: lifecycle, interface runtime, protocol stack wiring.

A :class:`RouterOS` is the emulated equivalent of a vendor container
image: it boots, accepts its native configuration text, runs the
protocol engines, and exposes the production interfaces the paper leans
on — a vendor CLI over :class:`SshSession` and gNMI AFT export (see
:mod:`repro.gnmi`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.device.model import DeviceConfig
from repro.net.addr import Prefix
from repro.obs import bus
from repro.protocols.bgp import BgpInstance
from repro.protocols.host import Port
from repro.protocols.isis import IsisInstance
from repro.protocols.rsvp import RsvpInstance
from repro.protocols.timers import TimerProfile, PRODUCTION_TIMERS
from repro.protocols.transport import ControlTransport
from repro.rib.rib import Rib
from repro.rib.route import NextHop, Protocol, Route
from repro.sim.kernel import SimKernel
from repro.vendors.quirks import VendorQuirks, quirks_for


class VendorError(RuntimeError):
    """Raised for invalid vendor-level operations."""


class DeviceState(enum.Enum):
    """Pod-visible lifecycle of the router OS."""
    POWERED_OFF = "powered-off"
    BOOTING = "booting"
    RUNNING = "running"


@dataclass
class ConfigDiagnostic:
    """A configuration line the OS rejected (operator typo etc.)."""

    line_number: int
    line: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line_number}: {self.message}: {self.line.strip()!r}"


class RouterOS:
    """Common behaviour for all vendor OS emulations."""

    vendor: str = "generic"

    def __init__(
        self,
        name: str,
        kernel: SimKernel,
        transport: ControlTransport,
        *,
        os_version: str = "",
        timers: TimerProfile = PRODUCTION_TIMERS,
        quirks: Optional[VendorQuirks] = None,
    ) -> None:
        self.name = name
        self.kernel = kernel
        self.transport = transport
        self.os_version = os_version
        self.timers = timers
        self.quirks = quirks or quirks_for(self.vendor, os_version)
        self.state = DeviceState.POWERED_OFF
        self.ports: dict[str, Port] = {}
        # Configured address -> ports carrying it; see owns_address.
        self._ports_by_address: dict[int, list[Port]] = {}
        self.rib = Rib(clock=lambda: kernel.now)
        self.config: DeviceConfig = DeviceConfig(hostname=name)
        self.config_text = ""
        self.diagnostics: list[ConfigDiagnostic] = []
        self.isis: Optional[IsisInstance] = None
        self.bgp: Optional[BgpInstance] = None
        self.rsvp: Optional[RsvpInstance] = None
        self._last_igp_version = 0
        self._last_fib_version = 0
        self._boot_listeners: list[Callable[[], None]] = []
        self._fib_listeners: list[Callable[[int], None]] = []
        # The last AFT snapshot walked from this router's FIB; owned by
        # ``repro.gnmi.aft`` (see ``AftMemo``).
        self.aft_memo = None

    # -- subclass interface ---------------------------------------------------

    def parse_config(
        self, text: str
    ) -> tuple[DeviceConfig, list[ConfigDiagnostic]]:
        """Translate native configuration text into the device model."""
        raise NotImplementedError

    def cli(self, command: str) -> str:
        """Execute a vendor CLI command and return its output."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------------

    def power_on(self, boot_time: float) -> None:
        """Begin booting; ``on_boot`` listeners fire when the OS is up."""
        if self.state is not DeviceState.POWERED_OFF:
            raise VendorError(f"{self.name} is already powered on")
        self.state = DeviceState.BOOTING
        self.kernel.schedule(boot_time, self._finish_boot, label=f"boot:{self.name}")

    def on_boot(self, listener: Callable[[], None]) -> None:
        if self.state is DeviceState.RUNNING:
            listener()
        else:
            self._boot_listeners.append(listener)

    def _finish_boot(self) -> None:
        self.state = DeviceState.RUNNING
        for listener in self._boot_listeners:
            listener()
        self._boot_listeners.clear()

    def apply_config(self, text: str) -> list[ConfigDiagnostic]:
        """Load a full configuration, replacing any previous one.

        Returns diagnostics for rejected lines (the emulated OS, like a
        real one, skips invalid lines and keeps going).
        """
        if self.state is not DeviceState.RUNNING:
            raise VendorError(f"{self.name} is not running")
        self.config_text = text
        self.config, self.diagnostics = self.parse_config(text)
        self.config.hostname = self.config.hostname or self.name
        self._instantiate_ports()
        self._install_kernel_routes()
        self._start_protocols()
        self.after_protocol_event()
        return self.diagnostics

    def _instantiate_ports(self) -> None:
        for iface in self.config.interfaces.values():
            existing = self.ports.get(iface.name)
            if existing is None:
                port = Port(iface)
                self.ports[iface.name] = port
            else:
                existing.config = iface
        self._index_port_addresses()

    def _index_port_addresses(self) -> None:
        """Rebuild the address index; call after ports or their configs
        are (re)instantiated. Link state is not part of it."""
        index: dict[int, list[Port]] = {}
        for port in self.ports.values():
            if port.address is not None:
                index.setdefault(port.address, []).append(port)
        self._ports_by_address = index

    def _install_kernel_routes(self) -> None:
        for port in self.ports.values():
            self._sync_port_routes(port)
            port.on_link_change(self._on_port_link_change)
        for static in self.config.static_routes:
            next_hops: tuple[NextHop, ...]
            if static.discard:
                next_hops = ()
            elif static.interface is not None:
                next_hops = (NextHop(ip=static.next_hop, interface=static.interface),)
            else:
                assert static.next_hop is not None
                next_hops = (NextHop(ip=static.next_hop),)
            self.rib.install(
                Route(
                    prefix=static.prefix,
                    protocol=Protocol.STATIC,
                    next_hops=next_hops,
                    distance=static.distance,
                )
            )

    def _sync_port_routes(self, port: Port) -> None:
        """Install or remove connected/local routes for one port."""
        prefix = port.config.connected_prefix()
        address = port.config.address
        if port.is_up and prefix is not None:
            self.rib.install(
                Route(
                    prefix=prefix,
                    protocol=Protocol.CONNECTED,
                    next_hops=(NextHop(interface=port.name),),
                )
            )
            assert address is not None
            self.rib.install(
                Route(
                    prefix=Prefix.containing(address, 32),
                    protocol=Protocol.LOCAL,
                    next_hops=(NextHop(interface=port.name),),
                )
            )
        elif prefix is not None:
            self.rib.withdraw(Protocol.CONNECTED, prefix)
            if address is not None:
                self.rib.withdraw(Protocol.LOCAL, Prefix.containing(address, 32))

    def _on_port_link_change(self, port: Port, up: bool) -> None:
        del up
        self._sync_port_routes(port)
        self.after_protocol_event()

    def _start_protocols(self) -> None:
        if self.config.isis is not None:
            self.isis = IsisInstance(self, self.config, self.timers)
            self.isis.start()
        if self.config.bgp is not None:
            self.bgp = BgpInstance(
                self,
                self.config,
                self.timers,
                self.transport,
                prefer_higher_igp_metric=self.quirks.ibgp_prefer_higher_igp_metric,
                crash_on_many_communities=self.quirks.crash_on_community_count,
            )
            self.bgp.start()
        if self.config.mpls.enabled and (
            self.config.mpls.tunnels or self.config.mpls.traffic_eng
        ):
            self.rsvp = RsvpInstance(
                self,
                self.config,
                refresh_interval=self.quirks.rsvp_refresh_interval,
                cleanup_multiplier=self.quirks.rsvp_cleanup_multiplier,
                suppress_path_err=self.quirks.rsvp_suppress_path_err,
            )
            self.rsvp.start()

    # -- RouterHost surface (used by protocol engines) -----------------------------

    def routed_ports(self) -> list[Port]:
        return [p for p in self.ports.values() if p.is_up and p.address is not None]

    def on_fib_change(self, listener: Callable[[int], None]) -> None:
        """Register for FIB-version change notifications (telemetry)."""
        self._fib_listeners.append(listener)

    def remove_fib_change(self, listener: Callable[[int], None]) -> None:
        """Unregister a listener added with :meth:`on_fib_change`.

        Unknown listeners are ignored so tear-down paths (temporal
        recorder finalize, test cleanup) can call this unconditionally.
        """
        try:
            self._fib_listeners.remove(listener)
        except ValueError:
            pass

    def after_protocol_event(self) -> None:
        """Commit RIB changes; kick BGP next-hop tracking on IGP change."""
        self.rib.commit()
        igp_version = self.rib.igp_version
        if igp_version != self._last_igp_version:
            self._last_igp_version = igp_version
            if self.bgp is not None:
                self.bgp.on_igp_change()
        fib_version = self.rib.fib.version
        if fib_version != self._last_fib_version:
            collector = bus.ACTIVE
            if collector.enabled:
                collector.emit(
                    "route.install",
                    self.kernel.now,
                    node=self.name,
                    version=fib_version,
                    routes=len(self.rib.fib),
                )
            if self._fib_listeners:
                self._last_fib_version = fib_version
                for listener in list(self._fib_listeners):
                    listener(fib_version)
                return
        self._last_fib_version = fib_version

    # -- wiring (KNE plugs virtual wires in here) ------------------------------------

    def port(self, name: str) -> Port:
        port = self.ports.get(name)
        if port is None:
            port = Port(self.config.interface(name))
            self.ports[name] = port
            self._index_port_addresses()
        return port

    def local_addresses(self) -> list[int]:
        return [p.address for p in self.ports.values() if p.address is not None]

    def owns_address(self, address: int) -> bool:
        return any(p.is_up for p in self._ports_by_address.get(address, ()))

    def connected_port_for(self, address: int) -> Optional[Port]:
        """The up port whose subnet contains ``address``."""
        for port in self.ports.values():
            prefix = port.connected_prefix()
            if port.is_up and prefix is not None and prefix.contains(address):
                return port
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.state.value})"


class SshSession:
    """The operator-facing handle: ``deployment.ssh("r1").execute(...)``."""

    def __init__(self, router: RouterOS) -> None:
        self._router = router

    @property
    def hostname(self) -> str:
        return self._router.name

    def execute(self, command: str) -> str:
        if self._router.state is not DeviceState.RUNNING:
            raise VendorError(f"{self._router.name}: connection refused (booting)")
        return self._router.cli(command.strip())
