"""Per-device gNMI Get service.

Supports the paths the model-free pipeline uses:

* ``/network-instances/network-instance[name=default]/afts`` — the AFT
  dump (the paper's extraction step);
* ``/interfaces`` and ``/interfaces/interface[name=X]`` — interface
  state;
* ``/system/state/hostname``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.gnmi.aft import (
    AftSnapshot,
    acls_from_dict,
    acls_to_dict,
    interfaces_from_dict,
    interfaces_to_dict,
    router_acls,
    router_interfaces,
)
from repro.gnmi.paths import GnmiPath, parse_path
from repro.obs import bus

if TYPE_CHECKING:
    from repro.vendors.base import RouterOS


class GnmiError(RuntimeError):
    """Raised for unsupported paths or unavailable targets."""


class GnmiUnavailableError(GnmiError):
    """A transient target failure: booting, crashed pod, or an injected
    RPC flake. Retryable — the hardened extraction path backs off and
    tries again instead of failing the whole pipeline."""


class ExtractionError(GnmiError):
    """Extraction exhausted its retry budget for one or more nodes.

    Raised by the strict :func:`dump_afts` wrapper; callers that can
    tolerate partial results use :func:`extract_afts` and consume the
    ``degraded`` manifest instead.
    """

    def __init__(self, degraded: dict[str, str]) -> None:
        self.degraded = dict(degraded)
        names = ", ".join(sorted(degraded))
        super().__init__(
            f"AFT extraction failed for {len(degraded)} node(s): {names}"
        )


def _env_int(name: str, default: int, minimum: int = 1) -> int:
    try:
        return max(minimum, int(os.environ.get(name, default)))
    except (TypeError, ValueError):
        return default


def _env_float(name: str, default: float, minimum: float = 0.0) -> float:
    try:
        return max(minimum, float(os.environ.get(name, default)))
    except (TypeError, ValueError):
        return default


class GnmiServer:
    """The management RPC endpoint of one emulated router."""

    def __init__(self, router: "RouterOS") -> None:
        self.router = router

    def capabilities(self) -> dict:
        """The gNMI Capabilities response: supported models + encodings."""
        return {
            "supported-models": [
                {
                    "name": "openconfig-network-instance",
                    "organization": "OpenConfig working group",
                    "version": "1.3.0",
                },
                {
                    "name": "openconfig-interfaces",
                    "organization": "OpenConfig working group",
                    "version": "3.0.0",
                },
                {
                    "name": "openconfig-aft",
                    "organization": "OpenConfig working group",
                    "version": "2.3.0",
                },
            ],
            "supported-encodings": ["JSON_IETF"],
            "gnmi-version": "0.10.0",
        }

    def get(self, path: Union[str, GnmiPath]) -> dict:
        """Serve a gNMI Get for ``path``.

        Each path reads only the state it reports: ``/interfaces`` and
        ``/acls`` never touch the FIB, and the afts path walks it at
        most once per FIB version (:meth:`AftSnapshot.from_router`).
        """
        path = self._admit(path)
        if path.starts_with("network-instances"):
            return self._get_afts(path)[0]
        if path.starts_with("interfaces"):
            return self._get_interfaces(path)
        if path.starts_with("system"):
            return {"system": {"state": {"hostname": self.router.name}}}
        if path.starts_with("acls"):
            return {"acls": acls_to_dict(router_acls(self.router))}
        raise GnmiError(f"unsupported path: {path}")

    def _admit(self, path: Union[str, GnmiPath]) -> GnmiPath:
        """What every Get does first: target up, no injected RPC flake."""
        if self.router.state.value != "running":
            raise GnmiUnavailableError(
                f"{self.router.name}: target unavailable (booting)"
            )
        injector = getattr(self.router, "fault_injector", None)
        if injector is not None:
            # May raise GnmiUnavailableError (an injected RPC flake).
            injector.before_gnmi_get(self.router.name, str(path))
        return parse_path(path) if isinstance(path, str) else path

    def subscribe(self, path: Union[str, GnmiPath], callback) -> "Subscription":
        """gNMI Subscribe, ON_CHANGE mode: ``callback(update_dict)``
        fires whenever the device FIB changes. This is how a streaming
        pipeline watches for dataplane stabilization without polling."""
        if isinstance(path, str):
            path = parse_path(path)
        return Subscription(self, path, callback)

    def _get_afts(self, path: GnmiPath) -> tuple[dict, Optional[AftSnapshot]]:
        """The afts response, and the snapshot it encodes.

        The snapshot is None when a fault served something else (a
        stale or truncated dump): only an untouched response may stand
        in for its source in :func:`_extract_one`.
        """
        if len(path) >= 2:
            instance = path.elements[1]
            if instance.keys and instance.key("name") != "default":
                raise GnmiError(f"unknown network instance in {path}")
        snapshot = AftSnapshot.from_router(
            self.router, now=self.router.kernel.now
        )
        response = served = {
            "network-instances": snapshot.network_instances_to_dict(),
            "meta": snapshot.meta_to_dict(),
        }
        injector = getattr(self.router, "fault_injector", None)
        if injector is not None:
            # Stale or truncated AFT responses, keyed off the FIB
            # version counter carried in ``meta`` so the extraction
            # staleness re-check can catch them.
            served = injector.transform_aft(self.router.name, response)
        if served is response:
            return response, snapshot
        return {
            "network-instances": served["network-instances"],
            "meta": served["meta"],
        }, None

    def _get_interfaces(self, path: GnmiPath) -> dict:
        interfaces = interfaces_to_dict(router_interfaces(self.router))
        if len(path) >= 2 and path.elements[1].keys:
            wanted = path.elements[1].key("name")
            interfaces["interface"] = [
                i for i in interfaces["interface"] if i["name"] == wanted
            ]
            if not interfaces["interface"]:
                raise GnmiError(f"no such interface: {wanted}")
        return {"interfaces": interfaces}


class Subscription:
    """A gNMI Subscribe (ON_CHANGE) handle."""

    def __init__(self, server: "GnmiServer", path, callback) -> None:
        self._server = server
        self._path = path
        self._callback = callback
        self._active = True
        server.router.on_fib_change(self._on_change)
        self.updates_delivered = 0

    def _on_change(self, version: int) -> None:
        if not self._active:
            return
        self.updates_delivered += 1
        self._callback(
            {
                "timestamp": self._server.router.kernel.now,
                "path": str(self._path),
                "sync-version": version,
                "update": self._server.get(self._path),
            }
        )

    def cancel(self) -> None:
        self._active = False
        self._server.router.remove_fib_change(self._on_change)


@dataclass
class ExtractionReport:
    """The outcome of a hardened AFT extraction pass.

    ``afts`` holds every node that extracted cleanly; ``degraded`` maps
    each node that exhausted its retry budget to a reason string, and
    ``degraded_addresses`` carries those nodes' configured interface
    addresses (config-derived, so safe to report even when the frozen
    FIB is not) for the verification layer's ``UNKNOWN_DEGRADED``
    marking. ``retries`` counts per-node retry attempts.
    """

    afts: dict[str, AftSnapshot] = field(default_factory=dict)
    degraded: dict[str, str] = field(default_factory=dict)
    degraded_addresses: dict[str, list[str]] = field(default_factory=dict)
    retries: dict[str, int] = field(default_factory=dict)

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def is_partial(self) -> bool:
        return bool(self.degraded)


def _configured_addresses(router) -> list[str]:
    """The router's configured interface addresses (incl. loopbacks).

    Addresses come from config, not the FIB, so they are trustworthy
    even for a node whose forwarding state could not be extracted —
    exactly what the degraded-node manifest needs.
    """
    return [
        interface.ipv4_address
        for interface in router_interfaces(router)
        if interface.ipv4_address is not None
    ]


_AFTS_PATH = "/network-instances/network-instance[name=default]/afts"


def _extract_one(router) -> AftSnapshot:
    """One device's three Gets, decoded into a snapshot.

    A new FIB version always takes the whole wire round trip. When the
    decoded form equals the router's memoised snapshot — every clean
    response does — that object is handed out instead, and for as long
    as later responses still encode it unchanged they are not decoded
    again. Callers therefore get one snapshot object per FIB version,
    and one dataplane device built from it.
    """
    server = GnmiServer(router)
    data, source = server._get_afts(server._admit(_AFTS_PATH))
    interfaces = server.get("/interfaces")["interfaces"]
    acls = server.get("/acls")["acls"]
    memo = router.aft_memo
    if (
        source is not None
        and memo.round_tripped
        and source.interfaces == interfaces_from_dict(interfaces)
        and source.acls == acls_from_dict(acls)
    ):
        return source
    snapshot = AftSnapshot.from_dict(
        {**data, "interfaces": interfaces, "acls": acls}
    )
    if snapshot == source:
        memo.round_tripped = True
        return source
    return snapshot


def extract_afts(
    deployment,
    nodes: Optional[Iterable[str]] = None,
    *,
    max_attempts: Optional[int] = None,
    backoff_base: Optional[float] = None,
    backoff_cap: Optional[float] = None,
) -> ExtractionReport:
    """gNMI-extract AFT snapshots with retry, backoff, and degradation.

    This is the upper-to-lower-stage hand-off of the paper's Fig. 1: the
    output is pure data, decoupled from the running emulation. Unlike
    the strict :func:`dump_afts`, this survives a faulty substrate:

    * a transient :class:`GnmiUnavailableError` (booting router, crashed
      pod, injected RPC flake) is retried up to ``max_attempts`` times
      with capped exponential backoff in *simulated* time — backing off
      runs the kernel forward, so a scheduled pod restart can heal the
      target between attempts;
    * every successful dump is re-checked for staleness: a snapshot
      whose ``fib_version`` no longer matches the live FIB (a dump that
      raced a convergence event, or an injected stale/truncated
      response) is discarded and retried;
    * a node still failing after the budget lands in the ``degraded``
      manifest with a reason, never silently in the result.

    Budgets default from ``MFV_CHAOS_RETRIES`` / ``MFV_CHAOS_BACKOFF`` /
    ``MFV_CHAOS_BACKOFF_CAP``. ``nodes`` restricts extraction to a
    subset of devices; unknown names raise ``KeyError`` rather than
    silently narrowing the snapshot.
    """
    if max_attempts is None:
        max_attempts = _env_int("MFV_CHAOS_RETRIES", 4)
    if backoff_base is None:
        backoff_base = _env_float("MFV_CHAOS_BACKOFF", 0.5)
    if backoff_cap is None:
        backoff_cap = _env_float("MFV_CHAOS_BACKOFF_CAP", 8.0)
    if nodes is not None:
        wanted = set(nodes)
        unknown = wanted - set(deployment.routers)
        if unknown:
            raise KeyError(
                "unknown node(s) in extraction request: "
                + ", ".join(sorted(unknown))
            )
        names = [n for n in deployment.routers if n in wanted]
    else:
        names = list(deployment.routers)

    report = ExtractionReport()
    collector = bus.ACTIVE
    kernel = deployment.kernel
    for name in names:
        router = deployment.routers[name]
        last_reason = ""
        for attempt in range(max_attempts):
            if attempt:
                report.retries[name] = report.retries.get(name, 0) + 1
                if collector.enabled:
                    collector.count("gnmi.retry")
                    collector.emit(
                        "gnmi.retry",
                        kernel.now,
                        node=name,
                        attempt=attempt,
                        reason=last_reason,
                    )
                # Capped exponential backoff in simulated time; running
                # the kernel forward lets restart/fault-expiry events
                # fire, so a retry can actually observe a healed target.
                delay = min(backoff_cap, backoff_base * (2 ** (attempt - 1)))
                registry = bus.metrics_registry()
                if registry.enabled:
                    registry.counter(
                        "gnmi.retries",
                        "Extraction retries by failure reason class",
                        ("reason",),
                    ).inc(reason=_reason_class(last_reason))
                    registry.histogram(
                        "gnmi.retry_backoff_sim_seconds",
                        "Simulated seconds slept before an extraction retry",
                        unit="sim",
                    ).observe(delay)
                kernel.run(until=kernel.now + delay)
            failed_nodes = getattr(deployment, "failed_nodes", None)
            if failed_nodes is not None and name in failed_nodes():
                last_reason = "pod-failed"
                continue
            started = time.perf_counter() if collector.enabled else 0.0
            try:
                snapshot = _extract_one(router)
            except GnmiUnavailableError as exc:
                last_reason = f"unavailable: {exc}"
                continue
            live_version = getattr(router.rib.fib, "version", None)
            if live_version is not None and snapshot.fib_version != live_version:
                last_reason = (
                    f"stale dump: fib_version={snapshot.fib_version} "
                    f"behind live version={live_version}"
                )
                continue
            report.afts[name] = snapshot
            if collector.enabled:
                collector.emit(
                    "gnmi.aft.dump",
                    kernel.now,
                    node=name,
                    entries=len(snapshot),
                    wall_ms=(time.perf_counter() - started) * 1e3,
                )
            break
        else:
            report.degraded[name] = last_reason or "retry budget exhausted"
            report.degraded_addresses[name] = _configured_addresses(router)
    return report


def _reason_class(reason: str) -> str:
    """Collapse a free-text retry reason onto a bounded label set.

    Labels feed metric series — an unbounded reason string (it embeds
    exception text and FIB versions) would explode cardinality.
    """
    if reason.startswith("unavailable"):
        return "unavailable"
    if reason.startswith("stale dump"):
        return "stale"
    if reason == "pod-failed":
        return "pod-failed"
    return "other"


def dump_afts(
    deployment, nodes: Optional[Iterable[str]] = None
) -> dict[str, AftSnapshot]:
    """gNMI-extract AFT snapshots from every device in a deployment.

    The strict wrapper over :func:`extract_afts`: any node that cannot
    be extracted within the retry budget raises :class:`ExtractionError`
    naming the degraded nodes — callers that want partial results use
    :func:`extract_afts` directly.

    ``nodes`` restricts extraction to a subset of devices. What-if
    campaigns use it to skip killed pods: a failed node's router object
    still answers gNMI with its frozen pre-failure FIB, which must not
    masquerade as live forwarding state. Unknown names raise
    ``KeyError``; an empty set extracts nothing.
    """
    report = extract_afts(deployment, nodes)
    if report.degraded:
        raise ExtractionError(report.degraded)
    return report.afts
