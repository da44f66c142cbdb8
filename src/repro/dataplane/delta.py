"""Structural diff between two dataplane snapshots.

A churning deployment — one what-if scenario, one chaos recovery, one
re-extraction — typically changes a handful of FIB entries on a handful
of devices while everything else is byte-identical. This module captures
exactly that structure: :class:`DataplaneDelta` diffs two
:class:`~repro.dataplane.model.Dataplane` objects device by device,
skipping unchanged devices in O(1) via their cached content signatures,
and reports the added/removed/changed FIB entries (keyed by prefix) plus
every destination-space boundary the change moves. The verification
engine consumes this to derive a new engine incrementally
(:meth:`~repro.verify.engine.AtomGraphEngine.apply_delta`) instead of
rebuilding from scratch.

The delta is deliberately conservative about what it claims to cover:

* a device-set change (node added/removed, including single-node
  failures, which drop the node from extraction) is reported but not
  diffed — the consumer must fall back to a full build;
* an ACL change (rules or bindings) is likewise fallback-only: ACLs
  move engine *taint* boundaries, which a per-atom patch cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dataplane.model import Dataplane, DeviceForwarding
from repro.net.addr import Prefix


@dataclass(frozen=True)
class DeviceDelta:
    """One touched device's FIB difference, keyed by prefix.

    ``changed`` holds prefixes present on both sides whose entry content
    (type or resolved hops) differs. ``links_changed`` flags interface
    addressing or subnet-adjacency differences — for those, entry
    equality no longer implies behaviour equality, so the engine must
    compare resolved decision structs instead of raw entries.
    """

    device: str
    added: tuple[Prefix, ...]
    removed: tuple[Prefix, ...]
    changed: tuple[Prefix, ...]
    links_changed: bool
    #: The interfaces whose addressing or subnet adjacency actually
    #: moved (empty unless ``links_changed``). A hop through any *other*
    #: interface still resolves identically on both sides, which lets
    #: the engine skip most struct comparisons on link-touched devices.
    changed_interfaces: tuple[str, ...] = ()

    @property
    def fib_prefixes(self) -> tuple[Prefix, ...]:
        return self.added + self.removed + self.changed

    def __str__(self) -> str:
        bits = [
            f"+{len(self.added)}",
            f"-{len(self.removed)}",
            f"~{len(self.changed)}",
        ]
        if self.links_changed:
            bits.append("links")
        return f"{self.device}({','.join(bits)})"


def _prefix_key(prefix: Prefix) -> tuple[int, int]:
    return (prefix.network, prefix.length)


def _per_device_adjacency(
    dataplane: Dataplane,
) -> dict[str, dict[str, tuple]]:
    """Each device's view of its subnet neighbors, comparable across
    dataplanes (plain sorted tuples, no object identity)."""
    views: dict[str, dict[str, tuple]] = {}
    for (device, iface), neighbors in dataplane.adjacency.items():
        views.setdefault(device, {})[iface] = tuple(sorted(neighbors))
    return views


def _changed_interfaces(
    base: DeviceForwarding,
    target: DeviceForwarding,
    base_view: dict[str, tuple],
    target_view: dict[str, tuple],
) -> tuple[str, ...]:
    names = (
        set(base_view)
        | set(target_view)
        | set(base.interface_addresses)
        | set(target.interface_addresses)
    )
    return tuple(
        sorted(
            iface
            for iface in names
            if base_view.get(iface) != target_view.get(iface)
            or base.interface_addresses.get(iface)
            != target.interface_addresses.get(iface)
        )
    )


def _diff_device(
    base: DeviceForwarding,
    target: DeviceForwarding,
    changed_interfaces: tuple[str, ...],
) -> DeviceDelta:
    # Two-pointer merge over both FIBs in prefix order: one linear pass,
    # no intermediate dicts or set algebra — this runs on every touched
    # device of every delta, against full-table FIBs. Each device's
    # table caches its sorted view, so a FIB is sorted once ever.
    base_items = base.sorted_entries()
    target_items = target.sorted_entries()
    added: list[Prefix] = []
    removed: list[Prefix] = []
    changed: list[Prefix] = []
    i = j = 0
    while i < len(base_items) and j < len(target_items):
        base_prefix, base_entry = base_items[i]
        target_prefix, target_entry = target_items[j]
        base_key = _prefix_key(base_prefix)
        target_key = _prefix_key(target_prefix)
        if base_key == target_key:
            if base_entry != target_entry:
                changed.append(base_prefix)
            i += 1
            j += 1
        elif base_key < target_key:
            removed.append(base_prefix)
            i += 1
        else:
            added.append(target_prefix)
            j += 1
    removed.extend(prefix for prefix, _ in base_items[i:])
    added.extend(prefix for prefix, _ in target_items[j:])
    return DeviceDelta(
        device=base.name,
        added=tuple(added),
        removed=tuple(removed),
        changed=tuple(changed),
        links_changed=bool(changed_interfaces),
        changed_interfaces=changed_interfaces,
    )


class DataplaneDelta:
    """What changed between ``base`` and ``target``, device by device.

    Devices whose cached :meth:`~DeviceForwarding.content_signature`
    and adjacency view both match are skipped in O(1) — the common case
    after a localized perturbation, where the IGP only reprograms the
    devices near the change. The adjacency comparison matters because a
    device's *own* content can be untouched while a neighbor's interface
    vanished from its subnet, changing how its next hops resolve.
    """

    def __init__(self, base: Dataplane, target: Dataplane) -> None:
        self.base = base
        self.target = target
        base_names = set(base.devices)
        target_names = set(target.devices)
        self.added_devices: tuple[str, ...] = tuple(
            sorted(target_names - base_names)
        )
        self.removed_devices: tuple[str, ...] = tuple(
            sorted(base_names - target_names)
        )
        #: Degraded-ownership flips (either direction): each becomes a
        #: /32 boundary and an unconditionally dirty atom, because the
        #: UNKNOWN_DEGRADED verdict bypasses decision structs entirely.
        self.degraded_changed_addresses: tuple[int, ...] = tuple(
            sorted(set(base.degraded_owned) ^ set(target.degraded_owned))
        )
        self.acl_changed = False
        self.device_deltas: dict[str, DeviceDelta] = {}
        if self.added_devices or self.removed_devices:
            # Device-set changes invalidate the shared node universe the
            # engine's graphs are built over; don't bother diffing FIBs.
            return
        base_adjacency = _per_device_adjacency(base)
        target_adjacency = _per_device_adjacency(target)
        for name in sorted(base_names):
            base_device = base.devices[name]
            target_device = target.devices[name]
            base_view = base_adjacency.get(name, {})
            target_view = target_adjacency.get(name, {})
            changed_interfaces: tuple[str, ...] = ()
            if base_view != target_view or (
                base_device.interface_addresses
                != target_device.interface_addresses
            ):
                changed_interfaces = _changed_interfaces(
                    base_device, target_device, base_view, target_view
                )
            if (
                not changed_interfaces
                and base_device.content_signature()
                == target_device.content_signature()
            ):
                continue
            if base_device.acl_signature() != target_device.acl_signature():
                self.acl_changed = True
            self.device_deltas[name] = _diff_device(
                base_device, target_device, changed_interfaces
            )

    @classmethod
    def compose(
        cls, first: "DataplaneDelta", second: "DataplaneDelta"
    ) -> "DataplaneDelta":
        """Fuse A→B and B→C into a single A→C delta.

        The composed delta only examines devices touched by either hop —
        a device untouched in both is identical in A and C, so the full
        O(devices) signature scan of ``__init__`` is skipped. Touched
        devices are re-diffed directly A-vs-C (never by merging prefix
        lists), so a change the second hop reverts nets out to nothing:
        composition is exact, not an over-approximation. The checkpoint
        recorder uses this to merge adjacent checkpoints when a
        convergence storm exceeds ``MFV_TEMPORAL_MAX_CHECKPOINTS``.

        The two deltas must chain: ``second.base`` is (or forwards
        identically to) ``first.target``. Device-set churn in either hop
        breaks the per-device pairing, so that case falls back to a
        plain re-diff of the endpoints, which is always correct.
        """
        if second.base is not first.target and (
            second.base.fib_fingerprint() != first.target.fib_fingerprint()
        ):
            raise ValueError(
                "compose: deltas do not chain (first.target != second.base)"
            )
        base, target = first.base, second.target
        if (
            first.added_devices
            or first.removed_devices
            or second.added_devices
            or second.removed_devices
        ):
            return cls(base, target)
        composed = cls.__new__(cls)
        composed.base = base
        composed.target = target
        composed.added_devices = ()
        composed.removed_devices = ()
        composed.degraded_changed_addresses = tuple(
            sorted(set(base.degraded_owned) ^ set(target.degraded_owned))
        )
        composed.acl_changed = False
        composed.device_deltas = {}
        candidates = set(first.device_deltas) | set(second.device_deltas)
        base_adjacency = _per_device_adjacency(base)
        target_adjacency = _per_device_adjacency(target)
        for name in sorted(candidates):
            base_device = base.devices[name]
            target_device = target.devices[name]
            base_view = base_adjacency.get(name, {})
            target_view = target_adjacency.get(name, {})
            changed_interfaces: tuple[str, ...] = ()
            if base_view != target_view or (
                base_device.interface_addresses
                != target_device.interface_addresses
            ):
                changed_interfaces = _changed_interfaces(
                    base_device, target_device, base_view, target_view
                )
            if (
                not changed_interfaces
                and base_device.content_signature()
                == target_device.content_signature()
            ):
                continue
            if base_device.acl_signature() != target_device.acl_signature():
                composed.acl_changed = True
            composed.device_deltas[name] = _diff_device(
                base_device, target_device, changed_interfaces
            )
        return composed

    # -- queries -------------------------------------------------------------

    @property
    def touched_devices(self) -> tuple[str, ...]:
        return tuple(self.device_deltas)

    @property
    def is_empty(self) -> bool:
        return not (
            self.device_deltas
            or self.added_devices
            or self.removed_devices
            or self.degraded_changed_addresses
        )

    def fallback_reason(self) -> Optional[str]:
        """Why this delta cannot be applied incrementally (None = it can).

        Threshold-based reasons (dirty-atom fraction, touched-device
        fraction) are the consumer's call; only structural
        disqualifiers live here.
        """
        if self.added_devices or self.removed_devices:
            return "device-set"
        if self.acl_changed:
            return "acl-change"
        return None

    def boundary_prefixes(self) -> set[Prefix]:
        """Every prefix whose boundaries the change may move.

        Refining the base engine's atom partition at these boundaries
        guarantees each derived atom has one constant decision vector in
        *both* snapshots — including boundaries of *removed* prefixes,
        which are harmless over-refinement (any refinement of a valid
        partition stays valid).
        """
        out: set[Prefix] = set()
        for device_delta in self.device_deltas.values():
            out.update(device_delta.fib_prefixes)
            if device_delta.links_changed:
                changed = set(device_delta.changed_interfaces)
                for dataplane in (self.base, self.target):
                    device = dataplane.devices[device_delta.device]
                    for iface, (
                        address,
                        length,
                    ) in device.interface_addresses.items():
                        if iface not in changed:
                            continue
                        out.add(Prefix.containing(address, 32))
                        out.add(Prefix.containing(address, length))
        for address in self.degraded_changed_addresses:
            out.add(Prefix.containing(address, 32))
        return out

    def summary(self) -> str:
        if self.is_empty:
            return "delta: empty"
        if self.added_devices or self.removed_devices:
            return (
                f"delta: device set changed "
                f"(+{len(self.added_devices)}/-{len(self.removed_devices)})"
            )
        pieces = [str(d) for d in self.device_deltas.values()]
        return (
            f"delta: {len(self.device_deltas)}/{len(self.base.devices)} "
            f"devices touched [{' '.join(pieces)}]"
        )

    def __repr__(self) -> str:
        return f"DataplaneDelta({self.summary()!r})"
