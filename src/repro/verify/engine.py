"""The atom-graph verification engine.

The scalar :class:`~repro.dataplane.forwarding.ForwardingWalk` answers
one (ingress, destination) pair per call, re-running an LPM lookup
(a hash probe per populated prefix length) at every hop —
O(ingresses × atoms × pathlen × lengths) for an exhaustive query. This engine exploits the defining property of a destination atom
(every device's LPM decision is constant inside it) to do the whole
job in one pass per atom:

1. each device's FIB is flattened once into a *compiled LPM index*
   (:meth:`~repro.dataplane.model.DeviceForwarding.compiled_index`) and
   every atom's decision on every device is resolved by a single linear
   sweep — no per-hop lookups at all;
2. the decisions form a *next-hop graph* over the topology whose nodes
   either terminate (accept / discard / no-route / leave the network)
   or point at successor devices;
3. one SCC condensation of that graph (iterative Tarjan) yields the
   disposition set of **every** ingress simultaneously: a node's
   dispositions are the union of its terminals and its successors'
   dispositions, plus ``LOOP`` when it can reach a cycle.

Total cost is O(atoms × (V + E)) — independent of the number of
ingresses queried — and atoms whose decision vectors coincide share one
graph evaluation outright (the Plankton-style equivalence-class trick).

Devices with ACLs make a node's behaviour depend on the arrival
interface and non-destination header fields, which a per-atom node
function cannot express; ingresses whose reachable subgraph touches an
ACL-bearing device are flagged ``tainted`` and transparently fall back
to the exact scalar walk. The walk also remains the reference oracle:
``tests/test_verify_engine.py`` asserts row-for-row equivalence on
every shipped corpus.

Engines are memoized per dataplane *content* — see :func:`engine_for` —
so differential queries, seed sweeps, and repeated pybf questions
stop rebuilding identical analyses.
"""

from __future__ import annotations

import threading
import time
import weakref
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.dataplane.forwarding import Disposition, ForwardingWalk, dst_atoms
from repro.dataplane.model import Dataplane
from repro.net.addr import MAX_IPV4, Prefix
from repro.net.intervals import IntervalSet, overlapping
from repro.obs import bus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.delta import DataplaneDelta


#: Ceiling on the fraction of atoms a delta's *structural* changes may
#: reach before a delta apply gives up (a float in (0, 1]). Group
#: rewrites never count: they patch per next-hop group. Structural atoms
#: cost a per-atom target-table probe each; on an 8-node, 642-atom
#: production fabric (2-core box) withdrawing prefixes made the patch as
#: dear as a cold build at about 0.6 of the atoms, and adding them never
#: did up to 0.84, so 0.5 keeps a margin below the crossover.
DELTA_THRESHOLD = 0.5

#: Buckets for the ``verify.dirty_atoms`` histogram: dirty-atom counts,
#: not seconds — single-link churn lands in the low buckets, and the
#: tail records deltas that approached the fallback threshold.
DIRTY_ATOM_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0,
)


def _gateway_devices(dataplane: Dataplane, addresses: set[int]) -> set[str]:
    """Devices with a next hop whose gateway is one of ``addresses``."""
    return {
        name
        for name, device in dataplane.devices.items()
        if any(
            hop.gateway in addresses
            for _prefix, entry in device.trie.items()
            for hop in entry.hops
        )
    }


def _prefix_indexes(prefixes, reps: list[int]) -> set[int]:
    """Indexes of the atoms a set of prefixes can govern.

    The lower bound deliberately includes the atom *containing* the
    prefix's first address even when the prefix starts mid-atom — a
    conservative over-approximation that keeps the result correct for
    prefixes that are not themselves partition boundaries.
    """
    out: set[int] = set()
    for prefix in prefixes:
        lo = max(0, bisect_right(reps, prefix.first) - 1)
        hi = bisect_right(reps, prefix.last)
        out.update(range(lo, hi))
    return out


#: Every reason a delta apply can give up for a cold build: the labels
#: of ``verify.delta_fallback_reasons`` and the ``--delta-stats``
#: fallback line.
FALLBACK_REASONS = ("device-set", "acl-change", "dirty-fraction", "base-mismatch")


class DeltaUnapplicable(Exception):
    """A delta is outside the incremental path's scope; build cold.

    ``reason`` is one of :data:`FALLBACK_REASONS`.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class DeltaStats:
    """How one engine came to exist relative to its lineage base.

    Attached to every engine that :func:`engine_for` considered for
    delta derivation: a successful apply records the patch size and
    reuse counts; a fallback records only the reason (the engine itself
    was built cold).
    """

    base_fingerprint: Optional[int] = None
    #: Atoms whose verdict table was re-derived (patched or rebuilt).
    dirty_atoms: int = 0
    #: Atoms a structural change reached (the ``DELTA_THRESHOLD`` gate).
    structural_atoms: int = 0
    #: Next-hop-group rewrites patched per group.
    rewrites: int = 0
    total_atoms: int = 0
    reused_tables: int = 0
    #: Untouched devices that adopted their base's compiled LPM index.
    reused_indexes: int = 0
    #: Devices whose entries changed. The delta path probes their
    #: target tables directly and builds no compiled index for them.
    touched_devices: tuple[str, ...] = ()
    fallback: Optional[str] = None
    apply_seconds: float = 0.0

    @property
    def dirty_fraction(self) -> float:
        return self.dirty_atoms / self.total_atoms if self.total_atoms else 0.0

#: Node structs of the terminal entry kinds (``None`` is no route; see
#: ``_resolve_node``): the same on every device and for every atom.
_TERMINAL = {
    None: ((), (Disposition.NO_ROUTE,), False),
    "receive": ((), (Disposition.ACCEPTED,), True),
    "discard": ((), (Disposition.NULL_ROUTED,), False),
}


@dataclass(frozen=True)
class AtomVerdict:
    """What happens to one atom's traffic entering at one device.

    ``dispositions`` is the union over every ECMP branch; ``accepts``
    the set of devices whose *receive* entry terminates some branch
    (what the all-pairs query needs); ``tainted`` marks verdicts whose
    reachable subgraph includes an ACL-bearing device — the graph
    abstraction cannot see ACL splits, so tainted queries must use the
    scalar walk.
    """

    dispositions: frozenset[Disposition]
    accepts: frozenset[str]
    tainted: bool

    @property
    def success(self) -> bool:
        return bool(self.dispositions) and all(
            d.is_success for d in self.dispositions
        )


class AtomGraphEngine:
    """One next-hop graph per destination atom, shared by every query.

    ``atoms`` defaults to the dataplane's own partition; :meth:`apply_delta`
    passes a refinement of it (any refinement keeps per-atom LPM
    decisions constant).
    """

    def __init__(
        self,
        dataplane: Dataplane,
        atoms: Optional[Sequence[IntervalSet]] = None,
        *,
        _observe: bool = True,
    ) -> None:
        self.dataplane = dataplane
        #: Lineage record set by :meth:`apply_delta` / :func:`engine_for`
        #: (None for engines built cold without a candidate base).
        self.delta_stats: Optional[DeltaStats] = None
        self.atoms: list[IntervalSet] = list(
            atoms if atoms is not None else dst_atoms(dataplane)
        )
        self.walker = ForwardingWalk(dataplane)
        self._reps = [atom.min() for atom in self.atoms]
        self._names = dataplane.node_names()
        self._acl_nodes = frozenset(
            name
            for name, device in dataplane.devices.items()
            if device.has_acls
        )
        # atom index -> {device -> AtomVerdict}
        self._tables: dict[int, dict[str, AtomVerdict]] = {}
        # decision-vector key -> shared verdict table
        self._shared: dict[tuple, dict[str, AtomVerdict]] = {}
        # (device, interface, gateway) -> resolved peer device (or None)
        self._hop_peers: dict[tuple[str, str, int], Optional[str]] = {}
        # device -> {next-hop group -> struct}, for the forward structs
        # that do not depend on the atom's representative address. A
        # forward struct depends only on the device, the entry's hops
        # and the adjacency, so every prefix sharing a group shares one
        # slot. Keyed by the hops tuple's *content*, not id(): id()
        # values are recycled after GC, which in a long-lived process
        # could silently alias two different groups. Nested per device
        # so apply_delta can adopt a device's sub-cache with one copy.
        self._node_cache: dict[str, dict] = {}
        # Per device, the FIB entry governing each atom: kept from the
        # one sweep _ensure_all makes (or patched by apply_delta).
        self._decisions: Optional[dict[str, list]] = None
        # Per atom, the decision vector its table is shared under,
        # recorded when the table is built (None until then, and for a
        # degraded atom, whose table is not shared).
        self._keys: list = [None] * len(self.atoms)
        self._complete = False
        # Delta-derived engines skip the build counters: they are not
        # cold builds, and report through verify.delta_applies instead.
        if _observe and bus.ACTIVE.enabled:
            bus.ACTIVE.count("verify.engine_builds")
            bus.ACTIVE.count("verify.atoms", len(self.atoms))

    # -- public queries -----------------------------------------------------

    def verdict(self, ingress: str, atom_index: int) -> AtomVerdict:
        """The engine's verdict for ``ingress`` over atom ``atom_index``.

        Tainted verdicts describe reachability of an ACL device, not
        final dispositions — call :meth:`dispositions` for transparent
        scalar fallback.
        """
        table = self._tables.get(atom_index)
        if table is None:
            table = self._build_atom(atom_index)
        return table[ingress]

    def dispositions(
        self, ingress: str, atom_index: int
    ) -> frozenset[Disposition]:
        """Exact disposition set (scalar-walk fallback when tainted)."""
        verdict = self.verdict(ingress, atom_index)
        if not verdict.tainted:
            return verdict.dispositions
        return self.walker.walk(ingress, self._reps[atom_index]).dispositions

    def atom_index_of(self, address: int) -> int:
        """Index of the atom containing ``address``.

        Atoms are contiguous ascending spans covering the whole space,
        so this is a binary search over their lower bounds.
        """
        return bisect_right(self._reps, address) - 1

    def overlapping(
        self, restriction: IntervalSet
    ) -> Iterator[tuple[int, IntervalSet]]:
        """``(atom index, atom & restriction)`` for just the atoms the
        restriction overlaps, ascending — see
        :func:`repro.net.intervals.overlapping`."""
        return overlapping(self.atoms, self._reps, restriction)

    def precompute(self) -> None:
        """Materialize every atom's verdict table."""
        self._ensure_all()

    # -- incremental maintenance --------------------------------------------

    def apply_delta(self, delta: "DataplaneDelta") -> "AtomGraphEngine":
        """Derive the engine for ``delta.target`` by patching this one.

        The correctness spine: any *refinement* of a valid atom
        partition stays valid (class docstring), so the derived engine
        partitions at this engine's boundaries plus every boundary the
        delta's structural changes move. Each derived atom lies inside
        exactly one base atom and inherits its *decision vector* — the
        per-device structs its verdict table is shared under — except
        on a device whose struct there changed:

        * a **group rewrite** keeps the atom's governing prefix (it is
          on both sides) and only swaps the entry's next-hop group, so
          the struct becomes the new group's, which the node memo
          resolves once per group against the target adjacency (per
          atom only where it depends on the representative address);
        * a **structural** change (added/removed prefix, entry-type
          change) can move the governing prefix itself, so those atoms
          re-probe the target table;
        * on a device whose interfaces moved, or whose next hop names a
          gateway whose degraded ownership flipped, an unchanged entry
          through the moved part resolves again;
        * a degraded-ownership flip rebuilds the atom outright, since
          UNKNOWN_DEGRADED bypasses decision structs.

        A patched vector is looked up in ``_shared`` — valid across the
        lineage because the node universe and ACL taint set are
        unchanged (checked below) — and only a vector never seen before
        runs graph assembly and SCC condensation. Untouched devices keep
        their resident compiled index, node-struct cache and hop-peer
        resolutions; touched devices never build one.

        Requires this engine's atoms to be a sorted full-cover partition
        that refines its own dataplane's (true for everything
        :func:`engine_for` builds). Raises :class:`DeltaUnapplicable` —
        device-set or ACL changes, or a structural-atom fraction above
        :data:`DELTA_THRESHOLD` — when a cold build is the correct (or
        cheaper) move; the caller falls back.
        """
        start = time.perf_counter()
        if delta.base is not self.dataplane:
            raise DeltaUnapplicable("base-mismatch")
        reason = delta.fallback_reason()
        if reason is not None:
            raise DeltaUnapplicable(reason)
        # Note: a high touched-*device* count is deliberately not a
        # fallback trigger. A single link cut touches every device (the
        # link's subnet route vanishes network-wide) and rewrites groups
        # on most of them, yet moves few LPM decisions; the structural
        # fraction is the only cost gate that matters.
        touched = list(delta.device_deltas)
        target = delta.target
        # Clean derived atoms adopt base tables and patched ones start
        # from the base decision vector, so every base table must exist;
        # the base is usually precomputed already (it served queries
        # before the churn arrived), and its sweep and vectors are kept.
        self._ensure_all()
        decisions = self._decisions
        keys = self._keys

        # (a) Refine the partition only where structural changes split
        # existing atoms; each derived atom starts from its base atom's
        # decisions and vector.
        reps, atoms, base_of = self._refined_partition(delta)
        if len(atoms) != len(self.atoms):
            decisions = {
                name: [column[b] for b in base_of]
                for name, column in decisions.items()
            }
            keys = [keys[b] for b in base_of]
        derived = AtomGraphEngine(target, atoms, _observe=False)

        # Devices where an unchanged entry can resolve differently: a
        # moved interface, or a next hop whose gateway's degraded
        # ownership flipped.
        flips = set(delta.degraded_changed_addresses)
        moved = {
            name: frozenset(device_delta.changed_interfaces)
            for name, device_delta in delta.device_deltas.items()
            if device_delta.links_changed
        }
        reresolve = set(moved)
        if flips:
            reresolve |= _gateway_devices(target, flips)

        # Resident-state reuse. Untouched devices share their compiled
        # LPM index outright. Node-struct and hop-peer caches survive
        # FIB-only churn too — structs are keyed by next-hop group
        # *content* and depend otherwise only on the device's
        # adjacency/addressing — so only re-resolved devices drop theirs.
        touched_set = set(touched)
        reused_indexes = 0
        for name in self._names:
            if name in touched_set:
                continue
            if target.devices[name].share_compiled_index(
                self.dataplane.devices[name]
            ):
                reused_indexes += 1
        derived._node_cache = {
            name: dict(sub)
            for name, sub in self._node_cache.items()
            if name not in reresolve
        }
        derived._hop_peers = {
            key: peer
            for key, peer in self._hop_peers.items()
            if key[0] not in moved
        }
        # Valid because the node universe and ACL taint set are
        # unchanged (checked above): equal struct vectors evaluate to
        # the same verdict table in both engines.
        derived._shared = dict(self._shared)

        # (b) Structural atoms: where a structural change on a touched
        # device can move its governing entry — inside the changed
        # prefixes' own ranges (everywhere else both tables agree on
        # the winning prefix) and inside a moved interface's /32 and
        # subnet (address ownership, direct delivery). Each is probed
        # in the target table directly: never a compiled-index rebuild,
        # whose cost is what this whole path avoids.
        rebuild = {bisect_right(reps, address) - 1 for address in flips}
        structural = set(rebuild)
        columns = dict(decisions)  # copied per device before any write
        pending: dict[str, set[int]] = {}
        for name in touched:
            device_delta = delta.device_deltas[name]
            indexes = _prefix_indexes(device_delta.structural_prefixes, reps)
            if device_delta.links_changed:
                force = self._interface_force_indexes(
                    device_delta, target, reps
                )
                structural |= force
                indexes |= force
            if not indexes:
                continue
            before = decisions[name]
            column = columns[name] = list(before)
            trie = target.devices[name].trie
            todo = pending.setdefault(name, set())
            for index in indexes:
                match = trie.longest_match(reps[index])
                entry = match[1] if match is not None else None
                old = before[index]
                if entry is old or entry == old:
                    continue
                column[index] = entry
                todo.add(index)
                if (
                    entry is None
                    or old is None
                    or entry.prefix != old.prefix
                    or entry.entry_type != old.entry_type
                ):
                    structural.add(index)
        if atoms and len(structural) / len(atoms) > DELTA_THRESHOLD:
            raise DeltaUnapplicable("dirty-fraction")

        # (c) Group rewrites: the atoms each rewritten prefix governs
        # take its target entry (a probed structural atom keeps what the
        # probe found). Then, on re-resolved devices, every atom whose
        # entry leaves through a moved interface or flipped gateway.
        rewrites = 0
        for name in sorted(touched_set | reresolve):
            device_delta = delta.device_deltas.get(name)
            groups = device_delta.rewrites if device_delta is not None else ()
            if not groups and name not in reresolve:
                continue
            rewrites += len(groups)
            before = decisions[name]
            column = columns[name]
            if column is before:
                column = columns[name] = list(before)
            todo = pending.setdefault(name, set())
            for group in groups:
                for entry in group.entries:
                    prefix = entry.prefix
                    for index in range(
                        bisect_left(reps, prefix.first),
                        bisect_right(reps, prefix.last),
                    ):
                        old = before[index]
                        if (
                            old is not None
                            and column[index] is old
                            and old.prefix == prefix
                        ):
                            column[index] = entry
                            todo.add(index)
            if name in reresolve:
                ifaces = moved.get(name, frozenset())
                through: dict[int, bool] = {}
                for index, entry in enumerate(column):
                    if entry is None or not entry.hops:
                        continue
                    hit = through.get(id(entry.hops))
                    if hit is None:
                        hit = through[id(entry.hops)] = any(
                            hop.interface in ifaces or hop.gateway in flips
                            for hop in entry.hops
                        )
                    if hit:
                        todo.add(index)

        # (d) Resolve the new structs: the node memo resolves each
        # next-hop group once, unless its struct depends on the atom.
        position = {name: slot for slot, name in enumerate(self._names)}
        patches: dict[int, dict[int, tuple]] = {}
        for name, todo in pending.items():
            slot = position[name]
            column = columns[name]
            for index in todo:
                key = keys[index]
                if key is None:
                    continue  # degraded: rebuilt below or UNKNOWN either way
                struct = derived._resolve_node(name, column[index], reps[index])
                if struct != key[slot]:
                    patches.setdefault(index, {})[slot] = struct

        # (e) Patch: a changed vector shares an existing table or runs
        # one graph evaluation; every other atom adopts its base table.
        derived._decisions = columns
        tables = derived._tables
        derived_keys = derived._keys
        builds = shared = 0
        for index, base_index in enumerate(base_of):
            if index in rebuild:
                derived._build_atom(index)
                continue
            key = keys[index]
            patch = patches.get(index)
            if patch is None:
                tables[index] = self._tables[base_index]
                derived_keys[index] = key
                continue
            vector = list(key)
            for slot, struct in patch.items():
                vector[slot] = struct
            key = tuple(vector)
            table = derived._shared.get(key)
            if table is None:
                table = derived._shared[key] = derived._evaluate_graph(
                    dict(zip(self._names, key))
                )
                builds += 1
            else:
                shared += 1
            tables[index] = table
            derived_keys[index] = key
        if bus.ACTIVE.enabled:
            if builds:
                bus.ACTIVE.count("verify.graph_builds", builds)
            if shared:
                bus.ACTIVE.count("verify.graph_shared", shared)
        derived._complete = True
        dirty = len(rebuild | patches.keys())
        derived.delta_stats = DeltaStats(
            base_fingerprint=self.dataplane.fib_fingerprint(),
            dirty_atoms=dirty,
            structural_atoms=len(structural),
            rewrites=rewrites,
            total_atoms=len(atoms),
            reused_tables=len(atoms) - dirty,
            reused_indexes=reused_indexes,
            touched_devices=tuple(touched),
            apply_seconds=time.perf_counter() - start,
        )
        return derived

    def _refined_partition(
        self, delta: "DataplaneDelta"
    ) -> tuple[list[int], list[IntervalSet], list[int]]:
        """This engine's atoms cut at every boundary ``delta`` moves:
        the derived reps and atoms, and the base atom containing each.

        One merge walk over the base atoms: unsplit atoms (the
        overwhelming majority) are reused as objects.
        """
        base_reps = set(self._reps)
        extra: set[int] = set()
        for prefix in delta.boundary_prefixes():
            for cut in (prefix.first, prefix.last + 1):
                if cut <= MAX_IPV4 and cut not in base_reps:
                    extra.add(cut)
        if not extra:
            identity = list(range(len(self.atoms)))
            return list(self._reps), list(self.atoms), identity
        extra_cuts = sorted(extra)
        reps: list[int] = []
        atoms: list[IntervalSet] = []
        base_of: list[int] = []
        k = 0
        base_uppers = self._reps[1:] + [MAX_IPV4 + 1]
        for base_index, (lo, hi) in enumerate(zip(self._reps, base_uppers)):
            if k < len(extra_cuts) and extra_cuts[k] < hi:
                bounds = [lo]
                while k < len(extra_cuts) and extra_cuts[k] < hi:
                    bounds.append(extra_cuts[k])
                    k += 1
                bounds.append(hi)
                for piece_lo, piece_hi in zip(bounds, bounds[1:]):
                    reps.append(piece_lo)
                    atoms.append(IntervalSet.span(piece_lo, piece_hi - 1))
                    base_of.append(base_index)
            else:
                reps.append(lo)
                atoms.append(self.atoms[base_index])
                base_of.append(base_index)
        return reps, atoms, base_of

    def _interface_force_indexes(
        self, device_delta, target: Dataplane, reps: list[int]
    ) -> set[int]:
        """Rep indexes where a link-touched device's struct must be
        re-resolved regardless of entry equality: anything inside one of
        its *moved* interfaces' /32 or subnet prefixes (either side of
        the delta), where address ownership and direct delivery can
        change under an unchanged governing entry."""
        changed = set(device_delta.changed_interfaces)
        prefixes: list[Prefix] = []
        for dataplane in (self.dataplane, target):
            device = dataplane.devices[device_delta.device]
            for iface, (
                address,
                length,
            ) in device.interface_addresses.items():
                if iface not in changed:
                    continue
                prefixes.append(Prefix.containing(address, 32))
                prefixes.append(Prefix.containing(address, length))
        return _prefix_indexes(prefixes, reps)

    # -- construction -------------------------------------------------------

    def _ensure_all(self) -> None:
        """Resolve every (device, atom) decision in one linear merge of
        each device's compiled index against the sorted reps, keep the
        sweep (apply_delta starts from it), and assemble/evaluate each
        atom's graph."""
        if self._complete:
            return
        self._decisions = {
            name: self.dataplane.devices[name].compiled_index().sweep(
                self._reps
            )
            for name in self._names
        }
        for index in range(len(self.atoms)):
            if index not in self._tables:
                self._build_atom(index)
        self._complete = True

    def _build_atom(self, index: int) -> dict[str, AtomVerdict]:
        rep = self._reps[index]
        if rep in self.dataplane.degraded_owned:
            # The atom's destination is owned by a degraded node
            # (partial snapshot): every ingress answers UNKNOWN_DEGRADED
            # — the graph would otherwise conclude NO_ROUTE from the
            # node's absence. Degraded addresses are /32 atom
            # boundaries, so the whole atom is the degraded address.
            verdict = AtomVerdict(
                dispositions=frozenset({Disposition.UNKNOWN_DEGRADED}),
                accepts=frozenset(),
                tainted=False,
            )
            table = {name: verdict for name in self._names}
            self._tables[index] = table
            return table
        decisions = self._decisions
        structs: dict[str, tuple] = {}
        for name in self._names:
            if decisions is not None:
                entry = decisions[name][index]
            else:
                entry = self.dataplane.devices[name].compiled_index().probe(
                    rep
                )
            structs[name] = self._resolve_node(name, entry, rep)
        key = tuple(structs[name] for name in self._names)
        table = self._shared.get(key)
        if table is None:
            table = self._evaluate_graph(structs)
            self._shared[key] = table
            if bus.ACTIVE.enabled:
                bus.ACTIVE.count("verify.graph_builds")
        elif bus.ACTIVE.enabled:
            bus.ACTIVE.count("verify.graph_shared")
        self._keys[index] = key
        self._tables[index] = table
        return table

    def _resolve_node(self, name: str, entry, rep: int) -> tuple:
        """One device's behaviour for one atom, as a hashable struct:
        ``(successor devices, terminal dispositions, accepted-here)``.

        Mirrors ``ForwardingWalk._explore`` exactly (minus ACLs, which
        taint instead): receive/discard/no-route terminate; forward
        hops either hand off to the subnet neighbor owning the gateway
        (or the destination itself when directly attached) or leave the
        modelled network.

        Terminal structs are constants (:data:`_TERMINAL`). Most forward
        structs do not depend on the representative address at all
        (every hop names a gateway with a known subnet neighbor); those
        are memoized per next-hop group, so across a sweep each group is
        resolved once — not once per entry, nor per atom. Whether a
        struct depends on the address is a property of its group.
        """
        terminal = _TERMINAL.get(None if entry is None else entry.entry_type)
        if terminal is not None:
            return terminal
        hops = entry.hops
        device_cache = self._node_cache.get(name)
        if device_cache is None:
            device_cache = self._node_cache[name] = {}
        cached = device_cache.get(hops)
        if cached is not None:
            return cached
        successors: set[str] = set()
        terminals: set[Disposition] = set()
        rep_dependent = False
        for hop in hops:
            gateway = hop.gateway
            if gateway is not None:
                hop_key = (name, hop.interface, gateway)
                try:
                    peer = self._hop_peers[hop_key]
                except KeyError:
                    resolved = self.dataplane.neighbor_via(
                        name, hop.interface, gateway, rep
                    )
                    peer = resolved[0] if resolved is not None else None
                    self._hop_peers[hop_key] = peer
                if peer is not None:
                    successors.add(peer)
                elif gateway in self.dataplane.degraded_owned:
                    terminals.add(Disposition.UNKNOWN_DEGRADED)
                elif gateway == rep:
                    rep_dependent = True
                    terminals.add(self._direct_disposition(name, hop))
                else:
                    # EXITS unless the atom's representative *is* the
                    # gateway, so this branch is rep-dependent too.
                    rep_dependent = True
                    terminals.add(Disposition.EXITS_NETWORK)
                continue
            # Directly attached: the neighbor is the destination itself.
            rep_dependent = True
            resolved = self.dataplane.neighbor_via(
                name, hop.interface, None, rep
            )
            if resolved is not None:
                successors.add(resolved[0])
            else:
                terminals.add(self._direct_disposition(name, hop))
        struct = (
            tuple(sorted(successors)),
            tuple(sorted(terminals, key=lambda d: d.value)),
            False,
        )
        if not rep_dependent:
            device_cache[hops] = struct
        return struct

    def _direct_disposition(self, name: str, hop) -> Disposition:
        device = self.dataplane.devices[name]
        subnet_known = (
            (name, hop.interface) in self.dataplane.adjacency
            or hop.interface in device.interface_addresses
        )
        return (
            Disposition.DELIVERED_TO_SUBNET
            if subnet_known
            else Disposition.EXITS_NETWORK
        )

    # -- graph evaluation ---------------------------------------------------

    def _evaluate_graph(
        self, structs: dict[str, tuple]
    ) -> dict[str, AtomVerdict]:
        """Dispositions for every node in one linear pass.

        Tarjan's algorithm (iterative) emits SCCs with all successors
        already finished, so each SCC's verdict is the union of its
        members' terminals and its successor SCCs' verdicts — plus
        ``LOOP`` when the SCC is cyclic, because any walk entering it
        revisits a device.
        """
        index_of: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        verdicts: dict[str, AtomVerdict] = {}

        def successors(v: str) -> tuple:
            return structs[v][0]

        for root in self._names:
            if root in index_of:
                continue
            # Iterative Tarjan: (node, iterator position) frames.
            work = [(root, 0)]
            while work:
                v, pos = work.pop()
                if pos == 0:
                    index_of[v] = lowlink[v] = counter[0]
                    counter[0] += 1
                    stack.append(v)
                    on_stack.add(v)
                recurse = False
                succ = successors(v)
                for i in range(pos, len(succ)):
                    w = succ[i]
                    if w not in index_of:
                        work.append((v, i + 1))
                        work.append((w, 0))
                        recurse = True
                        break
                    if w in on_stack:
                        lowlink[v] = min(lowlink[v], index_of[w])
                if recurse:
                    continue
                if lowlink[v] == index_of[v]:
                    scc: list[str] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == v:
                            break
                    self._settle_scc(scc, structs, verdicts)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
        return verdicts

    def _settle_scc(
        self,
        scc: list[str],
        structs: dict[str, tuple],
        verdicts: dict[str, AtomVerdict],
    ) -> None:
        members = set(scc)
        cyclic = len(scc) > 1
        dispositions: set[Disposition] = set()
        accepts: set[str] = set()
        tainted = False
        for v in scc:
            succ, terms, accepted_here = structs[v]
            dispositions.update(terms)
            if accepted_here:
                accepts.add(v)
            if v in self._acl_nodes:
                tainted = True
            for w in succ:
                if w in members:
                    cyclic = True  # covers self-loops
                    continue
                downstream = verdicts[w]
                dispositions.update(downstream.dispositions)
                accepts.update(downstream.accepts)
                tainted = tainted or downstream.tainted
        if cyclic:
            dispositions.add(Disposition.LOOP)
        verdict = AtomVerdict(
            dispositions=frozenset(dispositions),
            accepts=frozenset(accepts),
            tainted=tainted,
        )
        for v in scc:
            verdicts[v] = verdict


# -- the per-snapshot engine cache ------------------------------------------

#: Engines the module-level LRU keeps resident, on top of what live
#: owners reserve through :func:`reserve_engines`.
CACHE_LIMIT = 8
# fib fingerprint -> engine, least recently used first.
_CACHE: OrderedDict[int, AtomGraphEngine] = OrderedDict()
_CACHE_LOCK = threading.Lock()
# owner -> engines it reserved; an entry leaves with its owner.
_RESERVED: "weakref.WeakKeyDictionary[object, int]" = (
    weakref.WeakKeyDictionary()
)
# fingerprint -> build lock, so concurrent engine_for calls for the
# *same* forwarding state coalesce onto one build while distinct states
# still build in parallel (the service's worker threads hit this
# constantly).
_BUILDS: dict[int, threading.Lock] = {}


def _cached_engine(key: int) -> Optional[AtomGraphEngine]:
    with _CACHE_LOCK:
        engine = _CACHE.get(key)
        if engine is not None:
            _CACHE.move_to_end(key)
            if bus.ACTIVE.enabled:
                bus.ACTIVE.count("verify.engine_cache_hits")
        return engine


def _register_engine(key: int, engine: AtomGraphEngine) -> AtomGraphEngine:
    """Insert ``engine`` under ``key`` — unless someone got there first.

    First registration wins: if a delta derivation landed while a cold
    build for the same fingerprint was still running (or vice versa),
    the later finisher's object is discarded and every caller converges
    on the already-cached engine. Without this, the slower build would
    silently replace the registered engine, and two engine objects for
    one fingerprint would serve queries side by side — the staleness
    hazard the ``verify.engine_build_discarded`` counter tracks.
    """
    with _CACHE_LOCK:
        existing = _CACHE.get(key)
        if existing is not None:
            _CACHE.move_to_end(key)
            _BUILDS.pop(key, None)
            if bus.ACTIVE.enabled:
                bus.ACTIVE.count("verify.engine_build_discarded")
            return existing
        _CACHE[key] = engine
        limit = CACHE_LIMIT + sum(_RESERVED.values())
        while len(_CACHE) > limit:
            _CACHE.popitem(last=False)
            if bus.ACTIVE.enabled:
                bus.ACTIVE.count("verify.engine_cache_evictions")
        _BUILDS.pop(key, None)
    return engine


def _derive_engine(
    dataplane: Dataplane,
    base: AtomGraphEngine,
    key: int,
    delta: Optional["DataplaneDelta"] = None,
) -> tuple[Optional[AtomGraphEngine], Optional[str]]:
    """Attempt the delta path; returns (engine, fallback_reason).

    ``delta`` is used when it runs from ``base``'s own dataplane to
    ``dataplane`` (a checkpoint stream's recorded step); otherwise the
    two are diffed here.

    Runs *outside* the per-key build lock on purpose: a delta apply is
    cheap, and serializing it behind an in-flight cold build for the
    same key would forfeit exactly the latency it exists to save. The
    no-clobber registration in :func:`_register_engine` keeps the two
    paths convergent.
    """
    from repro.dataplane.delta import DataplaneDelta

    registry = bus.metrics_registry()
    start = time.perf_counter()
    try:
        if (
            delta is None
            or delta.base is not base.dataplane
            or delta.target is not dataplane
        ):
            delta = DataplaneDelta(base.dataplane, dataplane)
        engine = base.apply_delta(delta)
    except DeltaUnapplicable as exc:
        # The aggregate counter and the by-reason series get distinct
        # names: an unlabeled family cannot also carry labels, and the
        # flat trace plane records the aggregate under its bare name.
        if registry.enabled:
            registry.counter(
                "verify.delta_fallbacks",
                "Delta derivations abandoned for a cold build",
            ).inc()
            registry.counter(
                "verify.delta_fallback_reasons",
                "Delta derivations abandoned for a cold build, by reason",
                ("reason",),
            ).inc(reason=exc.reason)
        return None, exc.reason
    seconds = time.perf_counter() - start
    stats = engine.delta_stats
    assert stats is not None
    stats.apply_seconds = seconds  # include the diff itself
    if registry.enabled:
        registry.counter(
            "verify.delta_applies",
            "Engines derived incrementally from a resident base",
        ).inc()
        registry.counter(
            "verify.delta_dirty_atoms",
            "Total atoms re-evaluated across all delta applies",
        ).inc(stats.dirty_atoms)
        registry.histogram(
            "verify.dirty_atoms",
            "Atoms re-evaluated per delta apply",
            buckets=DIRTY_ATOM_BUCKETS,
        ).observe(stats.dirty_atoms)
        registry.histogram(
            "verify.delta_apply_seconds",
            "Wall seconds diffing and applying one dataplane delta",
        ).observe(seconds)
    return _register_engine(key, engine), None


def engine_for(
    dataplane: Dataplane, *, base: Optional[AtomGraphEngine] = None
) -> AtomGraphEngine:
    """The memoized engine for ``dataplane``.

    Keyed by FIB *content* hash, not object identity: two snapshots
    that converged to the same forwarding state — N seeds in an ensemble
    sweep, a reloaded snapshot file — share one engine, so repeated
    differential and pybf queries stop rebuilding identical analyses.

    ``base`` supplies a lineage parent: on a cache miss the new engine
    is *derived* from it via :meth:`AtomGraphEngine.apply_delta` —
    patching only the atoms the FIB churn dirtied — and only falls back
    to a cold build when the delta is structurally unapplicable or
    exceeds :data:`DELTA_THRESHOLD` (the fallback engine carries the
    reason in its ``delta_stats``). A base that already forwards like
    ``dataplane`` is the engine itself.

    Thread-safe: concurrent cold builds for one forwarding state
    coalesce onto a single build; a delta derivation racing a cold
    build for the same key resolves first-registration-wins, so every
    caller still receives one shared engine object per key.
    """
    return _lookup(dataplane, base)[0]


def advance_engine(
    base: AtomGraphEngine,
    dataplane: Dataplane,
    delta: Optional["DataplaneDelta"] = None,
) -> tuple[AtomGraphEngine, Optional[str]]:
    """``engine_for(dataplane, base=base)``, plus the reason this call
    fell back to a cold build (None when the engine was cached, is
    ``base`` itself, or was derived).

    ``delta`` may carry an already-recorded diff from ``base``'s
    dataplane to ``dataplane``; it is ignored when it does not chain.
    A temporal stream advances one lineage through its checkpoints
    this way, counting each fallback as it happens.
    """
    return _lookup(dataplane, base, delta)


def _lookup(
    dataplane: Dataplane,
    base: Optional[AtomGraphEngine],
    delta: Optional["DataplaneDelta"] = None,
) -> tuple[AtomGraphEngine, Optional[str]]:
    key = dataplane.fib_fingerprint()
    engine = _cached_engine(key)
    if engine is not None:
        return engine, None
    fallback_reason: Optional[str] = None
    if base is not None:
        if base.dataplane.fib_fingerprint() == key:
            # Evicted from the LRU (or never registered) but resident
            # in the caller's lineage: the base *is* this engine.
            return _register_engine(key, base), None
        engine, fallback_reason = _derive_engine(dataplane, base, key, delta)
        if engine is not None:
            return engine, None
    with _CACHE_LOCK:
        build = _BUILDS.get(key)
        if build is None:
            build = _BUILDS[key] = threading.Lock()
    with build:
        # A racing thread may have finished this build while we waited.
        engine = _cached_engine(key)
        if engine is not None:
            return engine, fallback_reason
        if bus.ACTIVE.enabled:
            bus.ACTIVE.count("verify.engine_cache_misses")
        collector = bus.ACTIVE
        span = (
            collector.begin("verify.engine_build", 0.0, category="engine")
            if collector.enabled
            else None
        )
        build_start = time.perf_counter()
        engine = AtomGraphEngine(dataplane)
        build_seconds = time.perf_counter() - build_start
        if fallback_reason is not None:
            engine.delta_stats = DeltaStats(
                base_fingerprint=base.dataplane.fib_fingerprint()
                if base is not None
                else None,
                total_atoms=len(engine.atoms),
                fallback=fallback_reason,
            )
        if span is not None:
            collector.end(span, 0.0)
        registry = bus.metrics_registry()
        if registry.enabled:
            # Builds inside a service job carry its priority class —
            # that is how "p99 engine-build cost for interactive jobs"
            # becomes a scrapeable series.
            context = bus.current_job()
            registry.histogram(
                "verify.engine_build_seconds",
                "Wall seconds building one atom-graph engine",
                ("priority",),
            ).observe(
                build_seconds,
                priority=context.priority if context is not None else "none",
            )
        engine = _register_engine(key, engine)
    return engine, fallback_reason


def reserve_engines(owner: object, count: int) -> None:
    """Grow the table's bound by ``count`` while ``owner`` lives (or
    until :func:`clear_engine_cache`).

    A :class:`~repro.service.store.SnapshotStore` reserves its capacity
    this way, so the states it holds resident keep their engines warm
    beside the :data:`CACHE_LIMIT` most recent ones.
    """
    with _CACHE_LOCK:
        _RESERVED[owner] = max(0, count)


def resident_engine(fingerprint: int) -> Optional[AtomGraphEngine]:
    """The cached engine for ``fingerprint``, or None.

    A peek for lineage walks: it neither counts a cache hit nor
    refreshes the entry's LRU position.
    """
    with _CACHE_LOCK:
        return _CACHE.get(fingerprint)


def drop_engines(fingerprints) -> None:
    """Drop the cached engines for ``fingerprints``."""
    with _CACHE_LOCK:
        for fingerprint in fingerprints:
            _CACHE.pop(fingerprint, None)


def clear_engine_cache() -> None:
    """Drop all memoized engines and reservations (tests and long-lived
    processes)."""
    with _CACHE_LOCK:
        _CACHE.clear()
        _BUILDS.clear()
        _RESERVED.clear()
