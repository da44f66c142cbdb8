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
so differential queries, multirun sweeps, and repeated pybf questions
stop rebuilding identical analyses.
"""

from __future__ import annotations

import logging
import threading
import time
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.dataplane.forwarding import Disposition, ForwardingWalk, dst_atoms
from repro.dataplane.model import Dataplane
from repro.net.addr import MAX_IPV4, Prefix
from repro.net.intervals import IntervalSet
from repro.obs import bus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.delta import DataplaneDelta

logger = logging.getLogger(__name__)

#: Ceiling on the dirty-atom fraction a delta apply will patch; above
#: it a cold build is cheaper than the bookkeeping (a float in (0, 1]).
DELTA_THRESHOLD = 0.35

#: Buckets for the ``verify.dirty_atoms`` histogram: dirty-atom counts,
#: not seconds — single-link churn lands in the low buckets, and the
#: tail records deltas that approached the fallback threshold.
DIRTY_ATOM_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0,
)


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


class DeltaUnapplicable(Exception):
    """A delta is outside the incremental path's scope; build cold.

    ``reason`` is one of the stable strings surfaced in the
    ``verify.delta_fallbacks`` metric and ``--delta-stats`` output:
    ``device-set``, ``acl-change``, ``dirty-fraction``,
    ``base-mismatch``.
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
    dirty_atoms: int = 0
    total_atoms: int = 0
    reused_tables: int = 0
    reused_indexes: int = 0
    rebuilt_indexes: int = 0
    touched_devices: tuple[str, ...] = ()
    fallback: Optional[str] = None
    apply_seconds: float = 0.0

    @property
    def dirty_fraction(self) -> float:
        return self.dirty_atoms / self.total_atoms if self.total_atoms else 0.0

#: Node-structure tags (see ``_resolve_node``).
_TERMINAL = {
    None: Disposition.NO_ROUTE,
    "receive": Disposition.ACCEPTED,
    "discard": Disposition.NULL_ROUTED,
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

    ``atoms`` defaults to the dataplane's own partition; differential
    and multirun callers pass a shared refinement so one engine per
    snapshot serves every pairwise comparison (any refinement of the
    atom partition keeps per-atom LPM decisions constant).
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
        # device -> {entry -> struct}, for rep-independent resolutions.
        # Keyed by entry *content*, not id(): id() values are recycled
        # after GC, which in a long-lived process could silently alias
        # two different FIB entries; ForwardingEntry is frozen/hashable
        # so content keying is exact (and lets equal entries share).
        # Nested per device so apply_delta can adopt an untouched
        # device's whole sub-cache with one dict copy (no re-hashing).
        self._node_cache: dict[str, dict] = {}
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

    def precompute(self, workers: Optional[int] = None) -> None:
        """Materialize every atom's verdict table.

        With ``workers`` > 1 the atom index range is sharded across a
        process pool — each worker rebuilds the engine from the pickled
        dataplane and returns its shard's tables. Falls back to the
        sequential sweep if the pool cannot be used (platform limits,
        unpicklable state).
        """
        if self._complete:
            return
        if workers is not None and workers > 1 and len(self.atoms) > 64:
            try:
                self._precompute_parallel(workers)
                return
            except Exception as exc:  # pragma: no cover - platform dependent
                logger.warning(
                    "process-pool precompute failed (%s); "
                    "falling back to sequential",
                    exc,
                )
        self._ensure_all()

    # -- incremental maintenance --------------------------------------------

    def apply_delta(self, delta: "DataplaneDelta") -> "AtomGraphEngine":
        """Derive the engine for ``delta.target`` by patching this one.

        The correctness spine: any *refinement* of a valid atom
        partition stays valid (class docstring), so the derived engine
        partitions at this engine's boundaries plus every boundary the
        delta moved. Each derived atom then lies inside exactly one base
        atom, and its decision vector can only differ from the base's on
        a *touched* device (untouched devices have identical FIB content
        and identical adjacency, so their decision at any address is
        unchanged) or via a degraded-ownership flip. Atoms where no
        touched device's decision changed reuse the base verdict tables
        outright; only *dirty* atoms re-run graph assembly and SCC
        condensation. Untouched devices keep their resident
        :class:`~repro.dataplane.model.CompiledLpmIndex`, node-struct
        cache, and hop-peer resolutions, and the ``_shared``
        decision-vector dedup tables carry over wholesale.

        Requires this engine's atoms to be a sorted full-cover partition
        (true for everything :func:`engine_for` builds). Raises
        :class:`DeltaUnapplicable` — device-set or ACL changes, or a
        dirty fraction above :data:`DELTA_THRESHOLD` — when a cold build
        is the correct (or cheaper) move; the caller falls back.
        """
        start = time.perf_counter()
        if delta.base is not self.dataplane:
            raise DeltaUnapplicable("base-mismatch")
        reason = delta.fallback_reason()
        if reason is not None:
            raise DeltaUnapplicable(reason)
        # Note: a high touched-*device* count is deliberately not a
        # fallback trigger. A single link cut touches every device (the
        # link's subnet route vanishes network-wide) yet dirties few
        # atoms; the per-device sweeps below are linear merges — far
        # cheaper than the graph evaluations they let us skip — so the
        # dirty-atom fraction is the only cost gate that matters.
        touched = list(delta.device_deltas)
        target = delta.target
        # Clean derived atoms adopt base tables, so every base table
        # must exist; the base is usually precomputed already (it served
        # queries before the churn arrived).
        self._ensure_all()

        # (a) Refine the partition only where changed prefixes split
        # existing atoms. One merge walk over the base atoms: unsplit
        # atoms (the overwhelming majority) are reused as objects, and
        # every derived atom records which base atom contains it — so
        # the adoption loop below needs no per-atom binary search.
        base_reps = set(self._reps)
        extra: set[int] = set()
        for prefix in delta.boundary_prefixes():
            for cut in (prefix.first, prefix.last + 1):
                if cut <= MAX_IPV4 and cut not in base_reps:
                    extra.add(cut)
        if extra:
            extra_cuts = sorted(extra)
            reps: list[int] = []
            atoms: list[IntervalSet] = []
            base_of: list[int] = []
            k = 0
            base_uppers = self._reps[1:] + [MAX_IPV4 + 1]
            for base_index, (lo, hi) in enumerate(
                zip(self._reps, base_uppers)
            ):
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
        else:
            reps = list(self._reps)
            atoms = list(self.atoms)
            base_of = list(range(len(atoms)))
        derived = AtomGraphEngine(target, atoms, _observe=False)

        # Resident-state reuse. Untouched devices share their compiled
        # LPM index outright. Node-struct and hop-peer caches survive
        # FIB-only churn too — structs are keyed by entry *content* and
        # depend otherwise only on the device's adjacency/addressing —
        # so only link-touched devices drop theirs.
        touched_set = set(touched)
        links_touched = {
            name
            for name in touched
            if delta.device_deltas[name].links_changed
        }
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
            if name not in links_touched
        }
        derived._hop_peers = {
            key: peer
            for key, peer in self._hop_peers.items()
            if key[0] not in links_touched
        }
        # Valid because the node universe and ACL taint set are
        # unchanged (checked above): equal struct vectors evaluate to
        # the same verdict table in both engines.
        derived._shared = dict(self._shared)

        # (b) Dirty atoms: where any touched device's decision changed.
        # A FIB diff can only move a device's governing entry *inside
        # the diffed prefixes' own ranges* — everywhere else both tables
        # agree on the winning entry — and a moved interface can only
        # change how an entry resolves where the governing entry's hops
        # leave through it, or inside the interface's own prefixes
        # (address ownership, direct delivery). So instead of sweeping
        # every rep, collect the candidate indexes those ranges cover
        # and confirm each one: FIB-only devices compare governing
        # entries (equal entry + unchanged adjacency => equal struct),
        # link-touched devices compare resolved structs, since the same
        # entry can now point at a different neighbor. Everything
        # outside the candidate set is provably clean.
        degraded_flips = set(delta.degraded_changed_addresses)
        candidates: dict[int, list[str]] = {}
        links_changed = {
            name: delta.device_deltas[name].links_changed for name in touched
        }
        for name in touched:
            device_delta = delta.device_deltas[name]
            indexes = _prefix_indexes(device_delta.fib_prefixes, reps)
            if device_delta.links_changed:
                indexes |= self._interface_force_indexes(
                    device_delta, target, reps
                )
                # Unchanged entries still routing into a moved interface
                # (stale next hops the IGP did not reprogram).
                moved = set(device_delta.changed_interfaces)
                stale = [
                    prefix
                    for prefix, entry in self.dataplane.devices[
                        name
                    ].trie.items()
                    if any(hop.interface in moved for hop in entry.hops)
                ]
                indexes |= _prefix_indexes(stale, reps)
            for index in indexes:
                candidates.setdefault(index, []).append(name)
        dirty_set: set[int] = {
            bisect_right(reps, address) - 1 for address in degraded_flips
        }
        for index, names in candidates.items():
            if index in dirty_set:
                continue
            rep = reps[index]
            if rep in self.dataplane.degraded_owned:
                # Degraded on both sides (flips were handled above):
                # the verdict is UNKNOWN_DEGRADED either way, so the
                # base table carries over no matter what the FIB says.
                continue
            for name in names:
                before = self.dataplane.devices[name].compiled_index().probe(
                    rep
                )
                match = target.devices[name].trie.longest_match(rep)
                after = match[1] if match is not None else None
                if links_changed[name]:
                    if self._resolve_node(
                        name, before, rep
                    ) != derived._resolve_node(name, after, rep):
                        dirty_set.add(index)
                        break
                elif before is not after and before != after:
                    dirty_set.add(index)
                    break
        if atoms and len(dirty_set) / len(atoms) > DELTA_THRESHOLD:
            raise DeltaUnapplicable("dirty-fraction")

        # (c) Patch: rebuild dirty atoms (graph assembly + SCC run),
        # adopt base tables for clean ones. Touched devices' entries at
        # dirty reps come from direct trie probes — never a compiled-
        # index rebuild, whose cost is what this whole path avoids;
        # untouched devices probe their resident shared index.
        sparse: dict[str, dict[int, object]] = {name: {} for name in touched}
        for index in dirty_set:
            rep = reps[index]
            for name in touched:
                match = target.devices[name].trie.longest_match(rep)
                sparse[name][index] = match[1] if match is not None else None
        for index, base_index in enumerate(base_of):
            if index in dirty_set:
                derived._build_atom(index, sparse)
            else:
                derived._tables[index] = self._tables[base_index]
        derived._complete = True
        derived.delta_stats = DeltaStats(
            base_fingerprint=self.dataplane.fib_fingerprint(),
            dirty_atoms=len(dirty_set),
            total_atoms=len(atoms),
            reused_tables=len(atoms) - len(dirty_set),
            reused_indexes=reused_indexes,
            rebuilt_indexes=len(touched),
            touched_devices=tuple(touched),
            apply_seconds=time.perf_counter() - start,
        )
        return derived

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
        """Resolve every (device, atom) decision in one sweep per device
        and assemble/evaluate each atom's graph."""
        if self._complete:
            return
        decisions = self._sweep_decisions()
        for index in range(len(self.atoms)):
            if index not in self._tables:
                self._build_atom(index, decisions)
        self._complete = True

    def _sweep_decisions(self) -> dict[str, list]:
        """Per device: the FIB entry governing each atom, via one
        linear merge of the compiled index against the sorted reps."""
        return {
            name: self.dataplane.devices[name].compiled_index().sweep(
                self._reps
            )
            for name in self._names
        }

    def _build_atom(
        self, index: int, decisions: Optional[dict[str, list]] = None
    ) -> dict[str, AtomVerdict]:
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
        structs: dict[str, tuple] = {}
        for name in self._names:
            per_device = decisions.get(name) if decisions is not None else None
            if per_device is not None:
                entry = per_device[index]
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

        Most structs do not depend on the representative address at all
        (every hop names a gateway with a known subnet neighbor); those
        are memoized per FIB entry, so across a sweep each entry is
        resolved once — not once per atom it governs.
        """
        device_cache = self._node_cache.get(name)
        if device_cache is None:
            device_cache = self._node_cache[name] = {}
        cached = device_cache.get(entry)
        if cached is not None:
            return cached
        if entry is None or entry.entry_type in ("receive", "discard"):
            kind = None if entry is None else entry.entry_type
            struct = ((), (_TERMINAL[kind],), kind == "receive")
            device_cache[entry] = struct
            return struct
        successors: set[str] = set()
        terminals: set[Disposition] = set()
        rep_dependent = False
        for hop in entry.hops:
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
            device_cache[entry] = struct
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

    # -- parallel fan-out ---------------------------------------------------

    def _precompute_parallel(self, workers: int) -> None:
        from concurrent.futures import ProcessPoolExecutor

        total = len(self.atoms)
        bounds = [(a.min(), a.max()) for a in self.atoms]
        shard_size = (total + workers - 1) // workers
        shards = [
            range(start, min(start + shard_size, total))
            for start in range(0, total, shard_size)
        ]
        if bus.ACTIVE.enabled:
            bus.ACTIVE.count("verify.engine_parallel_shards", len(shards))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(
                _compute_shard,
                [
                    (self.dataplane, bounds, shard.start, shard.stop)
                    for shard in shards
                ],
            )
            for shard_tables in results:
                self._tables.update(shard_tables)
        self._complete = True


def _compute_shard(payload) -> dict[int, dict[str, AtomVerdict]]:
    """Worker entry point: rebuild the engine, evaluate one atom shard."""
    dataplane, bounds, start, stop = payload
    atoms = [IntervalSet.span(lo, hi) for lo, hi in bounds]
    engine = AtomGraphEngine(dataplane, atoms)
    decisions = engine._sweep_decisions()
    return {
        index: engine._build_atom(index, decisions)
        for index in range(start, stop)
    }


# -- the per-snapshot engine cache ------------------------------------------

#: Engines the module-level LRU keeps resident.
CACHE_LIMIT = 8
_CACHE: OrderedDict[tuple, AtomGraphEngine] = OrderedDict()
_CACHE_LOCK = threading.Lock()
# key -> build lock, so concurrent engine_for calls for the *same*
# forwarding state coalesce onto one build while distinct states still
# build in parallel (the service's worker threads hit this constantly).
_BUILDS: dict[tuple, threading.Lock] = {}


def _atoms_signature(atoms: Optional[Sequence[IntervalSet]]) -> int:
    if atoms is None:
        return 0
    return hash(tuple(atom.min() for atom in atoms))


def _cached_engine(key: tuple) -> Optional[AtomGraphEngine]:
    with _CACHE_LOCK:
        engine = _CACHE.get(key)
        if engine is not None:
            _CACHE.move_to_end(key)
            if bus.ACTIVE.enabled:
                bus.ACTIVE.count("verify.engine_cache_hits")
        return engine


def _register_engine(key: tuple, engine: AtomGraphEngine) -> AtomGraphEngine:
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
        while len(_CACHE) > CACHE_LIMIT:
            _CACHE.popitem(last=False)
            if bus.ACTIVE.enabled:
                bus.ACTIVE.count("verify.engine_cache_evictions")
        _BUILDS.pop(key, None)
    return engine


def _derive_engine(
    dataplane: Dataplane, base: AtomGraphEngine, key: tuple
) -> tuple[Optional[AtomGraphEngine], Optional[str]]:
    """Attempt the delta path; returns (engine, fallback_reason).

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
    dataplane: Dataplane,
    atoms: Optional[Sequence[IntervalSet]] = None,
    base: Optional[AtomGraphEngine] = None,
) -> AtomGraphEngine:
    """The memoized engine for ``dataplane`` (and atom partition).

    Keyed by FIB *content* hash, not object identity: two snapshots
    that converged to the same forwarding state — N seeds in a multirun
    sweep, a reloaded snapshot file — share one engine, so repeated
    differential and pybf queries stop rebuilding identical analyses.

    ``base`` supplies a lineage parent: on a cache miss the new engine
    is *derived* from it via :meth:`AtomGraphEngine.apply_delta` —
    patching only the atoms the FIB churn dirtied — and only falls back
    to a cold build when the delta is structurally unapplicable or
    exceeds :data:`DELTA_THRESHOLD` (the fallback engine carries the
    reason in its ``delta_stats``). Lineage only composes with the
    default partition (``atoms is None``).

    Thread-safe: concurrent cold builds for one forwarding state
    coalesce onto a single build; a delta derivation racing a cold
    build for the same key resolves first-registration-wins, so every
    caller still receives one shared engine object per key.
    """
    key = (dataplane.fib_fingerprint(), _atoms_signature(atoms))
    engine = _cached_engine(key)
    if engine is not None:
        return engine
    fallback_reason: Optional[str] = None
    if (
        base is not None
        and atoms is None
        and base.dataplane.fib_fingerprint() != key[0]
    ):
        engine, fallback_reason = _derive_engine(dataplane, base, key)
        if engine is not None:
            return engine
    with _CACHE_LOCK:
        build = _BUILDS.get(key)
        if build is None:
            build = _BUILDS[key] = threading.Lock()
    with build:
        # A racing thread may have finished this build while we waited.
        engine = _cached_engine(key)
        if engine is not None:
            return engine
        if bus.ACTIVE.enabled:
            bus.ACTIVE.count("verify.engine_cache_misses")
        collector = bus.ACTIVE
        span = (
            collector.begin("verify.engine_build", 0.0, category="engine")
            if collector.enabled
            else None
        )
        build_start = time.perf_counter()
        engine = AtomGraphEngine(dataplane, atoms)
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
    return engine


def clear_engine_cache() -> None:
    """Drop all memoized engines (tests and long-lived processes)."""
    with _CACHE_LOCK:
        _CACHE.clear()
        _BUILDS.clear()
