"""Longest-prefix-match table keyed by IPv4 prefixes.

Used by the emulated routers (RIB best routes, FIB lookup) and by the
verifier (per-device forwarding tables, the compiled LPM index). Values
are arbitrary; one value per exact prefix.

**Representation.** One hash table per prefix length: 33 dicts mapping
``network -> (prefix, value)``, plus a tuple of the populated lengths,
longest first. Nothing is allocated per bit and no ``Prefix`` is built
on a lookup — a hit returns the stored ``(prefix, value)`` pair.

**Complexity.** ``get`` / ``insert`` / ``remove`` / ``in`` are one dict
operation. ``longest_match`` and ``covering`` are one masked ``dict.get``
per *populated* length (at most 33, in practice a handful). Iteration
and ``lpm_intervals`` run over a sorted view built in O(n log n) on the
first call after a mutation and cached until the next one.

**Ordering contract.** ``items()`` / ``keys()`` / ``values()`` yield in
ascending ``(network, length)`` order — a covering prefix before
everything it covers, siblings by address. Callers rely on this and do
not re-sort. The cached view is assigned once and never mutated in
place, so concurrent readers of an unchanging table are safe.

**Merge contract.** ``lpm_intervals()`` tiles ``[0, 2**32 - 1]`` exactly
and merges adjacent ranges only when they carry the *same value object*
(``is``, not ``==``); unmatched space carries ``None``.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

from repro.net.addr import MAX_IPV4, Prefix, prefix_mask

V = TypeVar("V")

_MASKS = tuple(prefix_mask(length) for length in range(33))


class PrefixTrie(Generic[V]):
    """A mapping from :class:`Prefix` to values with LPM queries."""

    def __init__(self) -> None:
        self.clear()

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix.network in self._buckets[prefix.length]

    # -- mutation --------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value at ``prefix``."""
        bucket = self._buckets[prefix.length]
        before = len(bucket)
        bucket[prefix.network] = (prefix, value)
        self._view = None
        if len(bucket) != before:
            self._size += 1
            if not before:
                self._index_lengths()

    def remove(self, prefix: Prefix) -> Optional[V]:
        """Remove the value at exactly ``prefix``; returns it, or None."""
        bucket = self._buckets[prefix.length]
        hit = bucket.pop(prefix.network, None)
        if hit is None:
            return None
        self._view = None
        self._size -= 1
        if not bucket:
            self._index_lengths()
        return hit[1]

    def clear(self) -> None:
        self._buckets: list[dict[int, tuple[Prefix, V]]] = [
            {} for _ in range(33)
        ]
        #: (length, mask, bucket) per populated length, longest first.
        self._populated: tuple[tuple[int, int, dict], ...] = ()
        self._size = 0
        self._view: Optional[tuple[tuple[Prefix, V], ...]] = None

    def _index_lengths(self) -> None:
        self._populated = tuple(
            (length, _MASKS[length], self._buckets[length])
            for length in range(32, -1, -1)
            if self._buckets[length]
        )

    # -- queries ---------------------------------------------------------

    def get(self, prefix: Prefix) -> Optional[V]:
        """The value stored at exactly ``prefix``, or None."""
        hit = self._buckets[prefix.length].get(prefix.network)
        return hit[1] if hit is not None else None

    def longest_match(self, address: int) -> Optional[tuple[Prefix, V]]:
        """Longest-prefix match for ``address``."""
        for _, mask, bucket in self._populated:
            hit = bucket.get(address & mask)
            if hit is not None:
                return hit
        return None

    def covering(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """All entries whose prefix contains ``prefix``, shortest first."""
        for length, mask, bucket in reversed(self._populated):
            if length > prefix.length:
                return
            hit = bucket.get(prefix.network & mask)
            if hit is not None:
                yield hit

    def lpm_intervals(self) -> list[tuple[int, int, Optional[V]]]:
        """Flatten the table into LPM-effective address ranges.

        Returns ``(lo, hi, value)`` triples, sorted and covering the
        whole 32-bit space, where ``value`` is what
        :meth:`longest_match` would return for every address in
        ``[lo, hi]`` (``None`` where nothing matches). Adjacent ranges
        with the same value object are merged. One sweep compiles the
        table into a structure that answers every possible lookup — the
        basis of the verifier's per-device compiled LPM index.
        """
        out: list[tuple[int, int, Optional[V]]] = []
        cursor = 0  # lowest address not yet emitted

        def emit(hi: int, value: Optional[V]) -> None:
            nonlocal cursor
            if out and out[-1][2] is value:
                out[-1] = (out[-1][0], hi, value)
            else:
                out.append((cursor, hi, value))
            cursor = hi + 1

        # Sweep in (network, length) order with a stack of the prefixes
        # that enclose the cursor: (last address, value), innermost on top.
        open_: list[tuple[int, Optional[V]]] = [(MAX_IPV4, None)]
        for prefix, value in self._sorted():
            lo = prefix.network
            while open_[-1][0] < lo:
                last, closed = open_.pop()
                if cursor <= last:
                    emit(last, closed)
            if cursor < lo:
                emit(lo - 1, open_[-1][1])
            open_.append((prefix.last, value))
        while open_:
            last, closed = open_.pop()
            if cursor <= last:
                emit(last, closed)
        return out

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """All (prefix, value) pairs in ``(network, length)`` order."""
        return iter(self._sorted())

    def keys(self) -> Iterator[Prefix]:
        return (prefix for prefix, _ in self._sorted())

    def values(self) -> Iterator[V]:
        return (value for _, value in self._sorted())

    def _sorted(self) -> tuple[tuple[Prefix, V], ...]:
        view = self._view
        if view is None:
            # (network << 6 | length) is unique per entry, so the sort
            # never falls through to comparing the pairs.
            keyed = sorted(
                ((network << 6) | length, pair)
                for length, _, bucket in self._populated
                for network, pair in bucket.items()
            )
            view = self._view = tuple(pair for _, pair in keyed)
        return view
