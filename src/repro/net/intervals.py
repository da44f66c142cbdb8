"""Sets of 32-bit integers represented as disjoint closed intervals.

:class:`IntervalSet` is the workhorse of the verification engine: every
header field (destination address, source address, ports, protocol) is a
set of unsigned integers, and the engine's set algebra (union,
intersection, difference, complement) reduces to interval arithmetic.

Intervals are closed (``lo <= x <= hi``) and canonicalized: stored sorted,
non-overlapping, and non-adjacent (adjacent runs are merged), so equality
on the representation is equality on the set. The representation is one
flat tuple of ints ``(lo0, hi0, lo1, hi1, ...)``: the algebra is
two-pointer merges over it, membership is a :func:`bisect`, and
:class:`Interval` objects are only built when a caller iterates.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.net.addr import MAX_IPV4, Prefix


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[lo, hi]`` of unsigned integers."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if self.lo < 0:
            raise ValueError(f"negative interval bound: {self.lo}")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def touches(self, other: "Interval") -> bool:
        """Overlapping or directly adjacent (merge-able)."""
        return self.lo <= other.hi + 1 and other.lo <= self.hi + 1

    def __str__(self) -> str:
        if self.lo == self.hi:
            return str(self.lo)
        return f"{self.lo}-{self.hi}"


class IntervalSet:
    """An immutable set of unsigned integers as disjoint intervals."""

    __slots__ = ("_b",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._b: tuple[int, ...] = _merge(
            sorted((ival.lo, ival.hi) for ival in intervals)
        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return _EMPTY

    @classmethod
    def of(cls, *values: int) -> "IntervalSet":
        ordered = sorted(set(values))
        if ordered and ordered[0] < 0:
            raise ValueError(f"negative interval bound: {ordered[0]}")
        return _make(_merge((v, v) for v in ordered))

    @classmethod
    def span(cls, lo: int, hi: int) -> "IntervalSet":
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        if lo < 0:
            raise ValueError(f"negative interval bound: {lo}")
        return _make((lo, hi))

    @classmethod
    def full(cls, width: int = 32) -> "IntervalSet":
        """The universe of ``width``-bit values."""
        return _make((0, (1 << width) - 1))

    @classmethod
    def from_prefix(cls, prefix: Prefix) -> "IntervalSet":
        return _make((prefix.first, prefix.last))

    @classmethod
    def from_prefixes(cls, prefixes: Iterable[Prefix]) -> "IntervalSet":
        return _make(_merge(sorted((p.first, p.last) for p in prefixes)))

    @classmethod
    def union_all(cls, sets: Iterable["IntervalSet"]) -> "IntervalSet":
        """The union of many sets in one sort-and-merge pass.

        Pieces that arrive ascending and disjoint (the verifier's atom
        buckets) sort in linear time, so folding a bucket of ``n``
        pieces costs O(n) rather than the O(n²) of ``n`` pairwise
        unions.
        """
        nonempty = [s._b for s in sets if s._b]
        if not nonempty:
            return _EMPTY
        if len(nonempty) == 1:
            return _make(nonempty[0])
        pairs = []
        for b in nonempty:
            pairs.extend(zip(b[0::2], b[1::2]))
        pairs.sort()
        return _make(_merge(pairs))

    # -- queries --------------------------------------------------------

    @property
    def intervals(self) -> tuple[Interval, ...]:
        b = self._b
        return tuple(Interval(b[i], b[i + 1]) for i in range(0, len(b), 2))

    def is_empty(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._b)

    def __len__(self) -> int:
        """Number of integers (not intervals) in the set."""
        b = self._b
        return sum(b[1::2]) - sum(b[0::2]) + len(b) // 2

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __contains__(self, value: int) -> bool:
        b = self._b
        i = bisect_right(b, value)
        # Odd: strictly inside some [lo, hi); even: at a hi or outside.
        return bool(i & 1) or (i > 0 and b[i - 1] == value)

    def min(self) -> int:
        if not self._b:
            raise ValueError("min() of empty IntervalSet")
        return self._b[0]

    def max(self) -> int:
        if not self._b:
            raise ValueError("max() of empty IntervalSet")
        return self._b[-1]

    def sample(self) -> int:
        """An arbitrary representative element (the smallest)."""
        return self.min()

    def issubset(self, other: "IntervalSet") -> bool:
        return (self - other).is_empty()

    def isdisjoint(self, other: "IntervalSet") -> bool:
        return (self & other).is_empty()

    # -- algebra --------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        a, b = self._b, other._b
        if not a:
            return other
        if not b:
            return self
        if a[-1] + 1 < b[0]:
            return _make(a + b)
        if b[-1] + 1 < a[0]:
            return _make(b + a)
        out: list[int] = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na or j < nb:
            if j >= nb or (i < na and a[i] <= b[j]):
                lo, hi = a[i], a[i + 1]
                i += 2
            else:
                lo, hi = b[j], b[j + 1]
                j += 2
            if out and lo <= out[-1] + 1:
                if hi > out[-1]:
                    out[-1] = hi
            else:
                out.append(lo)
                out.append(hi)
        return _make(tuple(out))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        a, b = self._b, other._b
        if not a or not b or a[-1] < b[0] or b[-1] < a[0]:
            return _EMPTY
        # Every output piece lies inside one interval of each operand,
        # so the result is canonical without a merge pass.
        out: list[int] = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            lo = a[i] if a[i] > b[j] else b[j]
            ahi, bhi = a[i + 1], b[j + 1]
            if ahi < bhi:
                if lo <= ahi:
                    out.append(lo)
                    out.append(ahi)
                i += 2
            else:
                if lo <= bhi:
                    out.append(lo)
                    out.append(bhi)
                j += 2
        return _make(tuple(out)) if out else _EMPTY

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        a, b = self._b, other._b
        if not a or not b or a[-1] < b[0] or b[-1] < a[0]:
            return self
        # Pieces of one interval of ``a`` are separated by a subtrahend
        # interval, pieces of two by a gap of ``a``: already canonical.
        out: list[int] = []
        j, nb = 0, len(b)
        for i in range(0, len(a), 2):
            lo, hi = a[i], a[i + 1]
            while j < nb and b[j + 1] < lo:
                j += 2
            k = j
            while k < nb and b[k] <= hi:
                if b[k] > lo:
                    out.append(lo)
                    out.append(b[k] - 1)
                if b[k + 1] >= lo:
                    lo = b[k + 1] + 1
                if lo > hi:
                    break
                k += 2
            if lo <= hi:
                out.append(lo)
                out.append(hi)
        return _make(tuple(out)) if out else _EMPTY

    def complement(self, width: int = 32) -> "IntervalSet":
        return IntervalSet.full(width) - self

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._b == other._b

    def __hash__(self) -> int:
        return hash(self._b)

    def __reduce__(self):
        return (_make, (self._b,))

    # -- conversions ----------------------------------------------------

    def to_prefixes(self) -> list[Prefix]:
        """Decompose into a minimal list of aligned CIDR prefixes."""
        prefixes: list[Prefix] = []
        b = self._b
        for i in range(0, len(b), 2):
            prefixes.extend(_interval_to_prefixes(b[i], b[i + 1]))
        return prefixes

    def __repr__(self) -> str:
        b = self._b
        body = ", ".join(
            str(b[i]) if b[i] == b[i + 1] else f"{b[i]}-{b[i + 1]}"
            for i in range(0, len(b), 2)
        )
        return f"IntervalSet({{{body}}})"


def _make(bounds: tuple[int, ...]) -> IntervalSet:
    """Wrap flat bounds that are already canonical (trusted, unchecked)."""
    out = object.__new__(IntervalSet)
    out._b = bounds
    return out


def _merge(pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Flat canonical bounds of ``(lo, hi)`` pairs sorted by ``lo``."""
    out: list[int] = []
    for lo, hi in pairs:
        if out and lo <= out[-1] + 1:
            if hi > out[-1]:
                out[-1] = hi
        else:
            out.append(lo)
            out.append(hi)
    return tuple(out)


def _interval_to_prefixes(lo: int, hi: int) -> Iterator[Prefix]:
    """Greedy CIDR decomposition of ``[lo, hi]``."""
    while lo <= hi:
        # Largest aligned block starting at lo that fits within hi.
        max_align = lo & -lo if lo else 1 << 32
        size = max_align
        while size > hi - lo + 1:
            size //= 2
        length = 32 - size.bit_length() + 1
        yield Prefix(lo, length)
        lo += size
        if lo > MAX_IPV4:
            break


_EMPTY = _make(())


def atoms(sets: Sequence[IntervalSet], width: int = 32) -> list[IntervalSet]:
    """Partition the ``width``-bit universe into equivalence atoms.

    Returns disjoint :class:`IntervalSet` pieces such that every input set
    is a union of pieces — the "atomic predicates" used by the verifier
    to make exhaustive-per-packet analysis finite. Boundaries are simply
    the endpoints of every interval in every input set. The pieces are
    single intervals in ascending order, so they tile the universe.
    """
    universe_hi = (1 << width) - 1
    cuts = {0, universe_hi + 1}
    for s in sets:
        b = s._b
        cuts.update(b[0::2])
        cuts.update(hi + 1 for hi in b[1::2])
    ordered = sorted(cuts)
    return [
        _make((lo, min(nxt - 1, universe_hi)))
        for lo, nxt in zip(ordered, ordered[1:])
        if lo <= universe_hi
    ]


def overlapping(
    partition: Sequence[IntervalSet],
    lows: Sequence[int],
    restriction: IntervalSet,
) -> Iterator[tuple[int, IntervalSet]]:
    """``(index, partition[index] & restriction)`` for every piece the
    restriction overlaps, in ascending order.

    ``partition`` must be single intervals tiling the universe in
    ascending order (what :func:`atoms` returns) and ``lows`` their
    lower bounds. Only the overlapped pieces are visited — each found by
    bisecting ``lows`` — so the cost grows with the restriction's
    overlap, not with the partition. A piece the restriction covers
    whole is yielded as the piece object itself.
    """
    b = restriction._b
    i, n = 0, len(b)
    index, next_lo = -1, -1
    while i < n:
        start = b[i] if b[i] > next_lo else next_lo
        if start != next_lo:
            index = bisect_right(lows, start) - 1
        else:
            index += 1
        if index < 0 or index >= len(partition):
            return
        piece = partition[index]
        lo, hi = piece._b[0], piece._b[-1]
        if start > hi:
            return  # past the partition's cover
        out: list[int] = []
        while i < n and b[i] <= hi:
            out.append(b[i] if b[i] > lo else lo)
            if b[i + 1] > hi:
                out.append(hi)  # runs on into the next piece
                break
            out.append(b[i + 1])
            i += 2
        next_lo = hi + 1
        if out[0] == lo and out[-1] == hi and len(out) == 2:
            yield index, piece
        else:
            yield index, _make(tuple(out))
