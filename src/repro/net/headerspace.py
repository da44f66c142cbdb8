"""Rectangle-based header-space algebra.

A *rect* is a cartesian product of per-field :class:`IntervalSet`s over
the classic 5-tuple (src ip, dst ip, ip protocol, src port, dst port). A
:class:`HeaderSpace` is a finite union of rects. This gives the verifier
exact set algebra over packet headers — the same role BDDs play inside
Batfish — with an implementation that is easy to audit and to test with
hypothesis.

Only difference/complement produce non-trivial rect decompositions; they
use the standard "peel one field at a time" expansion, which keeps rects
disjoint enough for our workloads (FIBs match only on dst ip; ACLs add a
few more dimensions).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional

from repro.net.addr import Prefix, format_ipv4
from repro.net.intervals import IntervalSet


class Field(enum.Enum):
    """Packet header fields modelled by the verifier."""

    SRC_IP = "src_ip"
    DST_IP = "dst_ip"
    IP_PROTO = "ip_proto"
    SRC_PORT = "src_port"
    DST_PORT = "dst_port"


_FIELD_WIDTH = {
    Field.SRC_IP: 32,
    Field.DST_IP: 32,
    Field.IP_PROTO: 8,
    Field.SRC_PORT: 16,
    Field.DST_PORT: 16,
}

_FIELDS = tuple(Field)


def _full(field_: Field) -> IntervalSet:
    return IntervalSet.full(_FIELD_WIDTH[field_])


@dataclass(frozen=True)
class Rect:
    """A cartesian product of per-field value sets.

    Unconstrained fields cover their whole domain. A rect with any empty
    field is the empty set and is normalized away by :class:`HeaderSpace`.
    """

    src_ip: IntervalSet = field(default_factory=lambda: _full(Field.SRC_IP))
    dst_ip: IntervalSet = field(default_factory=lambda: _full(Field.DST_IP))
    ip_proto: IntervalSet = field(default_factory=lambda: _full(Field.IP_PROTO))
    src_port: IntervalSet = field(default_factory=lambda: _full(Field.SRC_PORT))
    dst_port: IntervalSet = field(default_factory=lambda: _full(Field.DST_PORT))

    def get(self, field_: Field) -> IntervalSet:
        return getattr(self, field_.value)

    def with_field(self, field_: Field, values: IntervalSet) -> "Rect":
        return replace(self, **{field_.value: values})

    def is_empty(self) -> bool:
        return any(self.get(f).is_empty() for f in _FIELDS)

    def is_full(self) -> bool:
        return all(self.get(f) == _full(f) for f in _FIELDS)

    def intersect(self, other: "Rect") -> "Rect":
        return Rect(
            self.src_ip & other.src_ip,
            self.dst_ip & other.dst_ip,
            self.ip_proto & other.ip_proto,
            self.src_port & other.src_port,
            self.dst_port & other.dst_port,
        )

    def subtract(self, other: "Rect") -> list["Rect"]:
        """``self - other`` as a list of disjoint rects."""
        overlap = self.intersect(other)
        if overlap.is_empty():
            return [self]
        pieces: list[Rect] = []
        remainder = self
        for field_ in _FIELDS:
            keep = remainder.get(field_) - other.get(field_)
            if keep:
                pieces.append(remainder.with_field(field_, keep))
            shared = remainder.get(field_) & other.get(field_)
            remainder = remainder.with_field(field_, shared)
            if remainder.is_empty():
                break
        return [p for p in pieces if not p.is_empty()]

    def contains_packet(self, packet: "Packet") -> bool:
        return (
            packet.src_ip in self.src_ip
            and packet.dst_ip in self.dst_ip
            and packet.ip_proto in self.ip_proto
            and packet.src_port in self.src_port
            and packet.dst_port in self.dst_port
        )

    def sample(self) -> "Packet":
        return Packet(
            src_ip=self.src_ip.sample(),
            dst_ip=self.dst_ip.sample(),
            ip_proto=self.ip_proto.sample(),
            src_port=self.src_port.sample(),
            dst_port=self.dst_port.sample(),
        )

    def __str__(self) -> str:
        parts = []
        for field_ in _FIELDS:
            values = self.get(field_)
            if values != _full(field_):
                parts.append(f"{field_.value}={values!r}")
        return "Rect(" + ", ".join(parts) + ")" if parts else "Rect(*)"


@dataclass(frozen=True, order=True)
class Packet:
    """A single concrete packet header — a witness for a header space."""

    dst_ip: int
    src_ip: int = 0
    ip_proto: int = 6
    src_port: int = 49152
    dst_port: int = 80

    def __str__(self) -> str:
        return (
            f"{format_ipv4(self.src_ip)}:{self.src_port} -> "
            f"{format_ipv4(self.dst_ip)}:{self.dst_port} proto={self.ip_proto}"
        )


class HeaderSpace:
    """A finite union of :class:`Rect` objects (not necessarily disjoint)."""

    __slots__ = ("_rects",)

    def __init__(self, rects: Iterable[Rect] = ()) -> None:
        self._rects: tuple[Rect, ...] = tuple(
            r for r in rects if not r.is_empty()
        )

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls) -> "HeaderSpace":
        return cls(())

    @classmethod
    def full(cls) -> "HeaderSpace":
        return cls((Rect(),))

    @classmethod
    def dst_prefix(cls, prefix: Prefix) -> "HeaderSpace":
        return cls((Rect(dst_ip=IntervalSet.from_prefix(prefix)),))

    @classmethod
    def dst_set(cls, values: IntervalSet) -> "HeaderSpace":
        return cls((Rect(dst_ip=values),))

    # -- queries ----------------------------------------------------------

    @property
    def rects(self) -> tuple[Rect, ...]:
        return self._rects

    def is_empty(self) -> bool:
        return not self._rects

    def __bool__(self) -> bool:
        return bool(self._rects)

    def contains_packet(self, packet: Packet) -> bool:
        return any(r.contains_packet(packet) for r in self._rects)

    def dst_values(self) -> IntervalSet:
        """Projection onto the destination-IP field."""
        return IntervalSet.union_all(rect.dst_ip for rect in self._rects)

    def sample(self) -> Optional[Packet]:
        if not self._rects:
            return None
        return min(r.sample() for r in self._rects)

    # -- algebra ----------------------------------------------------------

    def union(self, other: "HeaderSpace") -> "HeaderSpace":
        return HeaderSpace(self._rects + other._rects)

    def intersection(self, other: "HeaderSpace") -> "HeaderSpace":
        out: list[Rect] = []
        for a in self._rects:
            for b in other._rects:
                piece = a.intersect(b)
                if not piece.is_empty():
                    out.append(piece)
        return HeaderSpace(out)

    def difference(self, other: "HeaderSpace") -> "HeaderSpace":
        remaining = list(self._rects)
        for sub in other._rects:
            nxt: list[Rect] = []
            for rect in remaining:
                nxt.extend(rect.subtract(sub))
            remaining = nxt
            if not remaining:
                break
        return HeaderSpace(remaining)

    def complement(self) -> "HeaderSpace":
        return HeaderSpace.full() - self

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def equivalent(self, other: "HeaderSpace") -> bool:
        """Set equality (representation-independent)."""
        return (self - other).is_empty() and (other - self).is_empty()

    def __iter__(self) -> Iterator[Rect]:
        return iter(self._rects)

    def __repr__(self) -> str:
        return f"HeaderSpace[{len(self._rects)} rects]"
