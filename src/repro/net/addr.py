"""IPv4 addresses and prefixes.

These are deliberately small, hashable value types rather than wrappers
around :mod:`ipaddress`; the emulator and verifier manipulate millions of
routes, and a plain ``int`` with helpers is both faster and easier to feed
into the interval algebra in :mod:`repro.net.intervals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

MAX_IPV4 = 0xFFFFFFFF


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad ``text`` into a 32-bit integer.

    Surrounding whitespace is ignored; each octet is one to three
    decimal digits (leading zeros allowed, any Unicode decimal digit
    accepted, as ``int`` reads them) and at most 255.

    >>> parse_ipv4("10.0.0.1")
    167772161
    """
    try:
        a, b, c, d = text.strip().split(".")
    except ValueError:
        raise AddressError(f"malformed IPv4 address: {text!r}") from None
    # isdecimal() is false for "", signs, "_" and every other character
    # int() would otherwise let through.
    if not (
        a.isdecimal() and b.isdecimal() and c.isdecimal() and d.isdecimal()
        and len(a) <= 3 and len(b) <= 3 and len(c) <= 3 and len(d) <= 3
    ):
        raise AddressError(f"malformed IPv4 address: {text!r}")
    a, b, c, d = int(a), int(b), int(c), int(d)
    if a > 255 or b > 255 or c > 255 or d > 255:
        raise AddressError(f"octet out of range in {text!r}")
    return (a << 24) | (b << 16) | (c << 8) | d


def format_ipv4(value: int) -> str:
    """Format a 32-bit integer as a dotted quad.

    >>> format_ipv4(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= MAX_IPV4:
        raise AddressError(f"IPv4 value out of range: {value}")
    return "%d.%d.%d.%d" % (
        value >> 24, (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF
    )


@lru_cache(maxsize=None)
def prefix_mask(length: int) -> int:
    """Return the network mask for a prefix of ``length`` bits."""
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range: {length}")
    if length == 0:
        return 0
    return (MAX_IPV4 << (32 - length)) & MAX_IPV4


@dataclass(frozen=True, order=True)
class IPv4Address:
    """A single IPv4 address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= MAX_IPV4:
            raise AddressError(f"IPv4 value out of range: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        return cls(parse_ipv4(text))

    def __str__(self) -> str:
        return format_ipv4(self.value)

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True, order=True, slots=True)
class Prefix:
    """An IPv4 prefix (network address + mask length).

    The network address is canonicalized: host bits must be zero, or
    :class:`AddressError` is raised. Use :meth:`containing` to build the
    canonical prefix covering an arbitrary address.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= MAX_IPV4:
            raise AddressError(f"network out of range: {self.network}")
        if self.network & ~prefix_mask(self.length) & MAX_IPV4:
            raise AddressError(
                f"host bits set in {format_ipv4(self.network)}/{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or a bare address, meaning /32)."""
        text = text.strip()
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            try:
                length = int(len_text)
            except ValueError as exc:
                raise AddressError(f"malformed prefix length: {text!r}") from exc
        else:
            addr_text, length = text, 32
        return cls(parse_ipv4(addr_text), length)

    @classmethod
    def containing(cls, address: int, length: int) -> "Prefix":
        """The canonical ``length``-bit prefix containing ``address``."""
        return cls(address & prefix_mask(length), length)

    @property
    def mask(self) -> int:
        return prefix_mask(self.length)

    @property
    def first(self) -> int:
        """Lowest address covered by this prefix."""
        return self.network

    @property
    def last(self) -> int:
        """Highest address covered by this prefix."""
        return self.network | (~self.mask & MAX_IPV4)

    @property
    def num_addresses(self) -> int:
        return self.last - self.first + 1

    def contains(self, address: int) -> bool:
        return (address & self.mask) == self.network

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when ``other`` is equal to or more specific than us."""
        return other.length >= self.length and self.contains(other.network)

    def overlaps(self, other: "Prefix") -> bool:
        return self.contains(other.network) or other.contains(self.network)

    def subnets(self) -> tuple["Prefix", "Prefix"]:
        """Split into the two immediate children (length + 1)."""
        if self.length >= 32:
            raise AddressError(f"cannot split a /32: {self}")
        child_len = self.length + 1
        low = Prefix(self.network, child_len)
        high = Prefix(self.network | (1 << (32 - child_len)), child_len)
        return low, high

    def supernet(self) -> "Prefix":
        """The parent prefix one bit shorter."""
        if self.length == 0:
            raise AddressError("0.0.0.0/0 has no supernet")
        parent_len = self.length - 1
        return Prefix(self.network & prefix_mask(parent_len), parent_len)

    def hosts(self) -> range:
        """Iterate over usable host addresses.

        For /31 (point-to-point, RFC 3021) and /32, every address is
        usable; otherwise network and broadcast addresses are excluded.
        """
        if self.length >= 31:
            return range(self.first, self.last + 1)
        return range(self.first + 1, self.last)

    def __str__(self) -> str:
        return f"{format_ipv4(self.network)}/{self.length}"
