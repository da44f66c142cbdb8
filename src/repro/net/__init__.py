"""Core networking primitives.

This package provides the value types everything else in :mod:`repro` is
built on: IPv4 addresses and prefixes (:mod:`repro.net.addr`), sets of
32-bit integers as disjoint closed intervals (:mod:`repro.net.intervals`),
longest-prefix-match tables (:mod:`repro.net.trie`), and a rectangle-based
header-space algebra used by the verification engine
(:mod:`repro.net.headerspace`).
"""

from repro.net.addr import (
    IPv4Address,
    Prefix,
    format_ipv4,
    parse_ipv4,
)
from repro.net.headerspace import Field, HeaderSpace, Rect
from repro.net.intervals import Interval, IntervalSet
from repro.net.trie import PrefixTrie

__all__ = [
    "Field",
    "HeaderSpace",
    "IPv4Address",
    "Interval",
    "IntervalSet",
    "Prefix",
    "PrefixTrie",
    "Rect",
    "format_ipv4",
    "parse_ipv4",
]
