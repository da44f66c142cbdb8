"""Property-based tests (hypothesis) for the net layer.

The verification engine's exhaustiveness rests entirely on this algebra
being correct, so it gets adversarial random testing: interval-set laws,
the LPM table against a linear-scan oracle, CIDR decomposition, atom
partitioning, and header-space set laws.
"""

import pickle
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.addr import (
    MAX_IPV4,
    AddressError,
    Prefix,
    format_ipv4,
    parse_ipv4,
)
from repro.net.headerspace import HeaderSpace, Rect
from repro.net.intervals import (
    Interval,
    IntervalSet,
    _interval_to_prefixes,
    atoms,
    overlapping,
)
from repro.net.trie import PrefixTrie

WIDTH = 12  # small universe so brute force is cheap
UNIVERSE = (1 << WIDTH) - 1


@st.composite
def interval_sets(draw):
    n = draw(st.integers(0, 6))
    intervals = []
    for _ in range(n):
        lo = draw(st.integers(0, UNIVERSE))
        hi = draw(st.integers(lo, UNIVERSE))
        intervals.append(Interval(lo, hi))
    return IntervalSet(intervals)


def members(s: IntervalSet) -> set:
    out = set()
    for ival in s:
        out.update(range(ival.lo, ival.hi + 1))
    return out


@st.composite
def prefixes(draw):
    length = draw(st.integers(0, 32))
    address = draw(st.integers(0, MAX_IPV4))
    return Prefix.containing(address, length)


class TestIntervalSetLaws:
    @given(interval_sets(), interval_sets())
    def test_union_matches_sets(self, a, b):
        assert members(a | b) == members(a) | members(b)

    @given(interval_sets(), interval_sets())
    def test_intersection_matches_sets(self, a, b):
        assert members(a & b) == members(a) & members(b)

    @given(interval_sets(), interval_sets())
    def test_difference_matches_sets(self, a, b):
        assert members(a - b) == members(a) - members(b)

    @given(interval_sets())
    def test_complement_involution(self, a):
        assert a.complement(WIDTH).complement(WIDTH) == a

    @given(interval_sets())
    def test_canonical_form_unique(self, a):
        rebuilt = IntervalSet(a.intervals)
        assert rebuilt.intervals == a.intervals

    @given(interval_sets(), interval_sets())
    def test_subset_consistency(self, a, b):
        assert a.issubset(b) == (members(a) <= members(b))

    @given(interval_sets())
    def test_len_matches_cardinality(self, a):
        assert len(a) == len(members(a))

    @given(interval_sets(), st.integers(0, UNIVERSE))
    def test_membership(self, a, value):
        assert (value in a) == (value in members(a))


class TestCidrDecomposition:
    @given(interval_sets())
    def test_to_prefixes_roundtrip(self, a):
        assert IntervalSet.from_prefixes(a.to_prefixes()) == a

    @given(interval_sets())
    def test_prefixes_are_disjoint(self, a):
        prefixes = a.to_prefixes()
        seen = IntervalSet.empty()
        for prefix in prefixes:
            piece = IntervalSet.from_prefix(prefix)
            assert piece.isdisjoint(seen)
            seen = seen | piece


class TestAtoms:
    @given(st.lists(interval_sets(), max_size=4))
    def test_atoms_partition_and_refine(self, sets):
        pieces = atoms(sets, width=WIDTH)
        total = IntervalSet.empty()
        for piece in pieces:
            assert not piece.is_empty()
            assert piece.isdisjoint(total)
            total = total | piece
        assert total == IntervalSet.full(WIDTH)
        for s in sets:
            for piece in pieces:
                overlap = piece & s
                assert overlap.is_empty() or overlap == piece


# -- flat-integer IntervalSet vs the tuple-of-Interval implementation --------


class OracleIntervalSet:
    """``IntervalSet`` as it was before its flat-integer representation:
    a tuple of validated :class:`Interval` objects, re-sorted by
    ``_normalize`` after every operation. Kept as the reference the
    production class is checked against."""

    __slots__ = ("_ivals",)

    def __init__(self, intervals=()) -> None:
        self._ivals = _oracle_normalize(intervals)

    @classmethod
    def empty(cls):
        return cls(())

    @classmethod
    def of(cls, *values):
        return cls(Interval(v, v) for v in values)

    @classmethod
    def span(cls, lo, hi):
        return cls((Interval(lo, hi),))

    @classmethod
    def full(cls, width=32):
        return cls.span(0, (1 << width) - 1)

    @classmethod
    def from_prefix(cls, prefix):
        return cls.span(prefix.first, prefix.last)

    @classmethod
    def from_prefixes(cls, prefixes):
        return cls(Interval(p.first, p.last) for p in prefixes)

    @property
    def intervals(self):
        return self._ivals

    def is_empty(self):
        return not self._ivals

    def __bool__(self):
        return bool(self._ivals)

    def __len__(self):
        return sum(len(ival) for ival in self._ivals)

    def __iter__(self):
        return iter(self._ivals)

    def __contains__(self, value):
        lo, hi = 0, len(self._ivals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            ival = self._ivals[mid]
            if value < ival.lo:
                hi = mid - 1
            elif value > ival.hi:
                lo = mid + 1
            else:
                return True
        return False

    def min(self):
        if not self._ivals:
            raise ValueError("min() of empty IntervalSet")
        return self._ivals[0].lo

    def max(self):
        if not self._ivals:
            raise ValueError("max() of empty IntervalSet")
        return self._ivals[-1].hi

    def issubset(self, other):
        return (self - other).is_empty()

    def isdisjoint(self, other):
        return (self & other).is_empty()

    def union(self, other):
        if not self._ivals:
            return other
        if not other._ivals:
            return self
        return OracleIntervalSet(self._ivals + other._ivals)

    def intersection(self, other):
        result = []
        i = j = 0
        a, b = self._ivals, other._ivals
        while i < len(a) and j < len(b):
            lo = max(a[i].lo, b[j].lo)
            hi = min(a[i].hi, b[j].hi)
            if lo <= hi:
                result.append(Interval(lo, hi))
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        return OracleIntervalSet(result)

    def difference(self, other):
        result = []
        j = 0
        b = other._ivals
        for ival in self._ivals:
            lo = ival.lo
            while j < len(b) and b[j].hi < lo:
                j += 1
            k = j
            while k < len(b) and b[k].lo <= ival.hi:
                if b[k].lo > lo:
                    result.append(Interval(lo, b[k].lo - 1))
                lo = max(lo, b[k].hi + 1)
                if lo > ival.hi:
                    break
                k += 1
            if lo <= ival.hi:
                result.append(Interval(lo, ival.hi))
        return OracleIntervalSet(result)

    def complement(self, width=32):
        return OracleIntervalSet.full(width) - self

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __eq__(self, other):
        if not isinstance(other, OracleIntervalSet):
            return NotImplemented
        return self._ivals == other._ivals

    def __hash__(self):
        return hash(self._ivals)

    def to_prefixes(self):
        prefixes = []
        for ival in self._ivals:
            prefixes.extend(_interval_to_prefixes(ival.lo, ival.hi))
        return prefixes

    def __repr__(self):
        body = ", ".join(str(ival) for ival in self._ivals)
        return f"IntervalSet({{{body}}})"


def _oracle_normalize(intervals):
    merged = []
    for ival in sorted(intervals):
        if merged and merged[-1].touches(ival):
            last = merged[-1]
            merged[-1] = Interval(last.lo, max(last.hi, ival.hi))
        else:
            merged.append(ival)
    return tuple(merged)


def oracle_atoms(sets, width=32):
    universe_hi = (1 << width) - 1
    cuts = {0, universe_hi + 1}
    for s in sets:
        for ival in s:
            cuts.add(ival.lo)
            cuts.add(ival.hi + 1)
    ordered = sorted(cuts)
    return [
        OracleIntervalSet.span(lo, min(nxt - 1, universe_hi))
        for lo, nxt in zip(ordered, ordered[1:])
        if lo <= universe_hi
    ]


#: Bounds that stress the edges: both ends of the 32-bit space, and
#: runs of neighbours so adjacent intervals (``hi + 1 == lo``) occur.
_EDGE_BOUNDS = (0, 1, 2, 3, 255, 256, MAX_IPV4 - 2, MAX_IPV4 - 1, MAX_IPV4)
_bound = st.one_of(
    st.sampled_from(_EDGE_BOUNDS),
    st.integers(0, 64),
    st.integers(0, MAX_IPV4),
)


@st.composite
def interval_lists(draw):
    """Raw, possibly overlapping and adjacent, intervals in 32 bits."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        lo = draw(_bound)
        if out and draw(st.booleans()) and out[-1].hi < MAX_IPV4:
            lo = out[-1].hi + 1  # adjacent to the previous run
        hi = draw(st.one_of(st.just(lo), st.integers(lo, min(lo + 8, MAX_IPV4)),
                            st.integers(lo, MAX_IPV4)))
        out.append(Interval(lo, hi))
    return out


def both(ivals):
    return IntervalSet(ivals), OracleIntervalSet(ivals)


def agree(got: IntervalSet, want: OracleIntervalSet) -> None:
    assert got.intervals == want.intervals
    assert list(iter(got)) == list(iter(want))
    assert repr(got) == repr(want)


def outcome_of(function, *args):
    try:
        return None, function(*args)
    except ValueError:
        return ValueError, None


class TestIntervalSetOracle:
    """Every constructor and operation of the flat-integer class agrees
    with the reference implementation it replaced."""

    @given(interval_lists())
    def test_constructor_and_iteration(self, ivals):
        agree(*both(ivals))

    @given(st.lists(_bound, max_size=12))
    def test_of(self, values):
        agree(IntervalSet.of(*values), OracleIntervalSet.of(*values))

    @given(st.integers(-2, MAX_IPV4), st.integers(-2, MAX_IPV4))
    def test_span_including_invalid(self, lo, hi):
        got = outcome_of(IntervalSet.span, lo, hi)
        want = outcome_of(OracleIntervalSet.span, lo, hi)
        assert got[0] is want[0]
        if got[0] is None:
            agree(got[1], want[1])

    def test_of_rejects_negative(self):
        with pytest.raises(ValueError):
            IntervalSet.of(3, -1)
        with pytest.raises(ValueError):
            OracleIntervalSet.of(3, -1)

    @given(st.lists(prefixes(), max_size=8))
    def test_from_prefixes_and_batch_union(self, prefix_list):
        agree(
            IntervalSet.from_prefixes(prefix_list),
            OracleIntervalSet.from_prefixes(prefix_list),
        )
        folded = OracleIntervalSet.empty()
        for prefix in prefix_list:
            agree(
                IntervalSet.from_prefix(prefix),
                OracleIntervalSet.from_prefix(prefix),
            )
            folded = folded | OracleIntervalSet.from_prefix(prefix)
        agree(
            IntervalSet.union_all(
                IntervalSet.from_prefix(p) for p in prefix_list
            ),
            folded,
        )

    @given(st.lists(interval_lists(), max_size=5))
    def test_batch_union_of_sets(self, lists):
        folded = OracleIntervalSet.empty()
        for ivals in lists:
            folded = folded | OracleIntervalSet(ivals)
        agree(IntervalSet.union_all(IntervalSet(i) for i in lists), folded)

    @given(interval_lists(), interval_lists())
    def test_binary_algebra(self, left, right):
        a, oa = both(left)
        b, ob = both(right)
        agree(a & b, oa & ob)
        agree(a | b, oa | ob)
        agree(a - b, oa - ob)
        agree(b - a, ob - oa)
        assert a.issubset(b) == oa.issubset(ob)
        assert a.isdisjoint(b) == oa.isdisjoint(ob)
        assert (a == b) == (oa == ob)
        if a == b:
            assert hash(a) == hash(b)

    @given(interval_lists(), st.sampled_from([8, 16, 32]))
    def test_complement(self, ivals, width):
        got, want = both(
            [i for i in ivals if i.hi < (1 << width)]
        )
        agree(got.complement(width), want.complement(width))

    @given(interval_lists())
    def test_queries(self, ivals):
        got, want = both(ivals)
        assert len(got) == len(want)
        assert bool(got) == bool(want) and got.is_empty() == want.is_empty()
        assert outcome_of(IntervalSet.min, got) == outcome_of(
            OracleIntervalSet.min, want
        )
        assert outcome_of(IntervalSet.max, got) == outcome_of(
            OracleIntervalSet.max, want
        )
        probes = {0, MAX_IPV4}
        for ival in ivals:
            probes.update((ival.lo - 1, ival.lo, ival.hi, ival.hi + 1))
        for value in probes:
            assert (value in got) == (value in want), value
        assert got.to_prefixes() == want.to_prefixes()

    @given(st.lists(interval_lists(), max_size=4))
    def test_atoms(self, lists):
        got = atoms([IntervalSet(i) for i in lists])
        want = oracle_atoms([OracleIntervalSet(i) for i in lists])
        assert [s.intervals for s in got] == [s.intervals for s in want]

    @given(interval_lists(), interval_lists())
    def test_equal_sets_hash_equal(self, left, right):
        # Two spellings of one set: the canonical forms must collide.
        a = IntervalSet(left + right)
        b = IntervalSet(right + left) | IntervalSet(left)
        assert a == b and hash(a) == hash(b)

    @given(interval_lists())
    def test_pickle_round_trip(self, ivals):
        original = IntervalSet(ivals)
        loaded = pickle.loads(pickle.dumps(original))
        assert loaded == original and hash(loaded) == hash(original)
        agree(loaded, OracleIntervalSet(ivals))
        assert (loaded | original) == original


class TestOverlapping:
    """``overlapping`` against intersecting every piece of the partition."""

    @given(st.lists(interval_lists(), max_size=4), interval_lists())
    @example([[Interval(10, 19)]], [Interval(10, 10)])
    @example([[Interval(10, 19)]], [Interval(19, 19)])
    @example([[Interval(10, 19)]], [Interval(0, MAX_IPV4)])
    def test_matches_full_scan(self, lists, restriction_ivals):
        partition = atoms([IntervalSet(i) for i in lists])
        lows = [piece.min() for piece in partition]
        restriction = IntervalSet(restriction_ivals)
        got = list(overlapping(partition, lows, restriction))
        want = [
            (index, piece & restriction)
            for index, piece in enumerate(partition)
            if not (piece & restriction).is_empty()
        ]
        assert got == want
        for index, piece in got:
            if piece == partition[index]:
                assert piece is partition[index]


@st.composite
def nested_prefixes(draw):
    """Prefixes that collide and nest: only 4 high and 2 low bits vary."""
    length = draw(st.integers(0, 32))
    address = (draw(st.integers(0, 15)) << 28) | draw(st.integers(0, 3))
    return Prefix.containing(address, length)


#: Stored values include every falsy shape a caller could store, and two
#: equal-but-distinct objects (lpm_intervals merges on identity only).
TABLE_VALUES = [None, 0, "", "a", "b", ["same"], ["same"]]


def linear_lpm(table: dict, address: int):
    """The oracle: scan every entry, keep the longest that contains."""
    best = None
    for prefix, value in table.items():
        if prefix.contains(address) and (
            best is None or prefix.length > best[0].length
        ):
            best = (prefix, value)
    return best


def probe_addresses(table: dict) -> list[int]:
    """Both edges of every prefix, and the addresses just outside."""
    out = {0, MAX_IPV4}
    for prefix in table:
        for address in (prefix.first - 1, prefix.first, prefix.last,
                        prefix.last + 1):
            if 0 <= address <= MAX_IPV4:
                out.add(address)
    return sorted(out)


def assert_table_equals(trie: PrefixTrie, table: dict, seen) -> None:
    assert len(trie) == len(table)
    assert bool(trie) == bool(table)
    expected = sorted(
        table.items(), key=lambda kv: (kv[0].network, kv[0].length)
    )
    items = list(trie.items())
    assert [p for p, _ in items] == [p for p, _ in expected]
    assert all(got is want for (_, got), (_, want) in zip(items, expected))
    assert list(trie.keys()) == [p for p, _ in expected]
    assert all(
        got is want
        for got, (_, want) in zip(trie.values(), expected, strict=True)
    )
    for prefix in seen:
        assert (prefix in trie) == (prefix in table)
        assert trie.get(prefix) is table.get(prefix)
        covering = list(trie.covering(prefix))
        assert [p for p, _ in covering] == sorted(
            (p for p in table if p.contains_prefix(prefix)),
            key=lambda p: p.length,
        )
        assert all(value is table[p] for p, value in covering)
    for address in probe_addresses(table):
        got, want = trie.longest_match(address), linear_lpm(table, address)
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0] == want[0] and got[1] is want[1]


def brute_force_intervals(table: dict) -> list:
    """LPM by linear scan at every boundary, merged on identity."""
    starts = {0}
    for prefix in table:
        starts.add(prefix.first)
        if prefix.last < MAX_IPV4:
            starts.add(prefix.last + 1)
    ordered = sorted(starts)
    out: list = []
    for lo, nxt in zip(ordered, ordered[1:] + [MAX_IPV4 + 1]):
        match = linear_lpm(table, lo)
        value = match[1] if match is not None else None
        if out and out[-1][2] is value:
            out[-1] = (out[-1][0], nxt - 1, value)
        else:
            out.append((lo, nxt - 1, value))
    return out


def assert_same_intervals(got: list, want: list) -> None:
    assert [r[:2] for r in got] == [r[:2] for r in want]
    assert all(a[2] is b[2] for a, b in zip(got, want))


class TestTrieVsBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "insert", "remove"]),
                st.one_of(nested_prefixes(), prefixes()),
                st.sampled_from(TABLE_VALUES),
            ),
            max_size=30,
        )
    )
    def test_script_matches_linear_scan(self, script):
        """Interleaved insert / replace / remove against a dict oracle.

        The comparison iterates the table after every step, so each
        mutation lands on a table whose sorted view is already cached.
        """
        trie = PrefixTrie()
        table: dict = {}
        seen = []
        for op, prefix, value in script:
            seen.append(prefix)
            if op == "insert":
                trie.insert(prefix, value)
                table[prefix] = value
            else:
                assert trie.remove(prefix) is table.pop(prefix, None)
            assert_table_equals(trie, table, seen)
            assert_same_intervals(
                trie.lpm_intervals(), brute_force_intervals(table)
            )

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(nested_prefixes(), prefixes()),
                st.sampled_from(TABLE_VALUES),
            ),
            max_size=25,
        )
    )
    def test_lpm_intervals_tile_the_space(self, entries):
        trie = PrefixTrie()
        table = {}
        for prefix, value in entries:
            trie.insert(prefix, value)
            table[prefix] = value
        ranges = trie.lpm_intervals()
        assert ranges[0][0] == 0 and ranges[-1][1] == MAX_IPV4
        for (lo, hi, value), nxt in zip(ranges, ranges[1:] + [None]):
            assert lo <= hi
            for address in (lo, hi):
                match = linear_lpm(table, address)
                assert value is (match[1] if match is not None else None)
            if nxt is not None:
                assert nxt[0] == hi + 1
                assert nxt[2] is not value  # maximal merge
        assert_same_intervals(ranges, brute_force_intervals(table))

    def test_intervals_merge_on_identity_not_equality(self):
        low, high = Prefix.parse("0.0.0.0/1"), Prefix.parse("128.0.0.0/1")
        shared = ["v"]
        trie = PrefixTrie()
        trie.insert(low, shared)
        trie.insert(high, shared)
        assert trie.lpm_intervals() == [(0, MAX_IPV4, shared)]
        trie.insert(high, ["v"])  # equal, but another object
        assert [r[:2] for r in trie.lpm_intervals()] == [
            (0, low.last), (high.first, MAX_IPV4)
        ]

    def test_empty_table_is_one_unmatched_range(self):
        assert PrefixTrie().lpm_intervals() == [(0, MAX_IPV4, None)]

    def test_contains_sees_falsy_values(self):
        trie = PrefixTrie()
        stored = {
            Prefix.parse("10.0.0.0/8"): None,
            Prefix.parse("10.0.0.0/9"): 0,
            Prefix.parse("0.0.0.0/0"): "",
        }
        for prefix, value in stored.items():
            trie.insert(prefix, value)
        assert all(prefix in trie for prefix in stored)
        assert Prefix.parse("10.0.0.0/10") not in trie
        assert Prefix.parse("11.0.0.0/8") not in trie
        assert len(trie) == 3

    def test_bucket_emptied_then_refilled(self):
        only24 = Prefix.parse("10.1.2.0/24")
        address = only24.first + 7
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "eight")
        trie.insert(only24, "first")
        assert trie.longest_match(address) == (only24, "first")
        assert trie.remove(only24) == "first"
        assert trie.longest_match(address)[1] == "eight"
        assert [v for _, v in trie.covering(only24)] == ["eight"]
        trie.insert(only24, "second")
        assert trie.longest_match(address) == (only24, "second")
        assert [v for _, v in trie.covering(only24)] == ["eight", "second"]
        assert len(trie) == 2

    def test_default_and_host_routes(self):
        default, host = Prefix.parse("0.0.0.0/0"), Prefix.parse("9.9.9.9/32")
        trie = PrefixTrie()
        trie.insert(default, "default")
        trie.insert(host, "host")
        assert trie.longest_match(host.network) == (host, "host")
        assert trie.longest_match(host.network + 1) == (default, "default")
        assert trie.longest_match(0)[1] == trie.longest_match(MAX_IPV4)[1]
        assert list(trie.covering(host)) == [(default, "default"), (host, "host")]
        assert trie.lpm_intervals() == [
            (0, host.network - 1, "default"),
            (host.network, host.network, "host"),
            (host.network + 1, MAX_IPV4, "default"),
        ]

    def test_all_33_lengths_populated(self):
        address = 0xAAAAAAAA
        chain = [Prefix.containing(address, n) for n in range(33)]
        trie = PrefixTrie()
        for prefix in reversed(chain):
            trie.insert(prefix, prefix.length)
        assert len(trie) == 33
        assert list(trie.keys()) == chain
        assert list(trie.covering(chain[-1])) == [(p, p.length) for p in chain]
        assert trie.longest_match(address) == (chain[32], 32)
        # Flipping bit n (from the top) leaves exactly the /n matching.
        for n in range(32):
            assert trie.longest_match(address ^ (1 << (31 - n)))[1] == n
        for prefix in chain[1::2]:
            trie.remove(prefix)
        assert trie.longest_match(address) == (chain[32], 32)
        assert trie.longest_match(address ^ 1)[1] == 30
        assert_same_intervals(
            trie.lpm_intervals(),
            brute_force_intervals({p: p.length for p in chain[0::2]}),
        )

    def test_view_refreshed_by_mutation_after_iteration(self):
        a, b = Prefix.parse("10.0.0.0/8"), Prefix.parse("9.0.0.0/8")
        trie = PrefixTrie()
        trie.insert(a, "a")
        held = trie.items()
        assert list(trie.items()) == [(a, "a")]
        trie.insert(b, "b")
        assert list(trie.items()) == [(b, "b"), (a, "a")]
        trie.insert(a, "A")  # replace keeps the size, still invalidates
        assert list(trie.values()) == ["b", "A"]
        trie.remove(b)
        assert list(trie.keys()) == [a]
        trie.clear()
        assert list(trie.items()) == [] and len(trie) == 0
        # An iterator taken before the mutations still walks the view it
        # was handed: views are replaced, never edited in place.
        assert list(held) == [(a, "a")]

    @settings(max_examples=50)
    @given(
        st.lists(st.tuples(prefixes(), st.integers()), max_size=20),
        st.lists(st.integers(0, MAX_IPV4), max_size=20),
    )
    def test_lpm_matches_linear_scan(self, entries, queries):
        trie = PrefixTrie()
        table = {}
        for prefix, value in entries:
            trie.insert(prefix, value)
            table[prefix] = value
        for address in queries:
            assert trie.longest_match(address) == linear_lpm(table, address)

    @settings(max_examples=50)
    @given(st.lists(st.tuples(prefixes(), st.integers()), max_size=20))
    def test_insert_remove_inverse(self, entries):
        trie = PrefixTrie()
        table = {}
        for prefix, value in entries:
            trie.insert(prefix, value)
            table[prefix] = value
        assert len(trie) == len(table)
        for prefix in list(table):
            assert trie.remove(prefix) == table.pop(prefix)
        assert len(trie) == 0


@st.composite
def header_spaces(draw):
    n = draw(st.integers(0, 3))
    rects = []
    for _ in range(n):
        rect = Rect()
        if draw(st.booleans()):
            lo = draw(st.integers(0, 1000))
            hi = draw(st.integers(lo, 2000))
            rect = rect.with_field(
                draw(st.sampled_from(list(__import__("repro.net.headerspace", fromlist=["Field"]).Field))),
                IntervalSet.span(lo, hi),
            )
        rects.append(rect)
    return HeaderSpace(rects)


class TestHeaderSpaceLaws:
    @settings(max_examples=40)
    @given(header_spaces(), header_spaces())
    def test_difference_disjoint_from_subtrahend(self, a, b):
        assert ((a - b) & b).is_empty()

    @settings(max_examples=40)
    @given(header_spaces(), header_spaces())
    def test_partition(self, a, b):
        # (a - b) | (a & b) == a
        rebuilt = (a - b) | (a & b)
        assert rebuilt.equivalent(a)

    @settings(max_examples=40)
    @given(header_spaces())
    def test_sample_in_space(self, a):
        packet = a.sample()
        if packet is not None:
            assert a.contains_packet(packet)


# -- dotted-quad codec vs the regex implementation it replaced -------------------

_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def parse_ipv4_oracle(text: str) -> int:
    """``parse_ipv4`` as it was before it lost its regex."""
    match = _IPV4_RE.match(text.strip())
    if match is None:
        raise AddressError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in match.groups():
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4_oracle(value: int) -> str:
    if not 0 <= value <= MAX_IPV4:
        raise AddressError(f"IPv4 value out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def outcome(function, argument):
    """``(None, value)``, or the error's type and message."""
    try:
        return None, function(argument)
    except Exception as exc:
        return type(exc), str(exc)


# Digits in three scripts, a superscript and a fraction (isdigit/isnumeric
# but not decimal), signs, the separators int() tolerates, and whitespace
# strip() does and does not remove.
_QUAD_ALPHABET = "0123456789.٣৭２²½+-_ \t\n\x0b\x1c\u00a0\u200b/xe"
_octets = st.one_of(
    st.integers(0, 999).map(str),
    st.integers(0, 255).map(lambda n: str(n).zfill(3)),
    st.text(_QUAD_ALPHABET, max_size=4),
)
_quads = st.one_of(
    st.lists(_octets, min_size=3, max_size=5).map(".".join),
    st.text(_QUAD_ALPHABET, max_size=20),
    st.text(max_size=12),
)
_padding = st.text(" \t\n\r\x0b\x0c\u00a0\u2003", max_size=2)


class TestDottedQuadCodec:
    @given(_padding, _quads, _padding)
    @example("", "1.2.3.4", "\n")
    @example("", "001.002.003.004", "")
    @example("", "0001.2.3.4", "")
    @example("", "256.1.1.1", "")
    @example("", "999.x.1.1", "")
    @example("", "+1.2.3.4", "")
    @example("", "1_0.2.3.4", "")
    @example("", "١٢٣.٤.٥.٦", "")
    @example("", "1.2.3.²", "")
    @example("", "1.2.3", "")
    @example("", "1.2.3.4.", "")
    @example("", "1.2.3\n.4", "")
    @settings(max_examples=500)
    def test_parse_accepts_rejects_and_reports_like_the_regex(
        self, left, body, right
    ):
        text = left + body + right
        assert outcome(parse_ipv4, text) == outcome(parse_ipv4_oracle, text)

    @given(st.integers(-(2**33), 2**33))
    @example(0)
    @example(MAX_IPV4)
    @example(-1)
    @example(MAX_IPV4 + 1)
    def test_format_matches_and_round_trips(self, value):
        assert outcome(format_ipv4, value) == outcome(format_ipv4_oracle, value)
        if 0 <= value <= MAX_IPV4:
            assert parse_ipv4(format_ipv4(value)) == value

    @pytest.mark.parametrize("bad", [None, 7, b"1.2.3.4", 1.5])
    def test_non_text_raises_the_same_type(self, bad):
        assert outcome(parse_ipv4, bad)[0] is outcome(parse_ipv4_oracle, bad)[0]
        assert (
            outcome(format_ipv4, bad)[0] is outcome(format_ipv4_oracle, bad)[0]
        )
