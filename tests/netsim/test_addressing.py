"""Unit and property tests for IPv4 addressing primitives."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.netsim.addressing import (
    IPv4Address,
    IPv4Prefix,
    PrefixAllocator,
    PrefixIndex,
)


def scan_longest_match(prefixes, address):
    """Oracle: the linear scan ``Network.originating_router`` once ran.

    The longest covering prefix wins; among equal lengths the first
    listed wins; an address outside every prefix gets None.
    """
    best = None  # (length, value)
    for prefix, value in prefixes:
        if prefix.contains(address) and (
            best is None or prefix.length > best[0]
        ):
            best = (prefix.length, value)
    return best[1] if best else None


def boundary_addresses(prefix):
    """The first and last address of a prefix and their outer neighbours."""
    first = prefix.network.value
    last = first + prefix.num_addresses() - 1
    return [
        IPv4Address(v)
        for v in (first - 1, first, first + 1, last - 1, last, last + 1)
        if 0 <= v < 2**32
    ]


class TestIPv4Address:
    def test_from_string_roundtrip(self):
        assert str(IPv4Address.from_string("192.0.2.1")) == "192.0.2.1"

    def test_value_arithmetic(self):
        assert IPv4Address.from_string("10.0.0.0").value == 10 << 24

    def test_zero_and_max(self):
        assert str(IPv4Address(0)) == "0.0.0.0"
        assert str(IPv4Address(2**32 - 1)) == "255.255.255.255"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IPv4Address(2**32)
        with pytest.raises(ValueError):
            IPv4Address(-1)

    def test_malformed_strings_rejected(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""):
            with pytest.raises(ValueError):
                IPv4Address.from_string(bad)

    def test_ordering(self):
        a = IPv4Address.from_string("10.0.0.1")
        b = IPv4Address.from_string("10.0.0.2")
        assert a < b

    def test_addition(self):
        a = IPv4Address.from_string("10.0.0.1")
        assert str(a + 5) == "10.0.0.6"

    def test_hashable(self):
        a = IPv4Address.from_string("10.0.0.1")
        b = IPv4Address.from_string("10.0.0.1")
        assert len({a, b}) == 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_string_roundtrip_property(self, value):
        address = IPv4Address(value)
        assert IPv4Address.from_string(str(address)) == address

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_int_conversion(self, value):
        assert int(IPv4Address(value)) == value


class TestIPv4Prefix:
    def test_from_string(self):
        p = IPv4Prefix.from_string("198.51.100.0/24")
        assert p.length == 24
        assert p.num_addresses() == 256

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            IPv4Prefix.from_string("198.51.100.1/24")

    def test_missing_length_rejected(self):
        with pytest.raises(ValueError):
            IPv4Prefix.from_string("198.51.100.0")

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            IPv4Prefix(IPv4Address(0), 33)

    def test_contains(self):
        p = IPv4Prefix.from_string("198.51.100.0/24")
        assert p.contains(IPv4Address.from_string("198.51.100.255"))
        assert not p.contains(IPv4Address.from_string("198.51.101.0"))

    def test_address_at(self):
        p = IPv4Prefix.from_string("198.51.100.0/24")
        assert str(p.address_at(7)) == "198.51.100.7"
        with pytest.raises(IndexError):
            p.address_at(256)

    def test_hosts_iteration(self):
        p = IPv4Prefix.from_string("192.0.2.0/30")
        assert [str(a) for a in p.hosts()] == [
            "192.0.2.0",
            "192.0.2.1",
            "192.0.2.2",
            "192.0.2.3",
        ]

    def test_subnets(self):
        p = IPv4Prefix.from_string("10.0.0.0/24")
        subs = list(p.subnets(26))
        assert len(subs) == 4
        assert str(subs[1]) == "10.0.0.64/26"

    def test_subnets_shorter_rejected(self):
        p = IPv4Prefix.from_string("10.0.0.0/24")
        with pytest.raises(ValueError):
            list(p.subnets(23))

    def test_slash32(self):
        p = IPv4Prefix.from_string("10.0.0.1/32")
        assert p.num_addresses() == 1
        assert p.contains(IPv4Address.from_string("10.0.0.1"))

    @given(st.integers(min_value=0, max_value=32))
    def test_netmask_and_hostmask_complementary(self, length):
        p = IPv4Prefix(IPv4Address(0), length)
        assert p.netmask() | p.host_mask() == 0xFFFFFFFF
        assert p.netmask() & p.host_mask() == 0

    @given(
        st.integers(min_value=8, max_value=30),
        st.integers(min_value=0, max_value=2**20),
    )
    def test_every_generated_host_is_contained(self, length, salt):
        base = (salt << (32 - 8)) % (2**32)
        base &= ~((1 << (32 - length)) - 1) & 0xFFFFFFFF
        p = IPv4Prefix(IPv4Address(base), length)
        assert p.contains(p.address_at(0))
        assert p.contains(p.address_at(p.num_addresses() - 1))


class TestPrefixAllocator:
    def test_sequential_disjoint(self):
        alloc = PrefixAllocator(IPv4Prefix.from_string("10.0.0.0/16"))
        a = alloc.allocate(24)
        b = alloc.allocate(24)
        assert a != b
        assert not a.contains(b.network)
        assert not b.contains(a.network)

    def test_alignment(self):
        alloc = PrefixAllocator(IPv4Prefix.from_string("10.0.0.0/16"))
        alloc.allocate(31)
        p = alloc.allocate(24)  # must skip to the next /24 boundary
        assert p.network.value % 256 == 0

    def test_exhaustion(self):
        alloc = PrefixAllocator(IPv4Prefix.from_string("10.0.0.0/30"))
        alloc.allocate(31)
        alloc.allocate(31)
        with pytest.raises(MemoryError):
            alloc.allocate(31)

    def test_larger_than_supernet_rejected(self):
        alloc = PrefixAllocator(IPv4Prefix.from_string("10.0.0.0/16"))
        with pytest.raises(ValueError):
            alloc.allocate(8)

    def test_remaining_shrinks(self):
        alloc = PrefixAllocator(IPv4Prefix.from_string("10.0.0.0/16"))
        before = alloc.remaining_addresses()
        alloc.allocate(24)
        assert alloc.remaining_addresses() == before - 256

    @given(st.lists(st.integers(min_value=20, max_value=32), max_size=30))
    def test_allocations_never_overlap(self, lengths):
        alloc = PrefixAllocator(IPv4Prefix.from_string("10.0.0.0/8"))
        prefixes = [alloc.allocate(length) for length in lengths]
        for i, a in enumerate(prefixes):
            for b in prefixes[i + 1 :]:
                assert not a.contains(b.network)
                assert not b.contains(a.network)


class TestPrefixIndex:
    def test_empty_index_matches_nothing(self):
        assert PrefixIndex().lookup(IPv4Address(0)) is None

    def test_longest_wins_in_any_order(self):
        index = PrefixIndex()
        index.add(IPv4Prefix.from_string("10.1.2.0/26"), "fine")
        index.add(IPv4Prefix.from_string("10.0.0.0/8"), "coarse")
        index.add(IPv4Prefix.from_string("10.1.0.0/16"), "middle")
        assert index.lookup(IPv4Address.from_string("10.1.2.63")) == "fine"
        assert index.lookup(IPv4Address.from_string("10.1.2.64")) == "middle"
        assert index.lookup(IPv4Address.from_string("10.9.0.1")) == "coarse"
        assert index.lookup(IPv4Address.from_string("11.0.0.0")) is None

    def test_first_of_identical_prefixes_wins(self):
        index = PrefixIndex()
        prefix = IPv4Prefix.from_string("192.0.2.0/24")
        index.add(prefix, 0)
        index.add(prefix, 1)
        assert index.lookup(IPv4Address.from_string("192.0.2.9")) == 0

    def test_default_route_covers_everything(self):
        index = PrefixIndex()
        index.add(IPv4Prefix.from_string("0.0.0.0/0"), 7)
        index.add(IPv4Prefix.from_string("255.255.255.255/32"), 8)
        assert index.lookup(IPv4Address(2**32 - 2)) == 7
        assert index.lookup(IPv4Address(2**32 - 1)) == 8

    def test_matches_linear_scan(self):
        """Differential: random overlapping prefixes of mixed lengths,
        repeats included, probed at every boundary, inside and outside."""
        rng = random.Random(20241019)
        window = IPv4Prefix.from_string("10.1.0.0/16")
        for _ in range(300):
            prefixes = []
            for value in range(rng.randint(1, 24)):
                if prefixes and rng.random() < 0.15:
                    prefixes.append((rng.choice(prefixes)[0], value))
                    continue
                length = rng.choice(
                    (8, 12, 16, 18, 20, 22, 24, 24, 26, 28, 30, 31, 32)
                )
                base = window.network.value + rng.randrange(2**16)
                mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
                prefix = IPv4Prefix(IPv4Address(base & mask), length)
                prefixes.append((prefix, value))
            index = PrefixIndex()
            for prefix, value in prefixes:
                index.add(prefix, value)
            probes = [
                a for prefix, _ in prefixes for a in boundary_addresses(prefix)
            ]
            probes += [
                IPv4Address(window.network.value + rng.randrange(2**16))
                for _ in range(40)
            ]
            probes += [IPv4Address(rng.randrange(2**32)) for _ in range(10)]
            for address in probes:
                assert index.lookup(address) == scan_longest_match(
                    prefixes, address
                ), (address, prefixes)
