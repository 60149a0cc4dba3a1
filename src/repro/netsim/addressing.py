"""IPv4 addressing primitives used throughout the simulator.

The simulator manipulates a large number of addresses (the paper's dataset
contains ~1.9 million distinct IPv4 addresses), so addresses are stored as
plain integers wrapped in a tiny value type rather than
:class:`ipaddress.IPv4Address` objects, which are an order of magnitude
heavier to hash and compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

_MAX_IPV4 = 2**32 - 1


def _check_int(value: int) -> None:
    if not 0 <= value <= _MAX_IPV4:
        raise ValueError(f"IPv4 address out of range: {value!r}")


@dataclass(frozen=True, slots=True, order=True)
class IPv4Address:
    """An IPv4 address stored as an unsigned 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        _check_int(self.value)

    @classmethod
    def from_string(cls, dotted: str) -> "IPv4Address":
        """Parse dotted-quad notation, e.g. ``"192.0.2.1"``."""
        parts = dotted.split(".")
        if len(parts) != 4:
            raise ValueError(f"malformed IPv4 address: {dotted!r}")
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError(f"malformed IPv4 address: {dotted!r}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self.value + offset)

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True, slots=True)
class IPv4Prefix:
    """A CIDR prefix, e.g. ``198.51.100.0/24``."""

    network: IPv4Address
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        if self.network.value & (self.host_mask()):
            raise ValueError(
                f"host bits set in prefix {self.network}/{self.length}"
            )

    @classmethod
    def from_string(cls, cidr: str) -> "IPv4Prefix":
        """Parse CIDR notation, e.g. ``"198.51.100.0/24"``."""
        address, _, length = cidr.partition("/")
        if not length:
            raise ValueError(f"missing prefix length: {cidr!r}")
        return cls(IPv4Address.from_string(address), int(length))

    def netmask(self) -> int:
        """The prefix's network mask as a 32-bit integer."""
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    def host_mask(self) -> int:
        """Bit-complement of the netmask."""
        return ~self.netmask() & 0xFFFFFFFF

    def num_addresses(self) -> int:
        """Addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def contains(self, address: IPv4Address) -> bool:
        """True when the address falls inside the prefix."""
        return (address.value & self.netmask()) == self.network.value

    def hosts(self) -> Iterator[IPv4Address]:
        """Iterate over every address in the prefix (network/broadcast
        included -- the simulator does not reserve them)."""
        base = self.network.value
        for offset in range(self.num_addresses()):
            yield IPv4Address(base + offset)

    def address_at(self, offset: int) -> IPv4Address:
        """The ``offset``-th address of the prefix."""
        if not 0 <= offset < self.num_addresses():
            raise IndexError(f"offset {offset} outside /{self.length}")
        return IPv4Address(self.network.value + offset)

    def subnets(self, new_length: int) -> Iterator["IPv4Prefix"]:
        """Split into sub-prefixes of ``new_length``."""
        if new_length < self.length:
            raise ValueError("new prefix length must not be shorter")
        step = 1 << (32 - new_length)
        for base in range(
            self.network.value,
            self.network.value + self.num_addresses(),
            step,
        ):
            yield IPv4Prefix(IPv4Address(base), new_length)

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"


class PrefixIndex:
    """Longest-prefix match: one dict per prefix length, longest first.

    ``lookup`` costs one masked dict probe per distinct length held,
    whatever the number of prefixes.  Among identical prefixes the one
    added first wins.  Values must not be None.
    """

    __slots__ = ("_tables",)

    def __init__(self) -> None:
        #: (length, netmask, {network value: value}), longest first
        self._tables: list[tuple[int, int, dict[int, object]]] = []

    def add(self, prefix: IPv4Prefix, value: object) -> None:
        """Index ``value`` under ``prefix`` (a repeat keeps the first)."""
        for length, _, table in self._tables:
            if length == prefix.length:
                table.setdefault(prefix.network.value, value)
                return
        self._tables.append(
            (prefix.length, prefix.netmask(), {prefix.network.value: value})
        )
        self._tables.sort(key=lambda entry: -entry[0])

    def lookup(self, address: IPv4Address) -> object | None:
        """The value of the longest prefix covering ``address``, or None."""
        value = address.value
        for _, mask, table in self._tables:
            hit = table.get(value & mask)
            if hit is not None:
                return hit
        return None


class PrefixAllocator:
    """Sequentially allocates disjoint sub-prefixes out of a supernet.

    Each simulated AS receives its own address space from a global
    allocator so that interface addresses never collide across ASes, which
    mirrors how the real campaign could rely on address ownership for
    bdrmapIT-style annotation.
    """

    def __init__(self, supernet: IPv4Prefix) -> None:
        self._supernet = supernet
        self._cursor = supernet.network.value
        self._end = supernet.network.value + supernet.num_addresses()

    @property
    def supernet(self) -> IPv4Prefix:
        """The supernet this allocator carves from."""
        return self._supernet

    def allocate(self, length: int) -> IPv4Prefix:
        """Carve the next aligned prefix of the requested length."""
        if length < self._supernet.length:
            raise ValueError("requested prefix larger than supernet")
        size = 1 << (32 - length)
        # Align the cursor to the requested prefix size.
        cursor = (self._cursor + size - 1) & ~(size - 1)
        if cursor + size > self._end:
            raise MemoryError(
                f"supernet {self._supernet} exhausted "
                f"(requested /{length})"
            )
        self._cursor = cursor + size
        return IPv4Prefix(IPv4Address(cursor), length)

    def remaining_addresses(self) -> int:
        """Unallocated address count."""
        return self._end - self._cursor
