"""MPLS label stack primitives (RFC 3032).

A label stack entry (LSE) carries a 20-bit label, a 3-bit traffic class, a
bottom-of-stack bit, and an 8-bit TTL (Fig. 2 of the paper).  The simulator
threads real :class:`LabelStack` objects through its forwarding plane so
ICMP quoting (RFC 4950) can expose exactly what a real ``time-exceeded``
message would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Iterator

MAX_LABEL = 2**20 - 1
MAX_TC = 2**3 - 1
MAX_TTL = 2**8 - 1


class ReservedLabel(enum.IntEnum):
    """Special-purpose labels (RFC 3032 / RFC 7274).

    Values 0-15 are reserved; values 16-255 are set aside for future
    special purposes, which is why vendor label pools start at 16 or
    higher (Table 1 caption in the paper).
    """

    IPV4_EXPLICIT_NULL = 0
    ROUTER_ALERT = 1
    IPV6_EXPLICIT_NULL = 2
    IMPLICIT_NULL = 3
    ENTROPY_LABEL_INDICATOR = 7
    GAL = 13
    OAM_ALERT = 14
    EXTENSION = 15


#: First label value usable for ordinary forwarding.
FIRST_UNRESERVED_LABEL = 16


@lru_cache(maxsize=1 << 16)
def _cached_plain_lse(
    label: int, tc: int, bottom: bool, ttl: int
) -> "LabelStackEntry":
    return LabelStackEntry(label=label, tc=tc, bottom_of_stack=bottom, ttl=ttl)


@lru_cache(maxsize=1 << 16)
def _cached_probe_lse(
    label: int, tc: int, bottom: bool, ttl_value: int
) -> "LabelStackEntry":
    # import here to avoid a module cycle (walkcache imports mpls); the
    # pooled SymTtl keeps the probe-provenance flag the recorder reads
    from repro.netsim.walkcache import _PROBE_TTL_POOL

    return LabelStackEntry(
        label=label, tc=tc, bottom_of_stack=bottom, ttl=_PROBE_TTL_POOL[ttl_value]
    )


def _cached_lse(label: int, tc: int, bottom: bool, ttl: int) -> "LabelStackEntry":
    """A memoized LSE: per-hop swap/decrement rebuilds the same few
    thousand (label, tc, bottom, ttl) combinations over and over.

    Probe-derived symbolic TTLs (:class:`~repro.netsim.walkcache.SymTtl`
    with ``probe=True``) hash equal to their plain-int value, so they get
    a cache of their own keyed by the concrete value.
    """
    if getattr(ttl, "probe", False):
        return _cached_probe_lse(label, tc, bottom, int(ttl))
    return _cached_plain_lse(label, tc, bottom, ttl)


@dataclass(frozen=True, slots=True)
class LabelStackEntry:
    """One 32-bit MPLS label stack entry."""

    label: int
    tc: int = 0
    bottom_of_stack: bool = False
    ttl: int = MAX_TTL

    def __post_init__(self) -> None:
        if not 0 <= self.label <= MAX_LABEL:
            raise ValueError(f"label out of 20-bit range: {self.label}")
        if not 0 <= self.tc <= MAX_TC:
            raise ValueError(f"traffic class out of 3-bit range: {self.tc}")
        if not 0 <= self.ttl <= MAX_TTL:
            raise ValueError(f"LSE-TTL out of 8-bit range: {self.ttl}")

    def encode(self) -> int:
        """Pack into the 32-bit on-wire representation (Fig. 2)."""
        return (
            (self.label << 12)
            | (self.tc << 9)
            | (int(self.bottom_of_stack) << 8)
            | self.ttl
        )

    @classmethod
    def decode(cls, word: int) -> "LabelStackEntry":
        """Unpack a 32-bit on-wire LSE."""
        if not 0 <= word <= 2**32 - 1:
            raise ValueError(f"LSE word out of 32-bit range: {word}")
        return cls(
            label=(word >> 12) & MAX_LABEL,
            tc=(word >> 9) & MAX_TC,
            bottom_of_stack=bool((word >> 8) & 1),
            ttl=word & MAX_TTL,
        )

    def __str__(self) -> str:
        marker = "|S" if self.bottom_of_stack else ""
        return f"L={self.label},ttl={self.ttl}{marker}"


class LabelStack:
    """An ordered MPLS label stack; index 0 is the top (active) entry.

    The stack maintains the bottom-of-stack invariant: exactly the last
    entry has ``bottom_of_stack=True`` (when non-empty).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[LabelStackEntry] = ()) -> None:
        self._entries: list[LabelStackEntry] = []
        for entry in entries:
            self._entries.append(entry)
        self._fix_bottom()

    @classmethod
    def from_labels(cls, labels: Iterable[int], ttl: int = MAX_TTL) -> "LabelStack":
        """Build a stack from raw label values, top first."""
        return cls(LabelStackEntry(label=label, ttl=ttl) for label in labels)

    def _fix_bottom(self) -> None:
        for i, entry in enumerate(self._entries):
            is_bottom = i == len(self._entries) - 1
            if entry.bottom_of_stack != is_bottom:
                self._entries[i] = replace(entry, bottom_of_stack=is_bottom)

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[LabelStackEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> LabelStackEntry:
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelStack):
            return NotImplemented
        return self._entries == other._entries

    @property
    def depth(self) -> int:
        """Number of entries in the stack."""
        return len(self._entries)

    @property
    def top(self) -> LabelStackEntry:
        """The active (first) entry."""
        if not self._entries:
            raise IndexError("empty label stack has no top")
        return self._entries[0]

    def labels(self) -> tuple[int, ...]:
        """Raw label values, top first."""
        return tuple(entry.label for entry in self._entries)

    def copy(self) -> "LabelStack":
        """An independent copy of the stack."""
        return LabelStack(self._entries)

    # -- LSR operations (Sec. 2.1 of the paper) ----------------------------

    def push(self, entry: LabelStackEntry) -> None:
        """PUSH: prepend an LSE on top of the stack."""
        self._entries.insert(0, entry)
        self._fix_bottom()

    def pop(self) -> LabelStackEntry:
        """POP: remove and return the top LSE."""
        if not self._entries:
            raise IndexError("pop from empty label stack")
        entry = self._entries.pop(0)
        self._fix_bottom()
        return entry

    def swap(self, new_label: int) -> None:
        """SWAP: replace the top label, keeping TC and TTL."""
        if not self._entries:
            raise IndexError("swap on empty label stack")
        entry = self._entries[0]
        self._entries[0] = _cached_lse(
            new_label, entry.tc, entry.bottom_of_stack, entry.ttl
        )

    def decrement_ttl(self) -> None:
        """Decrement the top LSE-TTL (every transit LSR does this).

        Raises :class:`ValueError` if the TTL is already zero; the
        forwarding engine must check for expiry before decrementing past
        zero, as a real LSR would drop the packet and emit ICMP.
        """
        if not self._entries:
            raise IndexError("TTL decrement on empty label stack")
        entry = self._entries[0]
        if entry.ttl == 0:
            raise ValueError("cannot decrement an expired LSE-TTL")
        self._entries[0] = _cached_lse(
            entry.label, entry.tc, entry.bottom_of_stack, entry.ttl - 1
        )

    def set_top_ttl(self, ttl: int) -> None:
        """Overwrite the top entry's TTL."""
        if not self._entries:
            raise IndexError("TTL set on empty label stack")
        entry = self._entries[0]
        self._entries[0] = _cached_lse(
            entry.label, entry.tc, entry.bottom_of_stack, ttl
        )

    # -- wire format --------------------------------------------------------

    def encode(self) -> tuple[int, ...]:
        """The 32-bit on-wire words, top first."""
        return tuple(entry.encode() for entry in self._entries)

    @classmethod
    def decode(cls, words: Iterable[int]) -> "LabelStack":
        """Rebuild a stack from on-wire words."""
        return cls(LabelStackEntry.decode(word) for word in words)

    def __str__(self) -> str:
        inner = "; ".join(str(e) for e in self._entries)
        return f"[{inner}]"

    def __repr__(self) -> str:
        return f"LabelStack({self._entries!r})"
