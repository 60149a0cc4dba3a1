"""Detected SR-MPLS segment records.

"A segment, in this context, is a contiguous sequence of hops --
excluding the source router -- that has raised one of our detection
flags." (Sec. 4)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.flags import Flag, SIGNAL_STRENGTH
from repro.netsim.addressing import IPv4Address
from repro.util.slots import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class DetectedSegment:
    """One flagged SR-MPLS segment inside one trace.

    ``hop_indices`` points into the trace's hop tuple; consecutive flags
    cover >= 2 hops, stack flags exactly one.
    """

    flag: Flag
    hop_indices: tuple[int, ...]
    addresses: tuple[IPv4Address, ...]
    #: top (active) label observed at each hop
    top_labels: tuple[int, ...]
    #: quoted stack depth at each hop
    stack_depths: tuple[int, ...]
    #: True when the consecutive run needed suffix matching (CVR/CO only)
    suffix_based: bool = False

    def __post_init__(self) -> None:
        lengths = {
            len(self.hop_indices),
            len(self.addresses),
            len(self.top_labels),
            len(self.stack_depths),
        }
        if len(lengths) != 1:
            raise ValueError("per-hop tuples must have equal lengths")
        if not self.hop_indices:
            raise ValueError("a segment needs at least one hop")
        if self.flag in (Flag.CVR, Flag.CO) and len(self.hop_indices) < 2:
            raise ValueError(f"{self.flag} segments need >= 2 hops")
        if self.flag in (Flag.LSVR, Flag.LVR, Flag.LSO) and len(
            self.hop_indices
        ) != 1:
            raise ValueError(f"{self.flag} segments are single-hop")
        if any(
            b - a != 1
            for a, b in zip(self.hop_indices, self.hop_indices[1:])
        ):
            raise ValueError("segment hops must be contiguous")

    @classmethod
    def trusted(
        cls,
        flag: Flag,
        hop_indices: tuple[int, ...],
        addresses: tuple[IPv4Address, ...],
        top_labels: tuple[int, ...],
        stack_depths: tuple[int, ...],
        suffix_based: bool = False,
    ) -> "DetectedSegment":
        """Construct without re-validating the ``__post_init__`` invariants.

        For batch builders whose construction guarantees them (the
        columnar detector derives every tuple from one contiguous hop
        range, so the length/contiguity/arity checks hold by
        construction); the differential suite enforces equality with
        validated object-path segments.  Everyone else should use the
        normal constructor.
        """
        segment = object.__new__(cls)
        _set_flag(segment, flag)
        _set_hop_indices(segment, hop_indices)
        _set_addresses(segment, addresses)
        _set_top_labels(segment, top_labels)
        _set_stack_depths(segment, stack_depths)
        _set_suffix_based(segment, suffix_based)
        return segment

    def __reduce__(self):
        """Pickle as one constructor call over every field, in order.

        Campaign results cross the worker pool by pickle, and the
        frozen-slots default walks ``dataclasses.fields()`` per object.
        Unpickling re-validates through ``__post_init__``.  A new field
        must join this tuple.
        """
        return (
            type(self),
            (
                self.flag,
                self.hop_indices,
                self.addresses,
                self.top_labels,
                self.stack_depths,
                self.suffix_based,
            ),
        )

    @property
    def length(self) -> int:
        """Hops in this segment."""
        return len(self.hop_indices)

    @property
    def signal_strength(self) -> int:
        """The flag's star rating (Sec. 4)."""
        return SIGNAL_STRENGTH[self.flag]

    @property
    def max_stack_depth(self) -> int:
        """Deepest quoted stack inside the segment."""
        return max(self.stack_depths)

    def key(self) -> tuple:
        """Deduplication key: the same segment observed through several
        traces counts once (the paper reports *distinct* segments)."""
        return (self.flag, self.addresses, self.top_labels)


# ``trusted`` stores through each slot's member descriptor, as the
# generated constructor does (on a slotted class the class attribute
# is that descriptor)
_set_flag = DetectedSegment.flag.__set__
_set_hop_indices = DetectedSegment.hop_indices.__set__
_set_addresses = DetectedSegment.addresses.__set__
_set_top_labels = DetectedSegment.top_labels.__set__
_set_stack_depths = DetectedSegment.stack_depths.__set__
_set_suffix_based = DetectedSegment.suffix_based.__set__
