"""Tests for the DetectedSegment record invariants."""

import dataclasses
import pickle

import pytest

from repro.core.flags import Flag
from repro.core.segments import DetectedSegment
from repro.netsim.addressing import IPv4Address


def seg(flag, indices, labels=None, depths=None):
    n = len(indices)
    return DetectedSegment(
        flag=flag,
        hop_indices=tuple(indices),
        addresses=tuple(
            IPv4Address.from_string(f"10.0.0.{i + 1}") for i in range(n)
        ),
        top_labels=tuple(labels or [16_005] * n),
        stack_depths=tuple(depths or [1] * n),
    )


class TestInvariants:
    def test_consecutive_flags_need_two_hops(self):
        with pytest.raises(ValueError):
            seg(Flag.CVR, [3])
        with pytest.raises(ValueError):
            seg(Flag.CO, [3])
        assert seg(Flag.CO, [3, 4]).length == 2

    def test_stack_flags_are_single_hop(self):
        for flag in (Flag.LSVR, Flag.LVR, Flag.LSO):
            assert seg(flag, [2]).length == 1
            with pytest.raises(ValueError):
                seg(flag, [2, 3])

    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            seg(Flag.CO, [1, 3])

    def test_parallel_tuple_lengths(self):
        with pytest.raises(ValueError):
            DetectedSegment(
                flag=Flag.CO,
                hop_indices=(1, 2),
                addresses=(IPv4Address.from_string("10.0.0.1"),),
                top_labels=(16_005, 16_005),
                stack_depths=(1, 1),
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DetectedSegment(
                flag=Flag.LSO,
                hop_indices=(),
                addresses=(),
                top_labels=(),
                stack_depths=(),
            )


class TestProperties:
    def test_signal_strength(self):
        assert seg(Flag.CVR, [1, 2]).signal_strength == 5
        assert seg(Flag.LSO, [1]).signal_strength == 1

    def test_max_stack_depth(self):
        s = seg(Flag.CO, [1, 2], depths=[2, 3])
        assert s.max_stack_depth == 3

    def test_key_ignores_position(self):
        a = seg(Flag.CO, [1, 2])
        b = seg(Flag.CO, [5, 6])
        assert a.key() == b.key()  # same addresses + labels + flag

    def test_key_distinguishes_flags(self):
        a = seg(Flag.LSO, [1])
        b = seg(Flag.LVR, [1])
        assert a.key() != b.key()


class TestPickle:
    """A segment pickles as a constructor call and loses nothing."""

    def _segment(self):
        return DetectedSegment(
            flag=Flag.CVR,
            hop_indices=(4, 5, 6),
            addresses=tuple(
                IPv4Address.from_string(f"10.0.1.{i}") for i in (1, 2, 3)
            ),
            top_labels=(16_005, 16_006, 16_007),
            stack_depths=(2, 1, 3),
            suffix_based=True,
        )

    def test_round_trip_equal_hash_and_type(self):
        segment = self._segment()
        copy = pickle.loads(pickle.dumps(segment))
        assert copy == segment
        assert hash(copy) == hash(segment)
        assert type(copy) is DetectedSegment
        assert copy.flag is Flag.CVR

    def test_copy_stays_frozen(self):
        copy = pickle.loads(pickle.dumps(self._segment()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.suffix_based = False

    def test_shared_addresses_stay_shared(self):
        address = IPv4Address.from_string("10.0.2.1")
        segments = [
            DetectedSegment(
                flag=Flag.LSO,
                hop_indices=(i,),
                addresses=(address,),
                top_labels=(16_005,),
                stack_depths=(1,),
            )
            for i in (1, 2)
        ]
        first, second = pickle.loads(pickle.dumps(segments))
        assert first.addresses[0] is second.addresses[0]

    def test_reduce_lists_every_field(self):
        # a field added without joining __reduce__ fails here
        segment = self._segment()
        args = segment.__reduce__()[1]
        assert len(args) == len(dataclasses.fields(DetectedSegment))
        assert args == tuple(
            getattr(segment, f.name) for f in dataclasses.fields(segment)
        )

    def test_trusted_segment_round_trips(self):
        segment = self._segment()
        trusted = DetectedSegment.trusted(
            segment.flag,
            segment.hop_indices,
            segment.addresses,
            segment.top_labels,
            segment.stack_depths,
            segment.suffix_based,
        )
        assert pickle.loads(pickle.dumps(trusted)) == segment
