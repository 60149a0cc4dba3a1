"""Unit and property tests for MPLS label-stack primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.mpls import (
    FIRST_UNRESERVED_LABEL,
    LabelStack,
    LabelStackEntry,
    MAX_LABEL,
    ReservedLabel,
)

labels = st.integers(min_value=0, max_value=MAX_LABEL)
tcs = st.integers(min_value=0, max_value=7)
ttls = st.integers(min_value=0, max_value=255)


class TestLabelStackEntry:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            LabelStackEntry(label=2**20)
        with pytest.raises(ValueError):
            LabelStackEntry(label=0, tc=8)
        with pytest.raises(ValueError):
            LabelStackEntry(label=0, ttl=256)

    def test_encode_layout(self):
        # Fig. 2: label(20) | TC(3) | S(1) | TTL(8)
        entry = LabelStackEntry(label=1, tc=1, bottom_of_stack=True, ttl=1)
        assert entry.encode() == (1 << 12) | (1 << 9) | (1 << 8) | 1

    def test_decode_word_out_of_range(self):
        with pytest.raises(ValueError):
            LabelStackEntry.decode(2**32)

    @given(labels, tcs, st.booleans(), ttls)
    def test_encode_decode_roundtrip(self, label, tc, bottom, ttl):
        entry = LabelStackEntry(
            label=label, tc=tc, bottom_of_stack=bottom, ttl=ttl
        )
        assert LabelStackEntry.decode(entry.encode()) == entry


class TestReservedLabels:
    def test_values(self):
        assert ReservedLabel.IPV4_EXPLICIT_NULL == 0
        assert ReservedLabel.IMPLICIT_NULL == 3
        assert ReservedLabel.GAL == 13

    def test_first_unreserved(self):
        assert FIRST_UNRESERVED_LABEL == 16
        assert all(r < FIRST_UNRESERVED_LABEL for r in ReservedLabel)


class TestLabelStack:
    def test_bottom_of_stack_invariant_on_build(self):
        stack = LabelStack.from_labels([100, 200, 300])
        flags = [e.bottom_of_stack for e in stack]
        assert flags == [False, False, True]

    def test_push_updates_bottom(self):
        stack = LabelStack.from_labels([100])
        stack.push(LabelStackEntry(label=200))
        assert stack.labels() == (200, 100)
        assert [e.bottom_of_stack for e in stack] == [False, True]

    def test_pop_returns_top(self):
        stack = LabelStack.from_labels([100, 200])
        popped = stack.pop()
        assert popped.label == 100
        assert stack.labels() == (200,)
        assert stack.top.bottom_of_stack

    def test_pop_empty_rejected(self):
        with pytest.raises(IndexError):
            LabelStack().pop()

    def test_swap_keeps_ttl(self):
        stack = LabelStack([LabelStackEntry(label=100, ttl=37)])
        stack.swap(555)
        assert stack.top.label == 555
        assert stack.top.ttl == 37

    def test_swap_empty_rejected(self):
        with pytest.raises(IndexError):
            LabelStack().swap(5)

    def test_decrement_ttl(self):
        stack = LabelStack([LabelStackEntry(label=1, ttl=9)])
        stack.decrement_ttl()
        assert stack.top.ttl == 8

    def test_decrement_expired_rejected(self):
        stack = LabelStack([LabelStackEntry(label=5, ttl=0)])
        with pytest.raises(ValueError):
            stack.decrement_ttl()
        assert stack.top.ttl == 0

    def test_empty_properties(self):
        stack = LabelStack()
        assert not stack
        assert len(stack) == 0
        with pytest.raises(IndexError):
            _ = stack.top

    def test_copy_is_independent(self):
        stack = LabelStack.from_labels([1, 2])
        clone = stack.copy()
        clone.pop()
        assert stack.depth == 2
        assert clone.depth == 1

    def test_equality(self):
        assert LabelStack.from_labels([1, 2]) == LabelStack.from_labels([1, 2])
        assert LabelStack.from_labels([1]) != LabelStack.from_labels([2])

    def test_encode_decode_roundtrip(self):
        stack = LabelStack.from_labels([16_005, 3_001, 16_008], ttl=64)
        assert LabelStack.decode(stack.encode()) == stack

    @given(st.lists(labels, min_size=1, max_size=8))
    def test_exactly_one_bottom_entry(self, values):
        stack = LabelStack.from_labels(values)
        bottoms = [e.bottom_of_stack for e in stack]
        assert sum(bottoms) == 1
        assert bottoms[-1]

    @given(st.lists(labels, min_size=1, max_size=8))
    def test_push_pop_inverse(self, values):
        stack = LabelStack.from_labels(values)
        entry = LabelStackEntry(label=77, ttl=10)
        stack.push(entry)
        popped = stack.pop()
        assert popped.label == 77
        assert stack.labels() == tuple(values)

    @given(st.lists(labels, min_size=2, max_size=8))
    def test_pop_all_empties(self, values):
        stack = LabelStack.from_labels(values)
        for _ in values:
            stack.pop()
        assert not stack

    @given(st.lists(labels, min_size=1, max_size=8))
    def test_wire_roundtrip_property(self, values):
        stack = LabelStack.from_labels(values, ttl=255)
        assert LabelStack.decode(stack.encode()).labels() == tuple(values)
