"""Tests for measurement-side record types."""

import dataclasses
import pickle

import pytest

from repro.netsim.addressing import IPv4Address
from repro.probing.records import QuotedLse, Trace, TraceHop, truth_transport_is_sr

from tests.conftest import make_hop, make_trace


class TestQuotedLse:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuotedLse(label=2**20, tc=0, bottom_of_stack=True, ttl=1)
        with pytest.raises(ValueError):
            QuotedLse(label=1, tc=0, bottom_of_stack=True, ttl=300)

    def test_tc_is_three_bits(self):
        # The TC field (RFC 5462) is 3 bits; 8 used to slip through.
        with pytest.raises(ValueError):
            QuotedLse(label=1, tc=8, bottom_of_stack=True, ttl=1)
        with pytest.raises(ValueError):
            QuotedLse(label=1, tc=-1, bottom_of_stack=True, ttl=1)
        lse = QuotedLse(label=1, tc=7, bottom_of_stack=True, ttl=1)
        assert lse.tc == 7

    def test_str(self):
        lse = QuotedLse(label=16_005, tc=0, bottom_of_stack=True, ttl=1)
        assert "16005" in str(lse)


class TestTraceHop:
    def test_star_hop(self):
        hop = make_hop(3, None)
        assert not hop.responded
        assert not hop.has_lses
        assert hop.stack_depth == 0
        assert hop.top_label is None

    def test_labeled_hop(self):
        hop = make_hop(3, "10.0.0.1", labels=(16_005, 992_000))
        assert hop.responded
        assert hop.stack_depth == 2
        assert hop.top_label == 16_005
        assert hop.lses[-1].bottom_of_stack

    def test_with_annotation(self):
        hop = make_hop(3, "10.0.0.1")
        annotated = hop.with_annotation(truth_asn=42)
        assert annotated.truth_asn == 42
        assert hop.truth_asn is None  # original untouched


class TestTrace:
    def test_views(self):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1"),
                make_hop(2, None),
                make_hop(3, "10.0.0.2", labels=(16_005,)),
            ]
        )
        assert len(trace) == 3
        assert len(trace.responding_hops()) == 2
        assert len(trace.labeled_hops()) == 1
        assert trace.addresses() == {
            IPv4Address.from_string("10.0.0.1"),
            IPv4Address.from_string("10.0.0.2"),
        }

    def test_str_renders_stars_and_stacks(self):
        trace = make_trace(
            [make_hop(1, None), make_hop(2, "10.0.0.2", labels=(16_005,))]
        )
        text = str(trace)
        assert "*" in text
        assert "16005" in text

    def test_with_hops_replaces(self):
        trace = make_trace([make_hop(1, "10.0.0.1")])
        new = trace.with_hops(trace.hops + (make_hop(2, "10.0.0.2"),))
        assert len(new) == 2
        assert len(trace) == 1


class TestTruthTransport:
    def test_sr_plane(self):
        trace = make_trace(
            [make_hop(1, "10.0.0.1", truth_planes=("sr", "service"))]
        )
        assert truth_transport_is_sr(trace, 0)

    def test_ldp_plane(self):
        trace = make_trace([make_hop(1, "10.0.0.1", truth_planes=("ldp",))])
        assert not truth_transport_is_sr(trace, 0)

    def test_no_planes(self):
        trace = make_trace([make_hop(1, "10.0.0.1")])
        assert not truth_transport_is_sr(trace, 0)

    def test_service_tail_inherits_sr(self):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", truth_planes=("sr", "service")),
                make_hop(2, "10.0.0.2", truth_planes=("service",)),
            ]
        )
        assert truth_transport_is_sr(trace, 1)

    def test_service_tail_inherits_ldp(self):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", truth_planes=("ldp", "service")),
                make_hop(2, "10.0.0.2", truth_planes=("service",)),
            ]
        )
        assert not truth_transport_is_sr(trace, 1)

    def test_service_tail_with_gap_stops(self):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1"),
                make_hop(2, "10.0.0.2", truth_planes=("service",)),
            ]
        )
        assert not truth_transport_is_sr(trace, 1)


def _every_field_set() -> Trace:
    """A two-hop trace with every record field off its default.

    The two hops share one address object and one quoted LSE object.
    """
    shared_address = IPv4Address.from_string("10.0.0.7")
    shared_lse = QuotedLse(label=16_007, tc=5, bottom_of_stack=True, ttl=3)
    first = TraceHop(
        probe_ttl=4,
        address=shared_address,
        rtt_ms=12.5,
        reply_ip_ttl=249,
        lses=(
            QuotedLse(label=24_001, tc=1, bottom_of_stack=False, ttl=2),
            shared_lse,
        ),
        tnt_revealed=True,
        destination_reply=True,
        truth_router_id=17,
        truth_asn=293,
        truth_planes=("sr", "service"),
        truth_uniform=False,
    )
    second = first.with_annotation(probe_ttl=5, lses=(shared_lse,))
    return Trace(
        vp="vp-7",
        vp_router_id=3,
        destination=IPv4Address.from_string("203.0.113.9"),
        flow_id=4_242,
        hops=(first, second),
        reached=False,
        epoch_span=(2, 5),
    )


class TestPickle:
    """Records pickle as constructor calls and lose nothing on the way."""

    def _records(self):
        trace = _every_field_set()
        return [trace, trace.hops[0], trace.hops[0].lses[0]]

    def test_round_trip_equal_hash_and_type(self):
        for record in self._records():
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record
            assert hash(copy) == hash(record)
            assert type(copy) is type(record)

    def test_copy_stays_frozen(self):
        for record in self._records():
            copy = pickle.loads(pickle.dumps(record))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(copy, dataclasses.fields(copy)[0].name, None)

    def test_shared_objects_stay_shared(self):
        copy = pickle.loads(pickle.dumps(_every_field_set()))
        first, second = copy.hops
        assert first.address is second.address
        assert first.lses[1] is second.lses[0]

    def test_reduce_lists_every_field(self):
        # a field added without joining __reduce__ fails here
        for record in self._records():
            args = record.__reduce__()[1]
            assert len(args) == len(dataclasses.fields(type(record)))
            assert args == tuple(
                getattr(record, f.name) for f in dataclasses.fields(record)
            )

    def test_unpickle_validates(self):
        # the constructor runs on unpickle, so a bad record is refused
        lse = QuotedLse(label=1, tc=0, bottom_of_stack=True, ttl=1)
        object.__setattr__(lse, "label", 2**20)
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(lse))
