"""Unit tests for trace sanitization: repair, quarantine, budget."""

from repro.netsim.addressing import IPv4Address
from repro.probing.records import QuotedLse, TraceHop
from repro.probing.sanitize import (
    MAX_REPAIRS_PER_TRACE,
    AnomalyKind,
    TraceSanitizer,
    is_martian,
)

from tests.conftest import make_hop, make_trace


def _clean_trace():
    return make_trace(
        [
            make_hop(1, "10.0.0.1"),
            make_hop(2, "10.0.0.2", labels=(16_005,)),
            make_hop(3, "10.0.0.3", destination_reply=True),
        ]
    )


def _kinds(result):
    return [a.kind for a in result.anomalies]


class TestIdentity:
    def test_clean_trace_is_untouched(self):
        trace = _clean_trace()
        result = TraceSanitizer().sanitize(trace)
        assert result.trace is trace  # the same object, not a copy
        assert result.anomalies == []
        assert not result.quarantined

    def test_unreached_trace_with_stars_is_clean(self):
        trace = make_trace(
            [make_hop(1, "10.0.0.1"), make_hop(2, None), make_hop(3, None)],
            reached=False,
        )
        result = TraceSanitizer().sanitize(trace)
        assert result.trace is trace

    def test_tnt_revealed_hops_sharing_anchor_ttl_are_clean(self):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1"),
                make_hop(3, "10.0.0.8", tnt_revealed=True),
                make_hop(3, "10.0.0.9", tnt_revealed=True),
                make_hop(3, "10.0.0.3", destination_reply=True),
            ]
        )
        result = TraceSanitizer().sanitize(trace)
        assert result.trace is trace


class TestPerHopRepairs:
    def test_reply_ttl_out_of_range_cleared(self):
        hop = make_hop(1, "10.0.0.1").with_annotation(reply_ip_ttl=0)
        trace = make_trace([hop], reached=False)
        result = TraceSanitizer().sanitize(trace)
        assert _kinds(result) == [AnomalyKind.REPLY_TTL_RANGE]
        assert result.trace.hops[0].reply_ip_ttl is None

    def test_bad_bottom_of_stack_rebuilt(self):
        lses = (
            QuotedLse(label=16_005, tc=0, bottom_of_stack=True, ttl=1),
            QuotedLse(label=16_006, tc=0, bottom_of_stack=False, ttl=1),
        )
        hop = make_hop(1, "10.0.0.1").with_annotation(lses=lses)
        trace = make_trace([hop], reached=False)
        result = TraceSanitizer().sanitize(trace)
        assert _kinds(result) == [AnomalyKind.BAD_BOTTOM_OF_STACK]
        fixed = result.trace.hops[0].lses
        assert [e.bottom_of_stack for e in fixed] == [False, True]
        assert [e.label for e in fixed] == [16_005, 16_006]

    def test_martian_source_blanked(self):
        hop = make_hop(2, "240.1.2.3", labels=(16_005,))
        trace = make_trace([make_hop(1, "10.0.0.1"), hop], reached=False)
        result = TraceSanitizer().sanitize(trace)
        assert AnomalyKind.MARTIAN_SOURCE in _kinds(result)
        blanked = result.trace.hops[1]
        assert not blanked.responded
        assert blanked.lses is None
        assert blanked.probe_ttl == 2  # slot survives as a star

    def test_destination_stack_stripped(self):
        hop = make_hop(
            2, "10.0.0.2", labels=(16_005,), destination_reply=True
        )
        trace = make_trace([make_hop(1, "10.0.0.1"), hop])
        result = TraceSanitizer().sanitize(trace)
        assert _kinds(result) == [AnomalyKind.DESTINATION_QUOTED_STACK]
        assert result.trace.hops[1].lses is None
        assert result.trace.hops[1].destination_reply


class TestCrossHopRepairs:
    def test_decreasing_ttls_restored_by_stable_sort(self):
        trace = make_trace(
            [
                make_hop(2, "10.0.0.2"),
                make_hop(1, "10.0.0.1"),
                make_hop(3, "10.0.0.3", destination_reply=True),
            ]
        )
        result = TraceSanitizer().sanitize(trace)
        assert AnomalyKind.NON_MONOTONIC_TTL in _kinds(result)
        assert [h.probe_ttl for h in result.trace.hops] == [1, 2, 3]

    def test_identical_duplicate_dropped(self):
        dup = make_hop(2, "10.0.0.2")
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1"),
                dup,
                dup,
                make_hop(3, "10.0.0.3", destination_reply=True),
            ]
        )
        result = TraceSanitizer().sanitize(trace)
        assert AnomalyKind.DUPLICATE_HOP in _kinds(result)
        assert len(result.trace.hops) == 3

    def test_conflicting_duplicates_quarantine(self):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1"),
                make_hop(2, "10.0.0.2"),
                make_hop(2, "10.0.0.9"),
            ],
            reached=False,
        )
        result = TraceSanitizer().sanitize(trace)
        assert result.quarantined
        assert result.trace is None
        conflict = result.anomalies[-1]
        assert conflict.kind is AnomalyKind.CONFLICTING_HOPS
        assert not conflict.repaired

    def test_trailing_hops_truncated(self):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1"),
                make_hop(2, "10.0.0.2", destination_reply=True),
                make_hop(3, "10.0.0.3"),
            ]
        )
        result = TraceSanitizer().sanitize(trace)
        assert AnomalyKind.TRAILING_HOPS in _kinds(result)
        assert len(result.trace.hops) == 2
        assert result.trace.hops[-1].destination_reply

    def test_reached_mismatch_repaired(self):
        trace = make_trace([make_hop(1, "10.0.0.1")], reached=True)
        result = TraceSanitizer().sanitize(trace)
        assert _kinds(result) == [AnomalyKind.REACHED_MISMATCH]
        assert result.trace.reached is False


class TestBudgetAndPolicy:
    def test_repair_budget_exceeded_quarantines(self):
        def trace_with_repairs(n):
            hops = [
                make_hop(ttl, "10.0.0.1").with_annotation(reply_ip_ttl=0)
                for ttl in range(1, n + 1)
            ]
            return make_trace(hops, reached=False)

        within = TraceSanitizer().sanitize(
            trace_with_repairs(MAX_REPAIRS_PER_TRACE)
        )
        assert not within.quarantined
        assert len(within.anomalies) == MAX_REPAIRS_PER_TRACE
        result = TraceSanitizer().sanitize(
            trace_with_repairs(MAX_REPAIRS_PER_TRACE + 1)
        )
        assert result.quarantined
        assert result.anomalies[-1].kind is AnomalyKind.REPAIR_BUDGET_EXCEEDED

    def test_budget_must_be_positive(self):
        # a budget of 0 would quarantine every trace that needed a repair
        assert MAX_REPAIRS_PER_TRACE >= 1


class TestEpochAnomalies:
    def test_single_epoch_trace_is_clean(self):
        # a churned campaign stamps every trace; same epoch throughout
        # means the network held still and the trace is untouched
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1"),
                make_hop(2, "10.0.0.2", destination_reply=True),
            ],
            epoch_span=(1, 1),
        )
        result = TraceSanitizer().sanitize(trace)
        assert result.trace is trace
        assert result.anomalies == []

    def test_cross_epoch_trace_quarantines(self):
        # hops stitched from two control-plane states: a label window
        # spanning the seam can fabricate evidence, so the trace is
        # withheld from detection entirely
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1"),
                make_hop(2, "10.0.0.2"),
                make_hop(3, "10.0.0.3", destination_reply=True),
            ],
            epoch_span=(0, 2),
        )
        result = TraceSanitizer().sanitize(trace)
        assert result.quarantined
        assert result.trace is None
        assert AnomalyKind.CROSS_EPOCH in _kinds(result)
        assert AnomalyKind.VANISHED_RESPONDER not in _kinds(result)

    def test_vanished_responder_marked(self):
        # a responder answered, then everything after it timed out and
        # the destination was never reached -- the withdrawn-path
        # signature rides along with the cross-epoch quarantine
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1"),
                make_hop(2, "10.0.0.2"),
                make_hop(3, None),
                make_hop(4, None),
            ],
            reached=False,
            epoch_span=(0, 1),
        )
        result = TraceSanitizer().sanitize(trace)
        assert result.quarantined
        kinds = _kinds(result)
        assert AnomalyKind.CROSS_EPOCH in kinds
        assert AnomalyKind.VANISHED_RESPONDER in kinds
        vanished = next(
            a
            for a in result.anomalies
            if a.kind is AnomalyKind.VANISHED_RESPONDER
        )
        # anchored at the first hop that went dark (TTL 3)
        assert vanished.probe_ttl == 3

    def test_reached_cross_epoch_has_no_vanished_responder(self):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1"),
                make_hop(2, "10.0.0.2", destination_reply=True),
            ],
            epoch_span=(0, 1),
        )
        result = TraceSanitizer().sanitize(trace)
        assert result.quarantined
        assert AnomalyKind.VANISHED_RESPONDER not in _kinds(result)

    def test_static_campaign_traces_are_unaffected(self):
        # no dynamics attached -> no epoch span -> no epoch checks
        trace = _clean_trace()
        assert trace.epoch_span is None
        result = TraceSanitizer().sanitize(trace)
        assert result.trace is trace


class TestAnomalyRecords:
    def test_roundtrip(self):
        trace = make_trace([make_hop(1, "10.0.0.1")], reached=True)
        (anomaly,) = TraceSanitizer().sanitize(trace).anomalies
        from repro.probing.sanitize import TraceAnomaly

        assert TraceAnomaly.from_dict(anomaly.as_dict()) == anomaly

    def test_martians(self):
        assert is_martian(IPv4Address.from_string("127.0.0.1"))
        assert is_martian(IPv4Address.from_string("224.0.0.5"))
        assert is_martian(IPv4Address.from_string("255.255.255.255"))
        assert not is_martian(IPv4Address.from_string("10.0.0.1"))
        assert not is_martian(IPv4Address.from_string("203.0.113.7"))
