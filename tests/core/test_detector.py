"""Tests for the AReST detector, including a replication of the paper's
Fig. 6 walkthrough (all five flags on one picture)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detector import ArestDetector
from repro.core.flags import Flag
from repro.fingerprint.records import Fingerprint
from repro.netsim.addressing import IPv4Address
from repro.netsim.vendors import Vendor

from tests.conftest import make_hop, make_trace

CISCO = Fingerprint.from_snmp(Vendor.CISCO)
TTL_CLASS = Fingerprint.from_ttl(frozenset({Vendor.CISCO, Vendor.HUAWEI}))


def fps(*pairs):
    return {
        IPv4Address.from_string(addr): fp for addr, fp in pairs
    }


@pytest.fixture
def detector():
    return ArestDetector()


class TestCvr:
    def test_consecutive_labels_with_vendor_range(self, detector):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16_005,)),
                make_hop(2, "10.0.0.2", labels=(16_005,)),
                make_hop(3, "10.0.0.3", labels=(16_005,)),
            ]
        )
        segments = detector.detect(
            trace, fps(("10.0.0.1", CISCO))
        )
        assert [s.flag for s in segments] == [Flag.CVR]
        assert segments[0].hop_indices == (0, 1, 2)

    def test_one_fingerprinted_hop_is_enough(self, detector):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16_005,)),
                make_hop(2, "10.0.0.2", labels=(16_005,)),
            ]
        )
        segments = detector.detect(trace, fps(("10.0.0.2", TTL_CLASS)))
        assert segments[0].flag is Flag.CVR

    def test_fingerprint_without_range_match_stays_co(self, detector):
        # label outside the vendor range: CVR cannot fire
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(500_000,)),
                make_hop(2, "10.0.0.2", labels=(500_000,)),
            ]
        )
        segments = detector.detect(trace, fps(("10.0.0.1", CISCO)))
        assert segments[0].flag is Flag.CO

    def test_suffix_matched_run(self, detector):
        # footnote 4: 16,005 -> 13,005 continues the run
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16_005,)),
                make_hop(2, "10.0.0.2", labels=(13_005,)),
            ]
        )
        segments = detector.detect(trace, fps(("10.0.0.1", CISCO)))
        assert segments[0].flag is Flag.CVR
        assert segments[0].suffix_based


class TestCo:
    def test_consecutive_without_fingerprints(self, detector):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(17_005,)),
                make_hop(2, "10.0.0.2", labels=(17_005,)),
                make_hop(3, "10.0.0.3", labels=(17_005,)),
            ]
        )
        segments = detector.detect(trace, {})
        assert [s.flag for s in segments] == [Flag.CO]

    def test_run_broken_by_unlabeled_hop(self, detector):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(17_005,)),
                make_hop(2, "10.0.0.2"),
                make_hop(3, "10.0.0.3", labels=(17_005,)),
            ]
        )
        segments = detector.detect(trace, {})
        assert segments == []  # two singletons, depth 1, no range

    def test_run_broken_by_star(self, detector):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(17_005,)),
                make_hop(2, None),
                make_hop(3, "10.0.0.3", labels=(17_005,)),
            ]
        )
        assert detector.detect(trace, {}) == []

    def test_different_labels_no_run(self, detector):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(17_005,)),
                make_hop(2, "10.0.0.2", labels=(99_001,)),
            ]
        )
        assert detector.detect(trace, {}) == []


class TestStackFlags:
    def test_lsvr(self, detector):
        trace = make_trace(
            [make_hop(1, "10.0.0.1", labels=(20_000, 37_000))]
        )
        segments = detector.detect(trace, fps(("10.0.0.1", CISCO)))
        assert [s.flag for s in segments] == [Flag.LSVR]

    def test_lvr(self, detector):
        trace = make_trace([make_hop(1, "10.0.0.1", labels=(16_500,))])
        segments = detector.detect(trace, fps(("10.0.0.1", CISCO)))
        assert [s.flag for s in segments] == [Flag.LVR]

    def test_lso(self, detector):
        trace = make_trace(
            [make_hop(1, "10.0.0.1", labels=(600_000, 700_000))]
        )
        segments = detector.detect(trace, {})
        assert [s.flag for s in segments] == [Flag.LSO]

    def test_single_unmatched_label_raises_nothing(self, detector):
        # Sec. 6.3's false-negative case: indistinguishable from MPLS.
        trace = make_trace([make_hop(1, "10.0.0.1", labels=(600_000,))])
        assert detector.detect(trace, {}) == []

    def test_lsvr_checks_top_label_only(self, detector):
        # bottom label in range, top outside: not LSVR
        trace = make_trace(
            [make_hop(1, "10.0.0.1", labels=(600_000, 16_005))]
        )
        segments = detector.detect(trace, fps(("10.0.0.1", CISCO)))
        assert [s.flag for s in segments] == [Flag.LSO]

    def test_srlb_label_triggers_lvr(self, detector):
        trace = make_trace([make_hop(1, "10.0.0.1", labels=(15_100,))])
        segments = detector.detect(trace, fps(("10.0.0.1", CISCO)))
        assert [s.flag for s in segments] == [Flag.LVR]


class TestFiltersAndEdges:
    def test_hop_mask_breaks_runs(self, detector):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(17_005,), truth_planes=("sr",)),
                make_hop(2, "10.0.0.2", labels=(17_005,)),
            ]
        )
        segments = detector.detect(trace, {}, hop_mask={0})
        assert segments == []  # the run split; singleton depth-1 silent

    def test_tnt_revealed_hops_excluded(self, detector):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(17_005,)),
                make_hop(2, "10.0.0.2", labels=(17_005,), tnt_revealed=True),
            ]
        )
        # revealed hops never carry LSEs in reality; even if they did,
        # the detector must not consume them
        assert detector.detect(trace, {}) == []

    def test_empty_trace(self, detector):
        assert detector.detect(make_trace([]), {}) == []

    def test_callable_fingerprint_lookup(self, detector):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16_005,)),
                make_hop(2, "10.0.0.2", labels=(16_005,)),
            ]
        )
        segments = detector.detect(trace, lambda addr: CISCO)
        assert segments[0].flag is Flag.CVR

    def test_min_run_length_configurable(self):
        detector = ArestDetector(min_run_length=3)
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(17_005,)),
                make_hop(2, "10.0.0.2", labels=(17_005,)),
            ]
        )
        assert detector.detect(trace, {}) == []
        with pytest.raises(ValueError):
            ArestDetector(min_run_length=1)

    def test_segments_sorted_by_position(self, detector):
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(600_000, 700_000)),
                make_hop(2, "10.0.0.2"),
                make_hop(3, "10.0.0.3", labels=(17_005,)),
                make_hop(4, "10.0.0.4", labels=(17_005,)),
            ]
        )
        segments = detector.detect(trace, {})
        assert [s.flag for s in segments] == [Flag.LSO, Flag.CO]


class TestFig6Walkthrough:
    """The paper's Fig. 6: all five flags in one (concatenated) picture."""

    def test_all_five_flags(self, detector):
        trace = make_trace(
            [
                # green path: P1-P3 share 16,005; P1 fingerprinted Cisco
                make_hop(1, "10.1.0.1", labels=(16_005,)),
                make_hop(2, "10.1.0.2", labels=(16_005,)),
                make_hop(3, "10.1.0.3", labels=(16_005,)),
                make_hop(4, "10.9.0.1"),  # plain IP separator
                # gray path: P4-P6 share 17,005; nobody fingerprinted
                make_hop(5, "10.2.0.1", labels=(17_005,)),
                make_hop(6, "10.2.0.2", labels=(17_005,)),
                make_hop(7, "10.2.0.3", labels=(17_005,)),
                make_hop(8, "10.9.0.2"),
                # purple path: P7 Cisco with stack [20,000; 37,000]
                make_hop(9, "10.3.0.1", labels=(20_000, 37_000)),
                make_hop(10, "10.9.0.3"),
                # blue path: P9 Cisco with single in-range label
                make_hop(11, "10.4.0.1", labels=(16_900,)),
                make_hop(12, "10.9.0.4"),
                # orange path: P10 stack of 2, no vendor mapping
                make_hop(13, "10.5.0.1", labels=(400_000, 410_000)),
            ]
        )
        fingerprints = fps(
            ("10.1.0.1", CISCO),
            ("10.3.0.1", CISCO),
            ("10.4.0.1", CISCO),
        )
        segments = detector.detect(trace, fingerprints)
        assert [s.flag for s in segments] == [
            Flag.CVR,
            Flag.CO,
            Flag.LSVR,
            Flag.LVR,
            Flag.LSO,
        ]
        cvr, co, lsvr, lvr, lso = segments
        assert cvr.hop_indices == (0, 1, 2)
        assert co.hop_indices == (4, 5, 6)
        assert lsvr.hop_indices == (8,)
        assert lvr.hop_indices == (10,)
        assert lso.hop_indices == (12,)


@settings(max_examples=30, deadline=None)
@given(
    run_length=st.integers(min_value=2, max_value=6),
    label=st.integers(min_value=16, max_value=2**20 - 1),
)
def test_any_consecutive_run_is_flagged(run_length, label):
    """Property: >= 2 consecutive identical labels always raise CVR/CO."""
    detector = ArestDetector()
    trace = make_trace(
        [
            make_hop(i + 1, f"10.0.0.{i + 1}", labels=(label,))
            for i in range(run_length)
        ]
    )
    segments = detector.detect(trace, {})
    assert len(segments) == 1
    assert segments[0].flag in (Flag.CVR, Flag.CO)
    assert segments[0].length == run_length


@settings(max_examples=30, deadline=None)
@given(
    depth=st.integers(min_value=2, max_value=6),
    top=st.integers(min_value=300_000, max_value=2**20 - 1),
)
def test_any_deep_stack_is_at_least_lso(depth, top):
    """Property: an isolated stack of depth >= 2 always raises a flag."""
    detector = ArestDetector()
    labels = tuple([top] + [500_000 + i for i in range(depth - 1)])
    trace = make_trace([make_hop(1, "10.0.0.1", labels=labels)])
    segments = detector.detect(trace, {})
    assert len(segments) == 1
    assert segments[0].flag in (Flag.LSO, Flag.LSVR)
