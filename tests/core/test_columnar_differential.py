"""Differential suite: the columnar core ≡ the object-path detector.

The columnar detector's entire value proposition is *byte-identical
output, orders-of-magnitude cheaper*.  These properties pin both of its
entry points -- the one-row :meth:`ColumnarDetector.detect` bridge and
the whole-campaign :meth:`ColumnarDetector.detect_batch` passes --
against :class:`ArestDetector` over adversarial traces: reserved/ELI
label stacks, suffix families, address-less labeled hops, TNT-revealed
hops, every fingerprint grade, and the mask/filter knobs.
"""

from hypothesis import given, settings, strategies as st

from repro.campaign.dataset import TraceDataset
from repro.core.columnar import ColumnarDetector, TraceBatch
from repro.core.detector import ArestDetector, effective_labels
from repro.core.pipeline import ArestPipeline
from repro.fingerprint.records import Fingerprint
from repro.netsim.addressing import IPv4Address
from repro.netsim.vendors import Vendor

from tests.conftest import make_hop, make_trace, scaled_examples

#: labels exercising every matching regime: identical pairs, decimal
#: suffix families (16005/17005/13005), Table 1 range edges (inside and
#: one past), SRLB values, reserved labels and the ELI (7)
LABEL_POOL = (
    0, 3, 7, 15, 16, 16000, 16005, 17005, 13005, 23999, 24001,
    15500, 48500, 300000, 900500, 2**20 - 1,
)

ADDRESS_POOL = tuple(f"10.0.0.{i}" for i in range(1, 9))

FINGERPRINT_POOL = (
    Fingerprint.none(),
    Fingerprint.from_snmp(Vendor.CISCO),
    Fingerprint.from_snmp(Vendor.HUAWEI),
    Fingerprint.from_snmp(Vendor.ARISTA),
    Fingerprint.from_snmp(Vendor.JUNIPER),  # no Table 1 ranges
    Fingerprint.from_ttl(frozenset({Vendor.CISCO, Vendor.HUAWEI})),
    Fingerprint.from_ttl(frozenset({Vendor.JUNIPER, Vendor.NOKIA})),
)

hop_st = st.tuples(
    st.one_of(st.none(), st.sampled_from(ADDRESS_POOL)),  # address
    st.lists(st.sampled_from(LABEL_POOL), max_size=5),    # quoted stack
    st.booleans(),                                        # tnt_revealed
    st.sampled_from((None, 100, 200)),                    # truth_asn
)
trace_st = st.lists(hop_st, max_size=12)
fingerprints_st = st.builds(
    lambda picks: dict(
        zip(
            (IPv4Address.from_string(a) for a in ADDRESS_POOL),
            picks,
        )
    ),
    st.lists(
        st.sampled_from(FINGERPRINT_POOL),
        min_size=len(ADDRESS_POOL),
        max_size=len(ADDRESS_POOL),
    ),
)


def build_trace(specs):
    hops = []
    for i, (address, labels, tnt_revealed, truth_asn) in enumerate(specs):
        hop = make_hop(
            i + 1,
            address,
            labels=tuple(labels),
            tnt_revealed=tnt_revealed,
        )
        hops.append(hop.with_annotation(truth_asn=truth_asn))
    return make_trace(hops)


class TestDifferential:
    @settings(max_examples=scaled_examples(100), deadline=None)
    @given(
        st.lists(trace_st, max_size=8),
        fingerprints_st,
        st.booleans(),
        st.sampled_from((2, 3)),
    )
    def test_per_trace_and_batch_identical(
        self, specs, fingerprints, suffix_matching, min_run
    ):
        traces = [build_trace(s) for s in specs]
        reference = ArestDetector(
            min_run_length=min_run, suffix_matching=suffix_matching
        )
        columnar = ColumnarDetector(
            min_run_length=min_run, suffix_matching=suffix_matching
        )
        expected = [reference.detect(t, fingerprints) for t in traces]
        # one-row bridge: the pipeline/service entry point
        assert [columnar.detect(t, fingerprints) for t in traces] == expected
        # whole-batch array passes
        batch = TraceBatch.from_traces(traces, fingerprints)
        assert columnar.detect_batch(batch) == expected

    @settings(max_examples=scaled_examples(75), deadline=None)
    @given(trace_st, fingerprints_st, st.sets(st.integers(0, 11)))
    def test_hop_mask_parity(self, specs, fingerprints, mask):
        trace = build_trace(specs)
        reference = ArestDetector()
        columnar = ColumnarDetector()
        expected = reference.detect(trace, fingerprints, hop_mask=mask)
        assert columnar.detect(trace, fingerprints, hop_mask=mask) == expected
        batch = TraceBatch.from_traces([trace], fingerprints)
        assert columnar.detect_batch(batch, hop_masks=[mask]) == [expected]

    @settings(max_examples=scaled_examples(75), deadline=None)
    @given(trace_st, fingerprints_st, st.sampled_from((None, 100, 200)))
    def test_asn_mask_matches_truth_filter(self, specs, fingerprints, asn):
        """``detect_batch(asn=...)`` ≡ the pipeline's in-AS hop mask."""
        trace = build_trace(specs)
        mask = {
            i
            for i, hop in enumerate(trace.hops)
            if asn is None or hop.truth_asn == asn
        }
        expected = ArestDetector().detect(
            trace, fingerprints, hop_mask=mask
        )
        batch = TraceBatch.from_traces([trace], fingerprints)
        detections = ColumnarDetector().detect_batch(batch, asn=asn)
        assert detections == [expected]

    @settings(max_examples=scaled_examples(75), deadline=None)
    @given(trace_st, fingerprints_st)
    def test_hop_filter_parity(self, specs, fingerprints):
        trace = build_trace(specs)
        def keep(hop):
            return hop.probe_ttl % 2 == 1
        expected = ArestDetector().detect(
            trace, fingerprints, hop_filter=keep
        )
        assert (
            ColumnarDetector().detect(trace, fingerprints, hop_filter=keep)
            == expected
        )

    @settings(max_examples=scaled_examples(75), deadline=None)
    @given(trace_st, fingerprints_st)
    def test_row_view_round_trip(self, specs, fingerprints):
        """Batch build -> row view reproduces the per-hop object facts."""
        trace = build_trace(specs)
        batch = TraceBatch.from_traces([trace], fingerprints)
        assert len(batch) == 1
        assert batch.n_hops == len(trace.hops)
        assert batch.trace(0) is trace
        row = batch.row(0)
        assert row.trace is trace
        for i, hop in enumerate(trace.hops):
            effective = effective_labels(hop)
            assert row.tops[i] == (effective[0] if effective else None)
            assert row.depths[i] == len(effective)
            assert row.eligible[i] == (
                bool(effective)
                and hop.address is not None
                and not hop.tnt_revealed
            )
            if row.in_range[i]:
                assert row.eligible[i]  # range bits only on eligible hops


class TestPipelineParity:
    @settings(max_examples=scaled_examples(40), deadline=None)
    @given(st.lists(trace_st, max_size=6), fingerprints_st)
    def test_columnar_pipeline_matches_object_pipeline(
        self, specs, fingerprints
    ):
        traces = [build_trace(s) for s in specs]
        fast, reference = (
            pipeline.analyze_as(100, traces, fingerprints)
            for pipeline in (ArestPipeline(), ArestPipeline(ArestDetector()))
        )
        assert fast.flag_counts() == reference.flag_counts()
        assert fast.segments == reference.segments
        assert fast.traces_total == reference.traces_total
        assert fast.traces_in_as == reference.traces_in_as
        assert fast.traces_quarantined == reference.traces_quarantined
        assert fast.sr_addresses == reference.sr_addresses
        assert fast.mpls_addresses == reference.mpls_addresses
        assert fast.suffix_matched_runs == reference.suffix_matched_runs

    def test_all_quarantined_batch(self):
        """Conflicting-duplicate traces quarantine on both paths."""
        conflicting = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16001,)),
                make_hop(1, "10.0.0.2", labels=(16001,)),
            ]
        )
        traces = [conflicting, conflicting]
        for pipeline in (ArestPipeline(), ArestPipeline(ArestDetector())):
            analysis = pipeline.analyze_as(100, traces, {})
            assert analysis.traces_total == 2
            assert analysis.traces_quarantined == 2
            assert analysis.traces_analyzed == 0
            assert analysis.total_distinct_segments() == 0


class TestEdgeCases:
    def test_empty_batch(self):
        batch = TraceBatch.from_traces([], {})
        assert len(batch) == 0
        assert batch.n_hops == 0
        assert ColumnarDetector().detect_batch(batch) == []

    def test_batch_of_empty_traces(self):
        traces = [make_trace([]), make_trace([])]
        batch = TraceBatch.from_traces(traces, {})
        assert len(batch) == 2
        assert batch.n_hops == 0
        assert ColumnarDetector().detect_batch(batch) == [[], []]

    def test_empty_trace_one_row(self):
        trace = make_trace([])
        assert ColumnarDetector().detect(trace, {}) == []

    def test_address_less_labeled_hop_is_ineligible(self):
        """Satellite fix: a labeled hop without an address must break
        runs instead of reaching (and crashing) classification."""
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16001,)),
                make_hop(2, None, labels=(16001,)),
                make_hop(3, "10.0.0.3", labels=(16001,)),
            ]
        )
        for detector in (ArestDetector(), ColumnarDetector()):
            segments = detector.detect(trace, {})
            # no 3-hop run across the anonymous hop, and the anonymous
            # hop itself is never flagged
            assert all(1 not in s.hop_indices for s in segments)
            assert all(s.length < 3 for s in segments)

    def test_jsonl_streaming_matches_object_path(self, tmp_path):
        """from_jsonl / chunked iter_jsonl reproduce object detection."""
        traces = []
        for k in range(25):
            label = 16000 + (k % 3)
            traces.append(
                make_trace(
                    [
                        make_hop(1, f"10.1.{k}.1", labels=(label,)),
                        make_hop(2, f"10.1.{k}.2", labels=(label,)),
                        make_hop(3, f"10.1.{k}.3"),
                    ]
                )
            )
        dataset = TraceDataset(target_asn=65001, traces=traces)
        path = tmp_path / "archive.jsonl"
        dataset.dump_jsonl(path)
        reference = ArestDetector()
        expected = [
            reference.detect(t, {}) for t in TraceDataset.iter_jsonl(path)
        ]
        columnar = ColumnarDetector()
        whole = TraceBatch.from_jsonl(path)
        assert columnar.detect_batch(whole) == expected
        chunked = []
        for batch in TraceBatch.iter_jsonl(path, chunk=4):
            assert len(batch) <= 4
            chunked.extend(columnar.detect_batch(batch))
        assert chunked == expected
