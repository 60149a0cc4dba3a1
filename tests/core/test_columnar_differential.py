"""Differential suite: the columnar core ≡ the object-path detector.

The columnar detector's entire value proposition is *byte-identical
output, orders-of-magnitude cheaper*.  These properties pin its one
implementation, :meth:`ColumnarDetector.detect_batch`, and every way
into it -- the one-row :meth:`ColumnarDetector.detect`, the pipeline's
chunk call :meth:`ColumnarDetector.detect_many` with per-trace hop
scopes, and the streamed, AS-scoped :meth:`TraceBatch.iter_jsonl` --
against :class:`ArestDetector` at its default rule over adversarial
traces: reserved/ELI label stacks, suffix families, address-less
labeled hops, TNT-revealed hops, every fingerprint grade, and hop
masks.  The pipeline built on either detector must accumulate the same
analysis, whatever the chunking.  The oracle's other run rules
(``min_run_length``, ``suffix_matching``) are covered by
``tests/core/test_detector.py`` and the two ablation benches.
"""

import dataclasses
import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.campaign.dataset import TraceDataset
from repro.core.columnar import ColumnarDetector, TraceBatch
from repro.core.detector import ArestDetector, effective_labels
from repro.core.pipeline import ArestPipeline
from repro.fingerprint.records import Fingerprint, FingerprintMethod
from repro.netsim.addressing import IPv4Address
from repro.netsim.vendors import Vendor
from repro.obs import Telemetry
from repro.probing.sanitize import TraceSanitizer
from repro.service.state import SegmentAggregate

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
#: a hop scope as the pipeline passes one: every hop, none, or any subset
scope_st = st.one_of(st.none(), st.sets(st.integers(0, 11)))
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
    @given(st.lists(trace_st, max_size=8), fingerprints_st)
    def test_per_trace_and_batch_identical(self, specs, fingerprints):
        traces = [build_trace(s) for s in specs]
        reference = ArestDetector()
        columnar = ColumnarDetector()
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

    @settings(max_examples=scaled_examples(75), deadline=None)
    @given(
        st.lists(st.tuples(trace_st, scope_st), max_size=8), fingerprints_st
    )
    def test_detect_many_matches_oracle_per_trace(self, rows, fingerprints):
        """Both detectors' chunk call ≡ the oracle trace by trace under
        each trace's own hop scope."""
        traces = [build_trace(specs) for specs, _ in rows]
        scopes = [scope for _, scope in rows]
        reference = ArestDetector()
        expected = [
            reference.detect(trace, fingerprints, hop_mask=scope)
            for trace, scope in zip(traces, scopes)
        ]
        for detector in (ColumnarDetector(), ArestDetector()):
            assert detector.detect_many(traces, fingerprints, scopes) == (
                expected
            )

    @settings(max_examples=scaled_examples(75), deadline=None)
    @given(
        st.lists(trace_st, min_size=1, max_size=6),
        fingerprints_st,
        st.sampled_from((None, 100, 200)),
    )
    def test_iter_jsonl_asn_matches_truth_filter(
        self, specs, fingerprints, asn
    ):
        """``iter_jsonl(path, asn=...)`` rows ≡ the oracle over the
        sanitized traces under the pipeline's in-AS (truth) hop mask."""
        traces = [build_trace(s) for s in specs]
        expected = []
        for trace in traces:
            trace = TraceSanitizer().sanitize(trace).trace
            if trace is None:
                continue
            mask = {
                i
                for i, hop in enumerate(trace.hops)
                if asn is None or hop.truth_asn == asn
            }
            expected.append(
                ArestDetector().detect(trace, fingerprints, hop_mask=mask)
            )
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "archive.jsonl"
            TraceDataset(target_asn=100, traces=traces).dump_jsonl(path)
            detections = [
                row
                for batch in TraceBatch.iter_jsonl(
                    path, fingerprints, chunk=2, asn=asn
                )
                for row in ColumnarDetector().detect_batch(batch)
            ]
        assert detections == expected

    @settings(max_examples=scaled_examples(75), deadline=None)
    @given(trace_st, fingerprints_st)
    def test_row_view_round_trip(self, specs, fingerprints):
        """Batch build -> the row's column slices reproduce the per-hop
        object facts."""
        trace = build_trace(specs)
        batch = TraceBatch.from_traces([trace], fingerprints)
        assert len(batch) == 1
        assert batch.n_hops == len(trace.hops)
        assert batch.traces[0] is trace
        lo, hi = batch.offsets[0], batch.offsets[1]
        tops = batch.top[lo:hi]
        depths = batch.depth[lo:hi]
        eligible = batch.elig[lo:hi]
        in_range = batch.in_range[lo:hi]
        for i, hop in enumerate(trace.hops):
            effective = effective_labels(hop)
            # an absent top label is stored as a negative sentinel
            assert (tops[i] if tops[i] >= 0 else None) == (
                effective[0] if effective else None
            )
            assert depths[i] == len(effective)
            assert bool(eligible[i]) == (
                bool(effective)
                and hop.address is not None
                and not hop.tnt_revealed
            )
            if in_range[i]:
                assert eligible[i]  # range bits only on eligible hops
            # the fingerprint column holds eligible fingerprinted hops'
            # fingerprints only
            fingerprint = (
                fingerprints.get(hop.address) if eligible[i] else None
            )
            if (
                fingerprint is not None
                and fingerprint.method is FingerprintMethod.NONE
            ):
                fingerprint = None
            assert batch.fingerprints[lo + i] == fingerprint


#: a trace the sanitizer quarantines (two answers for one TTL)
QUARANTINED = make_trace(
    [
        make_hop(1, "10.0.0.1", labels=(16001,)),
        make_hop(1, "10.0.0.2", labels=(16001,)),
    ]
)

#: a trace with no hop inside AS 100
FOREIGN = build_trace(
    [("10.0.0.1", [16001], False, 200), ("10.0.0.2", [16001], False, 200)]
)


def assert_same_analysis(analysis, reference) -> None:
    """Every :class:`AsAnalysis` field equal, and equal aggregate bytes."""
    for name in (f.name for f in dataclasses.fields(analysis)):
        assert getattr(analysis, name) == getattr(reference, name), name
    projected, expected = (
        SegmentAggregate.from_analysis(a) for a in (analysis, reference)
    )
    assert projected.segments_json() == expected.segments_json()
    assert json.dumps(projected.as_state_dict(), sort_keys=True) == (
        json.dumps(expected.as_state_dict(), sort_keys=True)
    )


class TestPipelineParity:
    @settings(max_examples=scaled_examples(40), deadline=None)
    @given(st.lists(trace_st, max_size=6), fingerprints_st)
    def test_columnar_pipeline_matches_object_pipeline(
        self, specs, fingerprints
    ):
        traces = [QUARANTINED, FOREIGN, *(build_trace(s) for s in specs)]
        fast, reference = (
            pipeline.analyze_as(100, traces, fingerprints)
            for pipeline in (ArestPipeline(), ArestPipeline(ArestDetector()))
        )
        assert_same_analysis(fast, reference)

    @settings(max_examples=scaled_examples(40), deadline=None)
    @given(st.lists(trace_st, max_size=8), fingerprints_st, st.data())
    def test_chunking_never_changes_the_fold(self, specs, fingerprints, data):
        """The same traces cut at drawn points (chunks of one, chunks of
        only quarantined or only out-of-AS traces among them) fold to
        the same analysis, segment sink and anomaly order as one call."""
        traces = [
            QUARANTINED,
            QUARANTINED,
            FOREIGN,
            FOREIGN,
            *(build_trace(s) for s in specs),
        ]
        cuts = data.draw(st.sets(st.integers(1, len(traces) - 1)))
        bounds = sorted({0, 2, 4, *cuts, len(traces)})
        pipeline = ArestPipeline()
        folds = []
        for chunks in (
            [traces],
            [traces[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
            [[trace] for trace in traces],
        ):
            sink: list = []
            accumulator = pipeline.accumulator(
                100, fingerprints, segment_sink=sink
            )
            for chunk in chunks:
                accumulator.feed_many(chunk)
            folds.append((accumulator.finish(), sink))
        (whole, whole_sink), *others = folds
        for analysis, sink in others:
            assert_same_analysis(analysis, whole)
            assert sink == whole_sink

    def test_detect_histogram_counts_detected_traces(self):
        """One ``detect`` observation per trace that reached detection,
        and the stage seconds are the chunk calls' seconds."""
        traces = [QUARANTINED, FOREIGN] + [
            build_trace([("10.0.0.1", [16001], False, 100)])
        ] * 70
        # a clock that advances one second per read
        telemetry = Telemetry(clock=itertools.count(0.0).__next__)
        analysis = ArestPipeline().analyze_as(
            100, traces, {}, telemetry=telemetry
        )
        assert analysis.traces_in_as == 70
        histogram = telemetry.export()["histograms"]["detect"]
        assert histogram["count"] == 70
        # two chunks of up to 64 traces, one detector call each
        detect = [s for s in telemetry.spans if s["stage"] == "detect"]
        assert [s["seconds"] for s in detect] == [2.0]

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
        """Chunked iter_jsonl batches equal one large chunk and the
        object detection of the stored traces."""
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
        (whole,) = TraceBatch.iter_jsonl(path, chunk=len(traces))
        assert len(whole) == len(traces)
        assert columnar.detect_batch(whole) == expected
        chunked = []
        for batch in TraceBatch.iter_jsonl(path, chunk=4):
            assert len(batch) <= 4
            chunked.extend(columnar.detect_batch(batch))
        assert chunked == expected

    def test_jsonl_streaming_counts_quarantined_traces(self, tmp_path):
        """A quarantined trace is counted in the batch it was read into,
        the tail's in a last, trace-less batch."""
        clean = make_trace(
            [
                make_hop(1, "10.1.0.1", labels=(16001,)),
                make_hop(2, "10.1.0.2", labels=(16001,)),
            ]
        )
        conflicting = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16001,)),
                make_hop(1, "10.0.0.2", labels=(16001,)),
            ]
        )
        path = tmp_path / "dirty.jsonl"
        TraceDataset(
            target_asn=65001, traces=[clean, conflicting, clean, conflicting]
        ).dump_jsonl(path)
        batches = list(TraceBatch.iter_jsonl(path, chunk=1))
        assert [(len(b), b.quarantined) for b in batches] == [
            (1, 0), (1, 1), (0, 1)
        ]
        assert ColumnarDetector().detect_batch(batches[-1]) == []
