"""Tests for the per-vendor segment/flag breakdown."""

from repro.analysis.vendor_breakdown import (
    RANGE_PREFIX,
    UNATTRIBUTED,
    VendorBreakdownAccumulator,
    campaign_vendor_breakdown,
)
from repro.core.columnar import ColumnarDetector, TraceBatch
from repro.fingerprint.records import Fingerprint
from repro.netsim.addressing import IPv4Address
from repro.netsim.vendors import Vendor

from tests.conftest import make_hop, make_trace


def breakdown(pairs):
    """The accumulator's document over (trace, fingerprints) pairs,
    detected in one batch."""
    batch = TraceBatch.from_pairs(pairs)
    accumulator = VendorBreakdownAccumulator()
    accumulator.feed_batch(batch, ColumnarDetector().detect_batch(batch))
    return accumulator.as_doc()


def fingerprinted(mapping):
    return {
        IPv4Address.from_string(address): fp
        for address, fp in mapping.items()
    }


class TestAttributionLadder:
    def test_confirming_hop_wins(self):
        """A fingerprinted in-range hop names the vendor exactly."""
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16001,)),
                make_hop(2, "10.0.0.2", labels=(16001,)),
            ]
        )
        fps = fingerprinted(
            {"10.0.0.2": Fingerprint.from_snmp(Vendor.CISCO)}
        )
        doc = breakdown([(trace, fps)])
        assert list(doc["vendors"]) == [Vendor.CISCO.value]
        assert doc["vendors"]["Cisco"]["flags"] == {"CVR": 1}

    def test_fingerprint_without_range_still_attributes(self):
        """Out-of-range fingerprint evidence beats label inference."""
        trace = make_trace(
            [
                # Juniper has no Table 1 ranges: the run stays CO but
                # the fingerprint still says whose gear answered
                make_hop(1, "10.0.0.1", labels=(16001,)),
                make_hop(2, "10.0.0.2", labels=(16001,)),
            ]
        )
        fps = fingerprinted(
            {"10.0.0.1": Fingerprint.from_snmp(Vendor.JUNIPER)}
        )
        doc = breakdown([(trace, fps)])
        assert list(doc["vendors"]) == [Vendor.JUNIPER.value]
        assert doc["vendors"]["Juniper"]["flags"] == {"CO": 1}

    def test_vendor_token_format(self):
        """An exact vendor names itself; a TTL class names its vendors
        sorted and joined by ``|``, whether it holds two or three."""
        run = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16001,)),
                make_hop(2, "10.0.0.2", labels=(16001,)),
            ]
        )
        cases = (
            (Fingerprint.from_snmp(Vendor.HUAWEI), "Huawei"),
            (
                Fingerprint.from_ttl(frozenset({Vendor.HUAWEI, Vendor.CISCO})),
                "Cisco|Huawei",
            ),
            (
                Fingerprint.from_ttl(
                    frozenset({Vendor.NOKIA, Vendor.CISCO, Vendor.JUNIPER})
                ),
                "Cisco|Juniper|Nokia",
            ),
        )
        for fingerprint, token in cases:
            doc = breakdown([(run, fingerprinted({"10.0.0.1": fingerprint}))])
            assert list(doc["vendors"]) == [token]
        # in one breakdown, each token stays a bucket of its own
        doc = breakdown(
            [
                (run, fingerprinted({"10.0.0.1": fingerprint}))
                for fingerprint, _token in cases
            ]
        )
        assert sorted(doc["vendors"]) == sorted(token for _, token in cases)

    def test_range_inference_is_marked(self):
        """No fingerprints at all: Table 1 gives a prefixed class."""
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16005,)),
                make_hop(2, "10.0.0.2", labels=(16005,)),
            ]
        )
        doc = breakdown([(trace, {})])
        (vendor,) = doc["vendors"]
        assert vendor.startswith(RANGE_PREFIX)
        assert "Cisco" in vendor and "Huawei" in vendor

    def test_unattributed(self):
        """Deep stack outside every known range, no fingerprints."""
        trace = make_trace(
            [make_hop(1, "10.0.0.1", labels=(500_000, 500_001))]
        )
        doc = breakdown([(trace, {})])
        assert list(doc["vendors"]) == [UNATTRIBUTED]
        assert doc["vendors"][UNATTRIBUTED]["flags"] == {"LSO": 1}


class TestAccumulator:
    def make_pairs(self):
        pairs = []
        for k in range(10):
            label = 16000 + (k % 2)
            pairs.append(
                (
                    make_trace(
                        [
                            make_hop(1, f"10.2.{k}.1", labels=(label,)),
                            make_hop(2, f"10.2.{k}.2", labels=(label,)),
                        ]
                    ),
                    {},
                )
            )
        return pairs

    def test_chunking_invariant(self):
        """One batch or many chunks: the merged document is identical."""
        pairs = self.make_pairs()
        detector = ColumnarDetector()

        whole = VendorBreakdownAccumulator()
        batch = TraceBatch.from_pairs(pairs)
        whole.feed_batch(batch, detector.detect_batch(batch))

        chunked = VendorBreakdownAccumulator()
        for lo in range(0, len(pairs), 3):
            part = TraceBatch.from_pairs(pairs[lo : lo + 3])
            chunked.feed_batch(part, detector.detect_batch(part))

        assert whole.as_doc() == chunked.as_doc()

    def test_distinct_vs_occurrences(self):
        pairs = self.make_pairs()
        doc = breakdown(pairs)
        # 10 occurrences (one run per trace) but only 2 distinct label
        # values x disjoint addresses -> every segment key is distinct
        assert doc["segment_occurrences"] == 10
        assert doc["distinct_segments"] == 10
        assert doc["traces"] == 10

    def test_mismatched_detections_rejected(self):
        import pytest

        pairs = self.make_pairs()
        batch = TraceBatch.from_pairs(pairs)
        accumulator = VendorBreakdownAccumulator()
        with pytest.raises(ValueError):
            accumulator.feed_batch(batch, [[]])


class TestCampaignBreakdown:
    def test_occurrences_match_stored_segments(
        self, small_portfolio_results
    ):
        doc = campaign_vendor_breakdown(small_portfolio_results)
        stored = sum(
            len(segments)
            for result in small_portfolio_results.values()
            for _trace, segments in result.trace_segments
        )
        assert doc["segment_occurrences"] == stored
        assert doc["vendors"]  # the portfolio fingerprints real vendors
        per_vendor = sum(
            entry["occurrences"] for entry in doc["vendors"].values()
        )
        assert per_vendor == stored
