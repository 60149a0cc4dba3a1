"""Per-vendor segment and flag breakdown over columnar batches.

Which vendor's gear is behind each detected segment?  The paper's
Table 1 ranges and Sec. 5 fingerprints answer per hop; this module
rolls the evidence up per *segment* and tallies flags per vendor, in
one pass over a :class:`~repro.core.columnar.TraceBatch` -- the
``arest detect --vendor-breakdown`` view and the campaign report's
vendor section.

Attribution ladder (strongest evidence wins):

1. a **confirming hop**: fingerprinted AND its top label inside that
   vendor's SR range (the hop that made a CVR a CVR);
2. else the first fingerprinted hop of the segment (evidence of who
   owns the gear, even if the label fell outside the ranges);
3. else pure Table 1 inference from the labels (prefixed ``range:`` --
   ranges overlap, so this is a vendor *class*, not an identification);
4. else ``unattributed``.

The accumulator merges across streamed batches
(:meth:`~repro.core.columnar.TraceBatch.iter_jsonl` chunks), so
paper-scale archives break down in bounded memory.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from repro.core.columnar import TraceBatch
from repro.core.flags import Flag
from repro.core.segments import DetectedSegment
from repro.core.vendor_ranges import TABLE1_RANGES
from repro.fingerprint.records import Fingerprint

#: attribution bucket when no fingerprint or range evidence exists
UNATTRIBUTED = "unattributed"

#: prefix marking Table 1 label-range inference (no fingerprint backing)
RANGE_PREFIX = "range:"


def _vendor_token(fingerprint: Fingerprint) -> str:
    """A fingerprint's vendor evidence as one token: the exact vendor,
    else its sorted vendor class joined by ``|`` ("Cisco|Huawei"), else
    "" (no vendor evidence)."""
    if fingerprint.exact_vendor is not None:
        return fingerprint.exact_vendor.value
    return "|".join(sorted(v.value for v in fingerprint.vendor_class))


def attribute_vendor(
    batch: TraceBatch, base: int, segment: DetectedSegment
) -> str:
    """Vendor token for one segment (see the module attribution ladder).

    ``base`` is the segment's trace's hop offset into the batch columns
    (``batch.offsets[k]``).
    """
    fingerprints = batch.fingerprints
    in_range = batch.in_range
    first_fingerprinted = ""
    for hop_index in segment.hop_indices:
        g = base + hop_index
        fingerprint = fingerprints[g]
        if fingerprint is None:
            continue
        name = _vendor_token(fingerprint)
        if name:
            if in_range[g]:
                return name  # the confirming hop
            if not first_fingerprinted:
                first_fingerprinted = name
    if first_fingerprinted:
        return first_fingerprinted
    inferred = {
        vendor.value
        for label in segment.top_labels
        for vendor, entries in TABLE1_RANGES.items()
        if any(label in r for r, _kind in entries)
    }
    if inferred:
        return RANGE_PREFIX + "|".join(sorted(inferred))
    return UNATTRIBUTED


class VendorBreakdownAccumulator:
    """Streaming per-vendor flag tally over columnar detections.

    Feed (batch, detections) chunk pairs as they come off
    :meth:`TraceBatch.iter_jsonl` + :meth:`ColumnarDetector.detect_batch`;
    the document merges identically regardless of chunking (distinct
    segments deduplicate on ``(vendor, segment.key())`` across chunks).
    """

    def __init__(self) -> None:
        self.traces = 0
        self.occurrences = 0
        #: (vendor, flag name) -> occurrence count
        self._occurrence_counts: Counter = Counter()
        #: (vendor, flag name) -> distinct-segment count
        self._distinct_counts: Counter = Counter()
        self._seen: set = set()

    def feed_batch(
        self,
        batch: TraceBatch,
        detections: list[list[DetectedSegment]],
    ) -> None:
        """Fold one batch's per-trace detections (one pass)."""
        if len(detections) != len(batch):
            raise ValueError("one detection list per batch trace")
        offsets = batch.offsets
        seen = self._seen
        occurrence_counts = self._occurrence_counts
        distinct_counts = self._distinct_counts
        self.traces += len(detections)
        for k, segments in enumerate(detections):
            if not segments:
                continue
            base = offsets[k]
            for segment in segments:
                vendor = attribute_vendor(batch, base, segment)
                bucket = (vendor, segment.flag.name)
                occurrence_counts[bucket] += 1
                self.occurrences += 1
                key = (vendor, segment.key())
                if key not in seen:
                    seen.add(key)
                    distinct_counts[bucket] += 1

    def as_doc(self) -> dict:
        """JSON-ready document (deterministically ordered).

        Vendors sort by distinct-segment count (desc) then name; flags
        within a vendor follow the :class:`Flag` declaration order.
        """
        vendor_totals: Counter = Counter()
        for (vendor, _flag), count in self._distinct_counts.items():
            vendor_totals[vendor] += count
        vendors = {}
        for vendor in sorted(
            vendor_totals, key=lambda v: (-vendor_totals[v], v)
        ):
            flags = {
                flag.name: self._distinct_counts[(vendor, flag.name)]
                for flag in Flag
                if self._distinct_counts[(vendor, flag.name)]
            }
            vendors[vendor] = {
                "distinct_segments": vendor_totals[vendor],
                "occurrences": sum(
                    count
                    for (v, _f), count in self._occurrence_counts.items()
                    if v == vendor
                ),
                "flags": flags,
            }
        return {
            "traces": self.traces,
            "segment_occurrences": self.occurrences,
            "distinct_segments": len(self._seen),
            "vendors": vendors,
        }


def campaign_vendor_breakdown(results: Mapping[int, object]) -> dict:
    """Breakdown over finished campaign results (the report path).

    Reuses the segments each campaign already detected -- the batch is
    built only to carry the fingerprint/range columns that attribution
    reads, so the numbers agree with every other report section by
    construction.
    """
    accumulator = VendorBreakdownAccumulator()
    for as_id in sorted(results):
        result = results[as_id]
        trace_segments = result.trace_segments
        if not trace_segments:
            continue
        fingerprints = result.fingerprints
        batch = TraceBatch.from_pairs(
            (trace, fingerprints) for trace, _segments in trace_segments
        )
        accumulator.feed_batch(
            batch, [segments for _trace, segments in trace_segments]
        )
    return accumulator.as_doc()
