"""Detected-segment length statistics.

The consecutive flags gain confidence with run length: the coincidence
probability of a k-hop run is 1/N^(k-1) (Sec. 4.1), so a campaign's
segment-length profile translates directly into a false-positive
budget.  This module aggregates the run lengths AReST actually observed
and prices them with the paper's model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from repro.campaign.runner import AsCampaignResult
from repro.core.flags import (
    SEQUENCE_FLAGS,
    cvr_false_positive_probability,
)


@dataclass(frozen=True, slots=True)
class SegmentLengthRow:
    """Per-AS distribution of consecutive-flag run lengths."""

    as_id: int
    name: str
    length_counts: tuple[tuple[int, int], ...]  # (length, count)

    def total(self) -> int:
        """Number of distinct consecutive-flag runs."""
        return sum(c for _l, c in self.length_counts)

    def mean_length(self) -> float:
        """Average run length in hops."""
        total = self.total()
        if total == 0:
            return 0.0
        return sum(l * c for l, c in self.length_counts) / total

    def max_length(self) -> int:
        """Longest observed run."""
        return max((l for l, _c in self.length_counts), default=0)

    def expected_false_positives(
        self, pool_size: int | None = None
    ) -> float:
        """Sum of per-run coincidence probabilities: the number of
        flagged runs one would expect to be pure label-collision luck."""
        kwargs = {} if pool_size is None else {"pool_size": pool_size}
        return sum(
            count * cvr_false_positive_probability(length, **kwargs)
            for length, count in self.length_counts
            if length >= 2
        )


def segment_length_rows(
    results: Mapping[int, AsCampaignResult]
) -> list[SegmentLengthRow]:
    """Distinct CVR/CO run lengths per AS."""
    rows = []
    for as_id in sorted(results):
        result = results[as_id]
        counts: Counter = Counter()
        seen: set = set()
        for _trace, segments in result.trace_segments:
            for segment in segments:
                if segment.flag not in SEQUENCE_FLAGS:
                    continue
                if segment.key() in seen:
                    continue
                seen.add(segment.key())
                counts[segment.length] += 1
        rows.append(
            SegmentLengthRow(
                as_id=as_id,
                name=result.spec.name,
                length_counts=tuple(sorted(counts.items())),
            )
        )
    return rows


def portfolio_expected_false_positives(
    rows: list[SegmentLengthRow],
) -> float:
    """Campaign-wide coincidence budget (the Sec. 4.1 argument, priced
    on the real observations)."""
    return sum(row.expected_false_positives() for row in rows)
