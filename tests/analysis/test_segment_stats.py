"""Tests for segment-length statistics."""

import pytest

from repro.analysis.segment_stats import (
    SegmentLengthRow,
    portfolio_expected_false_positives,
    segment_length_rows,
)
from repro.core.flags import SEQUENCE_FLAGS


def row(counts):
    return SegmentLengthRow(
        as_id=1, name="x", length_counts=tuple(sorted(counts.items()))
    )


class TestRowMath:
    def test_mean(self):
        assert row({2: 2, 4: 2}).mean_length() == 3.0

    def test_empty(self):
        r = row({})
        assert r.total() == 0
        assert r.mean_length() == 0.0
        assert r.max_length() == 0
        assert r.expected_false_positives() == 0.0

    def test_expected_fps_decrease_with_length(self):
        short = row({2: 10}).expected_false_positives(pool_size=100)
        long = row({4: 10}).expected_false_positives(pool_size=100)
        assert short > long

    def test_expected_fps_formula(self):
        # 5 runs of length 2 at pool 10: 5 * 1/10
        assert row({2: 5}).expected_false_positives(
            pool_size=10
        ) == pytest.approx(0.5)


class TestFromCampaign:
    def test_rows_cover_ases(self, small_portfolio_results):
        rows = segment_length_rows(small_portfolio_results)
        assert {r.as_id for r in rows} == set(small_portfolio_results)

    def test_all_runs_at_least_two(self, small_portfolio_results):
        for r in segment_length_rows(small_portfolio_results):
            assert all(l >= 2 for l, _c in r.length_counts)

    def test_esnet_runs_span_the_core(self, small_portfolio_results):
        rows = segment_length_rows(small_portfolio_results)
        esnet = next(r for r in rows if r.as_id == 46)
        assert esnet.mean_length() >= 2.5

    def test_rows_count_each_distinct_run_once(
        self, small_portfolio_results
    ):
        """The rows read the segments each AS's analysis already
        deduplicated: one count per distinct CVR/CO run."""
        for r in segment_length_rows(small_portfolio_results):
            analysis = small_portfolio_results[r.as_id].analysis
            assert r.total() == sum(
                len(analysis.distinct_segments.get(flag, ()))
                for flag in SEQUENCE_FLAGS
            )

    def test_portfolio_fp_budget_negligible(self, small_portfolio_results):
        rows = segment_length_rows(small_portfolio_results)
        # with the ~1e6 Cisco pool the whole campaign's coincidence
        # budget is far below one segment -- Sec. 4.1's argument, priced
        assert portfolio_expected_false_positives(rows) < 1e-3
