"""Format tests for the Prometheus textfile exposition.

The exposition is an operator contract: dashboards and alert rules key
on exact family names and label sets, so every family the renderer
promises -- including the churn-safety surface added with the dynamics
engine -- is pinned here line by line.
"""

import json
from pathlib import Path

from repro.obs.prometheus import (
    escape_label_value,
    render_ingest_metrics,
    render_prometheus,
    render_scale_metrics,
)
from repro.obs.summary import TelemetrySummary, summarize_telemetry


def _summary(tmp_path) -> TelemetrySummary:
    summary = TelemetrySummary(directory=tmp_path)
    summary.stage_seconds = {46: {"probe": 1.25}}
    summary.counters = {
        46: {
            "traces_collected": 40,
            "traces_quarantined": 3,
            "fault_probe_loss": 7,
            "fault_rate_limited": 2,
        }
    }
    summary.totals = {
        "traces_collected": 40,
        "traces_quarantined": 3,
        "fault_probe_loss": 7,
        "fault_rate_limited": 2,
    }
    summary.gauges = {
        46: {
            "walkcache_epoch_transitions": 5.0,
            "walkcache_stale_walk_fallbacks": 2.0,
            "churn_links_failed": 4.0,
        }
    }
    return summary


class TestRenderPrometheus:
    def test_quarantine_total_is_promoted(self, tmp_path):
        text = render_prometheus(_summary(tmp_path))
        assert "# TYPE arest_traces_quarantined gauge" in text
        assert "arest_traces_quarantined 3" in text.splitlines()

    def test_quarantine_zero_is_still_exposed(self, tmp_path):
        # zero is the healthy reading, not an absent one: alert rules
        # need the series to exist to distinguish "clean" from "no data"
        summary = _summary(tmp_path)
        summary.totals.pop("traces_quarantined")
        text = render_prometheus(summary)
        assert "arest_traces_quarantined 0" in text.splitlines()

    def test_fault_classes_become_a_family(self, tmp_path):
        text = render_prometheus(_summary(tmp_path))
        assert "# TYPE arest_fault_events_total counter" in text
        lines = text.splitlines()
        assert 'arest_fault_events_total{class="probe_loss"} 7' in lines
        assert 'arest_fault_events_total{class="rate_limited"} 2' in lines

    def test_epoch_and_stale_counters_are_scoped(self, tmp_path):
        text = render_prometheus(_summary(tmp_path))
        lines = text.splitlines()
        assert "# TYPE arest_epoch_transitions_total counter" in lines
        assert 'arest_epoch_transitions_total{scope="46"} 5' in lines
        assert "# TYPE arest_stale_walk_fallbacks_total counter" in lines
        assert 'arest_stale_walk_fallbacks_total{scope="46"} 2' in lines

    def test_generic_gauge_family_carries_churn_tallies(self, tmp_path):
        lines = render_prometheus(_summary(tmp_path)).splitlines()
        assert "# TYPE arest_gauge gauge" in lines
        assert 'arest_gauge{scope="46",name="churn_links_failed"} 4' in lines

    def test_no_fault_family_without_fault_counters(self, tmp_path):
        summary = _summary(tmp_path)
        summary.totals = {"traces_collected": 40}
        summary.counters = {46: {"traces_collected": 40}}
        text = render_prometheus(summary)
        assert "arest_fault_events_total" not in text

    def test_static_campaign_omits_churn_families_but_not_gauges(
        self, tmp_path
    ):
        summary = _summary(tmp_path)
        summary.gauges = {46: {"walkcache_hits": 12.0}}
        text = render_prometheus(summary)
        assert "arest_epoch_transitions_total" not in text
        assert "arest_stale_walk_fallbacks_total" not in text
        assert (
            'arest_gauge{scope="46",name="walkcache_hits"} 12'
            in text.splitlines()
        )

    def test_label_values_are_escaped(self, tmp_path):
        summary = TelemetrySummary(directory=tmp_path)
        summary.counters = {'we"ird': {"n": 1}}
        summary.totals = {"n": 1}
        text = render_prometheus(summary)
        assert 'scope="we\\"ird"' in text

    def test_render_ends_with_newline(self, tmp_path):
        assert render_prometheus(_summary(tmp_path)).endswith("\n")


class TestLabelValueEscaping:
    """The three exposition-format escapes, pinned one by one.

    ``escape_label_value`` is the single escape point for every label
    value the package emits; an unescaped backslash, quote or newline
    would corrupt the whole scrape, not just one sample.
    """

    def test_backslash(self):
        assert escape_label_value(r"a\b") == r"a\\b"

    def test_double_quote(self):
        assert escape_label_value('say "hi"') == r"say \"hi\""

    def test_newline(self):
        assert escape_label_value("two\nlines") == r"two\nlines"

    def test_backslash_escapes_first(self):
        # were the order reversed, the backslash introduced by the
        # quote escape would itself get doubled
        assert escape_label_value('\\"') == r"\\\""

    def test_all_three_together(self):
        assert (
            escape_label_value('a\\b"c\nd') == r"a\\b\"c\nd"
        )

    def test_non_strings_are_stringified(self):
        assert escape_label_value(46) == "46"


class TestRenderIngestMetrics:
    def _render(self, **overrides) -> str:
        kwargs = dict(
            accepted_total=10,
            rejected={"bad-json": 2, "queue-full": 5},
            queue_depth=3,
            queue_capacity=64,
            traces_quarantined=1,
        )
        kwargs.update(overrides)
        return render_ingest_metrics(**kwargs)

    def test_all_families_present(self):
        lines = self._render().splitlines()
        assert "arest_ingest_accepted_total 10" in lines
        assert (
            'arest_ingest_rejected_total{reason="bad-json"} 2' in lines
        )
        assert (
            'arest_ingest_rejected_total{reason="queue-full"} 5' in lines
        )
        assert "arest_queue_depth 3" in lines
        assert "arest_queue_capacity 64" in lines
        assert "arest_service_draining 0" in lines
        assert "arest_traces_quarantined 1" in lines

    def test_every_family_is_typed(self):
        text = self._render()
        for family in (
            "arest_ingest_accepted_total",
            "arest_ingest_rejected_total",
            "arest_queue_depth",
            "arest_queue_capacity",
            "arest_service_draining",
            "arest_traces_quarantined",
        ):
            assert f"# TYPE {family} " in text

    def test_draining_flag(self):
        assert "arest_service_draining 1" in self._render(
            draining=True
        ).splitlines()

    def test_reason_labels_are_escaped(self):
        text = self._render(rejected={'odd"reason\n\\': 1})
        assert (
            'arest_ingest_rejected_total{reason="odd\\"reason\\n\\\\"} 1'
            in text.splitlines()
        )

    def test_reasons_render_sorted(self):
        text = self._render()
        assert text.index('reason="bad-json"') < text.index(
            'reason="queue-full"'
        )


class TestEndToEnd:
    def test_jsonl_gauges_flow_through_to_exposition(self, tmp_path):
        """gauge records written by the sink surface as the scoped
        churn-safety families after a summarize/render round trip."""
        records = [
            {"kind": "counter", "scope": 46, "name": "traces_collected",
             "value": 10},
            {"kind": "counter", "scope": 46, "name": "fault_probe_loss",
             "value": 4},
            {"kind": "gauge", "scope": 46,
             "name": "walkcache_epoch_transitions", "value": 3},
            # a re-reported gauge is last-write-wins, never summed
            {"kind": "gauge", "scope": 46,
             "name": "walkcache_epoch_transitions", "value": 6},
            {"kind": "gauge", "scope": 46,
             "name": "walkcache_stale_walk_fallbacks", "value": 1},
            {"kind": "flush", "scope": 46},
        ]
        (tmp_path / "telemetry.jsonl").write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        summary = summarize_telemetry(tmp_path)
        assert summary.gauges[46]["walkcache_epoch_transitions"] == 6.0
        lines = render_prometheus(summary).splitlines()
        assert 'arest_epoch_transitions_total{scope="46"} 6' in lines
        assert 'arest_stale_walk_fallbacks_total{scope="46"} 1' in lines
        assert 'arest_fault_events_total{class="probe_loss"} 4' in lines


class TestRenderScaleMetrics:
    _STATS = {
        "shards_total": 6,
        "shards_probed": 4,
        "shards_resumed": 2,
        "shards_redispatched": 1,
        "shards_quarantined": 0,
        "leases_granted": 5,
        "leases_renewed": 17,
        "leases_expired": 1,
        "workers_spawned": 3,
        "workers_crashed": 1,
        "workers_recycled": 1,
        "ases_analyzed": 3,
        "traces_total": 432,
        "rss_peak_bytes": 104857600,
        "wall_seconds": 12.5,
    }

    def test_full_stats_render_every_family(self):
        lines = render_scale_metrics(self._STATS).splitlines()
        assert "arest_shards_total 6" in lines
        assert "arest_shards_probed_total 4" in lines
        assert "arest_shards_resumed_total 2" in lines
        assert "arest_shards_redispatched_total 1" in lines
        assert "arest_shards_quarantined_total 0" in lines
        assert "arest_leases_granted_total 5" in lines
        assert "arest_leases_renewed_total 17" in lines
        assert "arest_leases_expired_total 1" in lines
        assert "arest_workers_spawned_total 3" in lines
        assert "arest_workers_crashed_total 1" in lines
        assert "arest_workers_recycled_total 1" in lines
        assert "arest_ases_analyzed_total 3" in lines
        assert "arest_scale_traces_total 432" in lines
        assert "arest_rss_peak_bytes 104857600" in lines
        assert "arest_scale_wall_seconds 12.5" in lines

    def test_every_rendered_family_is_helped_and_typed(self):
        text = render_scale_metrics(self._STATS)
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            family = line.split(" ", 1)[0]
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} " in text

    def test_absent_stats_are_omitted_not_zeroed(self):
        text = render_scale_metrics({"shards_total": 2, "traces_total": 9})
        assert "arest_shards_total 2" in text.splitlines()
        assert "arest_scale_traces_total 9" in text.splitlines()
        assert "rss_peak" not in text
        assert "lease" not in text

    def test_empty_stats_render_nothing(self):
        assert render_scale_metrics({}) == ""

    def test_locality_and_worker_memory_families(self):
        text = render_scale_metrics(
            {
                "topology_builds": 12,
                "analyses_rebuilt": 1,
                "caches_shed": 3,
                "worker_rss_peak_bytes": 73400320,
            }
        )
        assert text.splitlines() == [
            "# HELP arest_topology_builds_total Topologies built (one per "
            "AS unless an analysis missed its worker's cached context).",
            "# TYPE arest_topology_builds_total counter",
            "arest_topology_builds_total 12",
            "# HELP arest_analyses_rebuilt_total AS analyses that rebuilt "
            "the topology and decoded every spill.",
            "# TYPE arest_analyses_rebuilt_total counter",
            "arest_analyses_rebuilt_total 1",
            "# HELP arest_caches_shed_total Worker context caches shed by "
            "the RSS watchdog.",
            "# TYPE arest_caches_shed_total counter",
            "arest_caches_shed_total 3",
            "# HELP arest_worker_rss_peak_bytes Highest peak resident set "
            "size of any worker, in bytes.",
            "# TYPE arest_worker_rss_peak_bytes gauge",
            "arest_worker_rss_peak_bytes 73400320",
        ]
