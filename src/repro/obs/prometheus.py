"""Prometheus textfile export of campaign telemetry.

Renders a :class:`~repro.obs.summary.TelemetrySummary` in the exposition
format the node_exporter textfile collector (and any Prometheus scrape)
understands.  A telemetry-enabled campaign writes this as
``metrics.prom`` at finalize; ``arest telemetry <dir> --prometheus``
re-renders it from the JSONL stream on demand.

Metric families:

- ``arest_stage_seconds_total{scope,stage}`` -- wall-clock seconds per
  scope (AS id or ``portfolio``) and pipeline stage;
- ``arest_events_total{scope,name}`` -- every typed counter;
- ``arest_traces_quarantined`` -- the sanitizer's campaign-wide
  quarantine total (the headline data-quality signal, promoted out of
  the generic counter family so it can be alerted on by name);
- ``arest_fault_events_total{class}`` -- injected measurement-plane
  faults by class (probe loss, rate limiting, blackouts, ...);
- ``arest_epoch_transitions_total{scope}`` /
  ``arest_stale_walk_fallbacks_total{scope}`` -- the churn-safety
  surface: topology epochs crossed and cached probes refused for
  staleness (both 0 on a static network);
- ``arest_gauge{scope,name}`` -- every other observational gauge
  (walk-cache behaviour, churn-event tallies);
- ``arest_run_duration_seconds`` -- total campaign wall clock;
- ``arest_run_info{...} 1`` -- provenance labels (version, seed, jobs,
  exit status), the conventional info-metric idiom.

Paper-scale runs add the shard-execution families rendered by
:func:`render_scale_metrics`: shard plan/steal/re-dispatch tallies
(``arest_shards_*``), lease lifecycle (``arest_leases_*``), worker
lifecycle (``arest_workers_*``), topology locality
(``arest_topology_builds_total``, ``arest_analyses_rebuilt_total``),
and the memory-governance surface (``arest_rss_peak_bytes``,
``arest_worker_rss_peak_bytes``, ``arest_caches_shed_total``).
"""

from __future__ import annotations

from repro.obs.summary import TelemetrySummary
from repro.obs.trace import LATENCY_BUCKETS


def _escape(value: object) -> str:
    """Escape a label value per the exposition format.

    The text format gives label values exactly three escapes --
    backslash, double-quote and newline -- and backslash must be
    rewritten first or it would re-escape the escapes themselves.
    """
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


#: public alias: every exposition surface must escape through this
escape_label_value = _escape


def render_ingest_metrics(
    *,
    accepted_total: int,
    rejected: "dict[str, int]",
    queue_depth: int,
    queue_capacity: int,
    traces_quarantined: int,
    draining: bool = False,
) -> str:
    """Render the streaming service's live ingest families.

    ``GET /metrics`` serves this (optionally after the batch families
    rendered from the telemetry directory).  Reason labels pass through
    :func:`escape_label_value` like every other label value.
    """
    lines = [
        "# HELP arest_ingest_accepted_total Traces durably accepted "
        "(202) by the ingest endpoint.",
        "# TYPE arest_ingest_accepted_total counter",
        f"arest_ingest_accepted_total {accepted_total}",
        "# HELP arest_ingest_rejected_total Traces refused by the "
        "ingest endpoint, by reason.",
        "# TYPE arest_ingest_rejected_total counter",
    ]
    for reason in sorted(rejected):
        lines.append(
            f'arest_ingest_rejected_total{{reason="{_escape(reason)}"}} '
            f"{rejected[reason]}"
        )
    lines += [
        "# HELP arest_queue_depth Accepted traces not yet folded in: "
        "queued or in a batch under analysis.",
        "# TYPE arest_queue_depth gauge",
        f"arest_queue_depth {queue_depth}",
        "# HELP arest_queue_capacity Configured bound of the ingest "
        "queue.",
        "# TYPE arest_queue_capacity gauge",
        f"arest_queue_capacity {queue_capacity}",
        "# HELP arest_service_draining 1 while the service refuses new "
        "traces pending shutdown.",
        "# TYPE arest_service_draining gauge",
        f"arest_service_draining {int(draining)}",
        "# HELP arest_traces_quarantined Traces withheld from analysis "
        "(sanitizer quarantine + poison containment).",
        "# TYPE arest_traces_quarantined gauge",
        f"arest_traces_quarantined {traces_quarantined}",
    ]
    return "\n".join(lines) + "\n"


def render_latency_histograms(histograms: "dict[str, dict]") -> str:
    """Render per-stage latency histograms as one Prometheus family.

    ``histograms`` maps stage -> ``{"buckets": [...], "sum", "count"}``
    with per-bucket (non-cumulative) counts over the fixed
    :data:`~repro.obs.trace.LATENCY_BUCKETS` edges; the exposition
    format wants cumulative ``le`` buckets, so the cumulation happens
    here.  Both the textfile export and the live service ``/metrics``
    render through this one function, so the two surfaces can never
    drift.
    """
    if not histograms:
        return ""
    lines = [
        "# HELP arest_stage_latency_seconds Per-event latency by "
        "pipeline stage (fixed deterministic buckets).",
        "# TYPE arest_stage_latency_seconds histogram",
    ]
    for stage in sorted(histograms):
        hist = histograms[stage]
        buckets = list(hist.get("buckets", ()))
        if len(buckets) != len(LATENCY_BUCKETS) + 1:
            continue  # foreign layout: refuse to render garbage
        label = _escape(stage)
        cumulative = 0
        for edge, count in zip(LATENCY_BUCKETS, buckets):
            cumulative += count
            lines.append(
                f'arest_stage_latency_seconds_bucket{{stage="{label}",'
                f'le="{edge:g}"}} {cumulative}'
            )
        cumulative += buckets[-1]
        lines.append(
            f'arest_stage_latency_seconds_bucket{{stage="{label}",'
            f'le="+Inf"}} {cumulative}'
        )
        lines.append(
            f'arest_stage_latency_seconds_sum{{stage="{label}"}} '
            f"{float(hist.get('sum', 0.0)):.6f}"
        )
        lines.append(
            f'arest_stage_latency_seconds_count{{stage="{label}"}} '
            f"{int(hist.get('count', 0))}"
        )
    return "\n".join(lines) + "\n"


#: scale-execution stat -> (metric name, type, help text); stats whose
#: key is absent from a run simply don't render (e.g. rss budget off)
_SCALE_FAMILIES = (
    (
        "shards_total",
        "arest_shards_total",
        "gauge",
        "Shards in the campaign's deterministic plan.",
    ),
    (
        "shards_probed",
        "arest_shards_probed_total",
        "counter",
        "Shards probed by this run (not restored from checkpoint).",
    ),
    (
        "shards_resumed",
        "arest_shards_resumed_total",
        "counter",
        "Shards restored from the checkpoint instead of re-probed.",
    ),
    (
        "shards_redispatched",
        "arest_shards_redispatched_total",
        "counter",
        "Shards re-queued after a worker crash or lease expiry.",
    ),
    (
        "shards_quarantined",
        "arest_shards_quarantined_total",
        "counter",
        "Shards circuit-broken past their re-dispatch budget.",
    ),
    (
        "leases_granted",
        "arest_leases_granted_total",
        "counter",
        "Shard leases granted to workers.",
    ),
    (
        "leases_renewed",
        "arest_leases_renewed_total",
        "counter",
        "Lease renewals (worker heartbeats received).",
    ),
    (
        "leases_expired",
        "arest_leases_expired_total",
        "counter",
        "Leases expired on silent workers (presumed lost, re-queued).",
    ),
    (
        "workers_spawned",
        "arest_workers_spawned_total",
        "counter",
        "Worker processes started (initial pool + replacements).",
    ),
    (
        "workers_crashed",
        "arest_workers_crashed_total",
        "counter",
        "Worker processes that died without delivering a result.",
    ),
    (
        "workers_recycled",
        "arest_workers_recycled_total",
        "counter",
        "Workers gracefully replaced on RSS-watchdog request.",
    ),
    (
        "ases_analyzed",
        "arest_ases_analyzed_total",
        "counter",
        "ASes whose analysis summary was banked.",
    ),
    (
        "traces_total",
        "arest_scale_traces_total",
        "counter",
        "Traces collected across all completed ASes.",
    ),
    (
        "topology_builds",
        "arest_topology_builds_total",
        "counter",
        "Topologies built (one per AS unless an analysis missed its "
        "worker's cached context).",
    ),
    (
        "analyses_rebuilt",
        "arest_analyses_rebuilt_total",
        "counter",
        "AS analyses that rebuilt the topology and decoded every spill.",
    ),
    (
        "caches_shed",
        "arest_caches_shed_total",
        "counter",
        "Worker context caches shed by the RSS watchdog.",
    ),
    (
        "rss_peak_bytes",
        "arest_rss_peak_bytes",
        "gauge",
        "Supervisor peak resident set size in bytes.",
    ),
    (
        "worker_rss_peak_bytes",
        "arest_worker_rss_peak_bytes",
        "gauge",
        "Highest peak resident set size of any worker, in bytes.",
    ),
    (
        "wall_seconds",
        "arest_scale_wall_seconds",
        "gauge",
        "Paper-scale campaign wall clock in seconds.",
    ),
)


def render_scale_metrics(stats: dict) -> str:
    """Render a paper-scale run's shard/lease/RSS execution families.

    ``stats`` is :attr:`repro.campaign.scale.ScaleCampaign.stats` --
    observational tallies only; nothing here feeds back into results.
    """
    lines: list[str] = []
    for key, metric, kind, help_text in _SCALE_FAMILIES:
        if key not in stats:
            continue
        value = stats[key]
        rendered = f"{value:g}" if isinstance(value, float) else str(value)
        lines += [
            f"# HELP {metric} {help_text}",
            f"# TYPE {metric} {kind}",
            f"{metric} {rendered}",
        ]
    return "\n".join(lines) + "\n" if lines else ""


def render_prometheus(summary: TelemetrySummary) -> str:
    """Render the summary in Prometheus exposition format."""
    lines: list[str] = []
    manifest = summary.manifest
    if manifest is not None:
        env = manifest.get("environment", {})
        labels = ",".join(
            f'{k}="{_escape(v)}"'
            for k, v in (
                ("command", manifest.get("command")),
                ("seed", manifest.get("seed")),
                ("jobs", manifest.get("jobs")),
                ("exit_status", manifest.get("exit_status")),
                ("package_version", env.get("package_version")),
                ("python_version", env.get("python_version")),
            )
        )
        lines += [
            "# HELP arest_run_info Campaign run provenance.",
            "# TYPE arest_run_info gauge",
            f"arest_run_info{{{labels}}} 1",
        ]
        duration = manifest.get("duration_seconds")
        if duration is not None:
            lines += [
                "# HELP arest_run_duration_seconds Campaign wall clock.",
                "# TYPE arest_run_duration_seconds gauge",
                f"arest_run_duration_seconds {duration:.6f}",
            ]
    if summary.stage_seconds:
        lines += [
            "# HELP arest_stage_seconds_total Wall-clock seconds per "
            "scope and stage.",
            "# TYPE arest_stage_seconds_total counter",
        ]
        for scope in sorted(summary.stage_seconds, key=str):
            for stage, seconds in sorted(
                summary.stage_seconds[scope].items()
            ):
                lines.append(
                    f'arest_stage_seconds_total{{scope="{_escape(scope)}",'
                    f'stage="{_escape(stage)}"}} {seconds:.6f}'
                )
    if summary.counters:
        lines += [
            "# HELP arest_events_total Typed event counters per scope.",
            "# TYPE arest_events_total counter",
        ]
        for scope in sorted(summary.counters, key=str):
            for name, value in sorted(summary.counters[scope].items()):
                lines.append(
                    f'arest_events_total{{scope="{_escape(scope)}",'
                    f'name="{_escape(name)}"}} {value}'
                )
        lines += [
            "# HELP arest_traces_quarantined Traces the sanitizer "
            "withheld from analysis.",
            "# TYPE arest_traces_quarantined gauge",
            "arest_traces_quarantined "
            f"{summary.totals.get('traces_quarantined', 0)}",
        ]
        fault_totals = {
            name[len("fault_"):]: value
            for name, value in summary.totals.items()
            if name.startswith("fault_")
        }
        if fault_totals:
            lines += [
                "# HELP arest_fault_events_total Injected "
                "measurement-plane faults by class.",
                "# TYPE arest_fault_events_total counter",
            ]
            for name, value in sorted(fault_totals.items()):
                lines.append(
                    f'arest_fault_events_total{{class="{_escape(name)}"}} '
                    f"{value}"
                )
    if summary.gauges:
        for gauge_name, metric, help_text in (
            (
                "walkcache_epoch_transitions",
                "arest_epoch_transitions_total",
                "Topology epochs the forwarding engine crossed.",
            ),
            (
                "walkcache_stale_walk_fallbacks",
                "arest_stale_walk_fallbacks_total",
                "Cached probes refused for staleness and re-walked live.",
            ),
        ):
            scoped = {
                scope: per[gauge_name]
                for scope, per in summary.gauges.items()
                if gauge_name in per
            }
            if scoped:
                lines += [
                    f"# HELP {metric} {help_text}",
                    f"# TYPE {metric} counter",
                ]
                for scope in sorted(scoped, key=str):
                    lines.append(
                        f'{metric}{{scope="{_escape(scope)}"}} '
                        f"{int(scoped[scope])}"
                    )
        lines += [
            "# HELP arest_gauge Last-written observational gauges "
            "per scope.",
            "# TYPE arest_gauge gauge",
        ]
        for scope in sorted(summary.gauges, key=str):
            for name, value in sorted(summary.gauges[scope].items()):
                lines.append(
                    f'arest_gauge{{scope="{_escape(scope)}",'
                    f'name="{_escape(name)}"}} {value:g}'
                )
    if summary.histograms:
        lines.append(
            render_latency_histograms(summary.histograms).rstrip("\n")
        )
    return "\n".join(lines) + "\n"
