"""Per-layer metrics: where the traced run wraps the program, and what
it reports.

Layer names follow the program's modules.  Every traced run reports
every metric of :func:`per_layer_spec`; a layer a workload never enters
reads zero.  Times are *self* times (a layer's span minus its
same-thread child spans), so the layers' ``.us_per_trace`` values add
up, with ``trace.unexplained_share``, to the traced cost of one trace.
"""

from __future__ import annotations

import os
from pathlib import Path

from benchmarks.e2e.measure import percentile
from benchmarks.e2e.spans import (
    ROOT_SPAN,
    SpanRecorder,
    Target,
    calibrate_overhead,
)

#: layer spans, in report order (README.md maps each to the end-to-end
#: metric it should move)
LAYERS = (
    "topogen.build",
    "topogen.targets",
    "probing.trace",
    "shards.spill",
    "shards.merge",
    "dataset.decode",
    "columnar.build",
    "fingerprint.lookup",
    "sanitize",
    "detect",
    "pipeline",
    "alias",
    "checkpoint.bank",
    "campaign",
    "cli.detect",
    "state.analyze",
    "state.fold",
    "server.route",
    "wire.decode",
    "ingest.admit",
    "state.accept",
    "state.ingest",
    "state.compact",
)

#: (name, unit, better) of every per-layer metric besides the layer times
COUNTS = (
    ("topogen.builds_per_as", "1/AS", "lower"),
    ("probing.trace_us.p50", "us", "lower"),
    ("probing.trace_us.p99", "us", "lower"),
    ("netsim.synthesized_share", "share", "higher"),
    ("netsim.walks_fallback_per_trace", "1/trace", "lower"),
    ("faults.events_per_trace", "1/trace", "lower"),
    ("retry.retries_per_trace", "1/trace", "lower"),
    ("retry.exhausted_per_trace", "1/trace", "lower"),
    ("dataset.bytes_per_trace", "B/trace", "lower"),
    ("fingerprint.lookups_per_trace", "1/trace", "lower"),
    ("fingerprint.identified_share", "share", "higher"),
    ("sanitize.repaired_share", "share", "lower"),
    ("sanitize.quarantined_share", "share", "lower"),
    ("detect.rows_per_call", "rows/call", "higher"),
    ("checkpoint.records_per_as", "1/AS", "lower"),
    ("checkpoint.bytes_per_trace", "B/trace", "lower"),
    ("dispatch.parallel_efficiency", "share", "higher"),
    ("dispatch.workers_per_ktrace", "1/ktrace", "lower"),
    ("dispatch.leases_per_ktrace", "1/ktrace", "lower"),
    ("ingest.peak_depth", "traces", "lower"),
    ("ingest.rejected_share", "share", "lower"),
    ("state.compactions_per_ktrace", "1/ktrace", "lower"),
    ("state.compact_kib_per_call", "KiB", "lower"),
    ("workers.poisoned", "traces", "lower"),
    ("gen.lateness_max_ms", "ms", "lower"),
    ("trace.unexplained_share", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


def new_recorder() -> SpanRecorder:
    """A recorder that keeps every probe duration (for percentiles)."""
    return SpanRecorder(sample_names=("probing.trace",))


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for layer in LAYERS:
        spec.append((f"{layer}.share", "share", "lower"))
        spec.append((f"{layer}.us_per_trace", "us/trace", "lower"))
    return spec + list(COUNTS)


# -- wrap points --------------------------------------------------------------


class _EngineStats:
    """Walk-cache tallies of the forwarding engine probing right now.

    Each measurement network the campaign builds becomes the current
    engine; the previous one's growth since it became current is folded
    in first, so only the engine in use is ever held.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder
        self._engine = None
        self._base: dict = {}

    def switch(self, net) -> None:
        self.flush()
        self._engine = net.engine
        self._base = net.engine.stats.as_dict()

    def flush(self) -> None:
        if self._engine is None:
            return
        stats = self._engine.stats.as_dict()
        for name, value in stats.items():
            self._recorder.count(
                f"netsim.{name}", value - self._base.get(name, 0)
            )
        self._base = stats


def campaign_targets(recorder: SpanRecorder) -> list[Target]:
    """Wrap points of the campaign and offline-detection layers."""
    count = recorder.count
    engines = _EngineStats(recorder)
    recorder.finishers.append(engines.flush)

    def built(net, _args, _kwargs):
        count("topogen.builds")
        engines.switch(net)

    def spilled(record, args, _kwargs):
        count("shards.spill_bytes", os.path.getsize(args[3]))
        count("shards.spilled_traces", sum(vp.traces for vp in record.vps))
        for vp in record.vps:
            count("faults.events", vp.fault_counters.total_faults())
            count("retry.retries", vp.retry_accounting.retries)
            count("retry.exhausted", vp.retry_accounting.exhausted)

    def fingerprinted(fp, _args, _kwargs):
        count("fingerprint.identified", int(fp.identified))

    def sanitized(result, args, _kwargs):
        if result.trace is None:
            count("sanitize.quarantined")
        elif result.trace is not args[1]:
            count("sanitize.repaired")

    def detected_batch(_rows, args, _kwargs):
        count("detect.rows", len(args[1]))

    def detected_one(_segments, _args, _kwargs):
        count("detect.rows")

    def banked(_result, _args, _kwargs):
        count("checkpoint.records")

    def compacted(_result, args, _kwargs):
        count("checkpoint.bytes", Path(args[0].path).stat().st_size)

    campaign = "repro.campaign."
    checkpoint = campaign + "checkpoint:ShardCheckpoint."
    columnar = "repro.core.columnar:"
    return [
        Target(campaign + "runner:build_measurement_network",
               "topogen.build", built),
        Target(campaign + "shards:build_measurement_network",
               "topogen.build", built),
        Target(campaign + "scale:build_measurement_network",
               "topogen.build", built),
        Target(campaign + "runner:build_target_list", "topogen.targets"),
        Target(campaign + "shards:build_target_list", "topogen.targets"),
        Target("repro.probing.tnt:TntProber.trace", "probing.trace"),
        Target(campaign + "scale:probe_shard", "shards.spill", spilled),
        Target(campaign + "scale:merged_dataset", "shards.merge"),
        Target(campaign + "dataset:TraceDataset.iter_jsonl",
               "dataset.decode"),
        Target(columnar + "TraceBatch.iter_jsonl", "columnar.build"),
        Target("repro.fingerprint.combined:CombinedFingerprinter.fingerprint",
               "fingerprint.lookup", fingerprinted),
        Target("repro.probing.sanitize:TraceSanitizer.sanitize",
               "sanitize", sanitized),
        Target(columnar + "ColumnarDetector.detect", "detect", detected_one),
        Target(columnar + "ColumnarDetector.detect_batch",
               "detect", detected_batch),
        Target("repro.core.pipeline:ArestPipeline.analyze_as", "pipeline"),
        Target("repro.topogen.alias:AliasResolver.resolve", "alias"),
        Target(checkpoint + "record_probe", "checkpoint.bank", banked),
        Target(checkpoint + "record_analysis", "checkpoint.bank", banked),
        Target(checkpoint + "compact_canonical", "checkpoint.bank",
               compacted),
        Target(campaign + "runner:CampaignRunner.run_portfolio", "campaign"),
        Target(campaign + "runner:CampaignRunner.run_as", "campaign"),
        Target(campaign + "scale:ScaleCampaign.run", "campaign"),
        Target("repro.service.state:analyze_trace", "state.analyze"),
        Target("repro.service.state:SegmentAggregate.merge", "state.fold"),
    ]


def service_targets(recorder: SpanRecorder) -> list[Target]:
    """Wrap points of the streaming service (plus the analysis it runs)."""
    from repro.service.state import INGEST_FILENAME

    count = recorder.count

    def compacting(args, _kwargs):
        # compaction re-reads the whole journal: its size is the work
        journal = args[0].directory / INGEST_FILENAME
        count("state.compact_bytes", journal.stat().st_size)

    state = "repro.service.state:"
    return [
        Target("repro.service.server:ArestService._route", "server.route"),
        Target("repro.service.server:decode_body", "wire.decode"),
        Target("repro.service.ingest:IngestQueue.admit", "ingest.admit"),
        Target(state + "ServiceState.accept", "state.accept"),
        Target(state + "ServiceState.ingest", "state.ingest"),
        Target(state + "ServiceState.compact", "state.compact",
               before=compacting),
        Target("repro.service.workers:analyze_trace", "state.analyze"),
        Target(state + "SegmentAggregate.merge", "state.fold"),
        Target("repro.probing.sanitize:TraceSanitizer.sanitize", "sanitize"),
        Target("repro.core.columnar:ColumnarDetector.detect", "detect"),
    ]


# -- the report ---------------------------------------------------------------


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    untraced: dict | None,
    traced: dict,
    jobs: int,
) -> dict:
    """Every :func:`per_layer_spec` metric from one traced run.

    The traced wall clock is the total of the
    :data:`~benchmarks.e2e.spans.ROOT_SPAN` spans.  ``traced`` holds the
    traced phase's ``traces`` and ``ases`` (plus ``bytes_read`` for
    archive decoding and ``service`` tallies); ``untraced`` the untraced
    dispatch phase of a campaign workload (``seconds``, ``traces``,
    ``forks``, ``leases``), or None.
    """
    recorder.finish()
    totals = recorder.totals()
    counters = recorder.counters
    root = totals[ROOT_SPAN]
    wall = root.inclusive
    traces = traced["traces"]
    ases = traced["ases"]
    service = traced.get("service", {})
    layers = {n: t for n, t in totals.items() if n != ROOT_SPAN}
    busy = sum(t.self_s for t in layers.values())
    overhead = calibrate_overhead() * sum(t.calls for t in layers.values())

    def calls(name: str) -> int:
        return layers[name].calls if name in layers else 0

    values: dict[str, float] = {}
    for layer in LAYERS:
        self_s = layers[layer].self_s if layer in layers else 0.0
        values[f"{layer}.share"] = _per(self_s, busy)
        values[f"{layer}.us_per_trace"] = _per(self_s * 1e6, traces)

    probe_us = [s * 1e6 for s in recorder.samples("probing.trace")]
    synthesized = counters["netsim.probes_synthesized"]
    walked = counters["netsim.probes_walked"]
    spilled = counters["shards.spilled_traces"]
    if spilled:
        archived_bytes, archived = counters["shards.spill_bytes"], spilled
    else:
        archived_bytes, archived = traced.get("bytes_read", 0), traces
    lookups = calls("fingerprint.lookup")
    sanitized = calls("sanitize")
    compactions = calls("state.compact")
    values.update(
        {
            "topogen.builds_per_as": _per(counters["topogen.builds"], ases),
            "probing.trace_us.p50": (
                percentile(probe_us, 50) if probe_us else 0.0
            ),
            "probing.trace_us.p99": (
                percentile(probe_us, 99) if probe_us else 0.0
            ),
            "netsim.synthesized_share": _per(
                synthesized, synthesized + walked
            ),
            "netsim.walks_fallback_per_trace": _per(
                counters["netsim.walks_fallback"], traces
            ),
            "faults.events_per_trace": _per(
                counters["faults.events"], spilled
            ),
            "retry.retries_per_trace": _per(
                counters["retry.retries"], spilled
            ),
            "retry.exhausted_per_trace": _per(
                counters["retry.exhausted"], spilled
            ),
            "dataset.bytes_per_trace": _per(archived_bytes, archived),
            "fingerprint.lookups_per_trace": _per(lookups, traces),
            "fingerprint.identified_share": _per(
                counters["fingerprint.identified"], lookups
            ),
            "sanitize.repaired_share": _per(
                counters["sanitize.repaired"], sanitized
            ),
            "sanitize.quarantined_share": _per(
                counters["sanitize.quarantined"], sanitized
            ),
            "detect.rows_per_call": _per(
                counters["detect.rows"], calls("detect")
            ),
            "checkpoint.records_per_as": _per(
                counters["checkpoint.records"], ases
            ),
            "checkpoint.bytes_per_trace": _per(
                counters["checkpoint.bytes"], traces
            ),
            "ingest.peak_depth": float(service.get("peak_depth", 0)),
            "ingest.rejected_share": float(service.get("rejected_share", 0)),
            "state.compactions_per_ktrace": _per(compactions * 1e3, traces),
            "state.compact_kib_per_call": _per(
                counters["state.compact_bytes"] / 1024.0, compactions
            ),
            "workers.poisoned": float(service.get("poisoned", 0)),
            "gen.lateness_max_ms": float(service.get("lateness_max_ms", 0)),
            # the service's root span is the client, not unexplained work
            "trace.unexplained_share": (
                0.0 if service else _per(root.self_s, wall)
            ),
            "trace.overhead_share": _per(overhead, wall),
            "dispatch.parallel_efficiency": 0.0,
            "dispatch.workers_per_ktrace": 0.0,
            "dispatch.leases_per_ktrace": 0.0,
        }
    )
    if untraced is not None and untraced["traces"] and traces:
        untraced_rate = untraced["traces"] / untraced["seconds"]
        traced_rate = traces / max(wall - overhead, 1e-9)
        values["dispatch.parallel_efficiency"] = untraced_rate / (
            jobs * traced_rate
        )
        values["dispatch.workers_per_ktrace"] = _per(
            untraced["forks"] * 1e3, untraced["traces"]
        )
        values["dispatch.leases_per_ktrace"] = _per(
            untraced.get("leases", 0) * 1e3, untraced["traces"]
        )
    return {name: (values[name], unit) for name, unit, _ in per_layer_spec()}
