"""Observability contract over the campaign engine.

Two halves, one invariant each way:

- telemetry must be *invisible* to results -- the report JSON and
  checkpoint bytes are byte-identical with telemetry on or off, for any
  execution plan;
- results must be *faithfully visible* in telemetry -- counter totals
  agree across serial, parallel and resumed runs of the same campaign,
  and a quarantined worker's post-mortem (last stage, stage timings)
  survives into the report, the checkpoint, and the markdown.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.analysis.markdown_report import render_markdown_report
from repro.campaign import AsQuarantine, CampaignRunner, ScaleCampaign
from repro.campaign.runner import result_summary, summary_counters
from repro.netsim.faults import FaultPlan
from repro.obs import (
    critical_path,
    load_manifest,
    load_timeline,
    summarize_telemetry,
    timeline_report_dict,
    trace_event_json,
)
from repro.topogen.synthetic import SyntheticPortfolio
from repro.util.retry import RetryPolicy

AS_IDS = [27, 46]
KNOBS = dict(seed=1, vps_per_as=1, targets_per_as=4)

_fork_required = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required for the supervised pool",
)


def _fingerprint(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


def _checkpoint_bytes(run_dir) -> bytes:
    return (run_dir / "checkpoint.jsonl").read_bytes()


def _run(tmp_path, name, jobs=1, telemetry=False, resume=False):
    checkpoint = tmp_path / f"{name}.ckpt"
    telemetry_dir = tmp_path / f"{name}-telemetry" if telemetry else None
    report = CampaignRunner(**KNOBS).run_portfolio(
        as_ids=AS_IDS,
        checkpoint=checkpoint,
        resume=resume,
        jobs=jobs,
        timeout_per_as=120 if jobs > 1 else None,
        telemetry_dir=telemetry_dir,
    )
    return report, checkpoint, telemetry_dir


class TestTelemetryIsInvisibleToResults:
    def test_serial_report_and_checkpoint_bytes_identical(self, tmp_path):
        plain, plain_ckpt, _ = _run(tmp_path, "plain")
        telem, telem_ckpt, _ = _run(tmp_path, "telem", telemetry=True)
        assert _fingerprint(telem) == _fingerprint(plain)
        assert _checkpoint_bytes(telem_ckpt) == _checkpoint_bytes(plain_ckpt)

    @_fork_required
    def test_parallel_with_telemetry_matches_serial_without(self, tmp_path):
        plain, plain_ckpt, _ = _run(tmp_path, "plain")
        telem, telem_ckpt, _ = _run(
            tmp_path, "telem", jobs=2, telemetry=True
        )
        assert _fingerprint(telem) == _fingerprint(plain)
        assert _checkpoint_bytes(telem_ckpt) == _checkpoint_bytes(plain_ckpt)


class TestCounterTotalsAreExecutionPlanIndependent:
    def test_serial_vs_resumed_totals(self, tmp_path):
        _, ckpt, fresh_dir = _run(tmp_path, "fresh", telemetry=True)
        # resume from the fully-banked checkpoint: every AS rehydrates
        resumed_dir = tmp_path / "resumed-telemetry"
        resumed = CampaignRunner(**KNOBS).run_portfolio(
            as_ids=AS_IDS,
            checkpoint=ckpt,
            resume=True,
            telemetry_dir=resumed_dir,
        )
        assert sorted(resumed.resumed_as_ids) == sorted(AS_IDS)
        fresh_totals = summarize_telemetry(fresh_dir).totals
        resumed_totals = summarize_telemetry(resumed_dir).totals
        # each AS re-derived in a task counts once, not banked + task
        assert fresh_totals == resumed_totals
        assert fresh_totals["traces_collected"] > 0

    def test_resumed_scale_session_counts_banked_ases(self, tmp_path):
        """An idempotent scale resume runs nothing; its session still
        counts every banked AS, so its totals equal the full run's."""
        campaign = ScaleCampaign(**KNOBS)
        out = tmp_path / "run"
        campaign.run(out, as_ids=AS_IDS, telemetry_dir=tmp_path / "t1")
        campaign.run(
            out, as_ids=AS_IDS, resume=True, telemetry_dir=tmp_path / "t2"
        )
        full = summarize_telemetry(tmp_path / "t1").totals
        assert full["traces_collected"] > 0
        assert summarize_telemetry(tmp_path / "t2").totals == full

    @_fork_required
    def test_serial_vs_parallel_totals(self, tmp_path):
        _, _, serial_dir = _run(tmp_path, "serial", telemetry=True)
        _, _, parallel_dir = _run(
            tmp_path, "parallel", jobs=2, telemetry=True
        )
        assert (
            summarize_telemetry(serial_dir).totals
            == summarize_telemetry(parallel_dir).totals
        )


def _result_counters_oracle(result) -> dict[str, int]:
    """The counters as they were derived from the result object before
    they were derived from its banked summary."""
    analysis = result.analysis
    counters = {
        "traces_collected": analysis.traces_total,
        "traces_analyzed": analysis.traces_analyzed,
        "traces_quarantined": analysis.traces_quarantined,
        "probes_attempted": result.retry_accounting.probes,
        "probe_retries": result.retry_accounting.retries,
        "probes_exhausted": result.retry_accounting.exhausted,
        "faults_injected": result.fault_counters.total_faults(),
        "fingerprints": len(result.fingerprints),
    }
    for name, count in result.fault_counters.as_dict().items():
        if count:
            counters[f"fault_{name}"] = count
    flag_counts = analysis.flag_counts()
    counters["flags_total"] = sum(flag_counts.values())
    for flag, count in flag_counts.items():
        counters[f"flags_{flag.name.lower()}"] = count
    anomaly_counts = analysis.anomaly_counts()
    counters["anomalies_total"] = sum(anomaly_counts.values())
    for kind, count in anomaly_counts.items():
        counters[f"anomaly_{kind}"] = count
    return counters


def test_summary_counters_match_the_result_oracle():
    """On a lossy, corrupted campaign the banked summary carries every
    counter the result object gave."""
    report = CampaignRunner(
        seed=1,
        vps_per_as=2,
        targets_per_as=8,
        fault_plan=FaultPlan(
            probe_loss=0.05,
            snmp_timeout_rate=0.1,
            duplicate_hop_rate=0.05,
            label_garble_rate=0.05,
            seed=1,
        ),
        retry=RetryPolicy(max_attempts=3),
    ).run_portfolio(as_ids=AS_IDS)
    for as_id in AS_IDS:
        result = report[as_id]
        expected = _result_counters_oracle(result)
        assert summary_counters(result_summary(result)) == expected
    totals = [_result_counters_oracle(report[a]) for a in AS_IDS]
    # the campaign exercised every optional key family
    assert any(t["faults_injected"] and t["anomalies_total"] for t in totals)
    assert any(t["probe_retries"] for t in totals)


class TestTelemetryArtifacts:
    def test_manifest_and_stream_cover_the_run(self, tmp_path):
        _, _, telemetry_dir = _run(tmp_path, "run", telemetry=True)
        manifest = load_manifest(telemetry_dir)
        assert manifest["exit_status"] == "ok"
        assert manifest["command"] == "run_portfolio"
        assert manifest["as_ids"] == AS_IDS
        assert manifest["config"]["seed"] == KNOBS["seed"]
        summary = summarize_telemetry(telemetry_dir)
        assert summary.as_scopes() == sorted(AS_IDS)
        # every pipeline stage shows up, hot-loop stages included
        for stage in ("topology", "probe", "fingerprint", "analyze",
                      "sanitize", "detect"):
            assert stage in summary.stages()
        # each AS flushed a complete batch; so did the portfolio scope
        assert summary.flushed_scopes >= {*AS_IDS, "portfolio"}
        assert (telemetry_dir / "metrics.prom").exists()

    def test_counters_match_the_result_objects(self, tmp_path):
        report, _, telemetry_dir = _run(tmp_path, "run", telemetry=True)
        summary = summarize_telemetry(telemetry_dir)
        for as_id in AS_IDS:
            expected = summary_counters(result_summary(report[as_id]))
            recorded = summary.counters[as_id]
            assert {k: v for k, v in recorded.items() if k in expected} == (
                expected
            )

    def test_run_as_session_and_error_manifest(self, tmp_path):
        runner = CampaignRunner(**KNOBS)
        ok_dir = tmp_path / "ok"
        runner.run_as(46, telemetry_dir=ok_dir)
        manifest = load_manifest(ok_dir)
        assert manifest["command"] == "run_as"
        assert manifest["exit_status"] == "ok"

        err_dir = tmp_path / "err"
        with pytest.raises(Exception):
            runner.run_as(987654, telemetry_dir=err_dir)
        assert load_manifest(err_dir)["exit_status"] == "error"
        assert summarize_telemetry(err_dir).totals.get("as_failed") == 1


class KillsWorkerAlways(CampaignRunner):
    """SIGKILLs the worker at AS#27's probe stage, on every dispatch.

    Dying *after* the probe heartbeat makes the supervisor's post-mortem
    deterministic: the buffered heartbeats are drained before the corpse
    is judged, so the outcome always attributes the probe stage.
    """

    def run_as(self, as_id, telemetry_dir=None):
        self._victim_active = as_id == 27
        return super().run_as(as_id, telemetry_dir)

    def _set_stage(self, stage):
        super()._set_stage(stage)
        if stage == "probe" and getattr(self, "_victim_active", False):
            os.kill(os.getpid(), signal.SIGKILL)


@_fork_required
class TestQuarantinePostMortem:
    def test_stage_attribution_flows_to_every_surface(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        ckpt = tmp_path / "campaign.ckpt"
        report = KillsWorkerAlways(**KNOBS).run_portfolio(
            as_ids=AS_IDS,
            checkpoint=ckpt,
            jobs=2,
            timeout_per_as=60,
            telemetry_dir=telemetry_dir,
        )
        quarantine = report.quarantined[27, 0]
        assert quarantine.last_stage == "probe"
        assert "probe" in quarantine.stage_seconds
        assert all(s >= 0 for s in quarantine.stage_seconds.values())

        # report JSON carries the post-mortem
        entry = report.as_dict()["quarantined"]["27:0"]
        assert entry["last_stage"] == quarantine.last_stage

        # markdown names the stage
        text = render_markdown_report(report)
        assert "## Execution incidents" in text
        assert f"last stage: {quarantine.last_stage}" in text

        # telemetry counted the containment events
        totals = summarize_telemetry(telemetry_dir).totals
        assert totals.get("as_quarantined") == 1
        assert totals.get("worker_redispatches") == 1

        # and the banked stub restores it on resume
        resumed = KillsWorkerAlways(**KNOBS).run_portfolio(
            as_ids=AS_IDS, checkpoint=ckpt, resume=True
        )
        restored = resumed.quarantined[27, 0]
        assert restored.last_stage == quarantine.last_stage
        # the checkpoint stores stage timings rounded to milliseconds
        assert restored.stage_seconds == pytest.approx(
            quarantine.stage_seconds, abs=5e-4
        )


def _assert_unified_trace(telemetry_dir, expect_scopes=()):
    """The tentpole invariant: one trace, nested, anchored, coherent."""
    timeline = load_timeline(telemetry_dir)
    manifest = load_manifest(telemetry_dir)
    assert manifest["trace_id"]
    assert timeline.trace_ids == {manifest["trace_id"]}
    root = timeline.root()
    assert root is not None and root.stage == "portfolio"
    by_id = {span.span_id: span for span in timeline.spans}
    for parent_id, kids in timeline.children.items():
        parent = by_id[parent_id]
        for child in kids:
            assert parent.start <= child.start <= child.end <= parent.end
    scopes = {span.scope for span in timeline.spans}
    for scope in expect_scopes:
        assert scope in scopes
    segments = critical_path(timeline)
    covered = sum(s.exclusive_seconds for s in segments)
    assert covered == pytest.approx(root.seconds)
    return timeline


class TestTracePropagation:
    def test_serial_run_produces_one_unified_trace(self, tmp_path):
        _, _, telemetry_dir = _run(tmp_path, "run", telemetry=True)
        timeline = _assert_unified_trace(
            telemetry_dir, expect_scopes=[*AS_IDS, "portfolio"]
        )
        # the AS worker spans hang directly off the campaign root
        root = timeline.root()
        as_spans = [
            s for s in timeline.children[root.span_id] if s.stage == "as"
        ]
        assert {s.scope for s in as_spans} == set(AS_IDS)

    @_fork_required
    def test_worker_process_spans_join_the_campaign_trace(self, tmp_path):
        _, _, telemetry_dir = _run(
            tmp_path, "run", jobs=2, telemetry=True
        )
        _assert_unified_trace(
            telemetry_dir, expect_scopes=[*AS_IDS, "portfolio"]
        )

    def test_resumed_run_records_its_own_unified_trace(self, tmp_path):
        _, ckpt, fresh_dir = _run(tmp_path, "fresh", telemetry=True)
        resumed_dir = tmp_path / "resumed-telemetry"
        CampaignRunner(**KNOBS).run_portfolio(
            as_ids=AS_IDS,
            checkpoint=ckpt,
            resume=True,
            telemetry_dir=resumed_dir,
        )
        fresh = _assert_unified_trace(fresh_dir)
        resumed = _assert_unified_trace(
            resumed_dir, expect_scopes=[*AS_IDS, "portfolio"]
        )
        # two runs are two traces
        assert fresh.trace_ids != resumed.trace_ids

    @_fork_required
    def test_killed_worker_leaves_a_coherent_trace(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        KillsWorkerAlways(**KNOBS).run_portfolio(
            as_ids=AS_IDS,
            checkpoint=tmp_path / "c.ckpt",
            jobs=2,
            timeout_per_as=60,
            telemetry_dir=telemetry_dir,
        )
        # the survivor's spans and the post-mortem all carry the one
        # campaign trace id; reconstruction stays structurally sound
        timeline = _assert_unified_trace(
            telemetry_dir, expect_scopes=[46, "portfolio"]
        )
        report = timeline_report_dict(timeline)
        assert report["trace_ids"] == sorted(timeline.trace_ids)
        json.dumps(trace_event_json(timeline))  # export stays valid


def _scale(tmp_path, name, jobs=1, shards=None, telemetry=False,
           resume=False, n_ases=2):
    campaign = ScaleCampaign(
        portfolio=SyntheticPortfolio(n_ases, seed=5),
        seed=5,
        vps_per_as=2,
        targets_per_as=4,
    )
    report = campaign.run(
        tmp_path / name,
        jobs=jobs,
        vps_per_shard=shards,
        resume=resume,
        telemetry_dir=(tmp_path / f"{name}-telemetry") if telemetry else None,
    )
    return report, tmp_path / name, tmp_path / f"{name}-telemetry"


class TestScaleCampaignTracing:
    def test_tracing_never_touches_report_or_checkpoint_bytes(
        self, tmp_path
    ):
        plain, plain_dir, _ = _scale(tmp_path, "plain")
        traced, traced_dir, _ = _scale(
            tmp_path, "traced", jobs=2, shards=1, telemetry=True
        )
        assert _fingerprint(traced) == _fingerprint(plain)
        assert (traced_dir / "checkpoint.jsonl").read_bytes() == (
            plain_dir / "checkpoint.jsonl"
        ).read_bytes()

    def test_shard_and_analysis_spans_unify_under_one_trace(
        self, tmp_path
    ):
        _, _, telemetry_dir = _scale(
            tmp_path, "run", jobs=2, shards=1, telemetry=True
        )
        timeline = _assert_unified_trace(telemetry_dir)
        scopes = {str(span.scope) for span in timeline.spans}
        # probe shards and analysis scopes both joined the trace
        assert any(scope.startswith("shard:") for scope in scopes)
        assert {"1", "2"} <= scopes
        report = timeline_report_dict(timeline)
        assert report["critical_path_share"] > 0.5
        summary = summarize_telemetry(telemetry_dir)
        # per-trace latency histograms for the hot stages made it out
        for stage in ("probe", "sanitize", "detect", "bank"):
            assert summary.histograms[stage]["count"] > 0

    def test_resumed_scale_run_stays_byte_identical(self, tmp_path):
        plain, plain_dir, _ = _scale(tmp_path, "plain")
        # interrupt by probing only: run against a subset, then resume
        # the full campaign with tracing on
        campaign = ScaleCampaign(
            portfolio=SyntheticPortfolio(2, seed=5),
            seed=5,
            vps_per_as=2,
            targets_per_as=4,
        )
        out = tmp_path / "resumed"
        campaign.run(out, as_ids=[1], telemetry_dir=tmp_path / "t1")
        report = campaign.run(
            out,
            jobs=2,
            resume=True,
            telemetry_dir=tmp_path / "t2",
        )
        assert _fingerprint(report) == _fingerprint(plain)
        assert (out / "checkpoint.jsonl").read_bytes() == (
            plain_dir / "checkpoint.jsonl"
        ).read_bytes()
        _assert_unified_trace(tmp_path / "t2")


class TestQuarantineRecordCompat:
    def test_roundtrip_with_stage_post_mortem(self):
        quarantine = AsQuarantine(
            as_id=27,
            reason="timeout",
            attempts=2,
            detail="exceeded 60s deadline",
            last_stage="probe",
            stage_seconds={"setup": 0.5, "probe": 59.5},
        )
        restored = AsQuarantine.from_dict(27, quarantine.as_dict())
        assert restored == quarantine

    def test_reads_pre_observability_records(self):
        # quarantines banked without a post-mortem (the sharded plane's
        # shard quarantines) must still restore
        quarantine = AsQuarantine.from_dict(
            27, {"reason": "crash", "attempts": 2, "detail": "killed"}
        )
        assert quarantine.last_stage is None
        assert quarantine.stage_seconds == {}
