"""One measurement rule, one checkpoint format, one loop for both drivers.

``CampaignRunner.run_portfolio`` and ``ScaleCampaign.run`` run on the
same lease loop: ``run_portfolio`` keeps each AS's result in memory,
``ScaleCampaign.run`` only summaries.  A one-bucket AS (every portfolio
AS, and the scale plane's default layout) runs as one whole-AS task
through ``run_as``; a split AS as VP shards plus an analysis.  Either
way every VP is probed with its own prober and fault injector, the AS
is fingerprinted on the fault-free engine, and both drivers bank into
the same run directory (``checkpoint.jsonl`` plus ``spills/``), which
either can resume whatever layout wrote it.  These tests hold the two
drivers to each other under a lossy fault plan with retries, where a
second measurement rule would show, and under churn.
"""

import json
import multiprocessing
import os
import signal

import pytest

import repro.campaign.scale as scale
from repro.campaign import CampaignRunner, ScaleCampaign, ShardCheckpoint
from repro.campaign.shards import as_spills
from repro.netsim.dynamics import ChurnPlan
from repro.netsim.faults import FaultPlan
from repro.util.retry import RetryPolicy

AS_IDS = [46, 27, 31]
LOSSY = dict(
    seed=4,
    vps_per_as=3,
    targets_per_as=8,
    fault_plan=FaultPlan(probe_loss=0.05, snmp_timeout_rate=0.1, seed=4),
    retry=RetryPolicy(max_attempts=3),
)


def _report_json(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


def _files(run_dir) -> dict[str, bytes]:
    """Every file of a run directory, by relative path."""
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def _store(run_dir, runner) -> ShardCheckpoint:
    store = ShardCheckpoint(
        run_dir / "checkpoint.jsonl", runner._config_signature()
    )
    store.load()
    return store


def _analyzed(run_dir, runner) -> set[int]:
    return set(_store(run_dir, runner).analyses)


def _assert_spills_hold_banked_traces(run_dir) -> None:
    """Each AS's spills hold exactly its banked traces: no stale spill
    of an earlier layout sits next to the ones its facts describe."""
    facts = _store(run_dir, CampaignRunner(**LOSSY)).vp_facts
    for as_id in AS_IDS:
        lines = sum(
            len(path.read_text().splitlines()) - 1  # less the header
            for path in as_spills(run_dir / "spills", as_id)
        )
        banked = sum(vp.traces for (a, _), vp in facts.items() if a == as_id)
        assert lines == banked, as_id


class TestOneMeasurementRule:
    def test_report_entries_equal_scale_summaries(self, tmp_path):
        portfolio = CampaignRunner(**LOSSY).run_portfolio(as_ids=AS_IDS)
        sharded = ScaleCampaign(**LOSSY).run(
            tmp_path / "scale", as_ids=AS_IDS, vps_per_shard=1
        )
        assert portfolio.fault_counters.probes_lost > 0
        assert portfolio.fault_counters.snmp_timeouts > 0
        assert portfolio.retry_accounting.retries > 0
        assert portfolio.as_dict()["completed"] == {
            str(as_id): {
                key: value
                for key, value in summary.items()
                if key != "anomaly_counts"
            }
            for as_id, summary in sharded.completed.items()
        }


class TestOneCheckpointFormat:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method required for the supervised pool",
    )
    def test_run_directories_are_byte_identical(self, tmp_path):
        CampaignRunner(**LOSSY).run_portfolio(
            as_ids=AS_IDS, checkpoint=tmp_path / "portfolio", jobs=2
        )
        ScaleCampaign(**LOSSY).run(tmp_path / "scale", as_ids=AS_IDS)
        portfolio = _files(tmp_path / "portfolio")
        assert sorted(portfolio) == [
            "checkpoint.jsonl",
            "spills/as000027-b000.jsonl",
            "spills/as000031-b000.jsonl",
            "spills/as000046-b000.jsonl",
        ]
        assert portfolio == _files(tmp_path / "scale")


class SigintOnSecondAs(CampaignRunner):
    """Delivers a real SIGINT while the second AS is in flight."""

    def run_as(self, as_id):
        if as_id == AS_IDS[1]:
            os.kill(os.getpid(), signal.SIGINT)
        return super().run_as(as_id)


class CountsRunAs(CampaignRunner):
    """Records every AS it runs through ``run_as`` (in-process only)."""

    calls: list[int] = []

    def run_as(self, as_id):
        CountsRunAs.calls.append(as_id)
        return super().run_as(as_id)


def _stop_before_last_analysis(run_dir, monkeypatch) -> None:
    """Probe every AS one VP per shard, Ctrl-C before the last AS's
    analysis, then resume the first AS alone: the compaction folds the
    last AS's probe records into per-VP facts, without spill names."""
    real = scale._analyze_as_worker

    def analyze(payload, ctl):
        if payload[3] == AS_IDS[2]:
            raise KeyboardInterrupt  # Ctrl-C before the last AS
        return real(payload, ctl)

    monkeypatch.setattr(scale, "_analyze_as_worker", analyze)
    partial = ScaleCampaign(**LOSSY).run(
        run_dir, as_ids=AS_IDS, vps_per_shard=1
    )
    assert partial.interrupted
    monkeypatch.undo()
    ScaleCampaign(**LOSSY).run(run_dir, as_ids=AS_IDS[:1], resume=True)


class TestResumeListingFewerAses:
    """A resume that lists fewer ASes keeps the others banked."""

    def test_portfolio_keeps_unlisted_ases(self, tmp_path):
        reference_dir = tmp_path / "reference"
        reference = CampaignRunner(**LOSSY).run_portfolio(
            as_ids=AS_IDS, checkpoint=reference_dir
        )
        # the first two ASes bank; the interrupt leaves them live
        run_dir = tmp_path / "run"
        partial = SigintOnSecondAs(**LOSSY).run_portfolio(
            as_ids=AS_IDS, checkpoint=run_dir
        )
        assert partial.interrupted and sorted(partial) == sorted(AS_IDS[:2])

        # a resume of the first AS alone compacts the checkpoint...
        fewer = CampaignRunner(**LOSSY).run_portfolio(
            as_ids=AS_IDS[:1], checkpoint=run_dir, resume=True
        )
        assert fewer.resumed_as_ids == AS_IDS[:1]
        assert _analyzed(run_dir, CampaignRunner(**LOSSY)) == set(
            AS_IDS[:2]
        )

        # ...and the full resume still restores the second one
        resumed = CampaignRunner(**LOSSY).run_portfolio(
            as_ids=AS_IDS, checkpoint=run_dir, resume=True
        )
        assert resumed.resumed_as_ids == AS_IDS[:2]
        assert _report_json(resumed) == _report_json(reference)
        assert _files(run_dir) == _files(reference_dir)

    def test_scale_campaign_keeps_unlisted_analyses(
        self, tmp_path, monkeypatch
    ):
        reference_dir = tmp_path / "reference"
        reference = ScaleCampaign(**LOSSY).run(
            reference_dir, as_ids=AS_IDS, vps_per_shard=1
        )
        run_dir = tmp_path / "run"
        _stop_before_last_analysis(run_dir, monkeypatch)
        assert _analyzed(run_dir, CampaignRunner(**LOSSY)) == set(
            AS_IDS[:2]
        )
        resumed = ScaleCampaign(**LOSSY).run(
            run_dir, as_ids=AS_IDS, resume=True
        )
        assert _report_json(resumed) == _report_json(reference)
        assert _files(run_dir) == _files(reference_dir)


class TestResumeFindsSpillsByName:
    """A compacted checkpoint names no spills and no layout: a resume
    matches each AS's facts to its spills by name, whatever layout
    wrote them, and probes nothing it already holds."""

    def test_portfolio_resumes_a_sharded_run(self, tmp_path):
        run_dir = tmp_path / "run"
        ScaleCampaign(**LOSSY).run(run_dir, as_ids=AS_IDS, vps_per_shard=1)
        reference = CampaignRunner(**LOSSY).run_portfolio(as_ids=AS_IDS)
        CountsRunAs.calls = []
        resumed = CountsRunAs(**LOSSY).run_portfolio(
            as_ids=AS_IDS, checkpoint=run_dir, resume=True
        )
        assert CountsRunAs.calls == []
        assert resumed.resumed_as_ids == AS_IDS
        assert _report_json(resumed) == _report_json(reference)
        _assert_spills_hold_banked_traces(run_dir)

    def test_scale_resume_analyzes_compacted_probes(
        self, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        _stop_before_last_analysis(run_dir, monkeypatch)
        campaign = ScaleCampaign(**LOSSY)
        campaign.run(run_dir, as_ids=AS_IDS, resume=True)
        assert campaign.stats["shards_probed"] == 0
        assert _analyzed(run_dir, campaign) == set(AS_IDS)
        _assert_spills_hold_banked_traces(run_dir)


#: PR 14's churn recipe: churn plus probe loss and retries
CHURN = dict(
    seed=5,
    vps_per_as=3,
    targets_per_as=12,
    churn_plan=ChurnPlan.intensity(0.3, seed=5),
    fault_plan=FaultPlan(probe_loss=0.05, seed=5),
    retry=RetryPolicy(max_attempts=3),
)
CHURN_AS_IDS = [46, 27, 31, 59, 7, 15, 28, 2]


class SigintOnSecondChurnedAs(ScaleCampaign):
    """Delivers a real SIGINT while the second churned AS is in flight."""

    def run_as(self, as_id, telemetry_dir=None):
        if as_id == CHURN_AS_IDS[1]:
            os.kill(os.getpid(), signal.SIGINT)
        return super().run_as(as_id, telemetry_dir)


class TestChurnOnBothDrivers:
    """A churned AS runs whole on either driver, to the same bytes."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method required for the supervised pool",
    )
    def test_run_directories_are_byte_identical(self, tmp_path):
        CampaignRunner(**CHURN).run_portfolio(
            as_ids=CHURN_AS_IDS, checkpoint=tmp_path / "portfolio", jobs=2
        )
        portfolio = _files(tmp_path / "portfolio")
        assert len(portfolio) == 1 + len(CHURN_AS_IDS)
        for jobs in (1, 2):
            out = tmp_path / f"scale-{jobs}"
            ScaleCampaign(**CHURN).run(out, as_ids=CHURN_AS_IDS, jobs=jobs)
            assert _files(out) == portfolio, jobs

    def test_interrupted_campaign_resumes_to_the_same_bytes(self, tmp_path):
        reference_dir = tmp_path / "reference"
        reference = ScaleCampaign(**CHURN).run(
            reference_dir, as_ids=CHURN_AS_IDS
        )
        run_dir = tmp_path / "run"
        partial = SigintOnSecondChurnedAs(**CHURN).run(
            run_dir, as_ids=CHURN_AS_IDS
        )
        assert partial.interrupted
        assert set(partial.completed) == set(CHURN_AS_IDS[:2])
        resumed = ScaleCampaign(**CHURN).run(
            run_dir, as_ids=CHURN_AS_IDS, resume=True
        )
        assert _report_json(resumed) == _report_json(reference)
        assert _files(run_dir) == _files(reference_dir)
