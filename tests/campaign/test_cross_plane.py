"""One measurement rule and one checkpoint format on both campaign planes.

``CampaignRunner.run_portfolio`` dispatches whole ASes and keeps their
results in memory; ``ScaleCampaign.run`` dispatches VP shards and keeps
only summaries.  Both probe every VP with its own prober and fault
injector, fingerprint on the fault-free engine, and bank into the same
run directory (``checkpoint.jsonl`` plus ``spills/``).  These tests hold
the two planes to each other under a lossy fault plan with retries,
where a second measurement rule would show.
"""

import json
import multiprocessing
import os
import signal

import pytest

import repro.campaign.scale as scale
from repro.campaign import CampaignRunner, ScaleCampaign, ShardCheckpoint
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


def _analyzed(run_dir, runner) -> set[int]:
    store = ShardCheckpoint(
        run_dir / "checkpoint.jsonl", runner._config_signature()
    )
    store.load()
    return set(store.analyses)


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
        reference = ScaleCampaign(**LOSSY).run(reference_dir, as_ids=AS_IDS)
        real = scale._analyze_as_worker

        def analyze(payload, ctl):
            if payload[3] == AS_IDS[2]:
                raise KeyboardInterrupt  # Ctrl-C before the last AS
            return real(payload, ctl)

        run_dir = tmp_path / "run"
        monkeypatch.setattr(scale, "_analyze_as_worker", analyze)
        partial = ScaleCampaign(**LOSSY).run(run_dir, as_ids=AS_IDS)
        assert partial.interrupted
        monkeypatch.undo()

        ScaleCampaign(**LOSSY).run(run_dir, as_ids=AS_IDS[:1], resume=True)
        assert _analyzed(run_dir, CampaignRunner(**LOSSY)) == set(
            AS_IDS[:2]
        )
        resumed = ScaleCampaign(**LOSSY).run(
            run_dir, as_ids=AS_IDS, resume=True
        )
        assert _report_json(resumed) == _report_json(reference)
        assert _files(run_dir) == _files(reference_dir)
