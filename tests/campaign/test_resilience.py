"""Resilient portfolio execution: error isolation, checkpoint/resume."""

import errno
import json

import pytest

import repro.campaign.runner as runner_module
from repro.campaign.checkpoint import CheckpointMismatchError, ShardCheckpoint
from repro.campaign.dataset import TraceDataset
from repro.campaign.runner import CampaignReport, CampaignRunner
from repro.netsim.faults import FaultPlan
from repro.topogen.synthetic import SyntheticPortfolio
from repro.util.atomicio import DiskFullError
from repro.util.retry import RetryPolicy

from tests.conftest import SPILL_DAMAGE, damage_spill


def _runner(**overrides) -> CampaignRunner:
    config = dict(seed=1, vps_per_as=2, targets_per_as=8)
    config.update(overrides)
    return CampaignRunner(**config)


def _report_json(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


class TestErrorIsolation:
    def test_one_failing_as_does_not_sink_the_portfolio(self):
        report = _runner().run_portfolio(as_ids=[46, 9999, 27])
        assert sorted(report) == [27, 46]
        assert set(report.failures) == {9999}
        failure = report.failures[9999]
        assert failure.stage == "setup"
        assert "no AS#9999 in portfolio" in failure.error
        assert "KeyError" in failure.error

    def test_failure_logged(self, caplog):
        with caplog.at_level("WARNING", logger="repro.campaign.runner"):
            _runner().run_portfolio(as_ids=[9999])
        assert any("AS#9999 failed" in r.message for r in caplog.records)

    def test_report_is_a_mapping_over_successes(self):
        report = _runner().run_portfolio(as_ids=[46, 9999])
        assert isinstance(report, CampaignReport)
        assert len(report) == 1
        assert 46 in report
        assert report[46].as_id == 46
        assert report.results == {46: report[46]}
        with pytest.raises(KeyError):
            report[9999]

    def test_summary_mentions_failures(self):
        report = _runner().run_portfolio(as_ids=[46, 9999])
        summary = report.summary()
        assert "1 AS(es) completed" in summary
        assert "1 failed" in summary


class TestCheckpointResume:
    FAULTS = FaultPlan(probe_loss=0.05, seed=3)

    def test_resume_equals_uninterrupted(self, tmp_path):
        path = tmp_path / "run"
        uninterrupted = _runner(fault_plan=self.FAULTS).run_portfolio(
            as_ids=[46, 27]
        )

        # "Crash" after the first AS: only 46 lands in the checkpoint.
        first = _runner(fault_plan=self.FAULTS).run_portfolio(
            as_ids=[46], checkpoint=path
        )
        assert sorted(first) == [46]

        resumed = _runner(fault_plan=self.FAULTS).run_portfolio(
            as_ids=[46, 27], checkpoint=path, resume=True
        )
        assert resumed.resumed_as_ids == [46]
        assert sorted(resumed) == sorted(uninterrupted)
        for as_id in uninterrupted:
            a, b = uninterrupted[as_id], resumed[as_id]
            assert a.dataset.traces == b.dataset.traces
            assert a.fingerprints == b.fingerprints
            assert a.analysis.flag_counts() == b.analysis.flag_counts()
            assert a.truth.sr_addresses == b.truth.sr_addresses
            assert a.fault_counters == b.fault_counters
            assert a.retry_accounting == b.retry_accounting
        assert (
            resumed.fault_counters.as_dict()
            == uninterrupted.fault_counters.as_dict()
        )

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError, match="checkpoint"):
            _runner().run_portfolio(as_ids=[46], resume=True)

    def test_missing_checkpoint_file_starts_fresh(self, tmp_path):
        path = tmp_path / "does-not-exist"
        report = _runner().run_portfolio(
            as_ids=[46], checkpoint=path, resume=True
        )
        assert sorted(report) == [46]
        assert report.resumed_as_ids == []
        # written after the fresh run
        assert (path / "checkpoint.jsonl").exists()

    def test_config_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "run"
        _runner(seed=1).run_portfolio(as_ids=[46], checkpoint=path)
        with pytest.raises(CheckpointMismatchError):
            _runner(seed=2).run_portfolio(
                as_ids=[46], checkpoint=path, resume=True
            )

    def test_retry_policy_is_part_of_the_signature(self, tmp_path):
        path = tmp_path / "run"
        _runner().run_portfolio(as_ids=[46], checkpoint=path)
        with pytest.raises(CheckpointMismatchError):
            _runner(retry=RetryPolicy.default()).run_portfolio(
                as_ids=[46], checkpoint=path, resume=True
            )

    def test_portfolio_is_part_of_the_signature(self, tmp_path):
        # AS 3 of these two synthetic portfolios has different specs:
        # its banked spill must not be restored under the other one
        path = tmp_path / "run"
        _runner(portfolio=SyntheticPortfolio(20, seed=1)).run_portfolio(
            as_ids=[3], checkpoint=path
        )
        with pytest.raises(CheckpointMismatchError):
            _runner(portfolio=SyntheticPortfolio(20, seed=2)).run_portfolio(
                as_ids=[3], checkpoint=path, resume=True
            )

    def test_checkpoint_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "run"
        path.mkdir()
        (path / "checkpoint.jsonl").write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError):
            _runner().run_portfolio(
                as_ids=[46], checkpoint=path, resume=True
            )

    def test_checkpoint_file_is_jsonl(self, tmp_path):
        path = tmp_path / "run"
        report = _runner().run_portfolio(as_ids=[46, 27], checkpoint=path)
        lines = [
            json.loads(line)
            for line in (path / "checkpoint.jsonl").read_text().splitlines()
        ]
        header, records = lines[0], lines[1:]
        assert header["kind"] == "arest-shard-checkpoint"
        assert header["version"] == 4
        assert header["complete"] is True
        # canonical form: one line per VP, then the AS's analysis
        assert [r.get("as_id") or r["vp"][0] for r in records] == (
            [46, 46, 46, 27, 27, 27]
        )
        assert records[2]["analysis"]["traces_total"] == len(
            report[46].dataset
        )
        # each AS's spill is a standard dataset file
        spills = sorted(p.name for p in (path / "spills").iterdir())
        assert spills == ["as000027-b000.jsonl", "as000046-b000.jsonl"]
        spilled = TraceDataset.load_jsonl(
            path / "spills" / "as000046-b000.jsonl"
        )
        assert spilled.traces == report[46].dataset.traces

    def test_failed_as_is_restored_from_bank_on_resume(self, tmp_path):
        path = tmp_path / "run"
        partial = _runner().run_portfolio(
            as_ids=[46, 9999], checkpoint=path
        )
        assert 9999 in partial.failures
        resumed = _runner().run_portfolio(
            as_ids=[46, 9999], checkpoint=path, resume=True
        )
        # 46 restores from the bank; 9999's banked failure is restored
        # too, so the resumed report reproduces the partial one exactly
        # instead of re-running a known-bad AS.
        assert resumed.resumed_as_ids == [46]
        assert 9999 in resumed.failures
        assert resumed.failures[9999].error == partial.failures[9999].error
        assert _report_json(resumed) == _report_json(partial)


class TestFormatThreeRefused:
    """A v3 single-file checkpoint is refused, untouched, on every path."""

    def _v3_file(self, path) -> bytes:
        header = {"kind": "arest-checkpoint", "version": 3, "config": {}}
        entry = {"as_id": 46, "failure": {"stage": "setup", "error": "x"}}
        text = json.dumps(header) + "\n" + json.dumps(entry) + "\n"
        path.write_text(text)
        return path.read_bytes()

    @pytest.mark.parametrize("resume", [False, True])
    def test_passed_as_checkpoint(self, tmp_path, resume):
        path = tmp_path / "campaign.ckpt"
        before = self._v3_file(path)
        with pytest.raises(ValueError, match="v4 run directory"):
            _runner().run_portfolio(
                as_ids=[46], checkpoint=path, resume=resume
            )
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("resume", [False, True])
    def test_found_in_run_dir(self, tmp_path, resume):
        path = tmp_path / "run"
        path.mkdir()
        before = self._v3_file(path / "checkpoint.jsonl")
        with pytest.raises(ValueError, match="v4 run directory"):
            _runner().run_portfolio(
                as_ids=[46], checkpoint=path, resume=resume
            )
        assert (path / "checkpoint.jsonl").read_bytes() == before
        assert sorted(p.name for p in path.iterdir()) == ["checkpoint.jsonl"]


class TestCheckpointSalvage:
    """A damaged checkpoint loses at most its damaged tail."""

    def _bank_two(self, path) -> str:
        report = _runner().run_portfolio(as_ids=[46, 27], checkpoint=path)
        return _report_json(report)

    def test_truncated_mid_json_salvages_prefix(self, tmp_path, caplog):
        path = tmp_path / "run"
        self._bank_two(path)
        checkpoint = path / "checkpoint.jsonl"
        text = checkpoint.read_text()
        # Cut the file in the middle of the last banked AS's JSON line.
        cut = text.rstrip("\n").rfind('"as_id"')
        checkpoint.write_text(text[: cut + 20])

        store = ShardCheckpoint(checkpoint, _runner()._config_signature())
        with caplog.at_level("WARNING", logger="repro.campaign.checkpoint"):
            store.load()
        assert set(store.analyses) == {46}  # first AS survives intact
        assert any("salvaged 5" in r.message for r in caplog.records)
        # The file was compacted: a second load is clean and identical.
        caplog.clear()
        again = ShardCheckpoint(checkpoint, _runner()._config_signature())
        with caplog.at_level("WARNING", logger="repro.campaign.checkpoint"):
            again.load()
        assert set(again.analyses) == {46}
        assert not caplog.records

    def test_garbled_line_discards_suffix(self, tmp_path):
        path = tmp_path / "run"
        reference = self._bank_two(path)
        checkpoint = path / "checkpoint.jsonl"
        reference_bytes = checkpoint.read_bytes()
        lines = checkpoint.read_text().splitlines()
        lines[2] = '{"vp": [46, 1], "probe": NOT JSON'
        checkpoint.write_text("\n".join(lines) + "\n")

        # Line 3 is damaged, so everything after it -- the rest of 46
        # and all of 27 -- is suspect and dropped: both ASes re-run.
        resumed = _runner().run_portfolio(
            as_ids=[46, 27], checkpoint=path, resume=True
        )
        assert resumed.resumed_as_ids == []
        assert _report_json(resumed) == reference
        assert checkpoint.read_bytes() == reference_bytes

    def test_resume_after_truncation_reruns_lost_as(self, tmp_path):
        path = tmp_path / "run"
        reference = self._bank_two(path)
        checkpoint = path / "checkpoint.jsonl"
        reference_bytes = checkpoint.read_bytes()
        text = checkpoint.read_text()
        checkpoint.write_text(text[: text.rstrip("\n").rfind("{") + 10])

        resumed = _runner().run_portfolio(
            as_ids=[46, 27], checkpoint=path, resume=True
        )
        assert resumed.resumed_as_ids == [46]
        assert sorted(resumed) == [27, 46]
        assert _report_json(resumed) == reference
        assert checkpoint.read_bytes() == reference_bytes

    def test_legacy_v1_checkpoint_is_refused(self, tmp_path):
        path = tmp_path / "run"
        path.mkdir()
        v1 = {"kind": "arest-checkpoint", "version": 1, "completed": {}}
        (path / "checkpoint.jsonl").write_text(json.dumps(v1))
        with pytest.raises(ValueError, match="v4 run directory"):
            _runner().run_portfolio(
                as_ids=[46], checkpoint=path, resume=True
            )

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "run"
        path.mkdir()
        (path / "checkpoint.jsonl").write_text("")
        with pytest.raises(ValueError, match="not an AReST shard checkpoint"):
            _runner().run_portfolio(
                as_ids=[46], checkpoint=path, resume=True
            )


class TestDamagedSpill:
    """A spill is checked against its banked facts before it is trusted."""

    def test_uninterrupted_run_checks_no_spill(self, tmp_path, monkeypatch):
        def unexpected(*args):
            raise AssertionError("a fresh run re-read its own spill")

        monkeypatch.setattr(runner_module, "spill_damage", unexpected)
        report = _runner().run_portfolio(
            as_ids=[46, 27], checkpoint=tmp_path / "run"
        )
        assert sorted(report) == [27, 46]

    @pytest.mark.parametrize("damage", SPILL_DAMAGE)
    def test_damaged_spill_reruns_its_as(self, tmp_path, damage, caplog):
        path = tmp_path / "run"
        reference = _report_json(
            _runner().run_portfolio(as_ids=[46, 27], checkpoint=path)
        )
        checkpoint = path / "checkpoint.jsonl"
        reference_bytes = checkpoint.read_bytes()
        damage_spill(path / "spills" / "as000027-b000.jsonl", damage)

        with caplog.at_level("WARNING", logger="repro.campaign.runner"):
            resumed = _runner().run_portfolio(
                as_ids=[46, 27], checkpoint=path, resume=True
            )
        assert any("AS#27: spill" in r.message for r in caplog.records)
        assert resumed.resumed_as_ids == [46]
        assert _report_json(resumed) == reference
        assert checkpoint.read_bytes() == reference_bytes


class TestDiskFull:
    """A full disk degrades one AS, exactly as on the sharded plane."""

    def test_full_disk_while_spilling_quarantines_the_as(
        self, tmp_path, monkeypatch
    ):
        real = runner_module.probe_shard

        def probe_shard(runner, context, shard, spill_path, *args, **kw):
            if shard.as_id == 27:
                raise DiskFullError(
                    spill_path, OSError(errno.ENOSPC, "No space left")
                )
            return real(runner, context, shard, spill_path, *args, **kw)

        monkeypatch.setattr(runner_module, "probe_shard", probe_shard)
        path = tmp_path / "run"
        report = _runner().run_portfolio(as_ids=[46, 27], checkpoint=path)
        assert sorted(report) == [46]
        assert report.quarantined[27, 0].reason == "disk-full"
        assert not report.interrupted  # degraded, not interrupted
        monkeypatch.undo()
        # the circuit breaker stays open across resume
        resumed = _runner().run_portfolio(
            as_ids=[46, 27], checkpoint=path, resume=True
        )
        assert resumed.resumed_as_ids == [46]
        assert _report_json(resumed) == _report_json(report)

    def test_full_disk_while_banking_reruns_on_resume(
        self, tmp_path, monkeypatch, caplog
    ):
        real = ShardCheckpoint.record_analysis

        def record_analysis(store, as_id, summary):
            if as_id == 27:
                raise DiskFullError(
                    store.path, OSError(errno.ENOSPC, "No space left")
                )
            return real(store, as_id, summary)

        monkeypatch.setattr(
            ShardCheckpoint, "record_analysis", record_analysis
        )
        path = tmp_path / "run"
        with caplog.at_level("ERROR", logger="repro.campaign.runner"):
            report = _runner().run_portfolio(
                as_ids=[46, 27], checkpoint=path
            )
        assert sorted(report) == [27, 46]  # the run itself completed
        assert any("disk full" in r.message for r in caplog.records)
        monkeypatch.undo()
        resumed = _runner().run_portfolio(
            as_ids=[46, 27], checkpoint=path, resume=True
        )
        assert resumed.resumed_as_ids == [46]  # 27 was never banked
        assert _report_json(resumed) == _report_json(report)


class MidCampaignFaultRunner(CampaignRunner):
    """Probes AS#46 normally, then dies in its fingerprint stage.

    Models an AS that burns real measurement budget (probes, injected
    faults, retries) before failing: exactly the partial work the
    banked failure must carry into the checkpoint.  Resume fingerprints
    banked ASes outside ``run_as``, hence the class default.
    """

    _current_as = None

    def run_as(self, as_id):
        self._current_as = as_id
        return super().run_as(as_id)

    def _fingerprint(self, net, dataset, faults=None):
        if self._current_as == 46:
            raise RuntimeError("fingerprint backend unavailable")
        return super()._fingerprint(net, dataset, faults=faults)


class TestFailureTallies:
    """Failed ASes bank their partial fault/retry spend."""

    FAULTS = FaultPlan(probe_loss=0.2, seed=7)

    def _runner(self) -> CampaignRunner:
        return MidCampaignFaultRunner(
            seed=1, vps_per_as=2, targets_per_as=8, fault_plan=self.FAULTS
        )

    def test_partial_tallies_fold_into_report(self, tmp_path):
        path = tmp_path / "run"
        report = self._runner().run_portfolio(as_ids=[46], checkpoint=path)

        assert sorted(report) == []
        failure = report.failures[46]
        assert failure.stage == "fingerprint"
        # The probe stage ran under a lossy fault plan before the
        # failure, so the banked failure carries non-zero partial
        # spend...
        assert failure.fault_counters.total_faults() > 0
        assert failure.retry_accounting.probes > 0
        # ...and the portfolio totals include it.
        assert report.fault_counters.total_faults() == (
            failure.fault_counters.total_faults()
        )
        assert report.retry_accounting.probes == (
            failure.retry_accounting.probes
        )

    def test_resume_reproduces_identical_report(self, tmp_path):
        path = tmp_path / "run"
        partial = self._runner().run_portfolio(
            as_ids=[46, 27], checkpoint=path
        )
        resumed = self._runner().run_portfolio(
            as_ids=[46, 27], checkpoint=path, resume=True
        )
        # Nothing re-ran: 27 rehydrates, 46's banked failure restores
        # with its partial tallies, and the reports match exactly.
        assert resumed.resumed_as_ids == [27]
        assert _report_json(resumed) == _report_json(partial)
