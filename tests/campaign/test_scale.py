"""Unit tests for the paper-scale campaign driver.

Fast, in-process (``jobs=1``) coverage of the orchestration logic:
resume skipping, quarantine surfacing, disk-full degradation on split
and whole ASes, churn at one shard per AS (and its refusal when split),
canonical checkpoint completion, torn temporaries, the stats surface,
and topology locality (each AS analyzed on the context that probed it,
rebuilt from spills only on a cache miss).  The jobs/shards
byte-identity contract lives in ``test_scale_properties.py``.
"""

import errno
import json
import multiprocessing
import os
import signal
from pathlib import Path

import pytest

import repro.campaign.scale as scale
import repro.campaign.shards as shards_module
from repro.campaign import ScaleCampaign
from repro.campaign.checkpoint import ShardCheckpoint
from repro.campaign.dataset import TraceDataset
from repro.campaign.runner import result_summary
from repro.campaign.shards import (
    build_shard_context,
    probe_shard,
    probe_tallies,
    shard_plan,
)
from repro.netsim.dynamics import ChurnPlan
from repro.netsim.faults import FaultPlan
from repro.topogen.synthetic import SyntheticPortfolio
from repro.util.atomicio import DiskFullError
from repro.util.retry import RetryPolicy

from tests.conftest import SPILL_DAMAGE, damage_spill


def _campaign(n_ases: int = 2, seed: int = 1) -> ScaleCampaign:
    return ScaleCampaign(
        portfolio=SyntheticPortfolio(n_ases, seed=seed),
        seed=seed,
        vps_per_as=2,
        targets_per_as=4,
    )


def _sigint_while_probing(monkeypatch, key: tuple[int, int]) -> None:
    """Deliver a real SIGINT (a stop request) while shard ``key`` probes.

    The shard still completes and banks; the lease loop then grants
    nothing more -- the shard's follow-up analysis included.
    """
    real = scale._probe_shard_worker

    def worker(payload, ctl):
        if payload[3].key == key:
            os.kill(os.getpid(), signal.SIGINT)
        return real(payload, ctl)

    monkeypatch.setattr(scale, "_probe_shard_worker", worker)


class FaultyRunAs(ScaleCampaign):
    """Injects a fault into one AS's whole-AS task, through ``run_as``.

    ``fault`` is ``"disk-full"`` or ``"bug"`` (raised at the probe
    stage, where spilling runs) or ``"ctrl-c"`` (a KeyboardInterrupt
    as the AS starts).
    """

    def __init__(self, *, victim=None, fault=None, **kwargs):
        super().__init__(**kwargs)
        self.victim = victim
        self.fault = fault
        self._victim_active = False

    def _spawn_config(self):
        return dict(
            super()._spawn_config(), victim=self.victim, fault=self.fault
        )

    def run_as(self, as_id, telemetry_dir=None):
        self._victim_active = as_id == self.victim
        if self._victim_active and self.fault == "ctrl-c":
            raise KeyboardInterrupt
        return super().run_as(as_id, telemetry_dir)

    def _probe(self, context, dataset):
        if self._victim_active and self.fault == "disk-full":
            raise DiskFullError(
                "spill", OSError(errno.ENOSPC, "No space left on device")
            )
        if self._victim_active and self.fault == "bug":
            raise RuntimeError("synthetic probe bug")
        super()._probe(context, dataset)


def _faulty(victim: int, fault: str, n_ases: int = 2) -> FaultyRunAs:
    return FaultyRunAs(
        victim=victim,
        fault=fault,
        portfolio=SyntheticPortfolio(n_ases, seed=1),
        seed=1,
        vps_per_as=2,
        targets_per_as=4,
    )


class TestConstruction:
    def test_churn_plans_are_refused(self, tmp_path, monkeypatch):
        churned = dict(
            portfolio=SyntheticPortfolio(2, seed=1),
            seed=1,
            vps_per_as=2,
            targets_per_as=4,
            churn_plan=ChurnPlan.intensity(0.2, seed=1),
        )
        # one shard per AS (the default): each churned AS runs whole
        report = ScaleCampaign(**churned).run(tmp_path / "whole")
        assert set(report.completed) == {1, 2}
        # a layout that splits a churned AS is refused before any task
        tasks = _count_calls(monkeypatch, scale, "_scale_task")
        with pytest.raises(ValueError, match="churn"):
            ScaleCampaign(**churned).run(tmp_path / "split", vps_per_shard=1)
        assert tasks == []

    def test_inactive_churn_plan_is_fine(self):
        ScaleCampaign(
            portfolio=SyntheticPortfolio(2, seed=1),
            churn_plan=ChurnPlan.none(),
        )


class TestRun:
    def test_clean_run_banks_everything(self, tmp_path):
        report = _campaign().run(tmp_path)
        assert set(report.completed) == {1, 2}
        assert not report.interrupted
        assert report.failures == {} and report.quarantined == {}
        assert report.traces_total() > 0
        spills = sorted(p.name for p in (tmp_path / "spills").iterdir())
        assert spills == [
            "as000001-b000.jsonl",
            "as000002-b000.jsonl",
        ]
        store = ShardCheckpoint(
            tmp_path / "checkpoint.jsonl", _campaign()._config_signature()
        )
        store.load()
        assert store.complete

    def test_resume_after_completion_reruns_nothing(self, tmp_path):
        first = _campaign().run(tmp_path)
        checkpoint = (tmp_path / "checkpoint.jsonl").read_bytes()
        campaign = _campaign()
        again = campaign.run(tmp_path, resume=True)
        assert json.dumps(again.as_dict()) == json.dumps(first.as_dict())
        assert (tmp_path / "checkpoint.jsonl").read_bytes() == checkpoint
        assert campaign.stats.get("shards_probed", 0) == 0

    def test_extending_a_completed_run_probes_only_the_new_ases(
        self, tmp_path
    ):
        # complete a 1-AS campaign, then resume asking for both
        campaign = _campaign()
        campaign.run(tmp_path / "grown", as_ids=[1])
        resumed = _campaign()
        report = resumed.run(tmp_path / "grown", resume=True)
        assert set(report.completed) == {1, 2}
        assert resumed.stats["shards_probed"] == 1  # only AS 2
        # the grown checkpoint canonicalizes to the same bytes as a
        # fresh run over both ASes
        _campaign().run(tmp_path / "fresh")
        assert (tmp_path / "grown" / "checkpoint.jsonl").read_bytes() == (
            tmp_path / "fresh" / "checkpoint.jsonl"
        ).read_bytes()

    def test_vps_per_shard_layout_is_respected(self, tmp_path):
        campaign = _campaign()
        report = campaign.run(tmp_path, vps_per_shard=1)
        assert set(report.completed) == {1, 2}
        assert campaign.stats["shards_total"] == 4  # 2 ASes x 2 VPs
        spills = sorted(p.name for p in (tmp_path / "spills").iterdir())
        assert len(spills) == 4

    def test_worker_caches_never_leak_across_campaigns(self, tmp_path):
        # A process that served one campaign (workers are persistent,
        # jobs=1 runs in-process) must rebuild every shard context for
        # the next one: contexts embed the portfolio/seed, and as_ids
        # collide across campaigns.  Regression: the runner cache was
        # invalidated per run token but the context cache survived,
        # so campaign B probed campaign A's topologies.
        scale._RUNNER_CACHE.clear()
        scale._CONTEXT_CACHE.clear()
        _campaign(seed=9).run(tmp_path / "other")  # fills the caches
        after = _campaign().run(tmp_path / "after")
        scale._RUNNER_CACHE.clear()
        scale._CONTEXT_CACHE.clear()
        clean = _campaign().run(tmp_path / "clean")
        assert json.dumps(after.as_dict(), sort_keys=True) == json.dumps(
            clean.as_dict(), sort_keys=True
        )
        assert (tmp_path / "after" / "checkpoint.jsonl").read_bytes() == (
            tmp_path / "clean" / "checkpoint.jsonl"
        ).read_bytes()

    def test_stats_surface(self, tmp_path):
        campaign = _campaign()
        campaign.run(tmp_path)
        stats = campaign.stats
        assert stats["ases_analyzed"] == 2
        assert stats["shards_probed"] == 2
        assert stats["traces_total"] > 0
        assert stats["rss_peak_bytes"] > 0
        assert stats["wall_seconds"] >= 0
        assert stats["shards_quarantined"] == 0

    def test_jobs_validation(self, tmp_path):
        with pytest.raises(ValueError):
            _campaign().run(tmp_path, jobs=0)


class TestDegradation:
    def test_disk_full_shard_is_quarantined_cleanly(
        self, tmp_path, monkeypatch
    ):
        real = scale._probe_shard_worker

        def worker(payload, ctl):
            shard = payload[3]
            if shard.as_id == 2:
                return {
                    "status": "disk-full",
                    "error": "No space left on device",
                }
            return real(payload, ctl)

        monkeypatch.setattr(scale, "_probe_shard_worker", worker)
        report = _campaign().run(tmp_path, vps_per_shard=1)
        assert set(report.completed) == {1}
        assert report.quarantined["2:0"]["reason"] == "disk-full"
        assert not report.interrupted  # degraded, not interrupted
        monkeypatch.undo()
        # the circuit breaker stays open across resume: the shard is
        # not re-dispatched, the quarantine is surfaced again
        resumed = _campaign()
        again = resumed.run(tmp_path, resume=True)
        assert again.quarantined["2:0"]["reason"] == "disk-full"
        assert resumed.stats.get("shards_probed", 0) == 0

    def test_deterministic_probe_error_fails_the_as(
        self, tmp_path, monkeypatch
    ):
        real = scale._probe_shard_worker

        def worker(payload, ctl):
            shard = payload[3]
            if shard.as_id == 1:
                raise RuntimeError("synthetic probe bug")
            return real(payload, ctl)

        monkeypatch.setattr(scale, "_probe_shard_worker", worker)
        report = _campaign().run(tmp_path, vps_per_shard=1)
        assert set(report.completed) == {2}
        assert report.failures[1]["stage"] == "probe"
        assert "synthetic probe bug" in report.failures[1]["error"]
        assert not report.interrupted

    def test_interrupted_probe_phase_resumes_to_identical_bytes(
        self, tmp_path, monkeypatch
    ):
        reference_dir = tmp_path / "reference"
        reference = _campaign(n_ases=3).run(reference_dir)

        real = scale._probe_shard_worker
        calls = []

        def flaky(payload, ctl):
            if len(calls) >= 2:  # the first AS's shards land, then Ctrl-C
                raise KeyboardInterrupt
            calls.append(payload[3].key)
            return real(payload, ctl)

        out = tmp_path / "run"
        monkeypatch.setattr(scale, "_probe_shard_worker", flaky)
        partial = _campaign(n_ases=3).run(out, vps_per_shard=1)
        assert partial.interrupted
        # the first AS's analysis followed its last shard before the
        # Ctrl-C hit the second AS's probe
        assert calls == [(1, 0), (1, 1)]
        assert set(partial.completed) == {1}
        monkeypatch.undo()

        resumed = _campaign(n_ases=3).run(out, resume=True)
        assert json.dumps(resumed.as_dict()) == json.dumps(
            reference.as_dict()
        )
        assert (out / "checkpoint.jsonl").read_bytes() == (
            reference_dir / "checkpoint.jsonl"
        ).read_bytes()


class TestWholeAsDegradation:
    """The same faults on whole-AS tasks, injected through ``run_as``."""

    def test_disk_full_quarantines_the_as(self, tmp_path):
        report = _faulty(2, "disk-full").run(tmp_path)
        assert set(report.completed) == {1}
        quarantine = report.quarantined["2:0"]
        assert quarantine["reason"] == "disk-full"
        assert "No space left" in quarantine["detail"]
        assert not report.interrupted
        resumed = _campaign()
        again = resumed.run(tmp_path, resume=True)
        assert again.quarantined["2:0"] == quarantine
        assert resumed.stats["shards_probed"] == 0

    def test_probe_error_fails_the_as(self, tmp_path):
        report = _faulty(1, "bug").run(tmp_path)
        assert set(report.completed) == {2}
        failure = report.failures[1]
        assert failure["stage"] == "probe"
        assert "synthetic probe bug" in failure["error"]
        assert not report.interrupted

    def test_ctrl_c_then_resume_gives_identical_bytes(self, tmp_path):
        reference = _campaign(n_ases=3).run(tmp_path / "reference")
        out = tmp_path / "run"
        partial = _faulty(2, "ctrl-c", n_ases=3).run(out)
        assert partial.interrupted and set(partial.completed) == {1}
        resumed = _campaign(n_ases=3).run(out, resume=True)
        assert json.dumps(resumed.as_dict()) == json.dumps(
            reference.as_dict()
        )
        assert _run_bytes(out) == _run_bytes(tmp_path / "reference")


class TestTornTemporaries:
    def test_resume_removes_what_a_killed_write_left(self, tmp_path, caplog):
        reference = tmp_path / "reference"
        _campaign().run(reference)
        out = tmp_path / "run"
        _campaign().run(out, as_ids=[1])
        # a SIGKILL mid-write leaves the atomic writer's temporaries
        (out / "spills" / ".as000002-b000.jsonl.4242.tmp").write_text("{")
        (out / ".checkpoint.jsonl.4242.tmp").write_text("{")
        with caplog.at_level("INFO", logger="repro.campaign.scale"):
            _campaign().run(out, resume=True)
        assert "removed 2 temporary file(s)" in caplog.text
        assert _run_bytes(out) == _run_bytes(reference)


class TestDamagedSpill:
    """A banked shard's spill is checked before a resume trusts it."""

    def test_uninterrupted_run_checks_no_spill(self, tmp_path, monkeypatch):
        def unexpected(*args):
            raise AssertionError("a fresh run re-read its own spill")

        monkeypatch.setattr(scale, "spill_damage", unexpected)
        report = _campaign().run(tmp_path, vps_per_shard=1)
        assert set(report.completed) == {1, 2}

    @pytest.mark.parametrize("damage", SPILL_DAMAGE)
    def test_damaged_spill_is_reprobed_on_resume(
        self, tmp_path, monkeypatch, caplog, damage
    ):
        reference_dir = tmp_path / "reference"
        reference = _campaign().run(reference_dir, vps_per_shard=1)

        # probe every shard, then stop before the last AS's analysis
        out = tmp_path / "run"
        _sigint_while_probing(monkeypatch, (2, 1))
        partial = _campaign().run(out, vps_per_shard=1)
        assert partial.interrupted and set(partial.completed) == {1}
        monkeypatch.undo()
        damage_spill(out / "spills" / "as000002-b001.jsonl", damage)

        campaign = _campaign()
        with caplog.at_level("WARNING", logger="repro.campaign.scale"):
            resumed = campaign.run(out, resume=True)
        assert any("re-probing" in r.message for r in caplog.records)
        assert campaign.stats["shards_probed"] == 1
        assert json.dumps(resumed.as_dict()) == json.dumps(
            reference.as_dict()
        )
        assert (out / "checkpoint.jsonl").read_bytes() == (
            reference_dir / "checkpoint.jsonl"
        ).read_bytes()


class TestReport:
    def test_summary_lines(self, tmp_path):
        report = _campaign().run(tmp_path)
        text = report.summary()
        assert "2 AS(es) analyzed" in text
        assert "INTERRUPTED" not in text

    def test_as_dict_shape(self, tmp_path):
        doc = _campaign().run(tmp_path).as_dict()
        assert set(doc) == {
            "completed",
            "failures",
            "quarantined",
            "interrupted",
            "traces_total",
            "fault_counters",
            "retry_accounting",
            "anomaly_counts",
        }
        entry = doc["completed"]["1"]
        assert {"flags", "traces_total", "routers"} <= set(entry)


# -- locality: analyze each AS where it was probed ----------------------------

#: the e2e ``scale-lossy`` workload's fault plan and retry policy
_LOSSY = dict(
    fault_plan=FaultPlan(
        probe_loss=0.05,
        snmp_timeout_rate=0.1,
        label_garble_rate=0.02,
        duplicate_hop_rate=0.02,
        seed=5,
    ),
    retry=RetryPolicy(max_attempts=3),
)


def _lossy(n_ases: int = 2) -> ScaleCampaign:
    return ScaleCampaign(
        portfolio=SyntheticPortfolio(n_ases, seed=5, profile="paper"),
        seed=5,
        vps_per_as=4,
        targets_per_as=12,
        per_prefix=5,
        **_LOSSY,
    )


def _run_bytes(run_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call to ``module.name``."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestAnalysisOnProbedContext:
    """Analysis on the context that probed an AS equals rehydration."""

    @pytest.mark.parametrize(
        "held", [(), (1, 3), (0, 1, 2, 3)], ids=["none", "some", "all"]
    )
    def test_summary_bytes_equal_rehydrate_as(self, tmp_path, held):
        runner = _lossy()
        as_id = 1
        shards = shard_plan([as_id], runner.vps_per_as, 1)
        context = build_shard_context(runner, as_id)
        records, paths = [], []
        for shard in shards:
            traces = []
            path = tmp_path / shard.spill_name
            records.append(
                probe_shard(
                    runner, context, shard, path, tee=traces.append
                )
            )
            paths.append(path)
            if shard.bucket in held:
                context.buckets[shard.bucket] = traces
        vps = [vp for record in records for vp in record.vps]
        assert probe_tallies(vps)[0].total_faults() > 0

        def summary(context):
            faults, retry = probe_tallies(vps)
            result = scale.rehydrate_as(
                runner, as_id, paths, faults, retry, context
            )
            return json.dumps(result_summary(result))

        assert summary(context) == summary(None)


class TestLocality:
    def test_fresh_serial_run_builds_one_topology_per_as(
        self, tmp_path, monkeypatch
    ):
        builds = _count_calls(
            monkeypatch, shards_module, "build_measurement_network"
        )
        rebuilds = _count_calls(
            monkeypatch, scale, "build_measurement_network"
        )
        decodes = _count_calls(monkeypatch, TraceDataset, "iter_jsonl")
        campaign = _lossy(n_ases=3)
        report = campaign.run(tmp_path, vps_per_shard=1)
        assert set(report.completed) == {1, 2, 3}
        assert len(builds) == 3 and rebuilds == [] and decodes == []
        assert campaign.stats["topology_builds"] == 3
        assert campaign.stats["analyses_rebuilt"] == 0
        assert campaign.stats["caches_shed"] == 0
        assert campaign.stats["worker_rss_peak_bytes"] > 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers must inherit the build spies",
    )
    def test_builds_of_a_crashed_worker_are_counted(
        self, tmp_path, monkeypatch
    ):
        """A worker dies right after building AS 1's topology for shard
        (1, 0): that build still counts, once the re-dispatched shard
        builds it again."""
        built = tmp_path / "builds"
        marker = tmp_path / "crashed"

        def spy(module, name):
            real = getattr(module, name)

            def build(*args, **kwargs):
                with built.open("a") as fh:
                    fh.write(f"{name}\n")
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, build)

        spy(scale, "build_shard_context")
        spy(scale, "build_measurement_network")
        real_probe = scale.probe_shard

        def probe(runner, context, shard, *args, **kwargs):
            if shard.key == (1, 0) and not marker.exists():
                marker.touch()
                os._exit(137)
            return real_probe(runner, context, shard, *args, **kwargs)

        monkeypatch.setattr(scale, "probe_shard", probe)
        campaign = _campaign(n_ases=3)
        report = campaign.run(tmp_path / "run", jobs=2, vps_per_shard=1)
        assert marker.exists() and set(report.completed) == {1, 2, 3}
        builds = len(built.read_text().splitlines())
        assert builds >= 4  # one per AS, and AS 1's again after the crash
        assert campaign.stats["topology_builds"] == builds
        assert campaign.stats["worker_rss_peak_bytes"] > 0

    def test_shed_cache_rebuilds_to_identical_bytes(self, tmp_path):
        reference = _lossy().run(tmp_path / "reference", vps_per_shard=1)
        campaign = _lossy()
        # a 1-byte budget sheds the context cache at every task boundary,
        # the one between each AS's last shard and its analysis included
        report = campaign.run(
            tmp_path / "shed", vps_per_shard=1, max_rss_bytes=1
        )
        stats = campaign.stats
        tasks = stats["shards_total"] + 2  # every shard and analysis
        assert stats["shards_total"] == 8
        assert stats["caches_shed"] == tasks
        assert stats["analyses_rebuilt"] == 2
        assert stats["topology_builds"] == tasks
        assert json.dumps(report.as_dict()) == json.dumps(
            reference.as_dict()
        )
        assert _run_bytes(tmp_path / "shed") == _run_bytes(
            tmp_path / "reference"
        )

    def test_stop_before_analysis_grants_no_follow_up(
        self, tmp_path, monkeypatch
    ):
        reference = _lossy().run(tmp_path / "reference", vps_per_shard=2)
        out = tmp_path / "run"
        _sigint_while_probing(monkeypatch, (1, 1))  # AS 1's last shard
        analyses = _count_calls(monkeypatch, scale, "_analyze_as_worker")
        partial = _lossy().run(out, vps_per_shard=2)
        monkeypatch.undo()
        assert partial.interrupted and partial.completed == {}
        assert analyses == []
        store = ShardCheckpoint(
            out / "checkpoint.jsonl", _lossy()._config_signature()
        )
        store.load()
        assert sorted(store.probed) == [(1, 0), (1, 1)]

        campaign = _lossy()
        resumed = campaign.run(out, resume=True)
        assert campaign.stats["shards_probed"] == 2  # AS 2 only
        assert campaign.stats["analyses_rebuilt"] == 1  # AS 1, from spills
        assert json.dumps(resumed.as_dict()) == json.dumps(
            reference.as_dict()
        )
        assert _run_bytes(out) == _run_bytes(tmp_path / "reference")

    def test_resume_with_half_an_as_banked(self, tmp_path, monkeypatch):
        reference = _lossy().run(tmp_path / "reference", vps_per_shard=1)
        out = tmp_path / "run"
        _sigint_while_probing(monkeypatch, (1, 1))  # 2 of AS 1's 4 shards
        partial = _lossy().run(out, vps_per_shard=1)
        monkeypatch.undo()
        assert partial.interrupted and partial.completed == {}

        merges = _count_calls(monkeypatch, scale, "merged_dataset")
        campaign = _lossy()
        resumed = campaign.run(out, resume=True)
        # AS 1 analyzes on the context that probed its second half:
        # the banked half decodes from spills, the rest from memory
        held = [isinstance(bucket, list) for bucket in merges[0][2]]
        assert held == [False, False, True, True]
        assert campaign.stats["analyses_rebuilt"] == 0
        assert campaign.stats["topology_builds"] == 2
        assert json.dumps(resumed.as_dict()) == json.dumps(
            reference.as_dict()
        )
        assert _run_bytes(out) == _run_bytes(tmp_path / "reference")
