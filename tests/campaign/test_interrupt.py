"""Interrupt resilience: SIGINT mid-portfolio, SIGKILLed workers.

The contract under test: however a campaign dies -- operator Ctrl-C,
a worker killed from outside -- the checkpoint on disk stays loadable,
and ``resume=True`` completes the portfolio with a report (and final
checkpoint bytes) identical to a run that was never interrupted.  A
worker that hangs or goes silent is bounded by the per-AS deadline and
the heartbeat watchdog, and a failed AS never hands its worker on.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, ShardCheckpoint

# Six ASes so that with jobs=2 the SIGINT (delivered right after the
# first AS banks) always lands while some ASes are still undispatched:
# at that instant at most four slots have ever been filled.
AS_IDS = [46, 27, 31, 59, 7, 15]
KNOBS = dict(seed=1, vps_per_as=2, targets_per_as=8)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required for in-test worker subclasses",
)


def _report_fingerprint(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """Reference run: never interrupted, checkpointed."""
    path = tmp_path_factory.mktemp("ref") / "campaign.ckpt"
    report = CampaignRunner(**KNOBS).run_portfolio(
        as_ids=AS_IDS, checkpoint=path
    )
    return _report_fingerprint(report), _checkpoint_bytes(path)


def _checkpoint_bytes(run_dir) -> bytes:
    return (run_dir / "checkpoint.jsonl").read_bytes()


def _banked(run_dir) -> set[int]:
    """The ASes a run directory's checkpoint banked as analyzed."""
    store = ShardCheckpoint(
        run_dir / "checkpoint.jsonl",
        CampaignRunner(**KNOBS)._config_signature(),
    )
    store.load()
    return set(store.analyses)


class SigintMidPortfolio(CampaignRunner):
    """Delivers a real SIGINT to the process during the second AS."""

    def run_as(self, as_id):
        if as_id == AS_IDS[1]:
            os.kill(os.getpid(), signal.SIGINT)
        return super().run_as(as_id)


class KillsWorkerOnce(CampaignRunner):
    """SIGKILLs its own process for one AS -- only in pool workers.

    The marker directory distinguishes first and second dispatch, so
    both attempts die and the circuit breaker must open.
    """

    def __init__(self, *args, marker_dir=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.marker_dir = marker_dir

    def _spawn_config(self):
        return dict(super()._spawn_config(), marker_dir=self.marker_dir)

    def run_as(self, as_id):
        if as_id == AS_IDS[1]:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().run_as(as_id)


class StallsInProbe(CampaignRunner):
    """Stalls one AS at its probe stage -- spinning heartbeats, or
    silent -- on every dispatch."""

    def __init__(self, *args, victim=None, chatty=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.victim = victim
        self.chatty = chatty
        self._active_as = None

    def _spawn_config(self):
        return dict(
            super()._spawn_config(), victim=self.victim, chatty=self.chatty
        )

    def _set_stage(self, stage):
        super()._set_stage(stage)
        if stage != "probe" or self._active_as != self.victim:
            return
        while self.chatty:
            super()._set_stage("probe")  # alive, but never done
            time.sleep(0.05)
        time.sleep(600)

    def run_as(self, as_id, telemetry_dir=None):
        self._active_as = as_id
        return super().run_as(as_id, telemetry_dir)


class FailsFirstAs(CampaignRunner):
    """Fails AS_IDS[0] outright; stamps every AS with its worker's pid."""

    def run_as(self, as_id, telemetry_dir=None):
        if as_id == AS_IDS[0]:
            raise RuntimeError(f"boom in pid {os.getpid()}")
        result = super().run_as(as_id, telemetry_dir)
        result.dataset.metadata["pid"] = str(os.getpid())
        return result


class TestSigintInProcess:
    """jobs=1: the first SIGINT finishes the in-flight AS, then drains."""

    def test_sigint_yields_partial_report_and_intact_checkpoint(
        self, tmp_path, uninterrupted
    ):
        ref_fingerprint, ref_bytes = uninterrupted
        path = tmp_path / "campaign.ckpt"
        runner = SigintMidPortfolio(**KNOBS)
        report = runner.run_portfolio(as_ids=AS_IDS, checkpoint=path)

        assert report.interrupted
        assert "INTERRUPTED" in report.summary()
        # The AS that was in flight when SIGINT landed still completed
        # and was banked; later ASes were never dispatched.
        assert sorted(report) == sorted(AS_IDS[:2])
        assert _banked(path) == set(AS_IDS[:2])

        # Resume with a plain runner: identical report and bytes.
        resumed = CampaignRunner(**KNOBS).run_portfolio(
            as_ids=AS_IDS, checkpoint=path, resume=True
        )
        assert sorted(resumed.resumed_as_ids) == sorted(AS_IDS[:2])
        assert _report_fingerprint(resumed) == ref_fingerprint
        assert _checkpoint_bytes(path) == ref_bytes


_DRIVER = textwrap.dedent(
    """
    import os, signal, sys, threading, time
    from pathlib import Path

    from repro.campaign import CampaignRunner

    class SlowRunner(CampaignRunner):
        # The sleep pads wall-clock (so the SIGINT lands mid-portfolio)
        # without touching any measured data.
        def run_as(self, as_id):
            result = super().run_as(as_id)
            time.sleep(0.25)
            return result

    checkpoint = sys.argv[1]
    as_ids = [int(a) for a in sys.argv[2].split(",")]

    def killer():
        path = Path(checkpoint) / "checkpoint.jsonl"
        while True:
            if path.exists() and len(path.read_text().splitlines()) >= 2:
                break  # first AS banked; portfolio is mid-flight
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGINT)

    threading.Thread(target=killer, daemon=True).start()
    runner = SlowRunner(seed=1, vps_per_as=2, targets_per_as=8)
    report = runner.run_portfolio(
        as_ids=as_ids, checkpoint=checkpoint, jobs=2, timeout_per_as=60
    )
    completed = ",".join(str(a) for a in sorted(report))
    print(f"completed={completed}", flush=True)
    sys.exit(130 if report.interrupted else 0)
    """
)


class TestSigintParallel:
    """jobs=2: a real SIGINT drains in-flight workers, then resume heals."""

    def test_sigint_then_resume_matches_uninterrupted(
        self, tmp_path, uninterrupted
    ):
        ref_fingerprint, ref_bytes = uninterrupted
        path = tmp_path / "campaign.ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[2] / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _DRIVER,
                str(path),
                ",".join(str(a) for a in AS_IDS),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 130, proc.stderr
        # Not everything ran: the interrupt cut the portfolio short.
        completed_line = [
            line
            for line in proc.stdout.splitlines()
            if line.startswith("completed=")
        ][0]
        completed = {
            int(a)
            for a in completed_line.removeprefix("completed=").split(",")
            if a
        }
        assert completed < set(AS_IDS)

        # The checkpoint survived the interrupt intact and loadable.
        banked = _banked(path)
        assert banked <= set(AS_IDS)
        assert banked  # at least the AS that triggered the killer

        # Resume completes and matches the uninterrupted run
        # byte-for-byte: same report JSON, same checkpoint bytes.
        resumed = CampaignRunner(**KNOBS).run_portfolio(
            as_ids=AS_IDS, checkpoint=path, resume=True
        )
        assert not resumed.interrupted
        assert _report_fingerprint(resumed) == ref_fingerprint
        assert _checkpoint_bytes(path) == ref_bytes


class TestSigkilledWorker:
    """A worker killed from outside is contained and quarantined."""

    def test_poison_as_quarantined_rest_complete(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        runner = KillsWorkerOnce(**KNOBS)
        report = runner.run_portfolio(
            as_ids=AS_IDS,
            checkpoint=path,
            jobs=2,
            timeout_per_as=60,
        )
        victim = AS_IDS[1]
        assert sorted(report) == sorted(a for a in AS_IDS if a != victim)
        assert (victim, 0) in report.quarantined
        quarantine = report.quarantined[victim, 0]
        assert quarantine.reason == "crash"
        assert quarantine.attempts == 2  # one re-dispatch before the breaker
        assert victim not in report.failures

        # The quarantine is banked: resume restores it instead of
        # re-dispatching a proven-poisonous AS.
        resumed = KillsWorkerOnce(**KNOBS).run_portfolio(
            as_ids=AS_IDS, checkpoint=path, resume=True, jobs=2
        )
        assert (victim, 0) in resumed.quarantined
        assert sorted(resumed.resumed_as_ids) == sorted(
            a for a in AS_IDS if a != victim
        )
        assert _report_fingerprint(resumed) == _report_fingerprint(report)


class TestWorkerDeadlines:
    """A stalled AS is killed, re-dispatched once, then quarantined."""

    def test_hanging_as_quarantined_as_timeout(self):
        victim = AS_IDS[1]
        report = StallsInProbe(
            **KNOBS, victim=victim, chatty=True
        ).run_portfolio(as_ids=AS_IDS[:3], jobs=2, timeout_per_as=2)
        assert sorted(report) == sorted(a for a in AS_IDS[:3] if a != victim)
        quarantine = report.quarantined[victim, 0]
        assert quarantine.reason == "timeout"
        assert quarantine.attempts == 2
        assert quarantine.last_stage == "probe"

    def test_silent_as_quarantined_as_hung(self):
        victim = AS_IDS[1]
        report = StallsInProbe(**KNOBS, victim=victim).run_portfolio(
            as_ids=AS_IDS[:3],
            jobs=2,
            timeout_per_as=120,  # generous: the watchdog must trip first
            heartbeat_timeout=1.5,
        )
        assert sorted(report) == sorted(a for a in AS_IDS[:3] if a != victim)
        quarantine = report.quarantined[victim, 0]
        assert quarantine.reason == "hung"
        assert quarantine.attempts == 2
        assert quarantine.last_stage == "probe"


class TestFailedAsRecycle:
    def test_failed_as_worker_serves_no_later_as(self):
        report = FailsFirstAs(**KNOBS).run_portfolio(as_ids=AS_IDS, jobs=2)
        failure = report.failures[AS_IDS[0]]
        failed_pid = failure.error.rsplit(" ", 1)[1]
        pids = [report[a].dataset.metadata["pid"] for a in AS_IDS[1:]]
        # AS_IDS[0] ran first on its worker, so every AS that ran in
        # that process would have followed the failure
        assert failed_pid not in pids
        # workers are persistent: the pool served five ASes in fewer
        # processes, so only the recycle kept them off the failed pid
        assert len(set(pids)) < len(pids)
