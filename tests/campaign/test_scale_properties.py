"""Properties: execution geometry is invisible in paper-scale results.

The acceptance criteria for the shard executor, stated as properties:

1. For any ``--jobs`` and any ``--shards`` value, the canonical report
   JSON and the final checkpoint bytes equal the serial single-shard
   reference -- work stealing, lease recovery and re-sharding are pure
   execution-plane concerns.
2. A campaign SIGKILLed at an arbitrary instant and then resumed
   produces byte-identical artifacts to one that was never interrupted:
   zero traces lost, zero duplicated, and no file the kill tore left
   behind.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import ScaleCampaign, shard_plan
from repro.netsim.faults import FaultPlan
from repro.topogen.synthetic import SyntheticPortfolio
from repro.util.retry import RetryPolicy

from tests.conftest import scaled_examples

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required for the worker pool",
)

_serial_cache: dict[tuple, tuple[str, bytes]] = {}


def _campaign(n_ases: int, seed: int, faulty: bool) -> ScaleCampaign:
    plan = (
        FaultPlan(probe_loss=0.05, snmp_timeout_rate=0.1, seed=seed)
        if faulty
        else None
    )
    return ScaleCampaign(
        portfolio=SyntheticPortfolio(n_ases, seed=seed),
        seed=seed,
        vps_per_as=2,
        targets_per_as=4,
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=2) if faulty else None,
    )


def _run(
    n_ases: int, seed: int, faulty: bool, jobs: int, vps_per_shard
) -> tuple[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        report = _campaign(n_ases, seed, faulty).run(
            tmp, jobs=jobs, vps_per_shard=vps_per_shard
        )
        return (
            json.dumps(report.as_dict(), sort_keys=True),
            (Path(tmp) / "checkpoint.jsonl").read_bytes(),
        )


def _serial_reference(n_ases, seed, faulty) -> tuple[str, bytes]:
    key = (n_ases, seed, faulty)
    if key not in _serial_cache:
        _serial_cache[key] = _run(
            n_ases, seed, faulty, jobs=1, vps_per_shard=None
        )
    return _serial_cache[key]


@settings(max_examples=scaled_examples(4), deadline=None)
@given(
    n_ases=st.integers(min_value=1, max_value=3),
    seed=st.sampled_from((1, 3)),
    faulty=st.booleans(),
    jobs=st.sampled_from((1, 2, 3)),
    vps_per_shard=st.sampled_from((1, 2)),
)
def test_jobs_and_shards_are_invisible_in_the_bytes(
    n_ases, seed, faulty, jobs, vps_per_shard
):
    serial_report, serial_bytes = _serial_reference(n_ases, seed, faulty)
    report, checkpoint = _run(n_ases, seed, faulty, jobs, vps_per_shard)
    assert report == serial_report
    assert checkpoint == serial_bytes


# -- kill -9 mid-campaign, then resume ---------------------------------------

_KILLED_CAMPAIGN = """
import sys
from repro.campaign import ScaleCampaign
from repro.topogen.synthetic import SyntheticPortfolio

out = sys.argv[1]
print("ready", flush=True)
campaign = ScaleCampaign(
    portfolio=SyntheticPortfolio(6, seed=3),
    seed=3,
    vps_per_as=2,
    targets_per_as=8,
)
campaign.run(out, jobs=2, vps_per_shard=1)
print("done", flush=True)
"""


class TestKillNineResume:
    """SIGKILL at an arbitrary instant loses and duplicates nothing."""

    def _reference(self, tmp_path) -> tuple[str, bytes]:
        out = tmp_path / "reference"
        report = ScaleCampaign(
            portfolio=SyntheticPortfolio(6, seed=3),
            seed=3,
            vps_per_as=2,
            targets_per_as=8,
        ).run(out)
        return (
            json.dumps(report.as_dict(), sort_keys=True),
            (out / "checkpoint.jsonl").read_bytes(),
        )

    @pytest.mark.parametrize("delay_ms", [20, 90, 250])
    def test_resume_after_sigkill_matches_uninterrupted(
        self, tmp_path, delay_ms
    ):
        out = tmp_path / "killed"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[2] / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        # own session: killpg reaps the supervisor AND its workers
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_CAMPAIGN, str(out)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            assert child.stdout.readline().strip() == "ready"
            time.sleep(delay_ms / 1000)
            os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=10)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()

        resumed = ScaleCampaign(
            portfolio=SyntheticPortfolio(6, seed=3),
            seed=3,
            vps_per_as=2,
            targets_per_as=8,
        ).run(out, jobs=2, vps_per_shard=1, resume=True)
        report_json = json.dumps(resumed.as_dict(), sort_keys=True)
        reference_json, reference_bytes = self._reference(tmp_path)
        assert report_json == reference_json
        assert (out / "checkpoint.jsonl").read_bytes() == reference_bytes
        # the file set of an uninterrupted run at the same layout: no
        # atomic-writer temporary the kill tore survives the resume
        files = sorted(
            str(path.relative_to(out))
            for path in out.rglob("*")
            if path.is_file()
        )
        assert files == [
            "checkpoint.jsonl",
            *(f"spills/{s.spill_name}" for s in shard_plan(range(1, 7), 2, 1)),
        ]
