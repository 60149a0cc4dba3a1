"""The executor contract campaigns rely on: deadlines, watchdog, drain.

What :meth:`~repro.campaign.runner.CampaignRunner.run_portfolio` needs
from :class:`~repro.campaign.shardexec.LeaseExecutor`: a hard
per-attempt deadline, the heartbeat lease that catches a silent worker
before it, crash containment with one re-dispatch then quarantine, a
drain on :class:`GracefulShutdown`, and values independent of the pool.
Lease bookkeeping, work stealing and recycling are covered in
``test_shardexec.py``.

Worker functions live at module level so they survive pickling under
any multiprocessing start method.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.campaign.shardexec import (
    GracefulShutdown,
    LeaseExecutor,
    TaskStatus,
)

_needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required for the worker pool",
)


def well_behaved(payload, ctl):
    ctl.heartbeat("working")
    return payload * 10


def failing(payload, ctl):
    ctl.heartbeat("parsing")
    raise ValueError(f"bad payload {payload}")


def hang_on_two(payload, ctl):
    if payload == 2:
        ctl.heartbeat("hanging")
        time.sleep(600)
    return payload * 10


def chatty_hang_on_two(payload, ctl):
    """Hang while heartbeating: only a deadline can stop it."""
    while payload == 2:
        ctl.heartbeat("spinning")
        time.sleep(0.02)
    return payload * 10


def sigkill_on_two(payload, ctl):
    if payload == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return payload * 10


def crash_once_then_succeed(payload, ctl):
    # A *transient* crash: the marker file exists only on the first
    # attempt, so the one-shot re-dispatch rescues the task.
    marker, value = payload
    if os.path.exists(marker):
        os.unlink(marker)
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


class TestInProcessPath:
    def test_runs_all_tasks_in_order(self):
        engine = LeaseExecutor(well_behaved, jobs=1)
        result = engine.run([("a", 1), ("b", 2), ("c", 3)])
        assert [o.value for o in result.outcomes.values()] == [10, 20, 30]
        assert list(result.outcomes) == ["a", "b", "c"]
        assert not result.interrupted
        assert all(
            o.status is TaskStatus.OK and o.last_stage == "working"
            for o in result.outcomes.values()
        )

    def test_error_isolation(self):
        engine = LeaseExecutor(failing, jobs=1)
        result = engine.run([("a", 1)])
        outcome = result.outcomes["a"]
        assert outcome.status is TaskStatus.ERROR
        assert "ValueError: bad payload 1" in outcome.error
        assert outcome.last_stage == "parsing"

    def test_stop_flag_interrupts_between_tasks(self):
        shutdown = GracefulShutdown()
        seen = []

        def fn(payload, ctl):
            seen.append(payload)
            if payload == 2:
                shutdown.request()
            return payload

        result = LeaseExecutor(fn, jobs=1).run(
            [(k, k) for k in (1, 2, 3)], stop=shutdown
        )
        assert result.interrupted
        assert seen == [1, 2]  # task 3 never dispatched
        assert 3 not in result.outcomes

    def test_duplicate_keys_rejected(self):
        # checked before any worker exists, on the pool path too
        engine = LeaseExecutor(well_behaved, jobs=2)
        with pytest.raises(ValueError, match="unique"):
            engine.run([("a", 1), ("a", 2)])
        assert engine.stats["workers_spawned"] == 0

    def test_on_complete_fires_per_task(self):
        completions = []
        result = LeaseExecutor(well_behaved, jobs=1).run(
            [("a", 1), ("b", 2)], on_complete=completions.append
        )
        assert completions == list(result.outcomes.values())


@_needs_fork
class TestSupervisedPool:
    def test_parallel_results_match_serial(self):
        tasks = [(k, k) for k in range(6)]
        serial = LeaseExecutor(well_behaved, jobs=1).run(tasks)
        parallel = LeaseExecutor(well_behaved, jobs=3).run(tasks)
        assert {k: o.value for k, o in parallel.outcomes.items()} == {
            k: o.value for k, o in serial.outcomes.items()
        }

    def test_worker_exception_reported(self):
        engine = LeaseExecutor(failing, jobs=2)
        result = engine.run([("a", 7)])
        outcome = result.outcomes["a"]
        assert outcome.status is TaskStatus.ERROR
        assert "ValueError: bad payload 7" in outcome.error
        assert outcome.last_stage == "parsing"
        assert "parsing" in outcome.stage_seconds

    def test_hung_worker_is_quarantined_and_rest_complete(self):
        engine = LeaseExecutor(
            chatty_hang_on_two,
            jobs=2,
            timeout=0.4,
            watch_interval=0.05,
            max_redispatch=1,
        )
        start = time.monotonic()
        result = engine.run([(k, k) for k in (1, 2, 3)])
        elapsed = time.monotonic() - start
        assert result.outcomes[1].value == 10
        assert result.outcomes[3].value == 30
        victim = result.outcomes[2]
        assert victim.status is TaskStatus.TIMEOUT
        assert victim.attempts == 2  # one re-dispatch, then quarantine
        assert "deadline" in victim.error
        # Two 0.4s deadlines plus watchdog slack, nowhere near the
        # forever the task wanted to spin.
        assert elapsed < 5

    def test_heartbeat_watchdog_catches_silent_worker_early(self):
        engine = LeaseExecutor(
            hang_on_two,
            jobs=2,
            timeout=30,  # generous deadline: the lease must trip first
            lease_timeout=0.3,
            watch_interval=0.05,
        )
        start = time.monotonic()
        result = engine.run([(2, 2)])
        elapsed = time.monotonic() - start
        victim = result.outcomes[2]
        assert victim.status is TaskStatus.LEASE_EXPIRED
        assert victim.attempts == 2
        assert victim.last_stage == "hanging"
        assert elapsed < 5

    def test_sigkilled_worker_is_contained(self):
        engine = LeaseExecutor(sigkill_on_two, jobs=2, watch_interval=0.05)
        result = engine.run([(k, k) for k in (1, 2, 3)])
        assert result.outcomes[1].value == 10
        assert result.outcomes[3].value == 30
        victim = result.outcomes[2]
        assert victim.status is TaskStatus.CRASH
        assert "died without a result" in victim.error
        assert victim.attempts == 2

    def test_transient_crash_survives_via_redispatch(self, tmp_path):
        marker = tmp_path / "crash-once"
        marker.touch()
        engine = LeaseExecutor(
            crash_once_then_succeed, jobs=2, watch_interval=0.05
        )
        result = engine.run([("a", (str(marker), 4))])
        outcome = result.outcomes["a"]
        assert outcome.status is TaskStatus.OK
        assert outcome.value == 40
        assert outcome.attempts == 2

    def test_stage_heartbeats_surface_in_outcome(self):
        result = LeaseExecutor(well_behaved, jobs=2).run([("a", 1)])
        assert result.outcomes["a"].last_stage == "working"


class TestValidation:
    def test_rejects_bad_parameters(self):
        for timeout in (0, -1.0):
            with pytest.raises(ValueError, match="timeout"):
                LeaseExecutor(well_behaved, timeout=timeout)
        LeaseExecutor(well_behaved, timeout=None)  # unbounded is fine
