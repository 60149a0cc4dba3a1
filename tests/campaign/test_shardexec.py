"""Unit tests for the work-stealing lease executor.

Every failure mode the supervisor promises to contain is provoked
directly: worker crashes (re-dispatch then quarantine), lease expiry on
silent workers, deterministic exceptions (no re-dispatch), the RSS
watchdog's graceful recycle, and an answer that must win over a
deadline or lease judged before it was read.  The in-process ``jobs=1``
path is tested separately -- it must behave like a plain loop.
"""

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.campaign.shardexec import LeaseExecutor, TaskStatus, WorkerControl

_needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required for the worker pool",
)


# -- shard functions (module level: they run in worker processes) ------------


def _double(payload, ctl):
    ctl.heartbeat("work")
    return payload * 2


def _raise_on_odd(payload, ctl):
    ctl.heartbeat("work")
    if payload % 2:
        raise ValueError(f"odd payload {payload}")
    return payload


def _crash_unless_marked(payload, ctl):
    """Die hard on the first attempt; succeed once the marker exists."""
    marker, value = payload
    if not Path(marker).exists():
        Path(marker).touch()
        os._exit(137)
    return value


def _always_crash(payload, ctl):
    os._exit(137)


def _silent_unless_marked(payload, ctl):
    """Go silent past any lease on the first attempt; then answer."""
    marker, value = payload
    if not Path(marker).exists():
        Path(marker).touch()
        time.sleep(120)
    return value


def _answer(payload, ctl):
    return payload


def _report_pid_and_recycle(payload, ctl):
    ctl.request_recycle()
    return os.getpid()


# -- in-process path ---------------------------------------------------------


class TestInProcess:
    def test_plain_loop_semantics(self):
        executor = LeaseExecutor(_double, jobs=1)
        seen = []
        result = executor.run(
            [("a", 1), ("b", 2)], on_complete=lambda o: seen.append(o.key)
        )
        assert not result.interrupted
        assert {k: o.value for k, o in result.outcomes.items()} == {
            "a": 2,
            "b": 4,
        }
        assert seen == ["a", "b"]  # completion order == plan order

    def test_exception_isolated_per_shard(self):
        executor = LeaseExecutor(_raise_on_odd, jobs=1)
        result = executor.run([("even", 2), ("odd", 3), ("even2", 4)])
        assert result.outcomes["odd"].status is TaskStatus.ERROR
        assert "odd payload 3" in result.outcomes["odd"].error
        assert result.outcomes["even"].value == 2
        assert result.outcomes["even2"].value == 4  # loop continued

    def test_stop_interrupts_between_shards(self):
        calls = []

        def fn(payload, ctl):
            calls.append(payload)
            return payload

        executor = LeaseExecutor(fn, jobs=1)
        result = executor.run(
            [("a", 1), ("b", 2)], stop=lambda: bool(calls)
        )
        assert result.interrupted
        assert calls == [1]  # second shard never admitted

    def test_duplicate_keys_rejected(self):
        executor = LeaseExecutor(_double, jobs=1)
        with pytest.raises(ValueError, match="unique"):
            executor.run([("a", 1), ("a", 2)])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LeaseExecutor(_double, jobs=0)
        with pytest.raises(ValueError):
            LeaseExecutor(_double, lease_timeout=0)
        with pytest.raises(ValueError):
            LeaseExecutor(_double, watch_interval=0)
        with pytest.raises(ValueError):
            LeaseExecutor(_double, max_redispatch=-1)


# -- pooled path -------------------------------------------------------------


@_needs_fork
class TestPool:
    def test_pool_drains_all_shards(self):
        executor = LeaseExecutor(_double, jobs=2)
        tasks = [(i, i) for i in range(7)]
        result = executor.run(tasks)
        assert {k: o.value for k, o in result.outcomes.items()} == {
            i: 2 * i for i in range(7)
        }
        assert executor.stats["leases_granted"] == 7
        assert executor.stats["leases_renewed"] >= 7  # one hb per shard
        assert executor.stats["workers_spawned"] == 2

    def test_crashed_worker_is_replaced_and_shard_redispatched(
        self, tmp_path
    ):
        executor = LeaseExecutor(_crash_unless_marked, jobs=2)
        tasks = [
            (i, (str(tmp_path / f"marker-{i}"), i)) for i in range(3)
        ]
        result = executor.run(tasks)
        assert {k: o.value for k, o in result.outcomes.items()} == {
            0: 0,
            1: 1,
            2: 2,
        }
        assert executor.stats["workers_crashed"] == 3
        assert executor.stats["shards_redispatched"] == 3
        assert executor.stats["shards_quarantined"] == 0
        # every crashed worker was replaced by a fresh spawn
        assert executor.stats["workers_spawned"] >= 4

    def test_poison_shard_quarantined_past_budget(self, tmp_path):
        executor = LeaseExecutor(_always_crash, jobs=2, max_redispatch=1)
        result = executor.run([("poison", None)])
        outcome = result.outcomes["poison"]
        assert outcome.status is TaskStatus.CRASH
        assert outcome.attempts == 2  # original + one re-dispatch
        assert executor.stats["shards_quarantined"] == 1

    def test_lease_expiry_recovers_silent_worker(self, tmp_path):
        executor = LeaseExecutor(
            _silent_unless_marked,
            jobs=2,
            lease_timeout=0.4,
            watch_interval=0.05,
        )
        marker = str(tmp_path / "marker")
        result = executor.run([("slow", (marker, "answer"))])
        outcome = result.outcomes["slow"]
        assert outcome.status is TaskStatus.OK
        assert outcome.value == "answer"
        assert outcome.attempts == 2
        assert executor.stats["leases_expired"] == 1
        assert executor.stats["shards_redispatched"] == 1

    def test_exception_fails_fast_without_redispatch(self):
        executor = LeaseExecutor(_raise_on_odd, jobs=2, max_redispatch=3)
        result = executor.run([("odd", 3), ("even", 2)])
        odd = result.outcomes["odd"]
        assert odd.status is TaskStatus.ERROR
        assert odd.attempts == 1  # deterministic: retry would be futile
        assert "odd payload 3" in odd.error
        assert result.outcomes["even"].value == 2
        assert executor.stats["shards_redispatched"] == 0

    @pytest.mark.parametrize("bound", ["timeout", "lease_timeout"])
    def test_unread_answer_beats_an_expired_bound(self, bound):
        executor = LeaseExecutor(
            _answer, jobs=2, watch_interval=0.05, **{bound: 0.2}
        )
        real_pump = executor._pump
        stalled = []

        def stalled_pump(pool):
            """First poll: wait for the answer, leave it unread past
            the bound, so the supervisor judges an overdue worker whose
            result sits in its pipe."""
            if stalled:
                return real_pump(pool)
            stalled.append(True)
            (worker,) = [w for w in pool if w is not None]
            assert worker.conn.poll(10)  # the answer has arrived
            time.sleep(0.3)

        executor._pump = stalled_pump
        result = executor.run([("a", "answer")])
        outcome = result.outcomes["a"]
        assert outcome.status is TaskStatus.OK
        assert outcome.value == "answer"
        assert outcome.attempts == 1
        assert executor.stats["shards_redispatched"] == 0

    def test_recycle_requests_honoured_between_shards(self):
        executor = LeaseExecutor(_report_pid_and_recycle, jobs=2)
        result = executor.run([(i, None) for i in range(3)])
        pids = {o.value for o in result.outcomes.values()}
        assert len(pids) == 3  # every shard got a fresh process
        assert executor.stats["workers_recycled"] == 3
        assert executor.stats["workers_crashed"] == 0


class TestWorkerControl:
    def test_records_stages_and_recycle_flag(self):
        ctl = WorkerControl()
        ctl.heartbeat("probe")
        ctl.heartbeat("analyze")
        assert ctl.stages == ["probe", "analyze"]
        assert not ctl.recycle_requested
        ctl.request_recycle()
        assert ctl.recycle_requested
