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

from repro.campaign.shardexec import (
    LeaseExecutor,
    TaskStatus,
    WorkerControl,
    _Pending,
)

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


def _report_then_crash_unless_marked(payload, ctl):
    """Report a fact, then die on the first attempt; answer on the next."""
    marker, value = payload
    first = not Path(marker).exists()
    ctl.report({"first": first})
    if first:
        Path(marker).touch()
        os._exit(137)
    return value


def _report_then_crash(payload, ctl):
    ctl.report({"built": 1})
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


def _pid_after_marker(payload, ctl):
    """Touch ``mine``; wait (bounded) for ``theirs``; report the pid."""
    mine, theirs = payload
    if mine is not None:
        Path(mine).touch()
    if theirs is not None:
        deadline = time.monotonic() + 10
        while not Path(theirs).exists() and time.monotonic() < deadline:
            time.sleep(0.01)
    return os.getpid(), theirs is None or Path(theirs).exists()


def _by_letter(key):
    """Affinity of the follow-up tests: ``"a0"`` -> ``"a"``."""
    return key[0]


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

    def test_facts_of_a_dead_worker_reach_the_outcome(self, tmp_path):
        executor = LeaseExecutor(_report_then_crash_unless_marked, jobs=2)
        result = executor.run([("t", (str(tmp_path / "marker"), "done"))])
        outcome = result.outcomes["t"]
        assert outcome.status is TaskStatus.OK and outcome.value == "done"
        assert outcome.attempts == 2
        # the crashed attempt's fact first, then the answering one's
        assert outcome.facts == [{"first": True}, {"first": False}]

    def test_quarantined_task_keeps_every_attempts_facts(self):
        executor = LeaseExecutor(_report_then_crash, jobs=2, max_redispatch=1)
        outcome = executor.run([("poison", None)]).outcomes["poison"]
        assert outcome.status is TaskStatus.CRASH
        assert outcome.facts == [{"built": 1}, {"built": 1}]

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


# -- follow-ups and affinity (both paths) ------------------------------------

_JOBS = (
    pytest.param(1, id="jobs1"),
    pytest.param(2, id="jobs2", marks=_needs_fork),
)


class TestFollowUps:
    @pytest.mark.parametrize("jobs", _JOBS)
    def test_follow_ups_run(self, jobs):
        executor = LeaseExecutor(_double, jobs=jobs)
        chain = {"a": [("b", 2)], "b": [("c", 3)]}
        result = executor.run(
            [("a", 1)], on_complete=lambda o: chain.get(o.key)
        )
        assert not result.interrupted
        assert {k: o.value for k, o in result.outcomes.items()} == {
            "a": 2,
            "b": 4,
            "c": 6,
        }

    @pytest.mark.parametrize("jobs", _JOBS)
    def test_duplicate_follow_up_key_rejected(self, jobs):
        executor = LeaseExecutor(_double, jobs=jobs)
        with pytest.raises(ValueError, match="not unique"):
            executor.run(
                [("a", 1), ("b", 2)],
                on_complete=lambda o: [("a", 5)] if o.key == "b" else None,
            )

    def test_stop_drops_follow_ups(self):
        ran = []

        def fn(payload, ctl):
            ran.append(payload)
            return payload

        executor = LeaseExecutor(fn, jobs=1)
        result = executor.run(
            [("a", 1)],
            on_complete=lambda o: [("b", 2)],
            stop=lambda: bool(ran),
        )
        assert result.interrupted
        assert ran == [1] and set(result.outcomes) == {"a"}


class TestAffinity:
    def test_serial_worker_runs_what_it_holds_first(self):
        order = []
        executor = LeaseExecutor(_double, jobs=1)
        executor.run(
            [("a0", 1), ("b0", 2), ("a1", 3), ("b1", 4)],
            on_complete=lambda o: order.append(o.key),
            affinity=_by_letter,
        )
        assert order == ["a0", "a1", "b0", "b1"]

    @_needs_fork
    def test_holding_worker_wins_over_an_idle_one(self, tmp_path):
        # x0 finishes at once on slot 0; a0 (slot 1) waits for it, so
        # both slots are idle when a0's follow-up a1 is queued.  Slot
        # order alone would hand a1 to slot 0; affinity sends it to the
        # worker that ran a0.
        done = str(tmp_path / "x0-done")
        executor = LeaseExecutor(_pid_after_marker, jobs=2)
        result = executor.run(
            [("x0", (done, None)), ("a0", (None, done))],
            on_complete=lambda o: (
                [("a1", (None, None))] if o.key == "a0" else None
            ),
            affinity=_by_letter,
        )
        pids = {k: o.value[0] for k, o in result.outcomes.items()}
        assert pids["x0"] != pids["a0"]
        assert pids["a1"] == pids["a0"]

    @_needs_fork
    def test_no_idling_when_only_held_tasks_remain(self, tmp_path):
        # both tasks share one affinity; each waits for the other to
        # start, which only happens if the second worker takes a task
        # the first one holds
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        executor = LeaseExecutor(_pid_after_marker, jobs=2)
        result = executor.run(
            [("a0", (first, second)), ("a1", (second, first))],
            affinity=_by_letter,
        )
        values = [o.value for o in result.outcomes.values()]
        assert all(met for _, met in values)
        assert len({pid for pid, _ in values}) == 2

    def test_serial_worker_never_idles_on_held_tasks(self):
        executor = LeaseExecutor(_double, jobs=1)
        result = executor.run(
            [("a0", 1), ("a1", 2), ("a2", 3)], affinity=_by_letter
        )
        assert {k: o.value for k, o in result.outcomes.items()} == {
            "a0": 2,
            "a1": 4,
            "a2": 6,
        }

    @pytest.mark.parametrize("jobs", _JOBS)
    def test_no_affinity_and_no_follow_ups_keep_fifo_grants(
        self, jobs, monkeypatch
    ):
        granted = []
        real = _Pending.take

        def take(self, *args, **kwargs):
            task = real(self, *args, **kwargs)
            if task is not None:
                granted.append(task[0])
            return task

        monkeypatch.setattr(_Pending, "take", take)
        executor = LeaseExecutor(_double, jobs=jobs)
        result = executor.run(
            [(i, i) for i in range(6)], on_complete=lambda o: None
        )
        assert granted == list(range(6))
        assert {k: o.value for k, o in result.outcomes.items()} == {
            i: 2 * i for i in range(6)
        }

    def test_grant_looks_past_busy_affinities_only(self):
        pending = _Pending(_by_letter)
        for key in ("a0", "a1", "b0", "c0", "a2"):
            pending.push(key, None, 1)
        assert pending.take(["c"], {"a"})[0] == "c0"  # held first
        assert pending.take([], {"a"})[0] == "b0"  # then nobody's
        assert pending.take([], {"a"})[0] == "a0"  # then the head
        pending.push("a0", None, 2)  # a re-queue goes to the back
        assert [pending.take([], set())[0] for _ in range(3)] == [
            "a1",
            "a2",
            "a0",
        ]
        assert not pending


class TestWorkerControl:
    def test_records_stages_and_recycle_flag(self):
        ctl = WorkerControl()
        ctl.heartbeat("probe")
        ctl.heartbeat("analyze")
        assert ctl.stages == ["probe", "analyze"]
        assert not ctl.recycle_requested
        ctl.request_recycle()
        assert ctl.recycle_requested

    def test_reported_facts_reach_inprocess_outcomes(self):
        def work(payload, ctl):
            ctl.report({"payload": payload})
            if payload:
                raise ValueError("boom")
            return payload

        result = LeaseExecutor(work, jobs=1).run([(0, 0), (1, 1)])
        assert result.outcomes[0].facts == [{"payload": 0}]
        assert result.outcomes[1].status is TaskStatus.ERROR
        assert result.outcomes[1].facts == [{"payload": 1}]
