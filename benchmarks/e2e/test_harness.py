"""Tests of the benchmark harness itself (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path

import pytest

from benchmarks.e2e import loadgen, workloads
from benchmarks.e2e.layers import new_recorder, per_layer_spec
from benchmarks.e2e.measure import latency_summary, percentile, tail_label
from benchmarks.e2e.spans import SpanRecorder, Target, instrument

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


class _Clock:
    """A clock that returns preset instants, one per call, thread-safely."""

    def __init__(self, *ticks: float) -> None:
        self._ticks = list(ticks)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._ticks.pop(0)


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    recorder = SpanRecorder(clock=_Clock(0.0, 0.0, 1.0, 3.0, 4.0, 5.0, 10.0))
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("other"):
            pass
    totals = recorder.totals()
    assert totals["outer"].inclusive == 10.0
    assert totals["outer"].self_s == 7.0
    assert totals["inner"].self_s == 2.0
    assert totals["other"].self_s == 1.0
    assert sum(t.self_s for t in totals.values()) == totals["outer"].inclusive


def test_self_time_ignores_spans_on_other_threads():
    recorder = SpanRecorder(clock=_Clock(0.0, 0.0, 1.0, 5.0, 6.0))

    def work() -> None:
        with recorder.span("worker"):
            pass

    with recorder.span("main"):
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(5)
        assert not worker.is_alive()
    totals = recorder.totals()
    assert totals["main"].self_s == 6.0
    assert totals["worker"].self_s == 4.0


def test_same_name_nesting_counts_self_once():
    recorder = SpanRecorder(clock=_Clock(0.0, 0.0, 2.0, 3.0, 4.0))
    with recorder.span("campaign"):
        with recorder.span("campaign"):
            pass
    total = recorder.totals()["campaign"]
    assert total.calls == 2
    assert total.self_s == 4.0


class _Sample:
    def work(self, n: int) -> int:
        return sum(self.rows(n))

    def rows(self, n: int):
        yield from range(n)


def test_instrument_wraps_and_restores():
    original_work = _Sample.__dict__["work"]
    recorder = SpanRecorder()
    seen = []
    targets = [
        Target(
            f"{__name__}:_Sample.work", "work", lambda r, a, k: seen.append(r)
        ),
        Target(f"{__name__}:_Sample.rows", "rows"),
    ]
    with instrument(recorder, targets):
        assert _Sample().work(3) == 3
    assert _Sample.__dict__["work"] is original_work
    assert seen == [3]
    totals = recorder.totals()
    assert totals["work"].calls == 1
    # one span per next(), the last one ending the generator
    assert totals["rows"].calls == 4


def test_instrument_refuses_a_missing_target_and_restores():
    original_work = _Sample.__dict__["work"]
    targets = [
        Target(f"{__name__}:_Sample.work", "work"),
        Target(f"{__name__}:_Sample.renamed", "renamed"),
    ]
    with pytest.raises(LookupError, match="_Sample.renamed"):
        with instrument(SpanRecorder(), targets):
            pass
    assert _Sample.__dict__["work"] is original_work


def test_trace_events_are_valid_chrome_json(tmp_path):
    recorder = SpanRecorder(event_cap=1)
    for _ in range(3):
        with recorder.span("a"):
            pass
    recorder.write_trace(tmp_path / "t.json")
    document = json.loads((tmp_path / "t.json").read_text())
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 1 and spans[0]["dur"] >= 0
    assert document["otherData"]["events_dropped"] == {"a": 2}


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize(
    "n, label",
    [
        (19, None),
        (20, "p50"),
        (39, "p50"),
        (40, "p75"),
        (100, "p90"),
        (999, "p95"),
        (1000, "p99"),
        (9999, "p99"),
        (10000, "p99.9"),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, label):
    assert tail_label(n) == label


def test_latency_summary_reports_median_and_supported_tail():
    seconds = [i / 1000.0 for i in range(1, 201)]
    summary = latency_summary(seconds)
    assert summary["n"] == 200
    assert summary["p50_ms"] == pytest.approx(100.5)
    assert summary["tail"] == "p95"
    expected = percentile(list(range(1, 201)), 95)
    assert summary["tail_ms"] == pytest.approx(expected)
    assert "tail" not in latency_summary(seconds[:39])


# -- timed units --------------------------------------------------------------


def test_units_stop_within_half_a_unit_and_run_between_only_between():
    calls = []

    def unit(k, timed):
        calls.append(f"unit{k}")
        timed.add(1.0, 10)

    timed = workloads._units(4.4, unit, lambda: calls.append("between"))
    # after four 1 s units, a fifth would end 0.6 s past the budget
    assert len(timed.seconds) == 4
    assert calls == [
        "unit0", "between", "unit1", "between", "unit2", "between", "unit3"
    ]
    assert timed.rate == 10.0
    assert len(workloads._units(0.1, unit).seconds) == 1


def test_setup_tops_up_to_the_minimum_and_reports_the_median():
    setup = workloads._Setup(lambda k: [3.0, 1.0, 2.0, 9.0][k], minimum=3)
    setup.once()
    assert setup.median() == 2.0
    assert setup.seconds == [3.0, 1.0, 2.0]


# -- load generator -----------------------------------------------------------


def test_open_loop_times_from_due_and_reports_lateness():
    delays = [0.15, 0.0, 0.0, 0.0, 0.0]

    async def send(_body, _submitter):
        await asyncio.sleep(delays.pop(0))
        return 202

    records = asyncio.run(
        loadgen.open_loop(send, [b""] * 5, rate=20.0, lanes=1)
    )
    # the stall of request 0 makes request 1 (due 50 ms in) go out late,
    # and its latency counts the wait from when it was due
    assert records[1].lateness >= 0.08
    assert records[1].latency >= records[1].done - records[1].sent + 0.08
    # by request 4 (due 200 ms in) the schedule has caught up
    assert records[4].lateness < 0.04
    assert all(r.status == 202 for r in records)
    assert [r.due for r in records] == sorted(r.due for r in records)


def test_closed_loop_sends_on_answer():
    async def send(_body, _submitter):
        await asyncio.sleep(0.01)
        return 202

    records = asyncio.run(loadgen.closed_loop(send, [b""] * 4, lanes=2))
    assert all(r.lateness == 0.0 for r in records)
    assert records[2].sent >= records[0].done


# -- workload smoke: every metric BENCHMARK.json names, with its unit ---------

TINY = {
    "portfolio": dict(ases=2, vps_per_as=2, targets_per_as=12, starts=1),
    "scale-lossy": dict(ases=2, vps_per_as=2, targets_per_as=12, starts=1),
    "redetect": dict(
        archive_ases=2, vps_per_as=2, targets_per_as=12, starts=1
    ),
    "service": dict(
        rates=(40,),
        replay_traces=64,
        replay_post=16,
        corpus_ases=2,
        corpus_vps=2,
        starts=1,
    ),
}


def _units(entries) -> dict:
    return {entry["name"]: entry["unit"] for entry in entries}


def test_benchmark_json_per_layer_matches_the_harness():
    assert _units(BENCHMARK["per_layer"]) == {
        name: unit for name, unit, _ in per_layer_spec()
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_smoke_reports_every_end_to_end_metric(name, tmp_path):
    outcome = workloads.WORKLOADS[name](3, 0.5, tmp_path, None, **TINY[name])
    assert outcome.correct, outcome.gates
    assert outcome.attempted >= 1 and outcome.failed == 0
    assert {k: unit for k, (_v, unit) in outcome.metrics.items()} == _units(
        BENCHMARK["end_to_end"]
    )
    assert all(value > 0 for value, _unit in outcome.metrics.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_smoke_reports_every_per_layer_metric(name, tmp_path):
    recorder = new_recorder()
    outcome = workloads.WORKLOADS[name](
        3, 0.5, tmp_path, recorder, **TINY[name]
    )
    assert outcome.correct, outcome.gates
    assert {k: unit for k, (_v, unit) in outcome.metrics.items()} == _units(
        BENCHMARK["per_layer"]
    )
