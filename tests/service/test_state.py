"""Crash-safe state store: journal, snapshot, recovery, invariant."""

from __future__ import annotations

import asyncio
import errno
import json
import logging
import os

import pytest

from repro.campaign.dataset import trace_to_json
from repro.service.ingest import IngestQueue
from repro.service.state import (
    INGEST_FILENAME,
    SNAPSHOT_FILENAME,
    SegmentAggregate,
    ServiceState,
    StateMismatchError,
    analyze_trace,
    batch_aggregate,
)
from repro.service.wire import decode_body
from repro.service.workers import WorkerPool
from repro.util.atomicio import DiskFullError
from tests.service.conftest import corpus, texts


def _feed_all(state: ServiceState, traces) -> None:
    seqs = state.accept(texts(traces))
    for seq, trace in zip(seqs, traces):
        state.ingest([seq], analyze_trace(trace, asn=state.asn))


class TestJournalRoundTrip:
    def test_recovery_rebuilds_the_exact_aggregate(self, tmp_path):
        traces = corpus(5)
        state = ServiceState(tmp_path)
        assert state.recover().replayed == 0
        _feed_all(state, traces)

        fresh = ServiceState(tmp_path)
        info = fresh.recover()
        assert info.replayed == 5
        assert fresh.aggregate.segments_json() == (
            batch_aggregate(traces).segments_json()
        )

    def test_accept_is_durable_before_return(self, tmp_path):
        # the journal line is on disk when accept() returns -- that is
        # the whole 202 contract
        state = ServiceState(tmp_path)
        state.accept(texts(corpus(1)))
        lines = (tmp_path / INGEST_FILENAME).read_text().splitlines()
        assert len(lines) == 2  # header + one trace
        assert json.loads(lines[1])["seq"] == 1


class TestVerbatimJournal:
    def test_encoder_lines_journal_as_a_re_encode_would(self, tmp_path):
        traces = corpus(5)
        state = ServiceState(tmp_path)
        seqs = state.accept(texts(traces))
        lines = (tmp_path / INGEST_FILENAME).read_bytes().split(b"\n")
        assert lines[1:] == [
            (
                json.dumps({"seq": seq, "trace": trace_to_json(trace)})
            ).encode("ascii")
            for seq, trace in zip(seqs, traces)
        ] + [b""]

    def test_a_text_with_a_newline_is_refused_whole(self, tmp_path):
        state = ServiceState(tmp_path)
        state.accept(texts(corpus(1)))
        journal = (tmp_path / INGEST_FILENAME).read_bytes()
        good, torn = texts(corpus(2))
        with pytest.raises(ValueError):
            state.accept([good, torn.replace(", ", ",\n", 1)])
        with pytest.raises(TypeError):
            state.accept(corpus(1))
        assert (tmp_path / INGEST_FILENAME).read_bytes() == journal
        assert state.accept([good]) == [2]


class TestTornTail:
    def test_torn_final_line_is_salvaged(self, tmp_path):
        traces = corpus(4)
        state = ServiceState(tmp_path)
        state.accept(texts(traces))
        journal = tmp_path / INGEST_FILENAME
        text = journal.read_text()
        # tear the last line mid-record, as a kill -9 mid-append would
        journal.write_text(text[: len(text) - 25])

        fresh = ServiceState(tmp_path)
        info = fresh.recover()
        assert info.replayed == 3
        assert info.damaged_lines == 1
        assert fresh.aggregate.segments_json() == (
            batch_aggregate(traces[:3]).segments_json()
        )
        # the tail was compacted away: next recovery is clean
        again = ServiceState(tmp_path)
        assert again.recover().damaged_lines == 0

    def test_sequence_numbering_resumes_after_salvage(self, tmp_path):
        traces = corpus(3)
        state = ServiceState(tmp_path)
        state.accept(texts(traces))
        journal = tmp_path / INGEST_FILENAME
        journal.write_text(journal.read_text()[:-20])

        fresh = ServiceState(tmp_path)
        fresh.recover()
        # the torn seq 3 was never acknowledged; reusing it is fine
        assert fresh.accept(texts(corpus(1))) == [3]

    def test_unterminated_final_line_is_torn_even_if_it_parses(
        self, tmp_path
    ):
        traces = corpus(4)
        state = ServiceState(tmp_path)
        state.accept(texts(traces[:3]))
        journal = tmp_path / INGEST_FILENAME
        # the append died between the record and its newline
        journal.write_bytes(journal.read_bytes()[:-1])

        fresh = ServiceState(tmp_path)
        info = fresh.recover()
        assert (info.replayed, info.damaged_lines) == (2, 1)
        # so the next append starts on a line boundary
        fresh.accept(texts(traces[3:]))
        again = ServiceState(tmp_path)
        assert again.recover().damaged_lines == 0
        assert again.aggregate.segments_json() == (
            batch_aggregate([*traces[:2], traces[3]]).segments_json()
        )


def _refuse_next_append(monkeypatch, journal, landed=None) -> None:
    """Fail the next fsync with ENOSPC, as a full journal volume would.

    The torn-ENOSPC emulation of the checkpoint tests: ``landed`` bytes
    of the refused append reach the file first (``None``: all of them,
    only the durability barrier fails).  Later fsyncs go through.
    """
    real_fsync = os.fsync
    size = journal.stat().st_size
    calls = []

    def torn_fsync(fd):
        calls.append(fd)
        if len(calls) > 1:
            return real_fsync(fd)
        if landed is not None:
            os.ftruncate(fd, size + landed)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("repro.util.atomicio.os.fsync", torn_fsync)


class TestRefusedAppend:
    def test_refused_batch_uses_no_seq(self, tmp_path, monkeypatch):
        traces = corpus(6)
        state = ServiceState(tmp_path, snapshot_every=6)
        _feed_all(state, traces[:2])
        _refuse_next_append(monkeypatch, tmp_path / INGEST_FILENAME)
        with pytest.raises(DiskFullError):
            state.accept(texts(traces[2:4]))
        monkeypatch.undo()
        seqs = state.accept(texts(traces[2:6]))
        assert seqs == [3, 4, 5, 6]
        for seq, trace in zip(seqs, traces[2:6]):
            state.ingest([seq], analyze_trace(trace))
        # nothing is stuck ahead of the watermark, so compaction fires
        assert state.fed_watermark == 6
        assert state.compaction_due

    @pytest.mark.parametrize(
        "landed", [7, None], ids=["torn-line", "fsync-failed"]
    )
    def test_refused_batch_leaves_the_journal_as_it_was(
        self, tmp_path, monkeypatch, landed
    ):
        traces = corpus(8)
        state = ServiceState(tmp_path)
        _feed_all(state, traces[:2])
        journal = tmp_path / INGEST_FILENAME
        before = journal.read_bytes()
        _refuse_next_append(monkeypatch, journal, landed)
        with pytest.raises(DiskFullError):
            state.accept(texts(traces[2:4]))
        monkeypatch.undo()
        assert journal.read_bytes() == before
        # the client retries the refused batch, then sends more
        _feed_all(state, traces[2:8])

        fresh = ServiceState(tmp_path)
        info = fresh.recover()
        assert info.damaged_lines == 0
        assert info.replayed == 8
        assert fresh.aggregate.segments_json() == (
            batch_aggregate(traces).segments_json()
        )

    def test_failed_truncation_is_rewritten_by_the_next_accept(
        self, tmp_path, monkeypatch
    ):
        traces = corpus(6)
        state = ServiceState(tmp_path)
        _feed_all(state, traces[:2])
        journal = tmp_path / INGEST_FILENAME
        before = journal.read_bytes()

        def broken_truncate():
            raise OSError(errno.EIO, "I/O error")

        monkeypatch.setattr(state, "_truncate_journal", broken_truncate)
        _refuse_next_append(monkeypatch, journal, landed=7)
        with pytest.raises(DiskFullError):
            state.accept(texts(traces[2:4]))
        monkeypatch.undo()
        assert journal.read_bytes() != before  # the torn bytes stayed
        _feed_all(state, traces[2:6])
        assert journal.read_bytes().startswith(before)

        fresh = ServiceState(tmp_path)
        info = fresh.recover()
        assert (info.damaged_lines, info.replayed) == (0, 6)
        assert fresh.aggregate.segments_json() == (
            batch_aggregate(traces).segments_json()
        )


class TestSnapshotCompaction:
    def test_compaction_truncates_the_journal(self, tmp_path):
        traces = corpus(6)
        state = ServiceState(tmp_path, snapshot_every=4)
        _feed_all(state, traces)
        assert state.compaction_due
        state.compact()
        assert (tmp_path / SNAPSHOT_FILENAME).exists()
        lines = (tmp_path / INGEST_FILENAME).read_text().splitlines()
        assert len(lines) == 1  # header only: everything is covered

        fresh = ServiceState(tmp_path, snapshot_every=4)
        info = fresh.recover()
        assert info.snapshot_seq == 6
        assert info.replayed == 0
        assert fresh.aggregate.segments_json() == (
            batch_aggregate(traces).segments_json()
        )

    def test_crash_between_snapshot_and_truncate_double_counts_nothing(
        self, tmp_path
    ):
        traces = corpus(5)
        state = ServiceState(tmp_path)
        _feed_all(state, traces)
        journal_before = (tmp_path / INGEST_FILENAME).read_bytes()
        state.compact()
        # simulate the crash window: snapshot landed, truncate did not
        (tmp_path / INGEST_FILENAME).write_bytes(journal_before)

        fresh = ServiceState(tmp_path)
        info = fresh.recover()
        assert info.replayed == 0  # every line is covered by seq
        assert fresh.aggregate.segments_json() == (
            batch_aggregate(traces).segments_json()
        )

    def test_compaction_waits_for_the_watermark(self, tmp_path):
        traces = corpus(3)
        state = ServiceState(tmp_path, snapshot_every=1)
        seqs = state.accept(texts(traces))
        # fold seq 2 ahead of seq 1: compaction must refuse
        state.ingest([seqs[1]], analyze_trace(traces[1]))
        assert not state.compaction_due
        with pytest.raises(RuntimeError):
            state.compact()
        state.ingest([seqs[0]], analyze_trace(traces[0]))
        state.ingest([seqs[2]], analyze_trace(traces[2]))
        assert state.fed_watermark == 3
        assert state.compaction_due

    def test_batched_ingest_advances_over_every_seq(self, tmp_path):
        traces = corpus(6)
        state = ServiceState(tmp_path, snapshot_every=6)
        seqs = state.accept(texts(traces))
        # the second batch folds first: the watermark waits for the first
        state.ingest(seqs[3:], batch_aggregate(traces[3:]))
        assert state.fed_watermark == 0
        assert not state.compaction_due
        state.ingest(seqs[:3], batch_aggregate(traces[:3]))
        assert state.fed_watermark == 6
        assert state.compaction_due
        assert state.aggregate.segments_json() == (
            batch_aggregate(traces).segments_json()
        )

    def test_garbled_snapshot_falls_back_to_the_journal(self, tmp_path):
        traces = corpus(3)
        state = ServiceState(tmp_path)
        _feed_all(state, traces)
        (tmp_path / SNAPSHOT_FILENAME).write_text("{torn")

        fresh = ServiceState(tmp_path)
        info = fresh.recover()
        assert info.replayed == 3
        assert fresh.aggregate.segments_json() == (
            batch_aggregate(traces).segments_json()
        )


class TestPoisonReplay:
    def test_recovery_quarantines_what_the_worker_quarantined(
        self, tmp_path, caplog
    ):
        # a string probe TTL decodes (the codec does not type-check
        # it) but makes the analysis raise: the live worker quarantines
        # it, and so must a replay after kill -9
        posted = texts(corpus(6))
        record = json.loads(posted[2])
        record["hops"][0]["ttl"] = "1"
        posted[2] = json.dumps(record)
        decoded = decode_body("\n".join(posted))
        assert not decoded.rejections
        with pytest.raises(TypeError):
            batch_aggregate(decoded.traces)

        async def live() -> tuple[ServiceState, WorkerPool]:
            state = ServiceState(tmp_path)
            state.recover()
            queue = IngestQueue()
            pool = WorkerPool(queue, state, detect_timeout=None)
            queue.enqueue(
                list(zip(state.accept(decoded.texts), decoded.traces)),
                "test",
            )
            pool.start()
            await asyncio.wait_for(queue.join(), timeout=60)
            await pool.stop()
            return state, pool

        state, pool = asyncio.run(live())
        assert pool.poisoned == 1

        # nothing was compacted: the restart replays all six lines
        fresh = ServiceState(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.service.state"):
            info = fresh.recover()
        assert info.replayed == 6
        assert fresh.aggregate.report_dict() == state.aggregate.report_dict()
        assert fresh.aggregate.anomaly_counts["poison-trace"] == 1
        assert any(
            "seq=3 quarantined as poison" in r.getMessage()
            for r in caplog.records
        )


class TestConfigGuards:
    def test_differently_configured_state_dir_is_refused(self, tmp_path):
        state = ServiceState(tmp_path, asn=65001)
        state.accept(texts(corpus(1)))
        with pytest.raises(StateMismatchError):
            ServiceState(tmp_path, asn=65002).recover()

    def test_foreign_file_is_not_a_journal(self, tmp_path):
        (tmp_path / INGEST_FILENAME).write_text("not a journal\n")
        with pytest.raises(StateMismatchError):
            ServiceState(tmp_path).recover()


class TestAggregateInvariant:
    def test_poison_delta_keeps_the_reconciliation_invariant(self):
        total = batch_aggregate(corpus(4))
        before = total.traces_collected
        total.merge(SegmentAggregate.poison())
        assert total.traces_collected == before + 1
        assert (
            total.traces_analyzed + total.traces_quarantined
            == total.traces_collected
        )
        assert total.anomaly_counts["poison-trace"] == 1

    def test_invariant_violations_are_loud(self):
        bad = SegmentAggregate(traces_collected=1, traces_quarantined=2)
        with pytest.raises(AssertionError):
            bad.check_invariant()

    def test_state_dict_round_trip(self):
        total = batch_aggregate(corpus(6))
        total.merge(SegmentAggregate.poison())
        clone = SegmentAggregate.from_state_dict(
            json.loads(json.dumps(total.as_state_dict()))
        )
        assert clone.segments_json(65001) == total.segments_json(65001)
        assert clone.report_dict() == total.report_dict()
