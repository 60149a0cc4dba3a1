"""The service's headline contract, Hypothesis-enforced.

Streaming the same traces -- in any arrival order, any batch split,
with compaction landing at any point, even across a recovery -- must
produce ``GET /segments`` bytes identical to the batch pipeline over
the same set.  The aggregate is order-independent by construction
(set unions and counter additions only); these properties guard the
construction.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.campaign.dataset import trace_from_json, trace_to_json
from repro.core.pipeline import ArestPipeline
from repro.service.state import (
    INGEST_FILENAME,
    MAX_BATCH,
    SNAPSHOT_FILENAME,
    SegmentAggregate,
    ServiceState,
    analyze_trace,
    batch_aggregate,
)
from repro.service.wire import decode_body
from repro.util.journal import rewrite_json_lines
from tests.conftest import scaled_examples
from tests.service.conftest import (
    corpus,
    texts,
    trace_lists,
    trace_strategy,
)


@st.composite
def _shuffled_with_splits(draw):
    """A trace list, an arrival order, and batch boundaries."""
    traces = draw(trace_lists)
    order = draw(st.permutations(range(len(traces))))
    boundaries = draw(
        st.lists(
            st.integers(min_value=0, max_value=max(len(traces), 1)),
            max_size=3,
        )
    )
    return traces, order, sorted(set(boundaries))


@st.composite
def _stream_with_restart(draw):
    """Accept batches, fold each in a drawn order, restart once."""
    traces = draw(st.lists(trace_strategy(), min_size=1, max_size=10))
    cuts = draw(
        st.lists(st.integers(min_value=0, max_value=len(traces)), max_size=4)
    )
    splits = [0, *sorted(set(cuts)), len(traces)]
    batches = [
        (lo, hi, draw(st.permutations(range(lo, hi))))
        for lo, hi in zip(splits, splits[1:])
    ]
    # the crash lands after accepting batch ``restart_at``: before its
    # traces are folded (recovery replays them) or after
    restart_at = draw(st.integers(min_value=0, max_value=len(batches) - 1))
    return (
        traces,
        batches,
        restart_at,
        draw(st.booleans()),
        draw(st.integers(min_value=1, max_value=3)),
    )


class _CountingPipeline(ArestPipeline):
    """The default pipeline, counting the accumulators it hands out."""

    accumulators = 0

    def accumulator(self, *args, **kwargs):
        self.accumulators += 1
        return super().accumulator(*args, **kwargs)


def _assert_same_bytes(
    batched: SegmentAggregate, per_trace: SegmentAggregate
) -> None:
    """``/segments`` bytes and snapshot bytes agree."""
    assert batched.segments_json() == per_trace.segments_json()
    assert json.dumps(batched.as_state_dict(), sort_keys=True) == (
        json.dumps(per_trace.as_state_dict(), sort_keys=True)
    )


def _reference_compaction(journal: bytes, upto: int, scratch: Path) -> bytes:
    """The journal rewrite by decoding: the oracle for byte compaction.

    Decode every line, keep ``seq > upto``, re-encode with
    ``trace_to_json`` -- what compaction did before it copied bytes.
    """
    header, *lines = journal.decode("utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    rewrite_json_lines(
        scratch,
        json.loads(header),
        (
            {
                "seq": record["seq"],
                "trace": trace_to_json(trace_from_json(record["trace"])),
            }
            for record in records
            if record["seq"] > upto
        ),
    )
    return scratch.read_bytes()


class TestStreamingEqualsBatch:
    @settings(max_examples=scaled_examples(30), deadline=None)
    @given(_shuffled_with_splits())
    def test_any_order_merges_to_the_batch_bytes(self, case):
        traces, order, boundaries = case
        per_trace = SegmentAggregate()
        for index in order:
            per_trace.merge(analyze_trace(traces[index]))
        # the same drawn order, folded batch by batch in the drawn splits
        arrived = [traces[index] for index in order]
        splits = [0, *boundaries, len(arrived)]
        batched = SegmentAggregate()
        for lo, hi in zip(splits, splits[1:]):
            batched.merge(batch_aggregate(arrived[lo:hi]))
        _assert_same_bytes(batched, per_trace)
        assert per_trace.segments_json(65001) == batch_aggregate(
            traces
        ).segments_json(65001)

    def test_batch_fold_crosses_its_chunk_boundary(self):
        traces = corpus(2 * MAX_BATCH + 3)
        pipeline = _CountingPipeline()
        batched = batch_aggregate(traces, pipeline=pipeline)
        assert pipeline.accumulators == 3
        per_trace = SegmentAggregate()
        for trace in traces:
            per_trace.merge(analyze_trace(trace))
        _assert_same_bytes(batched, per_trace)

    @settings(max_examples=scaled_examples(15), deadline=None)
    @given(_shuffled_with_splits())
    def test_durable_store_preserves_the_bytes_across_recovery(self, case):
        traces, order, boundaries = case
        expected = batch_aggregate(traces).segments_json()
        with tempfile.TemporaryDirectory() as tmp:
            state = ServiceState(tmp, snapshot_every=2)
            # accept in the drawn batch splits (journal order)...
            splits = [0, *boundaries, len(traces)]
            seqs: list[int] = []
            for lo, hi in zip(splits, splits[1:]):
                seqs.extend(state.accept(texts(traces[lo:hi])))
            assert sorted(seqs) == list(range(1, len(traces) + 1))
            # ...fold in the drawn arrival order, compacting when due
            for index in order:
                state.ingest(
                    [seqs[index]], analyze_trace(traces[index])
                )
                if state.compaction_due:
                    state.compact()
            assert state.aggregate.segments_json() == expected

            # a restart (snapshot + journal tail replay) keeps the bytes
            recovered = ServiceState(tmp, snapshot_every=2)
            recovered.recover()
            assert recovered.aggregate.segments_json() == expected

    def test_posted_text_survives_compaction_and_recovery(self, tmp_path):
        # what a client may send that our encoder never writes: raw
        # non-ASCII, JSON whitespace, another key order, an unknown key
        traces = corpus(8)
        lines = []
        for i, trace in enumerate(traces):
            record = trace_to_json(trace)
            record["vp"] = f"vp-\u00e9\u2028{i}"
            record["note"] = "unknown keys are ignored"
            shuffled = dict(reversed(list(record.items())))
            lines.append(
                " \t"
                + json.dumps(shuffled, ensure_ascii=False, indent=None)
                .replace(", ", " ,  ")
                + " \r"
            )
        decoded = decode_body("\n".join(lines))
        assert len(decoded.traces) == len(traces)
        assert all(not text.isascii() for text in decoded.texts)

        state = ServiceState(tmp_path, snapshot_every=3)
        seqs = state.accept(decoded.texts)
        for seq, trace in zip(seqs[:3], decoded.traces):
            state.ingest([seq], analyze_trace(trace))
        # the cut lands after three non-ASCII lines: offsets counted in
        # characters would slice the fourth line mid-record
        state.compact()
        journal = (tmp_path / INGEST_FILENAME).read_bytes().split(b"\n")
        assert [json.loads(line)["seq"] for line in journal[1:-1]] == (
            seqs[3:]
        )

        fresh = ServiceState(tmp_path, snapshot_every=3)
        info = fresh.recover()
        assert (info.replayed, info.damaged_lines) == (5, 0)
        assert fresh.aggregate.segments_json() == (
            batch_aggregate(decoded.traces).segments_json()
        )

    @settings(max_examples=scaled_examples(20), deadline=None)
    @given(_stream_with_restart())
    def test_compaction_is_byte_exact_across_a_restart(self, case):
        traces, batches, restart_at, before_fold, snapshot_every = case
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "state"
            journal = state_dir / INGEST_FILENAME

            def compact(state: ServiceState) -> None:
                before = journal.read_bytes()
                state.compact()
                upto = json.loads(
                    (state_dir / SNAPSHOT_FILENAME).read_text()
                )["seq"]
                assert journal.read_bytes() == _reference_compaction(
                    before, upto, Path(tmp) / "reference.jsonl"
                )

            def restart() -> ServiceState:
                fresh = ServiceState(state_dir, snapshot_every=snapshot_every)
                fresh.recover()
                return fresh

            state = restart()
            for index, (lo, hi, order) in enumerate(batches):
                seqs = state.accept(texts(traces[lo:hi]))
                crash = index == restart_at
                if crash and before_fold:
                    state = restart()
                    continue
                for position in order:
                    state.ingest(
                        [seqs[position - lo]], analyze_trace(traces[position])
                    )
                    if state.compaction_due:
                        compact(state)
                if crash:
                    state = restart()
            compact(state)

            expected = batch_aggregate(traces).segments_json()
            assert state.aggregate.segments_json() == expected
            assert restart().aggregate.segments_json() == expected
