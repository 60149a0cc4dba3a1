"""Backpressure policy: bound, hysteresis, fairness, atomic batches."""

from __future__ import annotations

import pytest

from repro.service.ingest import (
    REASON_DRAINING,
    REASON_QUEUE_FULL,
    REASON_SUBMITTER_QUOTA,
    IngestQueue,
)


def _fill(queue: IngestQueue, n: int, submitter: str = "a") -> None:
    assert queue.admit(n, submitter).accepted
    queue.enqueue(list(range(n)), submitter)


class TestBound:
    def test_capacity_is_a_hard_bound(self):
        queue = IngestQueue(4, low_watermark=0, fair_share=4)
        _fill(queue, 4)
        outcome = queue.admit(1, "a")
        assert not outcome.accepted
        assert outcome.reason == REASON_QUEUE_FULL
        assert outcome.retry_after == queue.retry_after
        assert queue.depth == 4
        assert queue.peak_depth == 4

    def test_batches_admit_atomically(self):
        # 2 free slots, a 3-trace batch: all-or-nothing means nothing
        queue = IngestQueue(4, low_watermark=0, fair_share=4)
        _fill(queue, 2)
        assert not queue.admit(3, "a").accepted
        assert queue.depth == 2
        assert queue.rejected[REASON_QUEUE_FULL] == 3

    def test_rejection_counts_are_per_trace(self):
        queue = IngestQueue(2, low_watermark=0, fair_share=2)
        _fill(queue, 2)
        queue.admit(5, "a")
        assert queue.rejected[REASON_QUEUE_FULL] == 5


class TestHysteresis:
    def test_saturation_holds_until_low_watermark(self):
        queue = IngestQueue(4, low_watermark=1, fair_share=4)
        _fill(queue, 4)
        assert not queue.admit(1, "a").accepted  # saturates
        # draining to 2 is still above the low watermark: stay refused
        import asyncio

        async def pop(n):
            for _ in range(n):
                await queue.get_batch(1)
                queue.task_done()

        asyncio.run(pop(2))
        assert queue.depth == 2
        assert not queue.admit(1, "a").accepted
        # at the low watermark the gate reopens
        asyncio.run(pop(1))
        assert queue.depth == 1
        assert queue.admit(1, "a").accepted

    def test_unsaturated_queue_admits_at_any_depth(self):
        queue = IngestQueue(4, low_watermark=1, fair_share=4)
        _fill(queue, 3)
        assert queue.admit(1, "a").accepted


class TestFairness:
    def test_one_firehose_cannot_starve_the_rest(self):
        queue = IngestQueue(8, low_watermark=0, fair_share=3)
        _fill(queue, 3, "firehose")
        refused = queue.admit(1, "firehose")
        assert not refused.accepted
        assert refused.reason == REASON_SUBMITTER_QUOTA
        # a different submitter still gets in
        assert queue.admit(2, "polite").accepted

    def test_slots_free_as_items_are_consumed(self):
        import asyncio

        queue = IngestQueue(8, low_watermark=0, fair_share=2)
        _fill(queue, 2, "a")
        assert not queue.admit(1, "a").accepted

        async def pop_one():
            await queue.get_batch(1)
            queue.task_done()

        asyncio.run(pop_one())
        assert queue.admit(1, "a").accepted


class TestGetBatch:
    def test_takes_what_is_queued_up_to_the_limit(self):
        import asyncio

        queue = IngestQueue(8, low_watermark=0, fair_share=3)
        _fill(queue, 3, "a")
        queue.enqueue(["b0", "b1"], "b")

        async def run():
            first = await queue.get_batch(4)
            # the fifth item is already queued: no waiting for it
            rest = await asyncio.wait_for(queue.get_batch(4), timeout=1)
            return first, rest

        first, rest = asyncio.run(run())
        assert first == [0, 1, 2, "b0"]
        assert rest == ["b1"]
        # every dequeued item freed its submitter's slot
        assert queue.admit(3, "a").accepted
        assert queue.admit(3, "b").accepted

    def test_waits_for_the_first_item_only(self):
        import asyncio

        queue = IngestQueue(8)

        async def run():
            getter = asyncio.create_task(queue.get_batch(64))
            await asyncio.sleep(0)
            assert not getter.done()
            _fill(queue, 2)
            return await asyncio.wait_for(getter, timeout=1)

        assert asyncio.run(run()) == [0, 1]
        queue.task_done(2)
        assert queue.depth == 0

    def test_a_dequeued_batch_counts_until_done(self):
        import asyncio

        queue = IngestQueue(4, low_watermark=1, fair_share=4)
        _fill(queue, 4)
        batch = asyncio.run(queue.get_batch(3))
        # the batch is still unprocessed: depth and the bound keep it
        assert queue.depth == 4
        assert not queue.admit(1, "a").accepted
        queue.task_done(len(batch))
        assert queue.depth == 1
        assert queue.admit(3, "a").accepted

    def test_limit_must_be_positive(self):
        import asyncio

        with pytest.raises(ValueError):
            asyncio.run(IngestQueue(4).get_batch(0))


class TestLifecycle:
    def test_draining_gate(self):
        queue = IngestQueue(4)
        queue.start_draining()
        outcome = queue.admit(1, "a")
        assert not outcome.accepted
        assert outcome.reason == REASON_DRAINING

    def test_drain_now_empties_and_unblocks_join(self):
        import asyncio

        queue = IngestQueue(8)
        _fill(queue, 5)
        assert queue.drain_now() == 5
        assert queue.depth == 0

        async def join():
            await asyncio.wait_for(queue.join(), timeout=1)

        asyncio.run(join())

    def test_count_rejected_feeds_the_same_counter(self):
        queue = IngestQueue(4)
        queue.count_rejected("bad-json", 3)
        assert queue.rejected["bad-json"] == 3
