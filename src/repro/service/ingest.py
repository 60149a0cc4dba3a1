"""Bounded ingest queue with explicit backpressure and fairness.

The queue between the HTTP front-end and the detection workers is the
service's memory bound: its capacity is the **only** buffer the service
holds for unprocessed traces (a batch a worker dequeued counts against
it until folded in), so RSS stays flat no matter how fast submitters
push.  Overflow is never silent -- admission is decided up
front and a refused batch becomes an HTTP 429 with ``Retry-After``,
which is the contract that lets well-behaved clients self-pace.

Three admission rules, checked in order:

1. **drain gate** -- a draining service admits nothing (the two-strike
   shutdown story: first signal stops intake, workers flush the tail);
2. **watermark hysteresis** -- once depth reaches the *high* watermark
   the queue saturates and refuses admissions until depth falls back to
   the *low* watermark.  The gap prevents 202/429 flapping right at the
   boundary: a saturated queue stays saturated long enough for
   ``Retry-After`` to mean something;
3. **per-submitter fairness** -- no single submitter may occupy more
   than ``fair_share`` queued slots, so one firehose client cannot
   starve the others out of an otherwise healthy queue.

Batches admit atomically: either every trace in the request fits (under
both the global and the per-submitter bound) or none is enqueued --
partial acceptance would force clients to diff their batch against the
response to learn what to retry.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import dataclass
from typing import Any

#: rejection reason labels (stable: Prometheus label values)
REASON_QUEUE_FULL = "queue-full"
REASON_SUBMITTER_QUOTA = "submitter-quota"
REASON_DRAINING = "draining"
#: the journal volume is out of space: nothing was acknowledged, the
#: journal is intact (torn tail at worst), clients should retry later
REASON_DISK_FULL = "disk-full"


@dataclass(frozen=True, slots=True)
class Admission:
    """Outcome of one batch admission check."""

    accepted: bool
    reason: str | None = None
    retry_after: float | None = None


class IngestQueue:
    """Bounded FIFO between the HTTP front-end and the workers."""

    def __init__(
        self,
        capacity: int = 1024,
        *,
        low_watermark: int | None = None,
        fair_share: int | None = None,
        retry_after: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: saturation clears only once depth falls to this level
        self.low_watermark = (
            low_watermark if low_watermark is not None else capacity // 2
        )
        if not 0 <= self.low_watermark < capacity:
            raise ValueError("low_watermark must be in [0, capacity)")
        #: max queued items any one submitter may hold
        self.fair_share = (
            fair_share
            if fair_share is not None
            else max(1, capacity - capacity // 4)
        )
        if self.fair_share < 1:
            raise ValueError("fair_share must be >= 1")
        self.retry_after = retry_after
        self._items: asyncio.Queue[Any] = asyncio.Queue()
        #: dequeued items not yet marked done (a worker's batch)
        self._in_flight = 0
        self._pending_by_submitter: Counter = Counter()
        self._saturated = False
        self._draining = False
        #: admission statistics (feeds /metrics and /report)
        self.accepted_total = 0
        self.rejected: Counter = Counter()
        #: highest depth ever observed (the bound the tests assert)
        self.peak_depth = 0

    # -- observability -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Traces accepted but not yet processed.

        Queued traces plus the ones a worker dequeued and has not marked
        done (its batch under analysis), so the capacity bounds every
        unprocessed trace the service holds, and a depth of 0 means
        every accepted trace is folded in.
        """
        return self._items.qsize() + self._in_flight

    @property
    def draining(self) -> bool:
        """True once :meth:`start_draining` was called."""
        return self._draining

    @property
    def saturated(self) -> bool:
        """True while the watermark hysteresis refuses admissions."""
        if self._saturated and self.depth <= self.low_watermark:
            self._saturated = False
        return self._saturated

    # -- admission -----------------------------------------------------------

    def admit(self, n: int, submitter: str) -> Admission:
        """Decide whether a batch of ``n`` traces may enter, atomically.

        Admission and :meth:`enqueue` are separate calls so the caller
        can durably journal the batch *between* them (journal is the
        source of truth of acceptance); with no ``await`` in between,
        the pair is atomic under the single-threaded event loop.
        """
        if self._draining:
            self.rejected[REASON_DRAINING] += n
            return Admission(False, REASON_DRAINING, self.retry_after)
        depth = self.depth
        if self.saturated or depth + n > self.capacity:
            if depth + n > self.capacity:
                self._saturated = True
            self.rejected[REASON_QUEUE_FULL] += n
            return Admission(False, REASON_QUEUE_FULL, self.retry_after)
        if self._pending_by_submitter[submitter] + n > self.fair_share:
            self.rejected[REASON_SUBMITTER_QUOTA] += n
            return Admission(False, REASON_SUBMITTER_QUOTA, self.retry_after)
        return Admission(True)

    def enqueue(self, batch: list, submitter: str) -> None:
        """Enqueue an admitted (and journaled) batch."""
        for item in batch:
            self._items.put_nowait((submitter, item))
        self._pending_by_submitter[submitter] += len(batch)
        self.accepted_total += len(batch)
        self.peak_depth = max(self.peak_depth, self.depth)

    def count_rejected(self, reason: str, n: int = 1) -> None:
        """Record refusals decided outside the queue (e.g. malformed)."""
        self.rejected[reason] += n

    # -- consumption ---------------------------------------------------------

    async def get_batch(self, limit: int) -> list:
        """Dequeue up to ``limit`` items, oldest first.

        Waits for the first item only; the rest are whatever is already
        queued, taken without waiting, so a batch never holds a trace
        back for company.  Each item's submitter slot frees immediately;
        the items count toward :attr:`depth` until :meth:`task_done`.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        batch = [self._release(await self._items.get())]
        while len(batch) < limit and not self._items.empty():
            batch.append(self._release(self._items.get_nowait()))
        return batch

    def _release(self, entry: tuple[str, Any]) -> Any:
        submitter, item = entry
        self._in_flight += 1
        self._pending_by_submitter[submitter] -= 1
        if self._pending_by_submitter[submitter] <= 0:
            del self._pending_by_submitter[submitter]
        return item

    async def join(self) -> None:
        """Wait until every enqueued item has been processed."""
        await self._items.join()

    def task_done(self, n: int = 1) -> None:
        """Mark ``n`` dequeued items fully processed (for :meth:`join`)."""
        for _ in range(n):
            self._items.task_done()
        self._in_flight -= n

    # -- lifecycle -----------------------------------------------------------

    def start_draining(self) -> None:
        """Refuse all further admissions (first shutdown strike)."""
        self._draining = True

    def drain_now(self) -> int:
        """Discard everything still queued (second strike); returns count.

        The discarded traces are *not* lost: they were journaled at
        accept time, so the next start replays them from disk.
        """
        dropped = 0
        while not self._items.empty():
            self._items.get_nowait()
            self._items.task_done()
            dropped += 1
        self._pending_by_submitter.clear()
        return dropped
