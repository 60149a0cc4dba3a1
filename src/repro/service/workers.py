"""Detection workers: queue consumers with poison containment.

Each worker task loops ``queue.get_batch() → analyze → fold into
state``.  A wake-up takes up to :data:`~repro.core.pipeline.MAX_BATCH`
queued traces and analyzes them in **one** call of
:func:`~repro.service.state.batch_aggregate` -- one accumulator, one
projection, one merge into the live aggregate and one executor round
trip for the whole batch.  The analysis is a *pure* projection: it
touches no shared state, so the two failure modes a hostile input can
cause are both contained without corrupting the aggregate:

- **exception** -- the batch is discarded whole (its accumulator was
  private, nothing was folded) and re-run one trace at a time through
  :func:`~repro.service.state.analyze_trace`; only a trace that fails
  alone is quarantined, as a poison delta (collected + quarantined + a
  ``poison-trace`` anomaly, keeping the reconciliation invariant
  intact);
- **timeout** -- each analysis call runs on a worker-owned thread pool
  and is awaited with one ``detect_timeout`` deadline.  On expiry the
  future is abandoned (its eventual result, if any, is never read) and
  the pool is replaced so the hung thread cannot serialize later calls
  behind it; the batch is then retried trace by trace under the same
  deadline, so a hung trace is quarantined after two deadlines.

Either way the worker itself survives -- the acceptance criterion is
that no input can kill a worker -- and every dequeued trace is
accounted for exactly once (``task_done`` runs in a ``finally``).
"""

from __future__ import annotations

import asyncio
import logging
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from repro.core.pipeline import MAX_BATCH
from repro.service.ingest import IngestQueue
from repro.service.state import (
    SegmentAggregate,
    ServiceState,
    analyze_trace,
    batch_aggregate,
    poison_delta,
)

logger = logging.getLogger(__name__)


class WorkerPool:
    """Owns the detection worker tasks of one service instance."""

    def __init__(
        self,
        queue: IngestQueue,
        state: ServiceState,
        *,
        workers: int = 1,
        detect_timeout: float | None = 5.0,
        telemetry=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.queue = queue
        self.state = state
        self.workers = workers
        self.detect_timeout = detect_timeout
        self.telemetry = telemetry
        #: traces quarantined because their analysis failed or hung
        self.poisoned = 0
        #: traces that ran past the deadline when analyzed alone
        self.timeouts = 0
        #: analysis calls made (one per batch, plus one per retried trace)
        self.batches = 0
        self._tasks: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._stopping = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker tasks on the running loop."""
        self._stopping = False
        if self.detect_timeout is not None:
            self._executor = self._new_executor()
        self._tasks = [
            asyncio.create_task(self._run(i), name=f"arest-worker-{i}")
            for i in range(self.workers)
        ]

    async def stop(self) -> None:
        """Cancel every worker and wait for them to unwind.

        The flag backs the cancellation up: on 3.11, ``wait_for`` can
        swallow a cancellation that races the inner future's completion
        (the analysis result wins, the CancelledError is lost), and a
        worker whose cancel was eaten would otherwise re-block on an
        empty queue forever.  The loop re-checks the flag between
        batches, so a swallowed cancel still ends the worker.
        """
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def _new_executor(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="arest-detect"
        )

    # -- the loop ------------------------------------------------------------

    async def _run(self, index: int) -> None:
        while not self._stopping:
            batch = await self.queue.get_batch(MAX_BATCH)
            try:
                delta = await self._analyze(batch)
                self.state.ingest([seq for seq, _ in batch], delta)
                if self.state.compaction_due:
                    self._compact()
            except asyncio.CancelledError:
                raise
            except Exception:
                # folding a well-formed delta cannot fail; anything
                # here is a bug worth a log line, never a dead worker
                logger.exception("worker %d: unexpected error", index)
            finally:
                self.queue.task_done(len(batch))

    async def _analyze(self, batch: list) -> SegmentAggregate:
        """One batch's pure projection, bounded and contained.

        The whole batch is one call under one deadline.  If it raises or
        expires, it is discarded and every trace is re-run alone (a
        batch of one goes there directly: its call is the retry).
        Every dequeued trace lands exactly one ``detect`` latency
        observation -- a batch's seconds over its size, or a retried
        trace's own call -- so the histogram's count equals the traces
        dequeued and its tail shows the deadline ceiling.
        """
        if len(batch) > 1:
            tick = self._tick()
            try:
                delta = await self._call(
                    batch_aggregate, [trace for _, trace in batch]
                )
            except Exception as exc:
                logger.warning(
                    "batch of %d traces (seq %d..%d) failed, retrying "
                    "trace by trace: %s",
                    len(batch),
                    batch[0][0],
                    batch[-1][0],
                    _describe(exc),
                )
            else:
                self._observe(tick, len(batch))
                return delta
        total = SegmentAggregate()
        for seq, trace in batch:
            tick = self._tick()
            try:
                delta = await self._call(analyze_trace, trace)
            except asyncio.TimeoutError as exc:
                self.timeouts += 1
                delta = self._poison(seq, _describe(exc))
            except Exception as exc:
                delta = self._poison(seq, _describe(exc))
            self._observe(tick, 1)
            total.merge(delta)
        return total

    async def _call(self, analysis, subject) -> SegmentAggregate:
        """Run ``analysis(subject)`` (a batch or one trace) once, under
        the deadline when one is set.

        On expiry the hung thread is abandoned and the pool replaced,
        so later calls never queue behind it; the ``TimeoutError``
        propagates to the caller.
        """
        self.batches += 1
        call = partial(
            analysis, subject, asn=self.state.asn, pipeline=self.state.pipeline
        )
        if self._executor is None:
            return call()
        future = asyncio.get_running_loop().run_in_executor(
            self._executor, call
        )
        try:
            return await asyncio.wait_for(future, self.detect_timeout)
        except asyncio.TimeoutError:
            self._executor.shutdown(wait=False)
            self._executor = self._new_executor()
            raise

    def _tick(self) -> float | None:
        tel = self.telemetry
        return tel.clock() if tel is not None and tel.enabled else None

    def _observe(self, tick: float | None, traces: int) -> None:
        if tick is not None:
            seconds = (self.telemetry.clock() - tick) / traces
            self.telemetry.histogram("detect").observe_many(
                [seconds] * traces
            )

    def _poison(self, seq: int, detail: str) -> SegmentAggregate:
        self.poisoned += 1
        if self.telemetry is not None:
            self.telemetry.count("ingest_poisoned")
        return poison_delta(seq, detail)

    def _compact(self) -> None:
        if self.telemetry is not None:
            with self.telemetry.span("flush"):
                self.state.compact()
        else:
            self.state.compact()


def _describe(exc: Exception) -> str:
    if isinstance(exc, asyncio.TimeoutError):
        return "analysis deadline exceeded"
    return f"{type(exc).__name__}: {exc}"
