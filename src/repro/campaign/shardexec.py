"""The campaign executor: keyed tasks on persistent, leased workers.

Every campaign dispatches through :class:`LeaseExecutor`, from the one
campaign lease loop (:func:`~repro.campaign.scale.run_lease_loop`),
which both :meth:`~repro.campaign.runner.CampaignRunner.run_portfolio`
and :class:`~repro.campaign.scale.ScaleCampaign` run on: one task per
one-bucket AS, one per shard of a split AS plus its analysis.  A fixed
pool of **persistent workers** *pulls* work: a worker
that finishes early immediately claims the next pending task, so fast
workers steal the queue out from under slow ones and the pool drains at
the speed of its healthiest members (self-scheduling pull is work
stealing with one shared deque).

Persistence raises the stakes on failure -- a wedged worker blocks a
whole stream of tasks, not one -- so every claim is bounded:

- granting a task to a worker starts a **lease** of ``lease_timeout``
  seconds; every message from the worker (stage heartbeats, facts,
  results) renews it.  A worker whose lease expires is presumed lost;
- with ``timeout`` set, an attempt still running that long after its
  grant has missed its **deadline**, however chatty the worker is;
- a lost or late worker is SIGKILLed and replaced, and its task
  returns to the queue; likewise a worker that dies outright (OOM
  kill, segfault, ``kill -9``) -- detected by its corpse;
- re-dispatch is bounded (``max_redispatch``); a task that keeps
  killing workers is quarantined -- its final outcome carries the
  ``TIMEOUT``, ``LEASE_EXPIRED`` or ``CRASH`` status -- instead of
  poisoning the pool forever.

A delivered answer always wins: the supervisor reads a worker's pipe
before judging it, so a result that arrived just before a deadline,
a lease expiry or the worker's exit is settled ``OK``, never re-run.

A task can also **report** facts about its work (a dict, e.g. what it
built and how much memory it took) the moment they are true.  They
travel on the heartbeat pipe, so they reach the supervisor even when
the worker later dies or loses its lease and its result never comes;
the final outcome carries the facts of every attempt.

Workers can also ask to be **recycled**: the request is honoured
*between* tasks -- the worker delivers its result and exits cleanly;
the supervisor spawns a fresh process for the next claim.  The RSS
watchdog uses it to degrade gracefully under memory pressure, and the
classic runner after a failed AS, so a failed task's interpreter never
serves the next one.  A raising task function always ends its worker.

Two capabilities let a caller chain and place work:

- **follow-ups**: ``on_complete`` may return more ``(key, payload)``
  tasks, queued the moment the outcome settles (the scale plane queues
  an AS's analysis when its last shard banks);
- **affinity**: an optional ``affinity(key)`` names what a task wants
  a worker to hold (an AS whose topology it cached).  An idle worker
  prefers a task whose affinity it was last granted (the most recent
  :data:`HELD_AFFINITIES`), failing that one no busy worker is on,
  failing that the head of the queue -- so a worker never idles while
  work is pending.  Pending tasks are indexed by affinity, so a grant
  costs O(jobs), never a scan of the queue.

A :class:`GracefulShutdown` flag (SIGINT or SIGTERM) passed as ``stop``
halts granting, follow-ups included, drains in-flight tasks (deadlines
and leases still enforced) and marks the result ``interrupted``.

Determinism: the executor imposes no ordering -- outcomes are keyed,
and callers that assemble results in plan order get byte-identical
output for any ``jobs`` value, because each task is itself a pure
function of the campaign config.  ``jobs=1`` runs every task
in-process with no subprocess, no pickling, no leases and no
deadlines: exactly a plain loop.

Hand-off: a pooled task's return value travels back whole, pickled
over its worker's pipe, and the supervisor unpickles it alone, so its
cost bounds what ``jobs > 1`` can gain.  A classic-plane whole-AS task
returns its full ``AsCampaignResult``: every trace, hop and detected
segment.  Those records pickle as one constructor call each (their
``__reduce__``), and cyclic GC is paused around the transfer on both
ends (:func:`_gc_paused`).
"""

from __future__ import annotations

import enum
import gc
import logging
import multiprocessing
import os
import signal
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Iterable, Sequence

logger = logging.getLogger(__name__)

#: task callable: ``fn(payload, ctl)`` with ``ctl.heartbeat(note)`` for
#: liveness/lease renewal, ``ctl.report(facts)`` for facts that must
#: survive the worker, and ``ctl.request_recycle()`` for a graceful
#: between-tasks process replacement
ShardFn = Callable[[Any, "WorkerControl"], Any]

#: how many of its most recently granted affinities a worker is presumed
#: to still hold (the scale plane's per-worker context cache holds as many)
HELD_AFFINITIES = 4


class TaskStatus(enum.Enum):
    """How one task ended."""

    OK = "ok"
    #: the task function raised (deterministic failure; never re-dispatched)
    ERROR = "error"
    #: the attempt outran its deadline and its worker was killed
    TIMEOUT = "timeout"
    #: the worker went silent past its lease and was killed
    LEASE_EXPIRED = "lease-expired"
    #: the worker process died without delivering a result
    CRASH = "crash"


@dataclass(slots=True)
class TaskOutcome:
    """Final state of one task after supervision (and any re-dispatch)."""

    key: Any
    status: TaskStatus
    #: the task function's return value (``OK`` only)
    value: Any = None
    #: error description (every status but ``OK``)
    error: str | None = None
    #: dispatch attempts consumed (> 1 means the task was re-dispatched)
    attempts: int = 1
    #: last heartbeat note received from the worker, if any
    last_stage: str | None = None
    #: supervisor-observed wall-clock seconds per heartbeat stage, for
    #: tasks that never returned a value -- the post-mortem of where a
    #: killed worker spent its life
    stage_seconds: dict[str, float] | None = None
    #: facts the task reported (:meth:`WorkerControl.report`), over
    #: every attempt in order, those of killed or dead workers included
    facts: list[dict] = field(default_factory=list)


@dataclass(slots=True)
class ExecutionResult:
    """Everything :meth:`LeaseExecutor.run` observed."""

    #: final outcome per task key (tasks never dispatched are absent)
    outcomes: dict[Any, TaskOutcome] = field(default_factory=dict)
    #: True when a shutdown request cut the batch short
    interrupted: bool = False


class GracefulShutdown:
    """Context manager turning SIGINT/SIGTERM into a drain request.

    Inside the block the first signal sets :attr:`requested` instead of
    raising, so the supervisor can stop dispatching, drain in-flight
    workers and flush durable state.  A second SIGINT restores the
    default handler's behaviour (KeyboardInterrupt) for operators who
    really mean it.  Previous handlers are restored on exit; when not
    running in the main thread (where ``signal`` refuses handlers) the
    manager degrades to a plain manual flag.
    """

    def __init__(self) -> None:
        self.requested = False
        self._previous: dict[int, Any] = {}
        self._strikes = 0

    def __call__(self) -> bool:
        return self.requested

    def request(self) -> None:
        """Request shutdown programmatically (tests, embedding)."""
        self.requested = True

    def _handle(self, signum: int, frame) -> None:
        self.requested = True
        self._strikes += 1
        logger.warning(
            "received %s: draining in-flight work (repeat to force)",
            signal.Signals(signum).name,
        )
        if self._strikes >= 2:
            raise KeyboardInterrupt

    def __enter__(self) -> "GracefulShutdown":
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # not the main thread
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()


class WorkerControl:
    """The worker-side handle a task function talks to."""

    __slots__ = ("_send", "recycle_requested", "stages", "facts")

    def __init__(self, send: Callable[[Any], None] | None = None) -> None:
        self._send = send
        self.recycle_requested = False
        #: stages reported so far (in-process mode's heartbeat record)
        self.stages: list[str] = []
        #: facts reported so far (in-process mode's record)
        self.facts: list[dict] = []

    def heartbeat(self, note: str) -> None:
        """Report the current stage; renews the supervisor's lease."""
        self.stages.append(note)
        if self._send is not None:
            self._send(("hb", note))

    def report(self, facts: dict) -> None:
        """Send facts about this task's work to the supervisor now.

        They reach the task's outcome even if this worker dies before
        it answers; renews the lease like any message.
        """
        self.facts.append(facts)
        if self._send is not None:
            self._send(("facts", facts))

    def request_recycle(self) -> None:
        """Ask for a fresh process after the current task completes."""
        self.recycle_requested = True


@contextmanager
def _gc_paused():
    """Hold off cyclic GC for one pipe transfer, then restore its state.

    Every object a result message pickles or unpickles is live, so a
    collection mid-transfer finds nothing, yet costs time that grows
    with the heap -- and unpickling a whole-AS result allocates enough
    containers to trigger several.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _worker_entry(fn: ShardFn, conn: Connection) -> None:
    """Persistent worker loop: pull a task, run it, report, repeat.

    SIGINT is ignored (the supervisor handles Ctrl-C and drains).  A
    raising task function is reported then the process exits -- a
    fresh interpreter replaces it, so one task's wreckage cannot leak
    into the next task's run.  A recycle request exits cleanly after
    the result is delivered.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # supervisor went away
            os._exit(0)
        if message[0] == "stop":
            conn.close()
            os._exit(0)
        payload = message[1]
        ctl = WorkerControl(conn.send)
        try:
            value = fn(payload, ctl)
        except BaseException as exc:  # noqa: BLE001 -- report, then die
            try:
                conn.send(("exc", f"{type(exc).__name__}: {exc}"))
                conn.close()
            finally:
                os._exit(1)
        with _gc_paused():
            conn.send(("res", value, ctl.recycle_requested))
        if ctl.recycle_requested:
            conn.close()
            os._exit(0)


@dataclass(slots=True)
class _Assignment:
    """One leased task in flight on one worker."""

    key: Any
    payload: Any
    attempts: int
    #: the task's affinity (None: no preference)
    affinity: Any
    #: grant time (the deadline clock)
    started: float
    #: last message of any kind (the lease renewal clock)
    last_beat: float
    last_stage: str | None = None
    stage_started: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: facts reported by this attempt's worker
    facts: list[dict] = field(default_factory=list)
    #: terminal message received from the worker, if any
    message: tuple | None = None


@dataclass(slots=True)
class _Worker:
    """Supervisor-side state of one persistent worker process."""

    process: Any
    conn: Connection
    assignment: _Assignment | None = None
    #: affinities this process was granted, most recent last
    held: list = field(default_factory=list)


class _Pending:
    """The task queue, indexed by affinity.

    Tasks queue in per-affinity groups, the groups in the order they
    became non-empty.  Without affinities every task shares one group:
    a plain FIFO queue.
    """

    __slots__ = ("_affinity", "_groups", "_size")

    def __init__(self, affinity: Callable[[Any], Any] | None) -> None:
        self._affinity = affinity
        self._groups: dict[Any, deque] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, key: Any, payload: Any, attempts: int) -> None:
        affinity = None if self._affinity is None else self._affinity(key)
        group = self._groups.get(affinity)
        if group is None:
            group = self._groups[affinity] = deque()
        group.append((key, payload, attempts))
        self._size += 1

    def clear(self) -> None:
        self._groups.clear()
        self._size = 0

    def take(
        self, held: Sequence, busy: set, held_only: bool = False
    ) -> tuple[Any, Any, int, Any] | None:
        """The next ``(key, payload, attempts, affinity)`` for one worker.

        A task whose affinity the worker holds (most recent first);
        failing that, the first whose affinity no ``busy`` worker is
        on; failing that, the head of the queue.  ``held_only`` stops
        after the first step (None when the worker holds nothing
        pending).  Each step looks at no more groups than the worker
        holds or ``busy`` has members.
        """
        for affinity in reversed(held):
            if affinity in self._groups:
                return self._pop(affinity)
        if held_only or not self._groups:
            return None
        for affinity in self._groups:
            if affinity is None or affinity not in busy:
                return self._pop(affinity)
        return self._pop(next(iter(self._groups)))

    def _pop(self, affinity: Any) -> tuple[Any, Any, int, Any]:
        group = self._groups[affinity]
        key, payload, attempts = group.popleft()
        if not group:
            del self._groups[affinity]
        self._size -= 1
        return key, payload, attempts, affinity


def _hold(held: list, affinity: Any) -> None:
    """Note that a worker was granted ``affinity`` (most recent last)."""
    if affinity is None:
        return
    if affinity in held:
        held.remove(affinity)
    held.append(affinity)
    del held[:-HELD_AFFINITIES]


def _close_stage(assignment: _Assignment, now: float) -> None:
    """Fold the open heartbeat stage into the observed tally."""
    if assignment.last_stage is not None:
        assignment.stage_seconds[assignment.last_stage] = (
            assignment.stage_seconds.get(assignment.last_stage, 0.0)
            + now
            - assignment.stage_started
        )
    assignment.stage_started = now


def _mp_context():
    """Fork where available (cheap, inherits imports), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class LeaseExecutor:
    """Run keyed tasks on a pool of persistent, leased workers.

    Parameters
    ----------
    fn:
        The task function, ``fn(payload, ctl) -> value``.  With
        ``jobs > 1`` it must be picklable and runs in long-lived
        subprocesses, one task at a time per process.
    jobs:
        Worker pool size.  ``1`` selects the in-process path: plain
        sequential loop, no leases, no deadlines, no subprocesses.
    lease_timeout:
        Seconds of worker silence after which its claim is presumed
        lost and re-dispatched (``None`` disables lease expiry;
        worker *death* is still detected and recovered).
    timeout:
        Per-attempt wall-clock deadline in seconds, counted from the
        grant (``None`` = unbounded).
    watch_interval:
        Supervisor poll cadence in seconds.
    max_redispatch:
        Re-dispatch budget per task before quarantine (default 1).
    """

    def __init__(
        self,
        fn: ShardFn,
        jobs: int = 1,
        lease_timeout: float | None = None,
        timeout: float | None = None,
        watch_interval: float = 0.05,
        max_redispatch: int = 1,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if lease_timeout is not None and lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        if watch_interval <= 0:
            raise ValueError("watch_interval must be positive")
        if max_redispatch < 0:
            raise ValueError("max_redispatch must be >= 0")
        self.fn = fn
        self.jobs = jobs
        self.lease_timeout = lease_timeout
        self.timeout = timeout
        self.watch_interval = watch_interval
        self.max_redispatch = max_redispatch
        #: observational execution tallies (telemetry only -- results
        #: never read them)
        self.stats: dict[str, int] = {
            "leases_granted": 0,
            "leases_renewed": 0,
            "leases_expired": 0,
            "workers_spawned": 0,
            "workers_crashed": 0,
            "workers_recycled": 0,
            "shards_redispatched": 0,
            "shards_quarantined": 0,
        }

    # -- public API -----------------------------------------------------------

    def run(
        self,
        tasks: Sequence[tuple[Any, Any]],
        on_complete: (
            Callable[[TaskOutcome], Iterable[tuple[Any, Any]] | None] | None
        ) = None,
        stop: Callable[[], bool] | None = None,
        affinity: Callable[[Any], Any] | None = None,
    ) -> ExecutionResult:
        """Drain ``tasks`` (``(key, payload)`` pairs) through the pool.

        ``on_complete`` fires once per task in completion order with
        its final outcome, and may return follow-up ``(key, payload)``
        tasks to queue.  Keys are unique across the run, follow-ups
        included (a repeat raises ``ValueError``).  ``stop`` is polled
        between grants; once true no new task is leased, follow-ups
        are dropped, in-flight tasks drain (leases and deadlines still
        enforced) and the result is marked interrupted.
        ``affinity(key)`` (hashable, None for no preference) steers
        each task to a worker that was granted the same affinity
        before; see the module docstring.
        """
        pending = _Pending(affinity)
        seen: set = set()
        for key, payload in tasks:
            if key in seen:
                raise ValueError("task keys must be unique")
            seen.add(key)
            pending.push(key, payload, 1)
        result = ExecutionResult()

        def finish(outcome: TaskOutcome) -> None:
            result.outcomes[outcome.key] = outcome
            if on_complete is None:
                return
            follow_ups = on_complete(outcome)
            if not follow_ups or result.interrupted:
                return
            for key, payload in follow_ups:
                if key in seen:
                    raise ValueError(
                        f"follow-up task key {key!r} is not unique"
                    )
                seen.add(key)
                pending.push(key, payload, 1)

        if self.jobs == 1:
            self._run_inprocess(pending, finish, stop, result)
        else:
            self._run_pool(pending, finish, stop, result)
        return result

    # -- in-process path (jobs=1) ----------------------------------------------

    def _run_inprocess(
        self,
        pending: _Pending,
        finish: Callable[[TaskOutcome], None],
        stop: Callable[[], bool] | None,
        result: ExecutionResult,
    ) -> None:
        held: list = []
        while pending:
            if stop is not None and stop():
                result.interrupted = True
                return
            key, payload, _, affinity = pending.take(held, set())
            _hold(held, affinity)
            ctl = WorkerControl()
            try:
                value = self.fn(payload, ctl)
            except KeyboardInterrupt:
                result.interrupted = True
                return
            except Exception as exc:  # noqa: BLE001 -- per-task isolation
                outcome = TaskOutcome(
                    key=key,
                    status=TaskStatus.ERROR,
                    error=f"{type(exc).__name__}: {exc}",
                    last_stage=ctl.stages[-1] if ctl.stages else None,
                    facts=ctl.facts,
                )
            else:
                outcome = TaskOutcome(
                    key=key,
                    status=TaskStatus.OK,
                    value=value,
                    last_stage=ctl.stages[-1] if ctl.stages else None,
                    facts=ctl.facts,
                )
            finish(outcome)

    # -- pooled path (jobs>1) --------------------------------------------------

    def _spawn(self, ctx) -> _Worker:
        """Start one persistent worker with its duplex channel."""
        supervisor_conn, worker_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_entry, args=(self.fn, worker_conn), daemon=True
        )
        process.start()
        worker_conn.close()
        self.stats["workers_spawned"] += 1
        return _Worker(process=process, conn=supervisor_conn)

    def _overdue(
        self, assignment: _Assignment, now: float
    ) -> tuple[TaskStatus, str] | None:
        """Why an attempt's worker must be killed now, or None.

        The deadline outranks the lease: a worker both late and silent
        counts as late.
        """
        running = now - assignment.started
        if self.timeout is not None and running > self.timeout:
            return TaskStatus.TIMEOUT, (
                f"worker exceeded its deadline after {running:.1f}s"
            )
        if (
            self.lease_timeout is not None
            and now - assignment.last_beat > self.lease_timeout
        ):
            return TaskStatus.LEASE_EXPIRED, (
                f"lease expired after {now - assignment.last_beat:.1f}s "
                f"of silence"
            )
        return None


    def _grant(
        self, ctx, pool: list[_Worker | None], pending: _Pending
    ) -> None:
        """Lease pending tasks to idle slots, holders of an affinity first."""
        busy = {
            w.assignment.affinity
            for w in pool
            if w is not None and w.assignment is not None
        }
        for held_only in (True, False):
            for slot in range(self.jobs):
                if not pending:
                    return
                worker = pool[slot]
                if worker is not None and worker.assignment is not None:
                    continue
                task = pending.take(
                    worker.held if worker is not None else (),
                    busy,
                    held_only,
                )
                if task is None:
                    continue
                if worker is None:
                    worker = pool[slot] = self._spawn(ctx)
                key, payload, attempts, affinity = task
                busy.add(affinity)
                _hold(worker.held, affinity)
                now = time.monotonic()
                worker.assignment = _Assignment(
                    key=key,
                    payload=payload,
                    attempts=attempts,
                    affinity=affinity,
                    started=now,
                    last_beat=now,
                    stage_started=now,
                )
                self.stats["leases_granted"] += 1
                try:
                    worker.conn.send(("task", payload))
                except (OSError, BrokenPipeError):
                    pass  # corpse detected below, task re-queued

    def _run_pool(
        self,
        pending: _Pending,
        finish: Callable[[TaskOutcome], None],
        stop: Callable[[], bool] | None,
        result: ExecutionResult,
    ) -> None:
        ctx = _mp_context()
        pool: list[_Worker | None] = [None] * self.jobs
        #: task key -> facts reported by its earlier, failed attempts
        carried: dict[Any, list[dict]] = {}

        def facts_of(assignment: _Assignment) -> list[dict]:
            """Every fact the task reported, over all its attempts."""
            return carried.pop(assignment.key, []) + assignment.facts

        def fail_or_requeue(
            assignment: _Assignment,
            status: TaskStatus,
            detail: str,
            now: float,
        ) -> None:
            """A deadline, lease loss or worker death: steal back the task."""
            _close_stage(assignment, now)
            if result.interrupted:
                return  # interrupted run: resume will re-attempt
            if assignment.attempts <= self.max_redispatch:
                self.stats["shards_redispatched"] += 1
                logger.warning(
                    "task %r %s after %.1fs (attempt %d); re-queueing",
                    assignment.key,
                    status.value,
                    now - assignment.started,
                    assignment.attempts,
                )
                pending.push(
                    assignment.key, assignment.payload, assignment.attempts + 1
                )
                carried.setdefault(assignment.key, []).extend(
                    assignment.facts
                )
                return
            self.stats["shards_quarantined"] += 1
            logger.warning(
                "task %r quarantined after %d attempt(s): %s",
                assignment.key,
                assignment.attempts,
                detail,
            )
            finish(
                TaskOutcome(
                    key=assignment.key,
                    status=status,
                    error=detail,
                    attempts=assignment.attempts,
                    last_stage=assignment.last_stage,
                    stage_seconds=dict(assignment.stage_seconds),
                    facts=facts_of(assignment),
                )
            )

        try:
            while pending or any(
                w is not None and w.assignment is not None for w in pool
            ):
                if not result.interrupted and stop is not None and stop():
                    result.interrupted = True
                    pending.clear()
                self._grant(ctx, pool, pending)
                self._pump(pool)
                now = time.monotonic()
                for slot in range(self.jobs):
                    worker = pool[slot]
                    if worker is None or worker.assignment is None:
                        continue
                    assignment = worker.assignment
                    alive = worker.process.is_alive()
                    if assignment.message is None and (
                        not alive or self._overdue(assignment, now)
                    ):
                        # Read the pipe before judging the worker: an
                        # answer that arrived after the pump returned,
                        # or just before the worker exited, must settle
                        # the task, never be thrown away with its corpse.
                        self._drain(worker, now)
                    if assignment.message is not None:
                        worker.assignment = None
                        if assignment.message[0] == "res":
                            _, value, recycle = assignment.message
                            finish(
                                TaskOutcome(
                                    key=assignment.key,
                                    status=TaskStatus.OK,
                                    value=value,
                                    attempts=assignment.attempts,
                                    last_stage=assignment.last_stage,
                                    facts=facts_of(assignment),
                                )
                            )
                            if recycle:
                                self.stats["workers_recycled"] += 1
                                self._retire(worker)
                                pool[slot] = None
                        else:  # "exc": deterministic failure, no requeue
                            _close_stage(assignment, now)
                            finish(
                                TaskOutcome(
                                    key=assignment.key,
                                    status=TaskStatus.ERROR,
                                    error=str(assignment.message[1]),
                                    attempts=assignment.attempts,
                                    last_stage=assignment.last_stage,
                                    stage_seconds=dict(
                                        assignment.stage_seconds
                                    ),
                                    facts=facts_of(assignment),
                                )
                            )
                            # a raising task's worker exits itself; one
                            # whose answer did not decode is stopped
                            self._retire(worker)
                            pool[slot] = None
                        continue
                    stage = assignment.last_stage or "unknown"
                    if not alive:
                        self.stats["workers_crashed"] += 1
                        status = TaskStatus.CRASH
                        detail = (
                            f"worker died without a result (exit code "
                            f"{worker.process.exitcode}) in stage {stage}"
                        )
                        self._retire(worker)
                    else:
                        overdue = self._overdue(assignment, now)
                        if overdue is None:
                            continue  # still working
                        status, why = overdue
                        if status is TaskStatus.LEASE_EXPIRED:
                            self.stats["leases_expired"] += 1
                        detail = f"{why} in stage {stage}"
                        self._kill(worker)
                    pool[slot] = None
                    fail_or_requeue(assignment, status, detail, now)
        finally:
            for worker in pool:
                if worker is None:
                    continue
                if worker.assignment is not None:
                    self._kill(worker)
                else:
                    self._retire(worker)

    def _pump(self, pool: list[_Worker | None]) -> None:
        """Block briefly on busy workers' pipes and drain what's ready."""
        busy = {
            w.conn: w
            for w in pool
            if w is not None and w.assignment is not None
        }
        if not busy:
            return
        ready = connection_wait(list(busy), timeout=self.watch_interval)
        now = time.monotonic()
        for conn in ready:
            self._drain(busy[conn], now)

    def _drain(self, worker: _Worker, now: float) -> None:
        """Read everything currently in one worker's pipe.

        A message that arrives whole but fails to unpickle (a result
        whose ``__reduce__`` raises, a record breaking a constructor
        invariant) settles its task as an error: decoding is
        deterministic, so a re-dispatch would fail the same way.
        """
        assignment = worker.assignment
        if assignment is None:
            return
        while True:
            try:
                if not worker.conn.poll(0):
                    return
                with _gc_paused():
                    message = worker.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                return  # corpse handling settles it
            except Exception as exc:  # noqa: BLE001 -- one task's answer
                assignment.message = (
                    "exc",
                    f"undecodable answer: {type(exc).__name__}: {exc}",
                )
                return
            assignment.last_beat = now  # every message renews the lease
            if message[0] == "hb":
                self.stats["leases_renewed"] += 1
                _close_stage(assignment, now)
                assignment.last_stage = str(message[1])
            elif message[0] == "facts":
                assignment.facts.append(message[1])
            else:  # "res" / "exc"
                assignment.message = message

    @staticmethod
    def _retire(worker: _Worker) -> None:
        """Shut one idle (or self-exited) worker down cleanly."""
        if worker.process.is_alive():
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        worker.process.join(timeout=5)
        if worker.process.is_alive():  # pragma: no cover - stuck on exit
            worker.process.kill()
            worker.process.join()
        worker.conn.close()

    @staticmethod
    def _kill(worker: _Worker) -> None:
        """SIGKILL a worker presumed lost; containment, not courtesy."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        worker.conn.close()
