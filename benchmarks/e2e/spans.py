"""The benchmark's own span recorder, fed by wrappers around the program.

The traced run measures every layer from outside: :func:`instrument`
replaces public entry points (class methods, or module attributes at
the site that calls them) with wrappers that open a span on entry and
close it on exit.  Nothing inside ``src/`` knows it is being traced.

Spans live in memory, one stack per thread.  A span's *self time* is
its duration minus the part its same-thread child spans cover, so the
self times of one thread add up to that thread's traced wall clock.
Totals are kept exactly for every call; the event list written as
Chrome trace-event JSON keeps the first ``event_cap`` spans of each
name so the file stays small enough to open in Perfetto.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

#: the span a traced workload opens around each timed call into the
#: program; its self time is the part no layer span explains
ROOT_SPAN = "workload"


def root_span(recorder: "SpanRecorder | None"):
    """The :data:`ROOT_SPAN` span on ``recorder``, or nothing when untraced."""
    return recorder.span(ROOT_SPAN) if recorder is not None else nullcontext()


@dataclass(slots=True)
class LayerTotal:
    """Exact per-name totals: calls, inclusive seconds, self seconds."""

    calls: int = 0
    inclusive: float = 0.0
    self_s: float = 0.0


@dataclass(slots=True)
class _ThreadState:
    tid: int
    stack: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    kept: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=dict)


class SpanRecorder:
    """Per-thread span stacks with exact self-time accounting."""

    def __init__(
        self,
        clock=time.perf_counter,
        event_cap: int = 2000,
        sample_names: tuple[str, ...] = (),
    ) -> None:
        self.clock = clock
        self.event_cap = event_cap
        #: names whose every duration is kept (for percentiles)
        self.sample_names = frozenset(sample_names)
        #: named counts posted by wrapper hooks
        self.counters: Counter = Counter()
        #: callbacks that post their last counts before results are read
        self.finishers: list = []
        self.origin = clock()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(tid=threading.get_ident())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        state = self._state()
        state.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        state = self._local.state
        name, start, child = state.stack.pop()
        duration = end - start
        if state.stack:
            state.stack[-1][2] += duration
        total = state.totals.get(name)
        if total is None:
            total = state.totals[name] = LayerTotal()
        total.calls += 1
        total.inclusive += duration
        total.self_s += duration - child
        if state.kept[name] < self.event_cap:
            state.kept[name] += 1
            state.events.append((name, start, duration))
        if name in self.sample_names:
            state.samples.setdefault(name, []).append(duration)

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, n: float = 1) -> None:
        """Add to a named counter (thread-safe)."""
        with self._lock:
            self.counters[name] += n

    # -- results -------------------------------------------------------------

    def finish(self) -> None:
        """Run (once) the callbacks that post deferred counts."""
        while self.finishers:
            self.finishers.pop(0)()

    def totals(self) -> dict[str, LayerTotal]:
        """Totals merged over every thread that recorded a span."""
        merged: dict[str, LayerTotal] = {}
        for state in self._threads:
            for name, total in state.totals.items():
                into = merged.setdefault(name, LayerTotal())
                into.calls += total.calls
                into.inclusive += total.inclusive
                into.self_s += total.self_s
        return merged

    def samples(self, name: str) -> list[float]:
        """Every recorded duration of ``name`` (a sampled name)."""
        out: list[float] = []
        for state in self._threads:
            out.extend(state.samples.get(name, ()))
        return out

    def trace_events(self) -> dict:
        """Chrome trace-event JSON (``X`` events, microseconds)."""
        pid = os.getpid()
        events = []
        for index, state in enumerate(self._threads):
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": state.tid,
                    "args": {"name": f"thread-{index}"},
                }
            )
            for name, start, duration in state.events:
                events.append(
                    {
                        "ph": "X",
                        "name": name,
                        "cat": name.split(".", 1)[0],
                        "pid": pid,
                        "tid": state.tid,
                        "ts": round((start - self.origin) * 1e6, 3),
                        "dur": round(duration * 1e6, 3),
                    }
                )
        dropped = {
            name: total.calls - sum(s.kept[name] for s in self._threads)
            for name, total in self.totals().items()
        }
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "event_cap": self.event_cap,
                "events_dropped": {k: v for k, v in dropped.items() if v},
            },
        }

    def write_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.trace_events(), fh)


# -- wrapping -----------------------------------------------------------------


def _wrap_function(recorder: SpanRecorder, fn, name: str, after=None):
    enter = recorder.enter
    exit_ = recorder.exit
    if after is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            after(result, args, kwargs)
            return result

    return wrapper


class _TimedIterator:
    """Times each ``next()`` of a wrapped generator as one span."""

    __slots__ = ("_it", "_name", "_enter", "_exit")

    def __init__(self, it, name: str, recorder: SpanRecorder) -> None:
        self._it = it
        self._name = name
        self._enter = recorder.enter
        self._exit = recorder.exit

    def __iter__(self):
        return self

    def __next__(self):
        self._enter(self._name)
        try:
            return next(self._it)
        finally:
            self._exit()


def _wrap_generator(recorder: SpanRecorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedIterator(fn(*args, **kwargs), name, recorder)

    return wrapper


@dataclass(frozen=True, slots=True)
class Target:
    """One wrap point: ``module:attr`` or ``module:Class.attr``.

    ``after(result, args, kwargs)`` runs after each call (outside the
    span) to post counters; ``before(args, kwargs)`` runs before it.
    """

    path: str
    span: str
    after: object = None
    before: object = None


def _resolve(path: str):
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def instrument(recorder: SpanRecorder, targets: list[Target]):
    """Install span wrappers on ``targets``; restore the originals on exit.

    A target missing from this version of the program raises
    :class:`LookupError`: a layer that silently read zero would inflate
    every other layer's share.
    """
    undo = []
    try:
        for target in targets:
            try:
                owner, attr = _resolve(target.path)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError) as exc:
                raise LookupError(
                    f"wrap target {target.path} ({target.span}) does not "
                    f"exist; update benchmarks/e2e/layers.py"
                ) from exc
            fn = getattr(raw, "__func__", raw)
            if inspect.isgeneratorfunction(fn):
                wrapped = _wrap_generator(recorder, fn, target.span)
            else:
                wrapped = _wrap_function(
                    recorder, fn, target.span, target.after
                )
            if target.before is not None:
                wrapped = _with_before(wrapped, target.before)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            # an inherited method is wrapped on the named class only and
            # removed again afterwards, leaving the base class untouched
            undo.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, raw, own in reversed(undo):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


def _with_before(fn, before):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before(args, kwargs)
        return fn(*args, **kwargs)

    return wrapper


def calibrate_overhead(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call (median of five trials)."""

    def bare(x):
        return x

    trials = []
    for _ in range(5):
        recorder = SpanRecorder()
        wrapped = _wrap_function(recorder, bare, "calibrate")
        clock = time.perf_counter
        start = clock()
        for i in range(calls):
            bare(i)
        plain = clock() - start
        start = clock()
        for i in range(calls):
            wrapped(i)
        traced = clock() - start
        trials.append(max(0.0, traced - plain) / calls)
    trials.sort()
    return trials[len(trials) // 2]
