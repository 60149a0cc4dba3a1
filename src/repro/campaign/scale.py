"""The campaign driver: sharded, leased, resumable.

Both public entries call one driver body, :func:`run_campaign`, which
runs one loop, :func:`run_lease_loop` (one
:class:`~repro.campaign.shardexec.LeaseExecutor` run per campaign), and
returns one :class:`~repro.campaign.runner.CampaignReport`.
:meth:`ScaleCampaign.run` banks summaries into a run directory and
holds no traces, which is what the paper's 7.7M-traceroute scale
needs; :meth:`~repro.campaign.runner.CampaignRunner.run_portfolio`
keeps each AS's :class:`~repro.campaign.runner.AsCampaignResult` as
well.  The campaign splits into deterministic ``(as_id, vp_bucket)``
shards (:func:`~repro.campaign.shards.shard_plan`), and the layout
picks each AS's kind of task.

**Whole-AS tasks.**  A *one-bucket AS* -- one shard holds all its VPs,
as for every ``run_portfolio`` AS and at ``ScaleCampaign``'s default
layout -- runs as one task that calls
:meth:`~repro.campaign.runner.CampaignRunner.run_as` (the paper's
per-AS workflow) in a fresh runner, so nothing of the AS outlives the
task in its worker.  With a run directory the AS's single bucket
spills there.  The task answers with the probe record and the
canonical summary, and with the result itself to a caller that keeps
results.

**Probe tasks.**  A *split AS* runs one task per shard, which the pool
drains by work stealing.  Each streams its traces to an atomic spill
file and reports partition-independent per-VP facts; the supervisor
banks the record in the :class:`~repro.campaign.checkpoint.ShardCheckpoint`
*after* the spill is in place, so ``kill -9`` anywhere loses nothing
and duplicates nothing.  The worker keeps the AS's topology and the
bucket's traces on its cached :class:`~repro.campaign.shards.ShardContext`.

**Analysis tasks.**  The moment a split AS's last shard banks, its
analysis is queued as a follow-up task; every task of an AS shares the
AS as its affinity, so the analysis usually lands on the worker that
probed it, which analyzes on the cached network with the buckets it
holds in memory and decodes only the spills of buckets other workers
probed.  A cache miss (another worker, a shed cache, a resumed run)
falls back to :func:`rehydrate_as` without a context, which rebuilds
the topology and merges the AS's spills in bucket order.  A resume
queues one for each AS whose probing is banked but whose analysis is
not (and, for ``run_portfolio``, for each banked analysis, to rebuild
its result).  Either way the AS is fingerprinted and analyzed exactly
as :meth:`~repro.campaign.runner.CampaignRunner.run_as` does.

Every final outcome settles (:func:`_settle`) into a summary
(:func:`~repro.campaign.runner.result_summary`), an
:class:`~repro.campaign.runner.AsFailure` (the stage reached and the
tallies sunk) or an :class:`~repro.campaign.runner.AsQuarantine` (the
circuit breaker's reason and post-mortem), is banked by one function
(:func:`_bank`) and reaches the telemetry session by one path
(:func:`_record_telemetry`).  The report takes each AS's outcome in
``as_ids`` order: what this run settled, else what the checkpoint
banked (:func:`_campaign_report`).

Memory is governed end to end: the supervisor holds no traces unless
the caller keeps results, a worker holds at most the ASes in its
context cache (an analysis drops its AS), and a per-worker
:class:`~repro.util.rss.RssWatchdog` checks the resident set at task
boundaries -- shedding the context cache at the soft level (analyses
then decode their spills) and requesting a graceful worker recycle at
the hard level.  Pressure throttles admission; it never interrupts a
write.

Determinism contract: ``report.as_dict()`` JSON and the canonical
checkpoint bytes are identical for **any** ``--jobs``/``--shards``
value -- serial, parallel, or crashed-and-resumed -- because every
shard is a pure function of the campaign config (per-VP fault and
retry scoping; see :mod:`repro.campaign.shards`), and an analysis reads
the same traces whether they come from memory or from spills.  A churn
schedule mutates the network under all of an AS's probes in sequence,
so a churned AS runs whole: a layout that would split it is refused.
A resumed run re-probes any banked shard whose spill fails its banked
digests; an AS whose probe records a compaction folded into per-VP
facts is matched to its spills by name.
"""

from __future__ import annotations

import itertools
import logging
import os
import time
from pathlib import Path
from typing import Callable

from repro.campaign.checkpoint import (
    SPILL_DIRNAME,
    ShardCheckpoint,
    open_run_dir,
)
from repro.campaign.runner import (
    AsCampaignResult,
    AsFailure,
    AsQuarantine,
    CampaignReport,
    CampaignRunner,
    banked_spills,
    result_summary,
    summary_counters,
)
from repro.campaign.shardexec import (
    HELD_AFFINITIES,
    GracefulShutdown,
    LeaseExecutor,
    TaskOutcome,
    TaskStatus,
    WorkerControl,
)
from repro.campaign.shards import (
    ShardContext,
    ShardProbeRecord,
    ShardSpec,
    VpProbe,
    as_spills,
    build_shard_context,
    merged_dataset,
    probe_shard,
    probe_tallies,
    shard_plan,
    spill_damage,
)
from repro.netsim.faults import FaultCounters
from repro.obs.session import PORTFOLIO_SCOPE, TelemetrySession
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, merge_counters
from repro.obs.trace import TraceContext
from repro.topogen.internet import build_measurement_network
from repro.util.atomicio import DiskFullError
from repro.util.retry import RetryAccounting
from repro.util.rss import RssWatchdog, peak_rss_bytes

logger = logging.getLogger(__name__)

_token_counter = itertools.count()


# -- worker-side machinery (persistent-process caches) --------------------------

#: per-process runner cache: one campaign config per executor run,
#: keyed by the supervisor's run token so two campaigns sharing a
#: process (jobs=1 under pytest) can never cross wires
_RUNNER_CACHE: dict[str, CampaignRunner] = {}
#: per-process topology cache: as_id -> ShardContext (the expensive
#: part of a shard, plus the buckets this process probed), least
#: recently used first; shed by the RSS watchdog, bounded to the
#: affinities the executor presumes a worker holds
_CONTEXT_CACHE: dict[int, ShardContext] = {}
_CONTEXT_CACHE_MAX = HELD_AFFINITIES
#: per-process watchdog (created on first task, one per budget)
_WATCHDOGS: dict[int | None, RssWatchdog] = {}


def _worker_runner(runner_cls, kwargs: dict, token: str) -> CampaignRunner:
    runner = _RUNNER_CACHE.get(token)
    if runner is None:
        # At most one live campaign per process.  Contexts are scoped
        # to the campaign config, so a new run token must also drop
        # them: a worker forked from (or reused by) a process that
        # served a different campaign would otherwise probe topologies
        # built from the *old* config for any colliding as_id.
        _RUNNER_CACHE.clear()
        _CONTEXT_CACHE.clear()
        runner = runner_cls(**kwargs)
        _RUNNER_CACHE[token] = runner
    return runner


def _worker_context(
    runner: CampaignRunner, as_id: int
) -> tuple[ShardContext, bool]:
    """The cached context of ``as_id`` (built on a miss), and whether
    this call built it.  A hit becomes the most recently used entry."""
    context = _CONTEXT_CACHE.pop(as_id, None)
    built = context is None
    if built:
        while len(_CONTEXT_CACHE) >= _CONTEXT_CACHE_MAX:
            _CONTEXT_CACHE.pop(next(iter(_CONTEXT_CACHE)))
        context = build_shard_context(runner, as_id)
    _CONTEXT_CACHE[as_id] = context
    return context, built


def _worker_watchdog(max_rss_bytes: int | None) -> RssWatchdog:
    watchdog = _WATCHDOGS.get(max_rss_bytes)
    if watchdog is None:
        _WATCHDOGS.clear()
        watchdog = RssWatchdog(max_rss_bytes)
        watchdog.add_shedder(_CONTEXT_CACHE.clear)
        _WATCHDOGS[max_rss_bytes] = watchdog
    return watchdog


def _boundary_check(ctl: WorkerControl, max_rss_bytes: int | None) -> None:
    """The task-boundary watchdog check; may request a recycle.

    Reports the worker's memory facts, which the supervisor folds into
    the campaign's stats.
    """
    verdict = _worker_watchdog(max_rss_bytes).check()
    if verdict.recycle:
        ctl.request_recycle()
    ctl.report({"shed": verdict.shed, "peak_rss_bytes": peak_rss_bytes()})


def _report_build(ctl: WorkerControl) -> None:
    """Report one topology build, and the worker's peak RSS so far.

    Sent at once, not with the task's answer: a worker that dies or
    loses its lease later never answers, but its build counts.
    """
    ctl.report({"builds": 1, "peak_rss_bytes": peak_rss_bytes()})


def _stage_hook(ctl: WorkerControl) -> Callable[[str], None]:
    """A runner stage hook: every stage heartbeats, and the
    ``topology`` stage (which builds the AS's network) reports its
    build."""

    def stage(note: str) -> None:
        ctl.heartbeat(note)
        if note == "topology":
            _report_build(ctl)

    return stage


def _recorder(traceparent: str | None) -> Telemetry:
    """A task's recorder: traced under the campaign's root span when the
    envelope carries a traceparent, else the no-op one."""
    if traceparent is None:
        return NULL_TELEMETRY
    return Telemetry(trace=TraceContext.parse(traceparent))


def _failure(
    stage: str,
    exc: Exception,
    faults: FaultCounters,
    retry: RetryAccounting,
    injector=None,
) -> dict:
    """A task's structured failure, the way ``run_as`` fails: the stage
    reached and the tallies sunk so far (``injector``, the fingerprint
    injector, adds its SNMP timeouts)."""
    if injector is not None:
        faults.merge(injector.counters)
    return {
        "status": "error",
        "stage": stage,
        "error": f"{type(exc).__name__}: {exc}",
        "fault_counters": faults,
        "retry_accounting": retry,
    }


def _whole_as_worker(payload: tuple, ctl: WorkerControl) -> dict:
    """Executor task: run one one-bucket AS end to end.

    Calls :meth:`~repro.campaign.runner.CampaignRunner.run_as` on a
    fresh runner, so results are a pure function of ``(config, as_id)``
    and nothing of the AS -- no cached context, no runner state --
    outlives the task.  Each stage transition and each VP renews the
    lease, and the topology build is reported as it starts.  With a
    run directory the AS's single bucket spills there and the answer
    carries its probe record; it always carries the canonical summary,
    and the result itself when ``keep`` is set.  A full disk while
    spilling comes back ``disk-full``, any other error as ``run_as``'s
    failure.
    """
    runner_cls, kwargs, as_id, spill_dir, keep, max_rss, traceparent = (
        payload
    )
    runner = runner_cls(**kwargs)
    runner._stage_hook = _stage_hook(ctl)
    runner._spill_dir = spill_dir
    tel = runner.telemetry = _recorder(traceparent)
    try:
        result = runner.run_as(as_id)
    except DiskFullError as exc:
        message = {"status": "disk-full", "error": str(exc)}
    except Exception as exc:  # noqa: BLE001 -- per-AS isolation
        message = _failure(
            runner._stage,
            exc,
            *probe_tallies(runner._runs),
            runner._fingerprint_injector,
        )
    else:
        message = {
            "status": "ok",
            "record": runner._spilled,
            "summary": result_summary(result),
        }
        if keep:
            message["result"] = result
        if tel.enabled:
            merge_counters(tel.counters, summary_counters(message["summary"]))
    if tel.enabled:
        message["telemetry"] = tel.export()
    _boundary_check(ctl, max_rss)
    return message


def _probe_shard_worker(payload: tuple, ctl: WorkerControl) -> dict:
    """Executor task: probe one shard of a split AS into its spill file.

    Never raises for a probing error: running out of disk comes back
    as a structured ``disk-full`` record the supervisor turns into a
    clean per-shard quarantine (the previous spill, if any, is intact
    -- the atomic writer never renamed the torn temporary), any other
    error as a ``probe``-stage failure with the shard's partial
    tallies.  The bucket's traces stay on the worker's cached context
    for the AS's analysis.  A topology built for it is reported at
    once.

    When the task envelope carries a traceparent, the shard runs under
    a traced recorder whose export rides back on the message -- spills
    and checkpoint records stay byte-identical either way.
    """
    runner_cls, kwargs, token, shard, spill_path, max_rss, traceparent = (
        payload
    )
    ctl.heartbeat(f"shard-{shard.as_id}-{shard.bucket}")
    runner = _worker_runner(runner_cls, kwargs, token)
    context, built = _worker_context(runner, shard.as_id)
    if built:
        _report_build(ctl)
    tel = _recorder(traceparent)
    traces: list = []
    runs: list = []
    try:
        with tel.span("shard", as_id=shard.as_id, bucket=shard.bucket):
            record = probe_shard(
                runner,
                context,
                shard,
                Path(spill_path),
                heartbeat=ctl.heartbeat,
                telemetry=tel,
                tee=traces.append,
                runs=runs,
            )
    except DiskFullError as exc:
        message = {"status": "disk-full", "error": str(exc)}
    except Exception as exc:  # noqa: BLE001 -- per-shard isolation
        message = _failure("probe", exc, *probe_tallies(runs))
    else:
        context.buckets[shard.bucket] = traces
        message = {"status": "ok", "record": record}
        if tel.enabled:
            tel.count(
                "traces_collected", sum(vp.traces for vp in record.vps)
            )
    if tel.enabled:
        message["telemetry"] = tel.export()
    _boundary_check(ctl, max_rss)
    return message


def rehydrate_as(
    runner: CampaignRunner,
    as_id: int,
    spill_paths: list[Path],
    faults: FaultCounters,
    retry: RetryAccounting,
    context: ShardContext | None = None,
) -> AsCampaignResult:
    """Analyze one probed AS from its spills (``spill_paths``, in bucket
    order).

    The one rehydration path: every analysis task runs it.  Without
    ``context`` the topology is rebuilt deterministically and every
    spill is decoded.  With the AS's cached
    :class:`~repro.campaign.shards.ShardContext` (built from the same
    spec, VPs and seed) its network is analyzed as is, and each bucket
    it holds is read from memory instead of its spill -- the same
    traces either way.  The buckets merge in order into the AS's
    dataset, and fingerprinting and analysis run exactly as in
    :meth:`~repro.campaign.runner.CampaignRunner.run_as`.  ``faults``
    and ``retry`` are the AS's banked probe tallies.  Stage changes go
    to the runner's heartbeat hook, spans to its recorder.
    """
    tel = runner.telemetry
    if context is None:
        spec = runner.portfolio.spec(as_id)
        vps = runner._select_vps(as_id)
        runner._set_stage("topology")
        with tel.span("topology"):
            net = build_measurement_network(
                spec, [vp.vp_id for vp in vps], seed=runner.seed
            )
        held = {}
    else:
        spec, vps, net, held = (
            context.spec, context.vps, context.net, context.buckets
        )
    runner._set_stage("merge")
    with tel.span("merge"):
        dataset = merged_dataset(
            net.target_asn,
            runner._dataset_metadata(as_id, vps),
            [held.get(b, path) for b, path in enumerate(spill_paths)],
        )
    return runner._fingerprint_and_analyze(spec, net, dataset, faults, retry)


def _analyze_as_worker(payload: tuple, ctl: WorkerControl) -> dict:
    """Executor task: analyze one fully-probed AS and summarize it.

    Analyzes on this worker's cached context of the AS when it has one,
    and drops it (the AS is finished); otherwise rebuilds, and reports
    the build as it starts.  Returns the canonical summary
    (:func:`rehydrate_as` does the work) and the result itself when
    ``keep`` is set.  An error comes back the way
    ``run_as``'s does: the stage reached, and the banked tallies plus
    the fingerprint injector's.
    """
    (
        runner_cls,
        kwargs,
        token,
        as_id,
        spill_paths,
        retry_dict,
        fault_dict,
        max_rss,
        traceparent,
        keep,
    ) = payload
    ctl.heartbeat(f"analyze-{as_id}")
    runner = _worker_runner(runner_cls, kwargs, token)
    context = _CONTEXT_CACHE.pop(as_id, None)
    # The pipeline reads runner.telemetry: routing the traced recorder
    # through it gives the analysis its sanitize/detect spans and
    # per-trace latency histograms for free.  Untraced runs keep the
    # no-op recorder (every span below is then free).
    tel = runner.telemetry = _recorder(traceparent)
    runner._stage_hook = _stage_hook(ctl)
    runner._stage = "setup"  # the cached runner's is an earlier task's
    try:
        with tel.span("as", as_id=as_id):
            result = rehydrate_as(
                runner,
                as_id,
                [Path(p) for p in spill_paths],
                FaultCounters.from_dict(fault_dict),
                RetryAccounting.from_dict(retry_dict),
                context,
            )
    except Exception as exc:  # noqa: BLE001 -- per-AS isolation
        message = _failure(
            runner._stage,
            exc,
            FaultCounters.from_dict(fault_dict),
            RetryAccounting.from_dict(retry_dict),
            runner._fingerprint_injector,
        )
    else:
        message = {"status": "ok", "summary": result_summary(result)}
        if keep:
            message["result"] = result
        if tel.enabled:
            merge_counters(tel.counters, summary_counters(message["summary"]))
    finally:
        runner.telemetry = NULL_TELEMETRY
        runner._stage_hook = None
        runner._fingerprint_injector = None
    if tel.enabled:
        message["telemetry"] = tel.export()
    _boundary_check(ctl, max_rss)
    return message


def _scale_task(task: tuple, ctl: WorkerControl) -> dict:
    """The executor's task function: ``(kind, payload)``, kind ``"as"``
    (whole AS), ``"probe"`` or ``"analyze"``.  A task that did not
    succeed recycles its worker, so its interpreter never serves the
    next task."""
    kind, payload = task
    if kind == "probe":
        message = _probe_shard_worker(payload, ctl)
    elif kind == "analyze":
        message = _analyze_as_worker(payload, ctl)
    else:
        message = _whole_as_worker(payload, ctl)
    if message["status"] != "ok":
        ctl.request_recycle()
    return message


def _as_of(key: int | tuple[int, int]) -> int:
    """A task's affinity: its AS (analysis keys are the AS itself)."""
    return key if isinstance(key, int) else key[0]


def _shard_of(key: int | tuple[int, int]) -> tuple[int, int]:
    """The shard a task's quarantine is keyed by: its own, or for an
    analysis task its AS's bucket 0."""
    return key if isinstance(key, tuple) else (key, 0)


# -- supervisor: settle, bank, record ------------------------------------------


def _quarantine_reason(outcome: TaskOutcome) -> str:
    """Stable quarantine reason of a final timeout/lease-loss/crash outcome:
    ``timeout``, ``hung`` (silent past its lease) or ``crash``."""
    if outcome.status is TaskStatus.LEASE_EXPIRED:
        return "hung"
    return outcome.status.value


def _settle(
    outcome: TaskOutcome, raised_stage: str
) -> dict | AsFailure | AsQuarantine:
    """One final outcome as what it banks: the worker's ``ok`` message,
    or its AS's failure or quarantine.  ``raised_stage`` names the
    failure of a task function that raised."""
    as_id = _as_of(outcome.key)
    if outcome.status is TaskStatus.OK:
        message = outcome.value
        if message["status"] == "ok":
            return message
        if message["status"] == "disk-full":
            return AsQuarantine(
                as_id, "disk-full", outcome.attempts, message["error"]
            )
        logger.warning(
            "AS#%d failed during %s stage: %s",
            as_id,
            message["stage"],
            message["error"],
        )
        return AsFailure(
            as_id,
            message["stage"],
            message["error"],
            message["fault_counters"],
            message["retry_accounting"],
        )
    if outcome.status is TaskStatus.ERROR:
        logger.warning("AS#%d worker raised: %s", as_id, outcome.error)
        return AsFailure(as_id, raised_stage, outcome.error or "")
    # TIMEOUT / LEASE_EXPIRED / CRASH past the re-dispatch budget
    return AsQuarantine(
        as_id,
        _quarantine_reason(outcome),
        outcome.attempts,
        outcome.error or "",
        outcome.last_stage,
        dict(outcome.stage_seconds or {}),
    )


def _bank(
    store: ShardCheckpoint,
    key: int | tuple[int, int],
    entry: dict | AsFailure | AsQuarantine,
    session: TelemetrySession | None,
) -> bool:
    """Durably bank one settled outcome; True when the write landed.

    An answer banks its probe record first (its spill is already in
    place) and its summary second; a failure banks per AS, a
    quarantine per shard (an AS-level one under bucket 0).  The write's
    latency feeds the session's ``bank`` histogram.  A full disk leaves
    the checkpoint intact -- a torn tail at worst, salvaged on load --
    and the outcome unbanked, to run again on resume.
    """
    as_id = _as_of(key)
    tick = time.monotonic()
    try:
        if isinstance(entry, AsFailure):
            store.record_failure(as_id, entry.as_dict())
        elif isinstance(entry, AsQuarantine):
            store.record_quarantine(_shard_of(key), entry.as_dict())
        else:
            if entry.get("record") is not None:
                store.record_probe(entry["record"])
            if "summary" in entry:
                store.record_analysis(as_id, entry["summary"])
    except DiskFullError as exc:
        logger.error(
            "checkpoint write failed (disk full) banking task %r: %s -- "
            "it will re-run on resume",
            key,
            exc,
        )
        return False
    if session is not None:
        session.observe("bank", time.monotonic() - tick)
    return True


def _record_telemetry(
    session: TelemetrySession,
    outcome: TaskOutcome,
    entry: dict | AsFailure | AsQuarantine,
    scope: int | str,
) -> None:
    """Append one final outcome's telemetry to the session.

    An answer carries its worker's recorder export (shipped through
    the outcome pipe); a killed or crashed worker never exports, so the
    supervisor's observed heartbeat-stage durations stand in as its
    post-mortem.  A failure or quarantine counts once in its scope,
    each re-dispatch once for the campaign.
    """
    if outcome.attempts > 1:
        session.count("worker_redispatches", outcome.attempts - 1)
    if outcome.status is TaskStatus.OK:
        export = dict(outcome.value.get("telemetry") or {})
    else:
        spans = [
            {
                "stage": stage,
                "path": f"as/{stage}",
                "seconds": seconds,
                # post-mortems join the campaign trace (no start: the
                # supervisor only knows durations between heartbeats,
                # not the worker's clock, so they render in the stage
                # tables rather than the Gantt view)
                "trace_id": session.trace.trace_id,
                "span_id": os.urandom(8).hex(),
                "parent_span_id": session.trace.span_id,
            }
            for stage, seconds in sorted(
                (outcome.stage_seconds or {}).items()
            )
        ]
        export = {"spans": spans}
    if not isinstance(entry, dict):
        counter = (
            "as_failed" if isinstance(entry, AsFailure) else "as_quarantined"
        )
        export["counters"] = dict(export.get("counters") or {})
        merge_counters(export["counters"], {counter: 1})
    if export.get("spans") or export.get("counters"):
        session.record_export(scope, export)


def _fold_worker_facts(stats: dict, facts: list[dict], analysis: bool) -> None:
    """Fold one task's reported topology builds and memory facts (of
    every attempt, finished or not) into stats."""
    for fact in facts:
        builds = fact.get("builds", 0)
        stats["topology_builds"] += builds
        if analysis:
            stats["analyses_rebuilt"] += builds
        stats["caches_shed"] += int(fact.get("shed", False))
        stats["worker_rss_peak_bytes"] = max(
            stats["worker_rss_peak_bytes"], fact.get("peak_rss_bytes", 0)
        )


# -- the loop -------------------------------------------------------------------


def open_campaign_dir(
    runner: CampaignRunner,
    out_dir: str | Path,
    vps_per_shard: int | None,
    resume: bool,
) -> ShardCheckpoint:
    """The checkpoint of a campaign's run directory, ready for the loop.

    A resume adopts the banked layout, else ``vps_per_shard`` applies
    (default: one shard per AS); a layout that splits a churned AS is
    refused before anything runs.  Opening for resume deletes the
    atomic-writer temporaries a killed run left in the directory and
    in ``spills/``.
    """
    out_dir = Path(out_dir)
    store = open_run_dir(
        out_dir, runner._config_signature(), vps_per_shard, resume
    )
    if store.vps_per_shard is None:
        store.vps_per_shard = runner.vps_per_as
    if runner.churn_plan.active and store.vps_per_shard < runner.vps_per_as:
        raise ValueError(
            f"a churn plan cannot run at {store.vps_per_shard} VP(s) per "
            f"shard: its schedule mutates the network under all of an "
            f"AS's probes in sequence, so a churned AS runs whole (one "
            f"shard per AS, {runner.vps_per_as} VPs)"
        )
    if resume:
        torn = [
            path
            for folder in (out_dir, out_dir / SPILL_DIRNAME)
            for path in folder.glob(".*.tmp")
        ]
        for path in torn:
            path.unlink(missing_ok=True)
        if torn:
            logger.info(
                "removed %d temporary file(s) an interrupted write left "
                "in %s",
                len(torn),
                out_dir,
            )
    return store


def run_lease_loop(
    runner: CampaignRunner,
    as_ids: list[int],
    store: ShardCheckpoint | None,
    session: TelemetrySession | None,
    *,
    jobs: int,
    timeout: float | None,
    lease_timeout: float | None,
    max_rss_bytes: int | None,
    keep_results: bool,
    stats: dict,
) -> tuple[CampaignReport, set[int], bool]:
    """Run what the campaign still needs in one executor run.

    Returns what this run settled, as a report of the ASes that ran (in
    completion order; results only with ``keep_results``), the ASes
    whose banked analysis was skipped or only re-derived, and whether
    the run was interrupted.  ``stats`` gets the execution tallies.

    Tasks queue in plan order, one kind per AS (see the module
    docstring).  ASes with a banked failure or quarantine get no task:
    the report keeps them as banked.  A banked analysis is
    skipped, or, with ``keep_results``, re-derived by an analysis task
    that banks nothing.  A split AS's analysis is the follow-up of its
    last banked shard, or queues up front when a resume finds them all
    banked; a failed or quarantined shard, or a probe record the disk
    refused, leaves its AS unanalyzed.  Without a ``store`` nothing is
    spilled or banked.
    """
    spill_dir = vps_per_shard = None
    probed: dict[tuple[int, int], ShardProbeRecord] = {}
    analyses: dict[int, dict] = {}
    #: ASes with a banked failure or quarantine (restored as banked)
    closed: set[int] = set()
    #: per-VP facts a compaction left without their probe records
    canonical: dict[int, list[VpProbe]] = {}
    if store is not None:
        spill_dir = store.path.parent / SPILL_DIRNAME
        vps_per_shard = store.vps_per_shard
        probed, analyses = store.probed, store.analyses
        closed = set(store.failures) | {a for a, _ in store.quarantines}
        for (as_id, _), vp in sorted(store.vp_probes.items()):
            canonical.setdefault(as_id, []).append(vp)
    plan = shard_plan(
        as_ids, runner.vps_per_as, vps_per_shard or runner.vps_per_as
    )
    spawn = (type(runner), runner._spawn_config())
    token = f"{os.getpid()}-{next(_token_counter)}"
    traceparent = session.traceparent() if session is not None else None
    by_as: dict[int, list[ShardSpec]] = {}
    for shard in plan:
        by_as.setdefault(shard.as_id, []).append(shard)
    #: as_id -> bucket -> banked probe record (trusted spill)
    records: dict[int, dict[int, ShardProbeRecord]] = {}
    #: ASes whose analysis cannot run (a shard failed or quarantined)
    blocked: set[int] = set()
    #: ASes whose banked analysis is skipped or re-derived, not re-banked
    resumed: set[int] = set()
    settled = CampaignReport()
    tasks: list[tuple] = []

    def analysis_task(as_id: int, spills: list, vps) -> tuple:
        faults, retry = probe_tallies(vps)
        return (
            as_id,
            (
                "analyze",
                (
                    *spawn,
                    token,
                    as_id,
                    [str(path) for path in spills],
                    retry.as_dict(),
                    faults.as_dict(),
                    max_rss_bytes,
                    traceparent,
                    keep_results,
                ),
            ),
        )

    def follow_up(as_id: int) -> list[tuple]:
        """The AS's analysis once every shard banked, none blocked."""
        banked = records[as_id]
        if as_id in blocked or len(banked) < len(by_as[as_id]):
            return []
        ordered = [banked[b] for b in sorted(banked)]
        return [
            analysis_task(
                as_id,
                [spill_dir / r.spill for r in ordered],
                [vp for r in ordered for vp in r.vps],
            )
        ]

    def probe_task(shard: ShardSpec) -> tuple:
        if len(by_as[shard.as_id]) == 1:
            return (
                shard.key,
                (
                    "as",
                    (
                        *spawn,
                        shard.as_id,
                        spill_dir,
                        keep_results,
                        max_rss_bytes,
                        traceparent,
                    ),
                ),
            )
        return (
            shard.key,
            (
                "probe",
                (
                    *spawn,
                    token,
                    shard,
                    str(spill_dir / shard.spill_name),
                    max_rss_bytes,
                    traceparent,
                ),
            ),
        )

    for as_id, shards in by_as.items():
        if as_id in closed:
            continue  # reported as banked
        if as_id in analyses and not keep_results:
            resumed.add(as_id)
            continue
        records[as_id] = {}
        live = any(shard.key in probed for shard in shards)
        if not live and as_id in canonical:
            # a compaction folded the AS's probe records into per-VP
            # facts: match them to its spills by name
            spills = banked_spills(
                spill_dir, as_id, canonical[as_id], runner.vps_per_as
            )
            if spills is not None:
                if as_id in analyses:
                    resumed.add(as_id)
                tasks.append(analysis_task(as_id, spills, canonical[as_id]))
                continue
        pending = []
        for shard in shards:
            record = probed.get(shard.key)
            if record is not None:
                damage = spill_damage([spill_dir / record.spill], record.vps)
                if damage is None:
                    records[as_id][shard.bucket] = record
                    continue  # spill matches its record
                logger.warning(
                    "shard %r: spill %s does not match its banked "
                    "facts (%s); re-probing it",
                    shard.key,
                    record.spill,
                    damage,
                )
            pending.append(shard)
        if spill_dir is not None and not live:
            # probed afresh: stale spills of any earlier layout go first
            for path in as_spills(spill_dir, as_id):
                path.unlink()
        tasks.extend(probe_task(shard) for shard in pending)
        if not pending and as_id in analyses:
            resumed.add(as_id)
        tasks.extend(follow_up(as_id))
    probing = sum(isinstance(key, tuple) for key, _ in tasks)
    stats.update(
        shards_total=len(plan),
        shards_probed=probing,
        shards_resumed=len(plan) - probing,
        topology_builds=0,
        analyses_rebuilt=0,
        caches_shed=0,
        worker_rss_peak_bytes=0,
    )
    if not tasks:
        return settled, resumed, False
    if store is not None and any(
        _as_of(key) not in resumed for key, _ in tasks
    ):
        store.reopen()

    def on_complete(outcome: TaskOutcome) -> list[tuple]:
        key = outcome.key
        as_id = _as_of(key)
        _fold_worker_facts(stats, outcome.facts, isinstance(key, int))
        shard_task = isinstance(key, tuple) and len(by_as[as_id]) > 1
        if isinstance(key, int):
            raised = "analysis"
        elif shard_task:
            raised = "probe"
        else:
            raised = outcome.last_stage or "worker"
        entry = _settle(outcome, raised)
        if session is not None:
            _record_telemetry(
                session,
                outcome,
                entry,
                f"shard:{key[0]}:{key[1]}" if shard_task else as_id,
            )
        banked = (
            as_id in resumed
            or store is None
            or _bank(store, key, entry, session)
        )
        if shard_task and isinstance(entry, dict):
            if not banked:
                blocked.add(as_id)
                return []
            records[as_id][key[1]] = entry["record"]
            return follow_up(as_id)
        if shard_task:
            blocked.add(as_id)
        if isinstance(entry, AsFailure):
            settled.failures[as_id] = entry
        elif isinstance(entry, AsQuarantine):
            settled.quarantined[_shard_of(key)] = entry
        else:
            settled.completed[as_id] = entry["summary"]
            if keep_results:
                settled.results[as_id] = entry["result"]
        return []

    # one re-dispatch after a crash, deadline or lease loss, then the
    # circuit breaker quarantines
    executor = LeaseExecutor(
        _scale_task,
        jobs=jobs,
        lease_timeout=lease_timeout,
        timeout=timeout,
        max_redispatch=1,
    )
    with GracefulShutdown() as shutdown:
        result = executor.run(
            tasks, on_complete=on_complete, stop=shutdown, affinity=_as_of
        )
    stats.update(executor.stats)
    return settled, resumed, result.interrupted


# -- the driver ------------------------------------------------------------------


def run_campaign(
    runner: CampaignRunner,
    command: str,
    out_dir: str | Path | None,
    as_ids: list[int] | None,
    *,
    jobs: int,
    resume: bool,
    keep_results: bool,
    vps_per_shard: int | None = None,
    timeout: float | None = None,
    lease_timeout: float | None = None,
    max_rss_bytes: int | None = None,
    stats: dict | None = None,
    telemetry_dir: str | Path | None = None,
) -> CampaignReport:
    """The one campaign driver body; both public entries call it.

    In order: open the telemetry session (``command`` names it) and
    the run directory ``out_dir`` (None: nothing is spilled or
    banked); run :func:`run_lease_loop` over ``as_ids`` (default: the
    portfolio's analyzed ASes); build the one report
    (:func:`_campaign_report`); compact the checkpoint canonically
    once the campaign is finished; fill ``stats`` with the run's
    execution tallies and record them in the session as gauges (when
    given); finalize the session.  ``keep_results`` keeps each
    completed AS's :class:`~repro.campaign.runner.AsCampaignResult` in
    the report, re-deriving banked ones from their spills.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if resume and out_dir is None:
        raise ValueError("resume=True requires a checkpoint run directory")
    started = time.monotonic()
    if as_ids is None:
        as_ids = [s.as_id for s in runner.portfolio.analyzed()]
    # a repeated AS id runs once, where it first appears
    as_ids = list(dict.fromkeys(as_ids))
    session = (
        TelemetrySession(
            telemetry_dir,
            config=runner._config_signature(),
            seed=runner.seed,
            command=command,
            jobs=jobs,
            as_ids=list(as_ids),
        )
        if telemetry_dir is not None
        else None
    )
    try:
        store = (
            open_campaign_dir(runner, out_dir, vps_per_shard, resume)
            if out_dir is not None
            else None
        )
        settled, resumed, interrupted = run_lease_loop(
            runner,
            as_ids,
            store,
            session,
            jobs=jobs,
            timeout=timeout,
            lease_timeout=lease_timeout,
            max_rss_bytes=max_rss_bytes,
            keep_results=keep_results,
            stats={} if stats is None else stats,
        )
        report = _campaign_report(
            as_ids, settled, store, resumed, interrupted, session
        )
        if store is not None and not report.interrupted and not store.complete:
            # Canonical order makes a resumed checkpoint's bytes
            # match an uninterrupted run's.
            store.compact_canonical(as_ids)
        if stats is not None:
            stats.update(
                jobs=jobs,
                vps_per_shard=(
                    store.vps_per_shard if store else runner.vps_per_as
                ),
                ases_total=len(as_ids),
                ases_analyzed=len(report.completed),
                traces_total=report.traces_total(),
                shards_quarantined=len(report.quarantined),
                wall_seconds=round(time.monotonic() - started, 3),
                rss_peak_bytes=peak_rss_bytes(),
            )
            if session is not None:
                session.record_scope(
                    PORTFOLIO_SCOPE,
                    gauges={
                        name: float(value)
                        for name, value in sorted(stats.items())
                    },
                )
    except BaseException:
        if session is not None:
            session.finalize("error")
        raise
    if session is not None:
        session.finalize("interrupted" if report.interrupted else "ok")
    return report


def _campaign_report(
    as_ids: list[int],
    settled: CampaignReport,
    store: ShardCheckpoint | None,
    resumed: set[int],
    interrupted: bool,
    session: TelemetrySession | None,
) -> CampaignReport:
    """The campaign's one report, strictly in ``as_ids`` order.

    An AS that settled in this run reports that outcome; any other AS
    reports what the checkpoint banked for it, and each banked
    completion (its :func:`summary_counters`), failure or quarantine
    counts once in the session, as it did in the run that banked it.
    An AS left with no outcome at all (the run was cut short, or the
    disk refused a shard's record) marks the report interrupted: a
    resume completes it.
    """
    banked = CampaignReport()
    if store is not None:
        banked.completed = store.analyses
        banked.failures = {
            as_id: AsFailure.from_dict(as_id, record)
            for as_id, record in store.failures.items()
        }
        banked.quarantined = {
            key: AsQuarantine.from_dict(key[0], detail)
            for key, detail in store.quarantines.items()
        }
    ran = {
        *settled.completed,
        *settled.failures,
        *(as_id for as_id, _ in settled.quarantined),
    }
    report = CampaignReport(interrupted=interrupted)
    for as_id in as_ids:
        source = settled if as_id in ran else banked
        if as_id in source.completed:
            report.completed[as_id] = source.completed[as_id]
            if as_id in source.results:
                report.results[as_id] = source.results[as_id]
            if as_id in resumed:
                report.resumed_as_ids.append(as_id)
        incidents: list = []
        if as_id in source.failures:
            report.failures[as_id] = source.failures[as_id]
            incidents.append("as_failed")
        for key in sorted(k for k in source.quarantined if k[0] == as_id):
            report.quarantined[key] = source.quarantined[key]
            incidents.append("as_quarantined")
        if source is banked and session is not None:
            if as_id in report.completed:
                session.record_scope(
                    as_id,
                    counters=summary_counters(report.completed[as_id]),
                )
            for counter in incidents:
                session.record_scope(as_id, counters={counter: 1})
        if as_id not in report.completed and not incidents:
            report.interrupted = True
    return report


class ScaleCampaign(CampaignRunner):
    """The paper-scale campaign driver (sharded, leased, resumable).

    Construction and measurement semantics are the classic runner's:
    both draw probe faults per vantage point, which is what buys
    partition invariance.  A churn plan runs at the default layout
    (one shard per AS); a layout that splits its ASes is refused.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        #: observational execution tallies of the most recent run()
        self.stats: dict[str, int | float] = {}

    def run(
        self,
        out_dir: str | Path,
        as_ids: list[int] | None = None,
        jobs: int = 1,
        vps_per_shard: int | None = None,
        resume: bool = False,
        lease_timeout: float | None = 60.0,
        max_rss_bytes: int | None = None,
        telemetry_dir: str | Path | None = None,
    ) -> CampaignReport:
        """Run (or resume) the campaign into ``out_dir``.

        Runs the one campaign driver (:func:`run_campaign`) holding
        summaries only, and records its execution tallies in
        :attr:`stats`.  ``out_dir`` holds everything durable:
        ``checkpoint.jsonl`` (the shard checkpoint) and ``spills/``
        (per-shard trace files).  ``vps_per_shard`` sets the shard
        granularity (default: one shard per AS, each AS a whole-AS
        task); a resumed run adopts the banked layout, so re-sharding
        mid-campaign is safe.  ``jobs`` sizes the worker pool -- any
        value yields byte-identical results.  Under an active churn
        plan a ``vps_per_shard`` below ``vps_per_as`` raises
        ``ValueError`` before any task runs.  ``max_rss_bytes`` is each
        worker's resident-set budget (see the module docstring).

        ``telemetry_dir`` turns on distributed tracing: a
        :class:`~repro.obs.session.TelemetrySession` mints one
        campaign-wide trace context whose traceparent rides every task
        envelope, and each worker's traced export is recorded as the
        shard (``shard:<as>:<bucket>``) or AS completes.  Purely
        observational: report JSON and checkpoint bytes are identical
        with it on or off.
        """
        self.stats = {}
        return run_campaign(
            self,
            "scale-campaign",
            out_dir,
            as_ids,
            jobs=jobs,
            resume=resume,
            keep_results=False,
            vps_per_shard=vps_per_shard,
            lease_timeout=lease_timeout,
            max_rss_bytes=max_rss_bytes,
            stats=self.stats,
            telemetry_dir=telemetry_dir,
        )
