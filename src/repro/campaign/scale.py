"""Paper-scale campaign orchestration: sharded, leased, resumable.

The classic :class:`~repro.campaign.runner.CampaignRunner` holds one
AS's entire dataset in memory and dispatches whole ASes; fine for
Table 5's 41 ASes, impossible for the paper's 7.7M-traceroute scale.
:class:`ScaleCampaign` runs the same measurement rule, and banks into
the same run-directory format, through a different execution plane:
one :class:`~repro.campaign.shardexec.LeaseExecutor` run per campaign,
with two kinds of task.

**Probe tasks.**  The campaign is split into deterministic
``(as_id, vp_bucket)`` shards (:func:`~repro.campaign.shards.shard_plan`)
that the pool drains by work stealing.  Each shard streams its traces
to an atomic spill file and reports partition-independent per-VP
facts; the supervisor banks the record in the
:class:`~repro.campaign.checkpoint.ShardCheckpoint` *after* the spill is
in place, so ``kill -9`` anywhere loses nothing and duplicates nothing.
The worker keeps the AS's topology and the bucket's traces on its
cached :class:`~repro.campaign.shards.ShardContext`.

**Analysis tasks.**  The moment an AS's last shard banks, its analysis
is queued as a follow-up task; every task of an AS shares the AS as its
affinity, so the analysis usually lands on the worker that probed it.
That worker analyzes on the cached network with the buckets it holds in
memory and decodes only the spills of buckets other workers probed.  A
cache miss (another worker, a shed cache, a resumed run) falls back to
:func:`rehydrate_as` without a context -- the rehydration
``run_portfolio``'s resume runs too -- which rebuilds the topology and
merges the AS's spills in bucket order.  Either way the AS is
fingerprinted and analyzed exactly as the classic runner does, and a
canonical JSON summary is banked.  The report is assembled from banked
summaries in ``as_ids`` order.

Memory is governed end to end: the supervisor holds no traces, a
worker holds at most the ASes in its context cache (an analysis drops
its AS), and a per-worker :class:`~repro.util.rss.RssWatchdog` checks
the resident set at task boundaries -- shedding the context cache at
the soft level (analyses then decode their spills) and requesting a
graceful worker recycle at the hard level.  Pressure throttles
admission; it never interrupts a write.

Determinism contract: ``report.as_dict()`` JSON and the canonical
checkpoint bytes are identical for **any** ``--jobs``/``--shards``
value -- serial, parallel, or crashed-and-resumed -- because every
shard is a pure function of the campaign config (per-VP fault and
retry scoping; see :mod:`repro.campaign.shards`), and an analysis reads
the same traces whether they come from memory or from spills.  Churn
plans are the one exception -- their schedules are inherently
sequential across an AS -- so sharded campaigns refuse them at
construction.  A resumed run re-probes any banked shard whose spill
fails its banked digests.
"""

from __future__ import annotations

import itertools
import logging
import os
import time
from pathlib import Path

from repro.campaign.checkpoint import (
    SPILL_DIRNAME,
    ShardCheckpoint,
    open_run_dir,
)
from repro.campaign.runner import (
    AsCampaignResult,
    CampaignRunner,
    bank_durably,
    result_counters,
    result_summary,
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


class ScaleReport:
    """Outcome of one paper-scale campaign (summaries, not datasets)."""

    def __init__(self) -> None:
        #: as_id -> canonical analysis summary, in ``as_ids`` order
        self.completed: dict[int, dict] = {}
        #: as_id -> {"stage", "error"} for deterministic failures
        self.failures: dict[int, dict] = {}
        #: "as:bucket" -> quarantine detail for circuit-broken shards
        self.quarantined: dict[str, dict] = {}
        #: True when a shutdown request (or unfinished probing) cut
        #: the run short; resume completes it
        self.interrupted = False

    def aggregate_fault_counters(self) -> FaultCounters:
        total = FaultCounters()
        for summary in self.completed.values():
            total.merge(
                FaultCounters.from_dict(summary.get("fault_counters", {}))
            )
        return total

    def aggregate_retry_accounting(self) -> RetryAccounting:
        total = RetryAccounting()
        for summary in self.completed.values():
            total.merge(
                RetryAccounting.from_dict(
                    summary.get("retry_accounting", {})
                )
            )
        return total

    def traces_total(self) -> int:
        return sum(
            summary.get("traces_total", 0)
            for summary in self.completed.values()
        )

    def summary(self) -> str:
        """One-line human summary of the campaign outcome."""
        parts = [
            f"{len(self.completed)} AS(es) analyzed",
            f"{self.traces_total()} traces",
        ]
        if self.failures:
            parts.append(f"{len(self.failures)} failed")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} shard(s) quarantined")
        if self.interrupted:
            parts.append("INTERRUPTED")
        return ", ".join(parts)

    def as_dict(self) -> dict:
        """Canonical JSON view; the jobs/shards determinism contract.

        Two runs of the same campaign -- any worker count, any shard
        layout, fresh or resumed -- must produce byte-identical
        ``json.dumps(report.as_dict())``.
        """
        anomaly_counts: dict[str, int] = {}
        for summary in self.completed.values():
            for kind, count in summary.get("anomaly_counts", {}).items():
                anomaly_counts[kind] = anomaly_counts.get(kind, 0) + count
        return {
            "completed": {
                str(as_id): summary
                for as_id, summary in self.completed.items()
            },
            "failures": {
                str(as_id): dict(stub)
                for as_id, stub in self.failures.items()
            },
            "quarantined": {
                key: dict(detail)
                for key, detail in sorted(self.quarantined.items())
            },
            "interrupted": self.interrupted,
            "traces_total": self.traces_total(),
            "fault_counters": self.aggregate_fault_counters().as_dict(),
            "retry_accounting": self.aggregate_retry_accounting().as_dict(),
            "anomaly_counts": dict(sorted(anomaly_counts.items())),
        }


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
#: per-process watchdog (created on first shard, one per budget)
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


def _boundary_check(ctl: WorkerControl, max_rss_bytes: int | None) -> dict:
    """The task-boundary watchdog check; may request a recycle.

    Returns the worker's memory facts the supervisor folds into
    :attr:`ScaleCampaign.stats`.
    """
    verdict = _worker_watchdog(max_rss_bytes).check()
    if verdict.recycle:
        ctl.request_recycle()
    return {"shed": verdict.shed, "peak_rss_bytes": peak_rss_bytes()}


def _probe_shard_worker(payload: tuple, ctl: WorkerControl) -> dict:
    """Executor task: probe one shard into its spill file.

    Never raises for environmental failure: running out of disk comes
    back as a structured ``disk-full`` record the supervisor turns into
    a clean per-shard quarantine (the previous spill, if any, is
    intact -- the atomic writer never renamed the torn temporary).
    The bucket's traces stay on the worker's cached context for the
    AS's analysis.  ``builds`` counts the topology built for it.

    When the task envelope carries a traceparent, the shard runs under
    a traced recorder whose export rides back on the ``ok`` message --
    spills and checkpoint records stay byte-identical either way.
    """
    runner_cls, kwargs, token, shard, spill_path, max_rss, traceparent = (
        payload
    )
    ctl.heartbeat(f"shard-{shard.as_id}-{shard.bucket}")
    runner = _worker_runner(runner_cls, kwargs, token)
    context, built = _worker_context(runner, shard.as_id)
    tel = (
        Telemetry(trace=TraceContext.parse(traceparent))
        if traceparent is not None
        else NULL_TELEMETRY
    )
    traces: list = []
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
            )
    except DiskFullError as exc:
        return {
            "status": "disk-full",
            "error": str(exc),
            "builds": int(built),
        }
    context.buckets[shard.bucket] = traces
    message = {"status": "ok", "record": record, "builds": int(built)}
    if tel.enabled:
        tel.count("traces_collected", sum(vp.traces for vp in record.vps))
        message["telemetry"] = tel.export()
    message.update(_boundary_check(ctl, max_rss))
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

    The one rehydration path: the sharded plane's analysis and
    ``run_portfolio``'s resume both run it.  Without ``context`` the
    topology is rebuilt deterministically and every spill is decoded.
    With the AS's cached :class:`~repro.campaign.shards.ShardContext`
    (built from the same spec, VPs and seed) its network is analyzed
    as is, and each bucket it holds is read from memory instead of its
    spill -- the same traces either way.  The buckets merge in order
    into the AS's dataset, and fingerprinting and analysis run exactly
    as in :meth:`~repro.campaign.runner.CampaignRunner.run_as`.
    ``faults`` and ``retry`` are the AS's banked probe tallies.  Stage
    changes go to the runner's heartbeat hook, spans to its recorder.
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
    and drops it (the AS is finished); otherwise rebuilds.  Returns the
    canonical summary (:func:`rehydrate_as` does the work) and
    ``builds``, 1 when the analysis had to rebuild the topology.
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
    ) = payload
    ctl.heartbeat(f"analyze-{as_id}")
    runner = _worker_runner(runner_cls, kwargs, token)
    context = _CONTEXT_CACHE.pop(as_id, None)
    # The pipeline reads runner.telemetry: routing the traced recorder
    # through it gives the analysis its sanitize/detect spans and
    # per-trace latency histograms for free.  Untraced runs keep the
    # no-op recorder (every span below is then free).
    tel = (
        Telemetry(trace=TraceContext.parse(traceparent))
        if traceparent is not None
        else NULL_TELEMETRY
    )
    previous_telemetry = runner.telemetry
    runner.telemetry = tel
    runner._stage_hook = ctl.heartbeat
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
    finally:
        runner.telemetry = previous_telemetry
        runner._stage_hook = None
    message = {
        "status": "ok",
        "summary": result_summary(result),
        "builds": int(context is None),
    }
    if tel.enabled:
        merge_counters(tel.counters, result_counters(result))
        message["telemetry"] = tel.export()
    message.update(_boundary_check(ctl, max_rss))
    return message


def _scale_task(task: tuple, ctl: WorkerControl) -> dict:
    """The executor's task function: ``(kind, payload)``, kind
    ``"probe"`` or ``"analyze"``."""
    kind, payload = task
    if kind == "probe":
        return _probe_shard_worker(payload, ctl)
    return _analyze_as_worker(payload, ctl)


def _as_of(key: int | tuple[int, int]) -> int:
    """A task's affinity: its AS (analysis keys are the AS itself)."""
    return key if isinstance(key, int) else key[0]


# -- supervisor ------------------------------------------------------------------


class ScaleCampaign(CampaignRunner):
    """The paper-scale campaign driver (sharded, leased, resumable).

    Construction and measurement semantics are the classic runner's:
    both draw probe faults per vantage point, which is what buys
    partition invariance.  Churn plans are rejected outright.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        if self.churn_plan.active:
            raise ValueError(
                "sharded campaigns cannot run under a churn plan: churn "
                "schedules mutate the network under all probes in "
                "sequence, which is incompatible with per-VP sharding; "
                "use CampaignRunner for churned campaigns"
            )
        #: observational execution tallies of the most recent run()
        self.stats: dict[str, int | float] = {}

    # -- the run --------------------------------------------------------------

    def run(
        self,
        out_dir: str | Path,
        as_ids: list[int] | None = None,
        jobs: int = 1,
        vps_per_shard: int | None = None,
        resume: bool = False,
        lease_timeout: float | None = 60.0,
        max_rss_bytes: int | None = None,
        max_redispatch: int = 1,
        telemetry_dir: str | Path | None = None,
    ) -> ScaleReport:
        """Run (or resume) the campaign into ``out_dir``.

        ``out_dir`` holds everything durable: ``checkpoint.jsonl`` (the
        shard checkpoint) and ``spills/`` (per-shard trace files).
        ``vps_per_shard`` sets the shard granularity (default: one
        shard per AS); a resumed run adopts the banked layout, so
        re-sharding mid-campaign is safe.  ``jobs`` sizes the worker
        pool -- any value yields byte-identical results.

        ``telemetry_dir`` turns on distributed tracing: a
        :class:`~repro.obs.session.TelemetrySession` mints one
        campaign-wide trace context whose traceparent rides every task
        envelope, and each worker's traced export is banked as the
        shard (``shard:<as>:<bucket>``) or AS completes.  Purely
        observational: report JSON and checkpoint bytes are identical
        with it on or off.
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        started = time.monotonic()
        if as_ids is None:
            as_ids = [s.as_id for s in self.portfolio.analyzed()]
        session = (
            TelemetrySession(
                telemetry_dir,
                config=self._config_signature(),
                seed=self.seed,
                command="scale-campaign",
                jobs=jobs,
                as_ids=list(as_ids),
            )
            if telemetry_dir is not None
            else None
        )
        try:
            return self._run_supervised(
                Path(out_dir), started, as_ids, jobs, vps_per_shard,
                resume, lease_timeout, max_rss_bytes, max_redispatch,
                session,
            )
        except BaseException:
            if session is not None:
                session.finalize("error")
            raise

    def _run_supervised(
        self,
        out_dir: Path,
        started: float,
        as_ids: list[int],
        jobs: int,
        vps_per_shard: int | None,
        resume: bool,
        lease_timeout: float | None,
        max_rss_bytes: int | None,
        max_redispatch: int,
        session: TelemetrySession | None,
    ) -> ScaleReport:
        store = open_run_dir(
            out_dir, self._config_signature(), vps_per_shard, resume
        )
        spill_dir = out_dir / SPILL_DIRNAME
        if store.vps_per_shard is None:
            store.vps_per_shard = self.vps_per_as
        if store.complete:
            # "complete" is scoped to the as_ids the run compacted
            # with; asking for ASes it never saw reopens the campaign
            # (their shards probe fresh, banked ASes stay skipped, and
            # the final re-compaction folds both into canonical form).
            accounted = (
                set(store.analyses)
                | set(store.failures)
                | {key[0] for key in store.quarantines}
            )
            if any(as_id not in accounted for as_id in as_ids):
                store.reopen()
        token = f"{os.getpid()}-{next(_token_counter)}"
        self.stats = {
            "jobs": jobs,
            "vps_per_shard": store.vps_per_shard,
            "ases_total": len(as_ids),
            "topology_builds": 0,
            "analyses_rebuilt": 0,
            "caches_shed": 0,
            "worker_rss_peak_bytes": 0,
        }

        interrupted = False
        if not store.complete:
            plan = shard_plan(as_ids, self.vps_per_as, store.vps_per_shard)
            self.stats["shards_total"] = len(plan)
            interrupted = self._run_plan(
                store, plan, spill_dir, token, jobs,
                lease_timeout, max_rss_bytes, max_redispatch, session,
            )

        report = self._assemble(store, as_ids)
        if interrupted:
            report.interrupted = True
        if not report.interrupted and not store.complete:
            store.compact_canonical(as_ids)
        self.stats["ases_analyzed"] = len(report.completed)
        self.stats["traces_total"] = report.traces_total()
        self.stats["shards_quarantined"] = len(report.quarantined)
        self.stats["wall_seconds"] = round(time.monotonic() - started, 3)
        self.stats["rss_peak_bytes"] = peak_rss_bytes()
        if session is not None:
            session.record_scope(
                PORTFOLIO_SCOPE,
                gauges={
                    name: float(value)
                    for name, value in sorted(self.stats.items())
                },
            )
            session.finalize("interrupted" if report.interrupted else "ok")
        return report

    # -- the lease loop -------------------------------------------------------

    def _run_plan(
        self,
        store: ShardCheckpoint,
        plan: list[ShardSpec],
        spill_dir: Path,
        token: str,
        jobs: int,
        lease_timeout: float | None,
        max_rss_bytes: int | None,
        max_redispatch: int,
        session: TelemetrySession | None = None,
    ) -> bool:
        """Probe and analyze what the plan still needs, in one executor
        run; returns True when interrupted.

        Tasks queue in plan order.  An AS's analysis is the follow-up
        of its last banked shard, or queues up front when a resume
        finds all its shards banked.  A failed or quarantined shard,
        or a probe record the disk refused, leaves its AS unanalyzed.
        """
        probed = store.probed
        analyses = store.analyses
        failures = store.failures
        quarantines = store.quarantines
        spawn = self._spawn_config()
        traceparent = session.traceparent() if session is not None else None
        by_as: dict[int, list[ShardSpec]] = {}
        for shard in plan:
            by_as.setdefault(shard.as_id, []).append(shard)
        #: as_id -> bucket -> banked probe record (trusted spill)
        records: dict[int, dict[int, ShardProbeRecord]] = {}
        #: ASes whose analysis cannot run (a shard failed or quarantined)
        blocked: set[int] = set()
        tasks: list[tuple] = []

        def ready(as_id: int) -> bool:
            """Every shard of the AS banked, none failed or quarantined."""
            banked = records[as_id]
            return as_id not in blocked and len(banked) == len(by_as[as_id])

        def analysis_task(as_id: int) -> tuple:
            banked = [records[as_id][b] for b in sorted(records[as_id])]
            faults, retry = probe_tallies(
                vp for record in banked for vp in record.vps
            )
            return (
                as_id,
                (
                    "analyze",
                    (
                        type(self),
                        spawn,
                        token,
                        as_id,
                        [str(spill_dir / r.spill) for r in banked],
                        retry.as_dict(),
                        faults.as_dict(),
                        max_rss_bytes,
                        traceparent,
                    ),
                ),
            )

        for as_id, shards in by_as.items():
            if as_id in analyses or as_id in failures:
                continue  # downstream already banked; spills done
            records[as_id] = {}
            for shard in shards:
                if shard.key in quarantines:
                    blocked.add(as_id)
                    continue  # circuit breaker stays open across resume
                record = probed.get(shard.key)
                if record is not None:
                    damage = spill_damage(spill_dir / record.spill, record.vps)
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
                tasks.append(
                    (
                        shard.key,
                        (
                            "probe",
                            (
                                type(self),
                                spawn,
                                token,
                                shard,
                                str(spill_dir / shard.spill_name),
                                max_rss_bytes,
                                traceparent,
                            ),
                        ),
                    )
                )
            if ready(as_id):
                tasks.append(analysis_task(as_id))
        probing = sum(isinstance(key, tuple) for key, _ in tasks)
        self.stats["shards_probed"] = probing
        self.stats["shards_resumed"] = len(plan) - probing
        if not tasks:
            return False

        def on_complete(outcome: TaskOutcome) -> list[tuple]:
            message = outcome.value if outcome.status is TaskStatus.OK else {}
            self._fold_worker_facts(message)
            if isinstance(outcome.key, int):
                self.stats["analyses_rebuilt"] += message.get("builds", 0)
                self._bank_analysis(store, outcome, session)
                return []
            as_id, bucket = outcome.key
            if not self._bank_probe(store, outcome, session):
                blocked.add(as_id)
                return []
            records[as_id][bucket] = message["record"]
            return [analysis_task(as_id)] if ready(as_id) else []

        executor = LeaseExecutor(
            _scale_task,
            jobs=jobs,
            lease_timeout=lease_timeout,
            max_redispatch=max_redispatch,
        )
        with GracefulShutdown() as shutdown:
            result = executor.run(
                tasks, on_complete=on_complete, stop=shutdown, affinity=_as_of
            )
        self.stats.update(executor.stats)
        return result.interrupted

    @staticmethod
    def _bank_probe(
        store: ShardCheckpoint,
        outcome: TaskOutcome,
        session: TelemetrySession | None,
    ) -> bool:
        """Bank one shard's outcome; True when its probe record banked."""
        key = outcome.key
        message = outcome.value if outcome.status is TaskStatus.OK else {}
        ok = message.get("status") == "ok"

        def write() -> None:
            if ok:
                # Spill was renamed into place before the worker
                # answered; banking second closes the crash window
                # on the safe side (re-run, never lose).
                store.record_probe(message["record"])
            elif message:  # structured disk-full degradation
                store.record_quarantine(
                    key,
                    {
                        "reason": "disk-full",
                        "attempts": outcome.attempts,
                        "detail": message["error"],
                    },
                )
            elif outcome.status is TaskStatus.ERROR:
                store.record_failure(
                    key[0],
                    {"stage": "probe", "error": outcome.error or ""},
                )
            else:  # LEASE_EXPIRED / CRASH past the re-dispatch budget
                store.record_quarantine(
                    key,
                    {
                        "reason": outcome.status.value,
                        "attempts": outcome.attempts,
                        "detail": outcome.error or "",
                    },
                )

        banked = bank_durably(
            write,
            f"shard {key!r}",
            session,
            f"shard:{key[0]}:{key[1]}",
            message.get("telemetry"),
        )
        return ok and banked

    @staticmethod
    def _bank_analysis(
        store: ShardCheckpoint,
        outcome: TaskOutcome,
        session: TelemetrySession | None,
    ) -> None:
        """Bank one AS's analysis summary (or its failure)."""
        as_id = outcome.key
        ok = outcome.status is TaskStatus.OK

        def write() -> None:
            if ok:
                store.record_analysis(as_id, outcome.value["summary"])
            else:
                # Deterministic analysis failures *and* workers that
                # die past the budget are banked per AS: the data is
                # on disk, only the derivation failed.
                store.record_failure(
                    as_id,
                    {"stage": "analysis", "error": outcome.error or ""},
                )

        bank_durably(
            write,
            f"analysis of AS#{as_id}",
            session,
            as_id,
            outcome.value.get("telemetry") if ok else None,
        )

    def _fold_worker_facts(self, message: dict) -> None:
        """Fold one task's topology builds and memory facts into stats."""
        stats = self.stats
        stats["topology_builds"] += message.get("builds", 0)
        stats["caches_shed"] += int(message.get("shed", False))
        stats["worker_rss_peak_bytes"] = max(
            stats["worker_rss_peak_bytes"], message.get("peak_rss_bytes", 0)
        )

    # -- assembly -------------------------------------------------------------

    def _assemble(
        self, store: ShardCheckpoint, as_ids: list[int]
    ) -> ScaleReport:
        """Build the report from banked records, strictly in as_ids order."""
        report = ScaleReport()
        analyses = store.analyses
        failures = store.failures
        for as_id in as_ids:
            if as_id in analyses:
                report.completed[as_id] = analyses[as_id]
            elif as_id in failures:
                report.failures[as_id] = failures[as_id]
        for (as_id, bucket), detail in sorted(store.quarantines.items()):
            if as_id in as_ids:
                report.quarantined[f"{as_id}:{bucket}"] = detail
        # ASes with neither analysis, failure nor quarantine were never
        # finished: the run is incomplete (interrupted or degraded).
        unfinished = [
            as_id
            for as_id in as_ids
            if as_id not in report.completed
            and as_id not in report.failures
            and not any(
                key.startswith(f"{as_id}:") for key in report.quarantined
            )
        ]
        if unfinished:
            report.interrupted = True
        return report
