"""Paper-scale campaign orchestration: sharded, leased, resumable.

The classic :class:`~repro.campaign.runner.CampaignRunner` holds one
AS's entire dataset in memory and banks it whole; fine for Table 5's 41
ASes, impossible for the paper's 7.7M-traceroute scale.
:class:`ScaleCampaign` runs the same measurement science through a
different execution plane, in two phases:

**Probe phase.**  The campaign is split into deterministic
``(as_id, vp_bucket)`` shards (:func:`~repro.campaign.shards.shard_plan`)
that a :class:`~repro.campaign.shardexec.LeaseExecutor` pool drains by
work stealing.  Each shard streams its traces to an atomic spill file
and reports partition-independent per-VP facts; the supervisor banks
the record in the :class:`~repro.campaign.checkpoint.ShardCheckpoint`
*after* the spill is in place, so ``kill -9`` anywhere loses nothing
and duplicates nothing.

**Analyze phase.**  Per AS, a worker rebuilds the topology
deterministically, merges that AS's spills in bucket order (bounded by
one AS, never the campaign), fingerprints and analyzes exactly as the
classic runner does, and returns a canonical JSON summary the
checkpoint banks.  The report is assembled from banked summaries in
``as_ids`` order.

Memory is governed end to end: traces never accumulate in RAM, and a
per-worker :class:`~repro.util.rss.RssWatchdog` checks the resident
set at shard boundaries -- shedding the per-AS topology cache at the
soft level and requesting a graceful worker recycle at the hard level.
Pressure throttles admission; it never interrupts a write.

Determinism contract: ``report.as_dict()`` JSON and the canonical
checkpoint bytes are identical for **any** ``--jobs``/``--shards``
value -- serial, parallel, or crashed-and-resumed -- because every
shard is a pure function of the campaign config (per-VP fault and
retry scoping; see :mod:`repro.campaign.shards`).  Churn plans are the
one exception -- their schedules are inherently sequential across an
AS -- so sharded campaigns refuse them at construction.
"""

from __future__ import annotations

import itertools
import logging
import os
import time
from pathlib import Path

from repro.campaign.checkpoint import ShardCheckpoint
from repro.campaign.runner import (
    AsCampaignResult,
    CampaignRunner,
    result_counters,
)
from repro.campaign.shardexec import (
    GracefulShutdown,
    LeaseExecutor,
    TaskOutcome,
    TaskStatus,
    WorkerControl,
)
from repro.campaign.shards import (
    ShardProbeRecord,
    ShardSpec,
    build_shard_context,
    merged_dataset,
    probe_shard,
    shard_plan,
)
from repro.netsim.faults import FaultCounters, FaultInjector
from repro.obs.session import PORTFOLIO_SCOPE, TelemetrySession
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, merge_counters
from repro.obs.trace import TraceContext
from repro.topogen.internet import build_measurement_network
from repro.util.atomicio import DiskFullError
from repro.util.retry import RetryAccounting
from repro.util.rss import RssWatchdog, peak_rss_bytes

logger = logging.getLogger(__name__)

_token_counter = itertools.count()


def result_summary(result: AsCampaignResult) -> dict:
    """One AS's canonical JSON summary (the banked analysis record).

    Mirrors the per-AS entry of
    :meth:`~repro.campaign.runner.CampaignReport.as_dict` -- same keys,
    same ordering rules -- so scale reports and classic reports read
    the same way.
    """
    analysis = result.analysis
    return {
        "flags": {
            flag.name: count
            for flag, count in sorted(
                analysis.flag_counts().items(),
                key=lambda item: item[0].name,
            )
        },
        "traces_total": analysis.traces_total,
        "traces_quarantined": analysis.traces_quarantined,
        "sr_interfaces": len(analysis.sr_addresses),
        "mpls_interfaces": len(analysis.mpls_addresses),
        "ip_interfaces": len(analysis.ip_addresses),
        "distinct_segments": analysis.total_distinct_segments(),
        "fingerprints": len(result.fingerprints),
        "routers": result.router_count(),
        "anomaly_counts": dict(sorted(analysis.anomaly_counts().items())),
        "fault_counters": result.fault_counters.as_dict(),
        "retry_accounting": result.retry_accounting.as_dict(),
    }


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
#: part of a shard); shed by the RSS watchdog, bounded in size
_CONTEXT_CACHE: dict[int, object] = {}
_CONTEXT_CACHE_MAX = 4
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


def _worker_context(runner: CampaignRunner, as_id: int):
    context = _CONTEXT_CACHE.get(as_id)
    if context is None:
        while len(_CONTEXT_CACHE) >= _CONTEXT_CACHE_MAX:
            _CONTEXT_CACHE.pop(next(iter(_CONTEXT_CACHE)))
        context = build_shard_context(runner, as_id)
        _CONTEXT_CACHE[as_id] = context
    return context


def _worker_watchdog(max_rss_bytes: int | None) -> RssWatchdog:
    watchdog = _WATCHDOGS.get(max_rss_bytes)
    if watchdog is None:
        _WATCHDOGS.clear()
        watchdog = RssWatchdog(max_rss_bytes)
        watchdog.add_shedder(_CONTEXT_CACHE.clear)
        _WATCHDOGS[max_rss_bytes] = watchdog
    return watchdog


def _boundary_check(ctl: WorkerControl, max_rss_bytes: int | None) -> dict:
    """The shard-boundary watchdog check; may request a recycle."""
    verdict = _worker_watchdog(max_rss_bytes).check()
    if verdict.recycle:
        ctl.request_recycle()
    return {"rss_bytes": verdict.rss_bytes, "shed": verdict.shed}


def _probe_shard_worker(payload: tuple, ctl: WorkerControl) -> dict:
    """Executor task: probe one shard into its spill file.

    Never raises for environmental failure: running out of disk comes
    back as a structured ``disk-full`` record the supervisor turns into
    a clean per-shard quarantine (the previous spill, if any, is
    intact -- the atomic writer never renamed the torn temporary).

    When the task envelope carries a traceparent, the shard runs under
    a traced recorder whose export rides back on the ``ok`` message --
    spills and checkpoint records stay byte-identical either way.
    """
    runner_cls, kwargs, token, shard, spill_path, max_rss, traceparent = (
        payload
    )
    ctl.heartbeat(f"shard-{shard.as_id}-{shard.bucket}")
    runner = _worker_runner(runner_cls, kwargs, token)
    context = _worker_context(runner, shard.as_id)
    tel = (
        Telemetry(trace=TraceContext.parse(traceparent))
        if traceparent is not None
        else None
    )
    try:
        if tel is not None:
            with tel.span("shard", as_id=shard.as_id, bucket=shard.bucket):
                record = probe_shard(
                    runner,
                    context,
                    shard,
                    Path(spill_path),
                    heartbeat=ctl.heartbeat,
                    telemetry=tel,
                )
        else:
            record = probe_shard(
                runner,
                context,
                shard,
                Path(spill_path),
                heartbeat=ctl.heartbeat,
            )
    except DiskFullError as exc:
        return {"status": "disk-full", "error": str(exc)}
    message = {"status": "ok", "record": record}
    if tel is not None:
        tel.count("traces_collected", sum(vp.traces for vp in record.vps))
        message["telemetry"] = tel.export()
    message.update(_boundary_check(ctl, max_rss))
    return message


def _analyze_as_worker(payload: tuple, ctl: WorkerControl) -> dict:
    """Executor task: merge one AS's spills and analyze them.

    Rebuilds the topology deterministically (same as checkpoint
    rehydration in the classic runner), streams the spills into a
    single per-AS dataset, fingerprints with a fresh
    ``("fingerprint", as_id)``-scoped injector (partition-independent,
    unlike reusing a probe injector's sequential state), and returns
    the canonical summary plus the AS's merged probe tallies.
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
    try:
        with tel.span("as", as_id=as_id):
            spec = runner.portfolio.spec(as_id)
            vps = runner._select_vps(as_id)
            ctl.heartbeat("topology")
            with tel.span("topology"):
                net = build_measurement_network(
                    spec, [vp.vp_id for vp in vps], seed=runner.seed
                )
            ctl.heartbeat("merge")
            metadata = {
                "as_id": str(as_id),
                "seed": str(runner.seed),
                "vps": ",".join(vp.vp_id for vp in vps),
            }
            with tel.span("merge"):
                dataset = merged_dataset(
                    net.target_asn, metadata, [Path(p) for p in spill_paths]
                )
            injector = (
                FaultInjector(runner.fault_plan, "fingerprint", as_id)
                if runner.fault_plan.active
                else None
            )
            ctl.heartbeat("fingerprint")
            with tel.span("fingerprint"):
                fingerprints = runner._fingerprint(
                    net, dataset, faults=injector
                )
            ctl.heartbeat("analysis")
            with tel.span("analyze"):
                result = runner._analyze(spec, net, dataset, fingerprints)
    finally:
        runner.telemetry = previous_telemetry
    faults = FaultCounters.from_dict(fault_dict)
    if injector is not None:
        faults.merge(injector.counters)
    result.fault_counters = faults
    result.retry_accounting = RetryAccounting.from_dict(retry_dict)
    message = {"status": "ok", "summary": result_summary(result)}
    if tel.enabled:
        merge_counters(tel.counters, result_counters(result))
        message["telemetry"] = tel.export()
    message.update(_boundary_check(ctl, max_rss))
    return message


# -- supervisor ------------------------------------------------------------------


class ScaleCampaign(CampaignRunner):
    """The paper-scale campaign driver (sharded, leased, resumable).

    Construction is the classic runner's; measurement semantics are
    identical with faults off.  With a fault plan, injector scope is
    the vantage point (not the AS) -- the documented difference that
    buys partition invariance.  Churn plans are rejected outright.
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

    # -- configuration --------------------------------------------------------

    def _scale_config(self) -> dict:
        """Config signature binding a shard checkpoint to this campaign.

        Extends the classic signature with the portfolio descriptor
        when one exists (synthetic portfolios are config, not code).
        Shard layout and job count are deliberately absent: they must
        not change results, so they must not invalidate checkpoints.
        """
        config = self._config_signature()
        as_dict = getattr(self.portfolio, "as_dict", None)
        if callable(as_dict):
            config["portfolio"] = as_dict()
        return config

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
        out_dir = Path(out_dir)
        spill_dir = out_dir / "spills"
        spill_dir.mkdir(parents=True, exist_ok=True)
        started = time.monotonic()
        if as_ids is None:
            as_ids = [s.as_id for s in self.portfolio.analyzed()]
        session = (
            TelemetrySession(
                telemetry_dir,
                config=self._scale_config(),
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
                out_dir, spill_dir, started, as_ids, jobs, vps_per_shard,
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
        spill_dir: Path,
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
        store = ShardCheckpoint(
            out_dir / "checkpoint.jsonl",
            self._scale_config(),
            vps_per_shard=vps_per_shard,
        )
        if resume:
            store.load()
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
                store.complete = False
        if store.vps_per_shard is None:
            store.vps_per_shard = self.vps_per_as
        token = f"{os.getpid()}-{next(_token_counter)}"
        self.stats = {
            "jobs": jobs,
            "vps_per_shard": store.vps_per_shard,
            "ases_total": len(as_ids),
        }

        interrupted = False
        if not store.complete:
            plan = shard_plan(as_ids, self.vps_per_as, store.vps_per_shard)
            self.stats["shards_total"] = len(plan)
            interrupted = self._probe_phase(
                store, plan, spill_dir, token, jobs,
                lease_timeout, max_rss_bytes, max_redispatch, session,
            )
            if not interrupted:
                interrupted = self._analyze_phase(
                    store, plan, as_ids, spill_dir, token, jobs,
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

    # -- probe phase ----------------------------------------------------------

    def _probe_phase(
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
        """Drain the shard plan; returns True when interrupted."""
        probed = store.probed
        analyses = store.analyses
        failures = store.failures
        quarantines = store.quarantines
        to_probe: list[ShardSpec] = []
        for shard in plan:
            if shard.as_id in analyses or shard.as_id in failures:
                continue  # downstream already banked; spills done
            if shard.key in quarantines:
                continue  # circuit breaker stays open across resume
            record = probed.get(shard.key)
            if record is not None and (spill_dir / record.spill).exists():
                continue  # spill + record both in place: nothing to redo
            to_probe.append(shard)
        self.stats["shards_probed"] = len(to_probe)
        self.stats["shards_resumed"] = len(plan) - len(to_probe)
        if not to_probe:
            return False

        def bank(outcome: TaskOutcome) -> None:
            key = outcome.key
            try:
                if outcome.status is TaskStatus.OK:
                    message = outcome.value
                    if message["status"] == "ok":
                        # Spill was renamed into place before the worker
                        # answered; banking second closes the crash window
                        # on the safe side (re-run, never lose).
                        if session is not None:
                            tick = time.monotonic()
                            store.record_probe(message["record"])
                            session.observe("bank", time.monotonic() - tick)
                            export = message.get("telemetry")
                            if export:
                                session.record_export(
                                    f"shard:{key[0]}:{key[1]}", export
                                )
                        else:
                            store.record_probe(message["record"])
                    else:  # structured disk-full degradation
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
            except DiskFullError as exc:
                # The checkpoint itself hit ENOSPC.  The file is intact
                # (torn tail at worst, salvaged on load); the shard is
                # simply not banked and will re-run on resume.
                logger.error(
                    "checkpoint write failed (disk full) banking shard "
                    "%r: %s -- shard will re-run on resume",
                    key,
                    exc,
                )

        executor = LeaseExecutor(
            _probe_shard_worker,
            jobs=jobs,
            lease_timeout=lease_timeout,
            max_redispatch=max_redispatch,
        )
        spawn = self._spawn_config()
        traceparent = session.traceparent() if session is not None else None
        tasks = [
            (
                shard.key,
                (
                    type(self),
                    spawn,
                    token,
                    shard,
                    str(spill_dir / shard.spill_name),
                    max_rss_bytes,
                    traceparent,
                ),
            )
            for shard in to_probe
        ]
        with GracefulShutdown() as shutdown:
            result = executor.run(tasks, on_complete=bank, stop=shutdown)
        self._merge_executor_stats(executor)
        return result.interrupted

    # -- analyze phase --------------------------------------------------------

    def _analyze_phase(
        self,
        store: ShardCheckpoint,
        plan: list[ShardSpec],
        as_ids: list[int],
        spill_dir: Path,
        token: str,
        jobs: int,
        lease_timeout: float | None,
        max_rss_bytes: int | None,
        max_redispatch: int,
        session: TelemetrySession | None = None,
    ) -> bool:
        """Analyze every fully-probed AS; returns True when interrupted."""
        probed = store.probed
        analyses = store.analyses
        failures = store.failures
        quarantines = store.quarantines
        buckets_by_as: dict[int, list[ShardSpec]] = {}
        for shard in plan:
            buckets_by_as.setdefault(shard.as_id, []).append(shard)
        tasks = []
        for as_id in as_ids:
            if as_id in analyses or as_id in failures:
                continue
            shards = sorted(
                buckets_by_as.get(as_id, ()), key=lambda s: s.bucket
            )
            if any(s.key in quarantines for s in shards):
                continue  # surfaced through the quarantine record
            records = [probed.get(s.key) for s in shards]
            if any(r is None for r in records):
                continue  # probing incomplete (interrupted mid-phase)
            retry = RetryAccounting()
            faults = FaultCounters()
            for record in records:
                for vp in record.vps:
                    retry.merge(vp.retry_accounting)
                    faults.merge(vp.fault_counters)
            tasks.append(
                (
                    as_id,
                    (
                        type(self),
                        self._spawn_config(),
                        token,
                        as_id,
                        [str(spill_dir / r.spill) for r in records],
                        retry.as_dict(),
                        faults.as_dict(),
                        max_rss_bytes,
                        session.traceparent() if session is not None else None,
                    ),
                )
            )
        if not tasks:
            return False

        def bank(outcome: TaskOutcome) -> None:
            as_id = outcome.key
            try:
                if outcome.status is TaskStatus.OK:
                    if session is not None:
                        tick = time.monotonic()
                        store.record_analysis(
                            as_id, outcome.value["summary"]
                        )
                        session.observe("bank", time.monotonic() - tick)
                        export = outcome.value.get("telemetry")
                        if export:
                            session.record_export(as_id, export)
                    else:
                        store.record_analysis(as_id, outcome.value["summary"])
                else:
                    # Deterministic analysis failures *and* workers that
                    # die past the budget are banked per AS: the data is
                    # on disk, only the derivation failed.
                    store.record_failure(
                        as_id,
                        {
                            "stage": "analysis",
                            "error": outcome.error or "",
                        },
                    )
            except DiskFullError as exc:
                logger.error(
                    "checkpoint write failed (disk full) banking "
                    "analysis of AS#%d: %s -- AS will re-analyze on "
                    "resume",
                    as_id,
                    exc,
                )

        executor = LeaseExecutor(
            _analyze_as_worker,
            jobs=jobs,
            lease_timeout=lease_timeout,
            max_redispatch=max_redispatch,
        )
        with GracefulShutdown() as shutdown:
            result = executor.run(tasks, on_complete=bank, stop=shutdown)
        self._merge_executor_stats(executor)
        return result.interrupted

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

    def _merge_executor_stats(self, executor: LeaseExecutor) -> None:
        for name, value in executor.stats.items():
            self.stats[name] = int(self.stats.get(name, 0)) + value
