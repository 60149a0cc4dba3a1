"""Campaign execution: from portfolio spec to analyzed dataset.

For each AS of interest the runner mirrors the paper's Sec. 5 workflow:

1. build the measurement internetwork for the AS (topogen);
2. build the Anaximander target list;
3. run TNT traceroutes from every selected vantage point (each VP
   probes the same targets, shuffled per VP);
4. fingerprint every responding interface (SNMPv3 first, TTL fallback);
5. annotate ownership bdrmapIT-style and run the AReST pipeline;
6. extract simulator ground truth for evaluation.

The runner survives an imperfect measurement plane: a seeded
:class:`~repro.netsim.faults.FaultPlan` (default off) injects probe
loss, ICMP rate limiting, blackouts and SNMP timeouts; a seeded
:class:`~repro.netsim.dynamics.ChurnPlan` (default off) mutates the
network *under* the probes -- link flaps with IGP reconvergence
transients, RSVP-TE LSP churn, SR migration waves -- confined to the
probe stage and quiesced before analysis; a bounded
:class:`~repro.util.retry.RetryPolicy` re-fires unanswered probes; and
:meth:`CampaignRunner.run_portfolio` isolates per-AS errors, reports
partial results through a :class:`CampaignReport`, and can checkpoint
completed ASes to JSON so interrupted runs resume where they left off.

It also survives an imperfect *execution* plane: per-AS tasks run on
the lease executor of :mod:`repro.campaign.shardexec` (``jobs=N``
persistent workers, per-AS wall-clock deadlines, hung / SIGKILLed
workers re-dispatched once then quarantined, SIGINT/SIGTERM drained
gracefully), with the guarantee that report and checkpoint are
byte-identical for any ``jobs`` value.
"""

from __future__ import annotations

import logging
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.checkpoint import (
    CampaignCheckpoint,
    CheckpointEntry,
    FailureStub,
    QuarantineStub,
)
from repro.campaign.dataset import TraceDataset
from repro.campaign.shardexec import (
    GracefulShutdown,
    LeaseExecutor,
    TaskOutcome,
    TaskStatus,
    WorkerControl,
)
from repro.campaign.vantage_points import VantagePoint, default_vantage_points
from repro.core.pipeline import ArestPipeline, AsAnalysis
from repro.core.segments import DetectedSegment
from repro.fingerprint.combined import CombinedFingerprinter
from repro.fingerprint.records import Fingerprint, FingerprintMethod
from repro.fingerprint.snmp import SnmpOracle
from repro.netsim.addressing import IPv4Address
from repro.netsim.dynamics import ChurnPlan, NetworkDynamics
from repro.netsim.faults import FaultCounters, FaultInjector, FaultPlan
from repro.obs.session import TelemetrySession
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, merge_counters
from repro.obs.trace import TraceContext
from repro.probing.records import Trace, truth_transport_is_sr
from repro.probing.tnt import TntProber
from repro.topogen.alias import AliasResolver, AliasSet
from repro.topogen.anaximander import build_target_list
from repro.topogen.bdrmapit import BdrmapIt
from repro.topogen.internet import MeasurementNetwork, build_measurement_network
from repro.topogen.portfolio import AsSpec, Portfolio, default_portfolio
from repro.util.determinism import DeterministicRng
from repro.util.retry import RetryAccounting, RetryPolicy

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class GroundTruth:
    """What the simulator knows and the paper's operators confirmed."""

    deploys_sr: bool
    #: interface addresses that actually forwarded SR-labelled packets
    sr_addresses: set[IPv4Address] = field(default_factory=set)
    #: interface addresses that forwarded MPLS (LDP) without SR top label
    ldp_addresses: set[IPv4Address] = field(default_factory=set)


@dataclass(slots=True)
class AsCampaignResult:
    """Everything the campaign produced for one AS."""

    spec: AsSpec
    dataset: TraceDataset
    analysis: AsAnalysis
    fingerprints: dict[IPv4Address, Fingerprint]
    truth: GroundTruth
    #: (trace, detected segments) pairs for validation
    trace_segments: list[tuple[Trace, list[DetectedSegment]]] = field(
        default_factory=list
    )
    #: MIDAR/APPLE-style alias sets over the observed addresses
    alias_sets: list[AliasSet] = field(default_factory=list)
    #: faults injected while measuring this AS (all zero when fault-free)
    fault_counters: FaultCounters = field(default_factory=FaultCounters)
    #: retry cost of the probing stage
    retry_accounting: RetryAccounting = field(default_factory=RetryAccounting)

    @property
    def as_id(self) -> int:
        """The Table 5 identifier of the probed AS."""
        return self.spec.as_id

    @property
    def traces_quarantined(self) -> int:
        """Traces the sanitizer withheld from this AS's analysis."""
        return self.analysis.traces_quarantined

    @property
    def anomalies(self):
        """Structured sanitizer anomaly records for this AS."""
        return self.analysis.anomalies

    def router_count(self) -> int:
        """Distinct routers behind the observed interfaces, per the
        alias resolution (the paper reports both views: "103 distinct IP
        interfaces" aggregates to fewer boxes)."""
        return len(self.alias_sets)

    def sr_router_count(self) -> int:
        """Alias sets containing at least one SR-flagged interface."""
        sr = self.analysis.sr_addresses
        return sum(
            1
            for alias_set in self.alias_sets
            if any(a in sr for a in alias_set.addresses)
        )

    def fingerprint_method_counts(self) -> dict[FingerprintMethod, int]:
        """How many interfaces each fingerprint method resolved."""
        counts: dict[FingerprintMethod, int] = {}
        for fp in self.fingerprints.values():
            counts[fp.method] = counts.get(fp.method, 0) + 1
        return counts


@dataclass(slots=True)
class AsFailure:
    """One AS run that errored; the rest of the portfolio continued."""

    as_id: int
    stage: str
    error: str
    #: faults injected before the failure hit (partial tallies)
    fault_counters: FaultCounters = field(default_factory=FaultCounters)
    #: retry cost sunk before the failure hit (partial tallies)
    retry_accounting: RetryAccounting = field(default_factory=RetryAccounting)


@dataclass(slots=True)
class AsQuarantine:
    """One AS whose workers hung or crashed past the re-dispatch budget."""

    as_id: int
    #: "timeout", "hung" or "crash"
    reason: str
    #: dispatch attempts consumed before the circuit breaker opened
    attempts: int
    detail: str
    #: last stage heartbeat the final worker delivered before dying
    last_stage: str | None = None
    #: supervisor-observed seconds per heartbeat stage of the final
    #: attempt (the post-mortem of where the worker spent its life)
    stage_seconds: dict[str, float] = field(default_factory=dict)


class CampaignReport(Mapping):
    """Portfolio outcome: per-AS results, failures, fault/retry tallies.

    Behaves as a ``Mapping[int, AsCampaignResult]`` over the *successful*
    ASes, so every consumer of the former plain-dict return value (flag
    tables, headline detection, benchmarks) keeps working unchanged.
    """

    def __init__(self) -> None:
        self._results: dict[int, AsCampaignResult] = {}
        #: AS id -> recorded failure
        self.failures: dict[int, AsFailure] = {}
        #: AS id -> poison-task quarantine (deadline/crash circuit breaker)
        self.quarantined: dict[int, AsQuarantine] = {}
        #: True when a shutdown request (SIGINT/SIGTERM) cut the run short
        self.interrupted = False
        #: aggregated fault tallies across all completed ASes
        self.fault_counters = FaultCounters()
        #: aggregated retry cost across all completed ASes
        self.retry_accounting = RetryAccounting()
        #: ASes restored from a checkpoint instead of re-measured
        self.resumed_as_ids: list[int] = []
        #: traces the sanitizer quarantined across all completed ASes
        self.traces_quarantined = 0
        #: sanitizer anomaly tallies by kind across all completed ASes
        self.anomaly_counts: dict[str, int] = {}

    # -- Mapping protocol over the successful results --------------------------

    def __getitem__(self, as_id: int) -> AsCampaignResult:
        return self._results[as_id]

    def __iter__(self):
        return iter(self._results)

    def __len__(self) -> int:
        return len(self._results)

    # -- assembly ---------------------------------------------------------------

    def add(self, result: AsCampaignResult, resumed: bool = False) -> None:
        """Record one completed AS and fold in its tallies."""
        self._results[result.as_id] = result
        self.fault_counters.merge(result.fault_counters)
        self.retry_accounting.merge(result.retry_accounting)
        self.traces_quarantined += result.analysis.traces_quarantined
        for kind, count in result.analysis.anomaly_counts().items():
            self.anomaly_counts[kind] = (
                self.anomaly_counts.get(kind, 0) + count
            )
        if resumed:
            self.resumed_as_ids.append(result.as_id)

    def record_failure(
        self,
        as_id: int,
        stage: str,
        error: Exception | str,
        fault_counters: FaultCounters | None = None,
        retry_accounting: RetryAccounting | None = None,
    ) -> None:
        """Record one failed AS without aborting the portfolio.

        The fault/retry cost the AS sank *before* failing is folded
        into the portfolio tallies, so partial work is accounted for
        rather than silently dropped.
        """
        if isinstance(error, BaseException):
            error = f"{type(error).__name__}: {error}"
        failure = AsFailure(
            as_id=as_id,
            stage=stage,
            error=error,
            fault_counters=fault_counters or FaultCounters(),
            retry_accounting=retry_accounting or RetryAccounting(),
        )
        self.failures[as_id] = failure
        self.fault_counters.merge(failure.fault_counters)
        self.retry_accounting.merge(failure.retry_accounting)

    def record_quarantine(
        self,
        as_id: int,
        reason: str,
        attempts: int,
        detail: str,
        last_stage: str | None = None,
        stage_seconds: dict[str, float] | None = None,
    ) -> None:
        """Record one poison AS the engine gave up re-dispatching."""
        self.quarantined[as_id] = AsQuarantine(
            as_id=as_id,
            reason=reason,
            attempts=attempts,
            detail=detail,
            last_stage=last_stage,
            stage_seconds=dict(stage_seconds or {}),
        )

    # -- views ------------------------------------------------------------------

    @property
    def results(self) -> dict[int, AsCampaignResult]:
        """The successful per-AS results (insertion-ordered)."""
        return dict(self._results)

    def summary(self) -> str:
        """One-line human summary of the portfolio outcome."""
        parts = [f"{len(self._results)} AS(es) completed"]
        if self.resumed_as_ids:
            parts.append(f"{len(self.resumed_as_ids)} from checkpoint")
        if self.failures:
            parts.append(f"{len(self.failures)} failed")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.fault_counters.total_faults():
            parts.append(
                f"{self.fault_counters.total_faults()} faults injected"
            )
        if self.retry_accounting.retries:
            parts.append(f"{self.retry_accounting.retries} retries")
        if self.traces_quarantined:
            parts.append(
                f"{self.traces_quarantined} trace(s) quarantined"
            )
        anomalies = sum(self.anomaly_counts.values())
        if anomalies:
            parts.append(f"{anomalies} trace anomalies")
        if self.interrupted:
            parts.append("INTERRUPTED")
        return ", ".join(parts)

    def as_dict(self) -> dict:
        """Canonical JSON-able view of the whole portfolio outcome.

        This is the determinism contract: two runs of the same
        campaign -- serial or parallel, fresh or resumed -- must
        produce byte-identical ``json.dumps(report.as_dict())``.
        Execution provenance (``resumed_as_ids``) is deliberately
        excluded: whether an AS was re-measured or restored from a
        checkpoint must not change the canonical result.
        """
        completed = {}
        for as_id, result in self._results.items():
            analysis = result.analysis
            completed[str(as_id)] = {
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
                "fault_counters": result.fault_counters.as_dict(),
                "retry_accounting": result.retry_accounting.as_dict(),
            }
        return {
            "completed": completed,
            "failures": {
                str(as_id): {
                    "stage": f.stage,
                    "error": f.error,
                    "fault_counters": f.fault_counters.as_dict(),
                    "retry_accounting": f.retry_accounting.as_dict(),
                }
                for as_id, f in self.failures.items()
            },
            "quarantined": {
                str(as_id): {
                    "reason": q.reason,
                    "attempts": q.attempts,
                    "detail": q.detail,
                    "last_stage": q.last_stage,
                    "stage_seconds": {
                        stage: round(seconds, 3)
                        for stage, seconds in sorted(
                            q.stage_seconds.items()
                        )
                    },
                }
                for as_id, q in self.quarantined.items()
            },
            "interrupted": self.interrupted,
            "fault_counters": self.fault_counters.as_dict(),
            "retry_accounting": self.retry_accounting.as_dict(),
            "traces_quarantined": self.traces_quarantined,
            "anomaly_counts": dict(sorted(self.anomaly_counts.items())),
        }


def _quarantine_reason(outcome: TaskOutcome) -> str:
    """Stable quarantine reason of a final timeout/lease-loss/crash outcome:
    ``timeout``, ``hung`` (silent past ``heartbeat_timeout``) or ``crash``."""
    if outcome.status is TaskStatus.LEASE_EXPIRED:
        return "hung"
    return outcome.status.value


def result_counters(result: AsCampaignResult) -> dict[str, int]:
    """Typed telemetry counters derived from one completed AS result.

    Derivation from the (deterministic) result object -- rather than
    in-band instrumentation -- is what makes counter totals identical
    for serial, parallel, and resumed executions of the same campaign:
    rehydrated results carry the banked tallies, and addition is
    order-independent.
    """
    analysis = result.analysis
    counters = {
        "traces_collected": analysis.traces_total,
        "traces_analyzed": analysis.traces_analyzed,
        "traces_quarantined": analysis.traces_quarantined,
        "probes_attempted": result.retry_accounting.probes,
        "probe_retries": result.retry_accounting.retries,
        "probes_exhausted": result.retry_accounting.exhausted,
        "faults_injected": result.fault_counters.total_faults(),
        "fingerprints": len(result.fingerprints),
    }
    # Per-class fault tallies (only observed classes get a key, so
    # fault-free campaigns keep the exact counter set they had).
    for name, count in result.fault_counters.as_dict().items():
        if count:
            counters[f"fault_{name}"] = count
    flag_counts = analysis.flag_counts()
    counters["flags_total"] = sum(flag_counts.values())
    for flag, count in flag_counts.items():
        counters[f"flags_{flag.name.lower()}"] = count
    anomaly_counts = analysis.anomaly_counts()
    counters["anomalies_total"] = sum(anomaly_counts.values())
    for kind, count in anomaly_counts.items():
        counters[f"anomaly_{kind}"] = count
    return counters


def _campaign_worker(payload: tuple, ctl: WorkerControl) -> dict:
    """Pool task: rebuild the runner and run one AS.

    Each task constructs a *fresh* runner from the parent's constructor
    kwargs, so results are a pure function of ``(config, as_id)`` --
    the property that makes parallel output byte-identical to serial.
    Stage transitions double as lease-renewing heartbeats.  Telemetry
    recorded in-worker is buffered and shipped back inside the outcome
    dict (see :meth:`_run_as_guarded`).  A failed AS recycles its
    worker, so its interpreter never serves the next AS.
    """
    runner_cls, kwargs, as_id, telemetry_on, traceparent = payload
    runner = runner_cls(**kwargs)
    runner._stage_hook = ctl.heartbeat
    runner._telemetry_on = telemetry_on
    runner._traceparent = traceparent
    message = runner._run_as_guarded(as_id)
    if message["status"] != "ok":
        ctl.request_recycle()
    return message


class CampaignRunner:
    """Runs the measurement campaign over a portfolio."""

    def __init__(
        self,
        portfolio: Portfolio | None = None,
        vantage_points: tuple[VantagePoint, ...] | None = None,
        seed: int = 0,
        vps_per_as: int = 4,
        targets_per_as: int = 36,
        per_prefix: int = 3,
        reveal_success_rate: float = 0.85,
        snmp_coverage: float = 0.9,
        bdrmap_error_rate: float = 0.0,
        alias_success_rate: float = 0.9,
        max_ttl: int = 40,
        fault_plan: FaultPlan | None = None,
        churn_plan: ChurnPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if vps_per_as < 1:
            raise ValueError("vps_per_as must be >= 1")
        self.portfolio = portfolio or default_portfolio()
        self.vantage_points = vantage_points or default_vantage_points()
        self.seed = seed
        self.vps_requested = vps_per_as
        self.vps_per_as = min(vps_per_as, len(self.vantage_points))
        if self.vps_per_as < vps_per_as:
            logger.warning(
                "vps_per_as=%d exceeds the %d-VP pool; clamping to %d",
                vps_per_as,
                len(self.vantage_points),
                self.vps_per_as,
            )
        self.targets_per_as = targets_per_as
        self.per_prefix = per_prefix
        self.reveal_success_rate = reveal_success_rate
        self.snmp_coverage = snmp_coverage
        self.bdrmap_error_rate = bdrmap_error_rate
        self.alias_success_rate = alias_success_rate
        self.max_ttl = max_ttl
        self.fault_plan = fault_plan or FaultPlan.none()
        self.churn_plan = churn_plan or ChurnPlan.none()
        self.retry = retry or RetryPolicy.none()
        # columnar detection core (byte-identical to ArestDetector by
        # the differential contract, so checkpoints and report bytes
        # are unaffected by the switch)
        self._pipeline = ArestPipeline()
        #: stage the most recent run_as reached (error attribution)
        self._stage = "idle"
        #: optional callback fired on each stage transition (heartbeats)
        self._stage_hook = None
        #: telemetry recorder for the in-flight AS (observational only:
        #: results and checkpoints never read it)
        self.telemetry = NULL_TELEMETRY
        #: when True, guarded runs record into a fresh per-AS recorder
        #: and ship its export through the outcome channel
        self._telemetry_on = False
        #: campaign trace context in wire form (W3C traceparent); set
        #: by the task envelope so worker spans join the one trace
        self._traceparent: str | None = None
        #: live fault injector / prober of the in-flight run_as, so a
        #: mid-stage failure can still report its partial tallies
        self._active_injector: FaultInjector | None = None
        self._active_prober = None

    # -- public API ----------------------------------------------------------------

    def run_as(
        self, as_id: int, telemetry_dir: str | Path | None = None
    ) -> AsCampaignResult:
        """Run the full campaign for one portfolio AS.

        Stage transitions feed two observability channels at once: the
        watchdog heartbeat hook, and -- when a live recorder is
        attached via :attr:`telemetry` -- hierarchical spans
        (``as > stage``) whose durations land in the telemetry
        artifacts only, never in the result.  ``telemetry_dir`` wraps
        the run in a single-AS :class:`TelemetrySession` (manifest,
        event stream, Prometheus export), exactly like
        :meth:`run_portfolio`'s.
        """
        if telemetry_dir is not None:
            return self._run_as_with_session(as_id, telemetry_dir)
        tel = self.telemetry
        self._active_injector = None
        self._active_prober = None
        with tel.span("as", as_id=as_id):
            self._set_stage("setup")
            spec = self.portfolio.spec(as_id)
            vps = self._select_vps(as_id)
            self._set_stage("topology")
            with tel.span("topology"):
                net = build_measurement_network(
                    spec, [vp.vp_id for vp in vps], seed=self.seed
                )
            injector = self._injector_for(as_id)
            self._active_injector = injector
            if injector is not None:
                net.engine.faults = injector
            dynamics = self._dynamics_for(as_id, net)
            if dynamics is not None:
                net.engine.dynamics = dynamics
            self._set_stage("probe")
            with tel.span("probe"):
                dataset, accounting = self._probe(net, vps)
            if dynamics is not None:
                # Churn is confined to trace collection: restore the
                # nominal topology before fingerprint/analysis, so a
                # fresh run analyzes exactly the network a checkpoint
                # rehydration rebuilds (fresh == resumed, byte for
                # byte).  Counters ride the observational gauge channel
                # only -- results and checkpoints never see them.
                dynamics.quiesce()
                net.engine.dynamics = None
                for name, value in dynamics.counters.as_dict().items():
                    tel.gauge(f"churn_{name}", value)
            self._set_stage("fingerprint")
            with tel.span("fingerprint"):
                fingerprints = self._fingerprint(
                    net, dataset, faults=injector
                )
            self._set_stage("analysis")
            with tel.span("analyze"):
                result = self._analyze(spec, net, dataset, fingerprints)
            if injector is not None:
                result.fault_counters = injector.counters
            result.retry_accounting = accounting
            self._set_stage("done")
        return result

    def _run_as_with_session(
        self, as_id: int, telemetry_dir: str | Path
    ) -> AsCampaignResult:
        """:meth:`run_as` under a telemetry session of its own."""
        session = TelemetrySession(
            telemetry_dir,
            config=self._config_signature(),
            seed=self.seed,
            command="run_as",
            jobs=1,
            as_ids=[as_id],
        )
        tel = Telemetry(trace=session.trace)
        self.telemetry = tel
        try:
            result = self.run_as(as_id)
        except BaseException:
            tel.count("as_failed")
            session.record_export(as_id, tel.export())
            session.finalize("error")
            raise
        finally:
            self.telemetry = NULL_TELEMETRY
        merge_counters(tel.counters, result_counters(result))
        session.record_export(as_id, tel.export())
        session.finalize("ok")
        return result

    def run_portfolio(
        self,
        as_ids: list[int] | None = None,
        analyzed_only: bool = True,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        jobs: int = 1,
        timeout_per_as: float | None = None,
        heartbeat_timeout: float | None = None,
        telemetry_dir: str | Path | None = None,
    ) -> CampaignReport:
        """Run every requested AS (default: the 41 analyzed ones).

        Execution is supervised (:mod:`repro.campaign.shardexec`):

        - ``jobs=1`` (default) runs in-process, exactly the sequential
          loop it always was; ``jobs>1`` dispatches per-AS tasks to a
          pool of ``jobs`` persistent worker processes.  Results are
          *deterministic in jobs*: the report and the banked checkpoint
          are byte-identical for any job count, because each AS derives
          everything from ``(seed, as_id)`` and assembly/banking follow
          ``as_ids`` order regardless of completion order.
        - ``timeout_per_as`` bounds each attempt at an AS in wall-clock
          seconds from its dispatch (pool mode only); a worker past its
          deadline -- or silent past ``heartbeat_timeout``, its lease --
          is SIGKILLed and replaced, the AS re-dispatched once and
          quarantined on the second strike.  A worker killed from
          outside (OOM, ``kill -9``) is handled the same way.
        - SIGINT/SIGTERM drain in-flight work, flush the checkpoint
          and return a partial report with ``interrupted=True``; a
          second signal aborts hard.

        One failing AS is recorded in the report and the rest of the
        portfolio continues.  With ``checkpoint`` set, every completed
        AS -- and every failure or quarantine -- is durably banked as
        the run progresses; ``resume=True`` restores banked outcomes
        (re-deriving analyses without re-probing, and without
        re-running known failures) and measures only what is missing,
        producing the same report as an uninterrupted run.

        ``telemetry_dir`` turns on observability for the run: a
        :class:`~repro.obs.session.TelemetrySession` writes a run
        manifest, a crash-safe JSONL stream of per-AS stage timings
        and counters, and a Prometheus textfile export into that
        directory.  Telemetry is purely observational -- the report
        and the checkpoint are byte-identical with it on or off.
        """
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if as_ids is None:
            specs = (
                self.portfolio.analyzed()
                if analyzed_only
                else list(self.portfolio)
            )
            as_ids = [s.as_id for s in specs]
        session: TelemetrySession | None = None
        if telemetry_dir is not None:
            session = TelemetrySession(
                telemetry_dir,
                config=self._config_signature(),
                seed=self.seed,
                command="run_portfolio",
                jobs=jobs,
                as_ids=list(as_ids),
            )
        try:
            report = self._run_portfolio_inner(
                as_ids,
                checkpoint,
                resume,
                jobs,
                timeout_per_as,
                heartbeat_timeout,
                session,
            )
        except BaseException:
            if session is not None:
                session.finalize("error")
            raise
        if session is not None:
            session.finalize(
                "interrupted" if report.interrupted else "ok"
            )
        return report

    def _run_portfolio_inner(
        self,
        as_ids: list[int],
        checkpoint: str | Path | None,
        resume: bool,
        jobs: int,
        timeout_per_as: float | None,
        heartbeat_timeout: float | None,
        session: TelemetrySession | None,
    ) -> CampaignReport:
        """The portfolio loop proper (session lifecycle handled above)."""
        store: CampaignCheckpoint | None = None
        banked: dict[int, CheckpointEntry] = {}
        banked_failures: dict[int, FailureStub] = {}
        banked_quarantines: dict[int, QuarantineStub] = {}
        if checkpoint is not None:
            store = CampaignCheckpoint(checkpoint, self._config_signature())
            if resume:
                banked = store.load()
                banked_failures = store.banked_failures
                banked_quarantines = store.banked_quarantines

        to_run = [
            as_id
            for as_id in as_ids
            if as_id not in banked
            and as_id not in banked_failures
            and as_id not in banked_quarantines
        ]
        outcomes, interrupted = self._execute(
            to_run, store, jobs, timeout_per_as, heartbeat_timeout, session
        )

        # Assemble strictly in as_ids order so the report is identical
        # whatever order tasks actually completed in.
        report = CampaignReport()
        report.interrupted = interrupted
        for as_id in as_ids:
            entry = banked.get(as_id)
            if entry is not None:
                result = self._rehydrate_banked(as_id, entry, session)
                report.add(result, resumed=True)
                continue
            stub = banked_failures.get(as_id)
            if stub is not None:
                report.record_failure(
                    as_id,
                    stub.stage,
                    stub.error,
                    stub.fault_counters,
                    stub.retry_accounting,
                )
                if session is not None:
                    session.record_scope(as_id, counters={"as_failed": 1})
                continue
            qstub = banked_quarantines.get(as_id)
            if qstub is not None:
                report.record_quarantine(
                    as_id,
                    qstub.reason,
                    qstub.attempts,
                    qstub.detail,
                    qstub.last_stage,
                    qstub.stage_seconds,
                )
                if session is not None:
                    session.record_scope(
                        as_id, counters={"as_quarantined": 1}
                    )
                continue
            outcome = outcomes.get(as_id)
            if outcome is None:
                continue  # interrupted before this AS was dispatched
            self._fold_outcome(report, as_id, outcome)
        if store is not None and not interrupted:
            # Canonicalize the on-disk order so a resumed checkpoint's
            # bytes match an uninterrupted run's.
            store.compact(order=list(as_ids))
        return report

    # -- supervised execution ----------------------------------------------------

    def _execute(
        self,
        to_run: list[int],
        store: CampaignCheckpoint | None,
        jobs: int,
        timeout_per_as: float | None,
        heartbeat_timeout: float | None,
        session: TelemetrySession | None = None,
    ) -> tuple[dict[int, TaskOutcome], bool]:
        """Run the missing ASes under supervision, banking in order.

        Completed outcomes are banked to the checkpoint as soon as the
        contiguous prefix (in ``to_run`` order) allows, so the file's
        line order -- and therefore its bytes -- never depends on which
        worker finished first.  Telemetry batches, by contrast, are
        appended in completion order -- the event stream is
        observational, only counter totals are contractual.
        """
        if not to_run:
            return {}, False
        completed: dict[int, TaskOutcome] = {}
        bank_index = 0

        def bank_one(as_id: int, outcome: TaskOutcome) -> None:
            # Bank latency feeds the fixed-bucket "bank" histogram --
            # observational only, so the timing never orders results.
            if session is None:
                self._bank_outcome(store, as_id, outcome)
                return
            start = time.monotonic()
            self._bank_outcome(store, as_id, outcome)
            session.observe("bank", time.monotonic() - start)

        def bank_ready() -> None:
            nonlocal bank_index
            while bank_index < len(to_run):
                outcome = completed.get(to_run[bank_index])
                if outcome is None:
                    break
                bank_one(to_run[bank_index], outcome)
                bank_index += 1

        def on_complete(outcome: TaskOutcome) -> None:
            completed[outcome.key] = outcome
            if session is not None:
                self._record_outcome_telemetry(session, outcome)
            if store is not None:
                bank_ready()

        telemetry_on = session is not None
        traceparent = session.traceparent() if session is not None else None
        if jobs == 1:

            def task(as_id: int, ctl: WorkerControl) -> dict:
                self._stage_hook = ctl.heartbeat
                self._telemetry_on = telemetry_on
                self._traceparent = traceparent
                try:
                    return self._run_as_guarded(as_id)
                finally:
                    self._stage_hook = None
                    self._telemetry_on = False
                    self._traceparent = None

            engine = LeaseExecutor(task)
            payloads = [(as_id, as_id) for as_id in to_run]
        else:
            engine = LeaseExecutor(
                _campaign_worker,
                jobs=jobs,
                lease_timeout=heartbeat_timeout,
                timeout=timeout_per_as,
            )
            spawn = self._spawn_config()
            payloads = [
                (
                    as_id,
                    (type(self), spawn, as_id, telemetry_on, traceparent),
                )
                for as_id in to_run
            ]
        with GracefulShutdown() as shutdown:
            result = engine.run(
                payloads, on_complete=on_complete, stop=shutdown
            )
        if result.interrupted and store is not None:
            # Bank completed-but-unbanked outcomes past the prefix gap;
            # the holes are simply re-run on resume.
            for as_id in to_run[bank_index:]:
                outcome = completed.get(as_id)
                if outcome is not None:
                    bank_one(as_id, outcome)
        return result.outcomes, result.interrupted

    def _record_outcome_telemetry(
        self, session: TelemetrySession, outcome: TaskOutcome
    ) -> None:
        """Append one final engine outcome's telemetry to the session.

        OK outcomes carry the worker's own recorder export (shipped
        through the outcome pipe); killed/crashed workers never export,
        so the supervisor's observed heartbeat-stage durations stand in
        as their post-mortem.
        """
        as_id = outcome.key
        if outcome.attempts > 1:
            session.count("worker_redispatches", outcome.attempts - 1)
        if outcome.status is TaskStatus.OK:
            shipped = outcome.value.get("telemetry")
            if shipped is not None:
                session.record_export(as_id, shipped)
            return
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
        counter = (
            "as_failed"
            if outcome.status is TaskStatus.ERROR
            else "as_quarantined"
        )
        session.record_scope(as_id, spans=spans, counters={counter: 1})

    def _task_recorder(self) -> Telemetry:
        """A fresh per-task recorder, joined to the campaign trace.

        When the task envelope carried a traceparent, the recorder's
        spans inherit the campaign trace id and parent under the
        supervisor's root span; otherwise the recorder emits the
        legacy untraced records.
        """
        if self._traceparent is not None:
            return Telemetry(trace=TraceContext.parse(self._traceparent))
        return Telemetry()

    def _run_as_guarded(self, as_id: int) -> dict:
        """:meth:`run_as` wrapped for the engine: never raises.

        Failures come back as structured records carrying the stage
        reached and the partial fault/retry tallies already sunk, so
        the portfolio accounts for interrupted work.

        With telemetry enabled a fresh per-AS recorder captures stage
        spans, and its export rides the outcome dict back through the
        engine's pipe -- the worker never touches the session files, so
        a SIGKILLed worker cannot corrupt the event stream.  Counters
        are derived from the finished result (:func:`result_counters`),
        which is what keeps totals identical across serial, parallel
        and resumed runs.
        """
        tel = self._task_recorder() if self._telemetry_on else None
        if tel is not None:
            self.telemetry = tel
        try:
            result = self.run_as(as_id)
        except Exception as exc:  # noqa: BLE001 -- per-AS isolation
            message = {
                "status": "error",
                "stage": self._stage,
                "error": f"{type(exc).__name__}: {exc}",
                "fault_counters": self._partial_fault_counters(),
                "retry_accounting": self._partial_retry_accounting(),
            }
            if tel is not None:
                tel.count("as_failed")
                message["telemetry"] = tel.export()
            return message
        finally:
            if tel is not None:
                self.telemetry = NULL_TELEMETRY
        message = {"status": "ok", "result": result}
        if tel is not None:
            merge_counters(tel.counters, result_counters(result))
            message["telemetry"] = tel.export()
        return message

    def _fold_outcome(
        self, report: CampaignReport, as_id: int, outcome: TaskOutcome
    ) -> None:
        """Translate one engine outcome into report state."""
        if outcome.status is TaskStatus.OK:
            message = outcome.value
            if message["status"] == "ok":
                report.add(message["result"])
                return
            logger.warning(
                "AS#%d failed during %s stage: %s",
                as_id,
                message["stage"],
                message["error"],
            )
            report.record_failure(
                as_id,
                message["stage"],
                message["error"],
                message["fault_counters"],
                message["retry_accounting"],
            )
        elif outcome.status is TaskStatus.ERROR:
            logger.warning(
                "AS#%d worker raised: %s", as_id, outcome.error
            )
            report.record_failure(
                as_id, outcome.last_stage or "worker", outcome.error or ""
            )
        else:  # TIMEOUT / LEASE_EXPIRED / CRASH past the re-dispatch budget
            report.record_quarantine(
                as_id,
                _quarantine_reason(outcome),
                outcome.attempts,
                outcome.error or "",
                outcome.last_stage,
                dict(outcome.stage_seconds or {}),
            )

    def _bank_outcome(
        self,
        store: CampaignCheckpoint | None,
        as_id: int,
        outcome: TaskOutcome,
    ) -> None:
        """Durably bank one final outcome (entry, failure or quarantine)."""
        if store is None:
            return
        if outcome.status is TaskStatus.OK:
            message = outcome.value
            if message["status"] == "ok":
                result = message["result"]
                store.record(
                    as_id,
                    CheckpointEntry(
                        dataset=result.dataset,
                        fingerprints=result.fingerprints,
                        fault_counters=result.fault_counters,
                        retry_accounting=result.retry_accounting,
                    ),
                )
            else:
                store.record_failure(
                    as_id,
                    FailureStub(
                        stage=message["stage"],
                        error=message["error"],
                        fault_counters=message["fault_counters"],
                        retry_accounting=message["retry_accounting"],
                    ),
                )
        elif outcome.status is TaskStatus.ERROR:
            store.record_failure(
                as_id,
                FailureStub(
                    stage=outcome.last_stage or "worker",
                    error=outcome.error or "",
                ),
            )
        else:
            store.record_quarantine(
                as_id,
                QuarantineStub(
                    reason=_quarantine_reason(outcome),
                    attempts=outcome.attempts,
                    detail=outcome.error or "",
                    last_stage=outcome.last_stage,
                    stage_seconds=dict(outcome.stage_seconds or {}),
                ),
            )

    def _spawn_config(self) -> dict:
        """Constructor kwargs reproducing this runner in a worker process.

        Subclasses with a different ``__init__`` signature must
        override this accordingly.
        """
        return dict(
            portfolio=self.portfolio,
            vantage_points=self.vantage_points,
            seed=self.seed,
            vps_per_as=self.vps_requested,
            targets_per_as=self.targets_per_as,
            per_prefix=self.per_prefix,
            reveal_success_rate=self.reveal_success_rate,
            snmp_coverage=self.snmp_coverage,
            bdrmap_error_rate=self.bdrmap_error_rate,
            alias_success_rate=self.alias_success_rate,
            max_ttl=self.max_ttl,
            fault_plan=self.fault_plan,
            churn_plan=self.churn_plan,
            retry=self.retry,
        )

    def _set_stage(self, stage: str) -> None:
        self._stage = stage
        if self._stage_hook is not None:
            self._stage_hook(stage)

    def _partial_fault_counters(self) -> FaultCounters:
        """Snapshot of the in-flight run's fault tallies (may be partial)."""
        if self._active_injector is None:
            return FaultCounters()
        return FaultCounters.from_dict(
            self._active_injector.counters.as_dict()
        )

    def _partial_retry_accounting(self) -> RetryAccounting:
        """Snapshot of the in-flight run's retry cost (may be partial)."""
        if self._active_prober is None:
            return RetryAccounting()
        return RetryAccounting.from_dict(
            self._active_prober.accounting.as_dict()
        )

    # -- stages ----------------------------------------------------------------------

    def _select_vps(self, as_id: int) -> list[VantagePoint]:
        rng = DeterministicRng("vp-select", self.seed, as_id)
        return rng.sample(list(self.vantage_points), self.vps_per_as)

    def _injector_for(self, as_id: int) -> FaultInjector | None:
        """A per-AS fault injector, or None for the fault-free plan.

        An inactive plan attaches nothing at all, so the measurement
        path stays byte-identical to the seed behaviour.
        """
        if not self.fault_plan.active:
            return None
        return FaultInjector(self.fault_plan, "as", as_id)

    def _dynamics_for(
        self, as_id: int, net: MeasurementNetwork
    ) -> NetworkDynamics | None:
        """A per-AS churn scheduler, or None for the no-churn plan.

        Like :meth:`_injector_for`, an inactive plan attaches nothing,
        keeping the engine's fused fast path eligible and the campaign
        byte-identical to the static-network behaviour.  The ``("as",
        as_id)`` scope makes each AS's schedule an independent pure
        function of the plan seed -- the jobs/resume invariance story.
        """
        if not self.churn_plan.active:
            return None
        return NetworkDynamics(
            self.churn_plan,
            net.network,
            net.engine,
            net.controller,
            net.deployment.sr_domain,
            net.spec.asn,
            "as",
            as_id,
        )

    def _probe(
        self, net: MeasurementNetwork, vps: list[VantagePoint]
    ) -> tuple[TraceDataset, RetryAccounting]:
        targets = build_target_list(
            net,
            per_prefix=self.per_prefix,
            limit=self.targets_per_as,
            seed=self.seed,
        )
        prober = TntProber(
            net.engine,
            max_ttl=self.max_ttl,
            reveal_success_rate=self.reveal_success_rate,
            seed=self.seed,
            retry=self.retry,
        )
        self._active_prober = prober
        metadata = {
            "as_id": str(net.spec.as_id),
            "seed": str(self.seed),
            "vps": ",".join(vp.vp_id for vp in vps),
        }
        if self.vps_per_as < self.vps_requested:
            metadata["vps_requested"] = str(self.vps_requested)
            metadata["vps_effective"] = str(self.vps_per_as)
        dataset = TraceDataset(target_asn=net.target_asn, metadata=metadata)
        tel = self.telemetry
        track = tel.enabled
        clock = tel.clock
        for vp in vps:
            vp_router = net.vantage_points[vp.vp_id]
            # Each VP probes the same targets, shuffled per VP (Sec. 5).
            rng = DeterministicRng("shuffle", self.seed, vp.vp_id)
            shuffled = list(targets.addresses)
            rng.shuffle(shuffled)
            if track:
                # per-trace probe latency into the fixed-bucket
                # histogram; two clock reads + a bisect per trace
                for destination in shuffled:
                    tick = clock()
                    trace = prober.trace(
                        vp_router, destination, vp_name=vp.vp_id
                    )
                    tel.observe("probe", clock() - tick)
                    dataset.add(trace)
            else:
                for destination in shuffled:
                    dataset.add(
                        prober.trace(
                            vp_router, destination, vp_name=vp.vp_id
                        )
                    )
        # Fast-path cache gauges: observational only (the telemetry
        # contract), but they make cache regressions visible per AS.
        for name, value in net.engine.stats.as_dict().items():
            self.telemetry.gauge(f"walkcache_{name}", value)
        return dataset, prober.accounting

    def _fingerprint(
        self,
        net: MeasurementNetwork,
        dataset: TraceDataset,
        faults: FaultInjector | None = None,
    ) -> dict[IPv4Address, Fingerprint]:
        snmp = SnmpOracle(
            net.network,
            coverage=self.snmp_coverage,
            seed=self.seed,
            faults=faults,
        )
        combined = CombinedFingerprinter(net.engine, snmp)
        fingerprints: dict[IPv4Address, Fingerprint] = {}
        # Fingerprinting is a pure function of (address, reply TTL, VP),
        # so probing the same combination twice cannot improve on the
        # recorded result: dedupe on that key while still letting a
        # *different* hop context retry an unidentified address.
        attempted: set[tuple[IPv4Address, int | None, int]] = set()
        for trace in dataset:
            for hop in trace.hops:
                if hop.address is None:
                    continue
                existing = fingerprints.get(hop.address)
                if existing is not None and existing.identified:
                    continue
                key = (hop.address, hop.reply_ip_ttl, trace.vp_router_id)
                if key in attempted:
                    continue
                attempted.add(key)
                fingerprints[hop.address] = combined.fingerprint(
                    hop.address, hop.reply_ip_ttl, trace.vp_router_id
                )
        return fingerprints

    def _analyze(
        self,
        spec: AsSpec,
        net: MeasurementNetwork,
        dataset: TraceDataset,
        fingerprints: dict[IPv4Address, Fingerprint],
    ) -> AsCampaignResult:
        """Everything downstream of data collection.

        Deterministic given (dataset, fingerprints, seed) -- this is the
        path checkpoint resume replays without re-firing probes.
        """
        bdrmap = BdrmapIt(
            net.network, error_rate=self.bdrmap_error_rate, seed=self.seed
        )
        sink: list[tuple[Trace, list[DetectedSegment]]] = []
        analysis = self._pipeline.analyze_as(
            spec.asn,
            dataset.traces,
            fingerprints,
            asn_of=bdrmap.asn_of_hop,
            segment_sink=sink,
            telemetry=self.telemetry,
        )
        # Data-quality accounting rides on the dataset so quarantined
        # traces stay visible wherever the raw data travels.  Clean runs
        # add nothing, keeping fault-free datasets byte-identical.
        if analysis.anomalies:
            dataset.metadata["trace_anomalies"] = str(len(analysis.anomalies))
            dataset.metadata["traces_quarantined"] = str(
                analysis.traces_quarantined
            )
        truth = self._ground_truth(spec, dataset)
        resolver = AliasResolver(
            net.network,
            success_rate=self.alias_success_rate,
            seed=self.seed,
        )
        alias_sets = resolver.resolve(dataset.distinct_addresses())
        return AsCampaignResult(
            spec=spec,
            dataset=dataset,
            analysis=analysis,
            fingerprints=fingerprints,
            truth=truth,
            trace_segments=sink,
            alias_sets=alias_sets,
        )

    def _rehydrate_banked(
        self,
        as_id: int,
        entry: CheckpointEntry,
        session: TelemetrySession | None,
    ) -> AsCampaignResult:
        """Rehydrate one banked AS, recording telemetry for the replay.

        The replayed analysis gets its own spans (the parent does the
        work, so the parent records it) and the result-derived counters
        -- banked fault/retry tallies included -- so a resumed run's
        counter totals equal an uninterrupted run's.
        """
        if session is None:
            return self._rehydrate_as(as_id, entry)
        tel = Telemetry(trace=session.trace)
        previous = self.telemetry
        self.telemetry = tel
        try:
            with tel.span("as", as_id=as_id, resumed=True):
                with tel.span("analyze"):
                    result = self._rehydrate_as(as_id, entry)
        finally:
            self.telemetry = previous
        merge_counters(tel.counters, result_counters(result))
        session.record_export(as_id, tel.export())
        return result

    def _rehydrate_as(
        self, as_id: int, entry: CheckpointEntry
    ) -> AsCampaignResult:
        """Rebuild one AS result from banked measurement data.

        The topology is regenerated deterministically from the seed, the
        stored dataset and fingerprints stand in for the probing and
        fingerprinting stages, and the analysis replays bit-identically.
        """
        spec = self.portfolio.spec(as_id)
        vps = self._select_vps(as_id)
        net = build_measurement_network(
            spec, [vp.vp_id for vp in vps], seed=self.seed
        )
        result = self._analyze(spec, net, entry.dataset, entry.fingerprints)
        result.fault_counters = entry.fault_counters
        result.retry_accounting = entry.retry_accounting
        return result

    def _ground_truth(
        self, spec: AsSpec, dataset: TraceDataset
    ) -> GroundTruth:
        truth = GroundTruth(deploys_sr=spec.scenario.deploys_sr)
        for trace in dataset:
            for i, hop in enumerate(trace.hops):
                if (
                    hop.address is None
                    or hop.truth_asn != spec.asn
                    or not hop.truth_planes
                ):
                    continue
                if truth_transport_is_sr(trace, i):
                    truth.sr_addresses.add(hop.address)
                else:
                    truth.ldp_addresses.add(hop.address)
        return truth

    def _config_signature(self) -> dict:
        """JSON-comparable fingerprint of everything that shapes results."""
        return {
            "seed": self.seed,
            "vps_per_as": self.vps_per_as,
            "targets_per_as": self.targets_per_as,
            "per_prefix": self.per_prefix,
            "reveal_success_rate": self.reveal_success_rate,
            "snmp_coverage": self.snmp_coverage,
            "bdrmap_error_rate": self.bdrmap_error_rate,
            "alias_success_rate": self.alias_success_rate,
            "max_ttl": self.max_ttl,
            "fault_plan": self.fault_plan.as_dict(),
            "retry": self.retry.as_dict(),
            # Only an *active* plan shapes results; keeping the key out
            # otherwise preserves checkpoint byte-compatibility with
            # churn-free campaigns recorded before churn existed.
            **(
                {"churn_plan": self.churn_plan.as_dict()}
                if self.churn_plan.active
                else {}
            ),
        }
