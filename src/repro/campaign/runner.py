"""Campaign execution: from portfolio spec to analyzed dataset.

For each AS of interest the runner mirrors the paper's Sec. 5 workflow:

1. build the measurement internetwork for the AS (topogen);
2. build the Anaximander target list;
3. run TNT traceroutes from every selected vantage point (each VP
   probes the same targets, shuffled per VP, with its own prober and
   fault injector -- :func:`~repro.campaign.shards.probe_vps`, the loop
   the sharded plane runs too);
4. fingerprint every responding interface (SNMPv3 first, TTL fallback)
   on the fault-free engine;
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
into a run directory (:mod:`repro.campaign.checkpoint`, the sharded
plane's format) so interrupted runs resume where they left off.

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
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.checkpoint import (
    SPILL_DIRNAME,
    ShardCheckpoint,
    open_run_dir,
)
from repro.campaign.dataset import TraceDataset
from repro.campaign.shardexec import (
    GracefulShutdown,
    LeaseExecutor,
    TaskOutcome,
    TaskStatus,
    WorkerControl,
)
from repro.campaign.shards import (
    ShardContext,
    ShardSpec,
    VpProbe,
    VpRun,
    probe_shard,
    probe_tallies,
    probe_vps,
    shard_plan,
    spill_damage,
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
from repro.topogen.alias import AliasResolver, AliasSet
from repro.topogen.anaximander import build_target_list
from repro.topogen.bdrmapit import BdrmapIt
from repro.topogen.internet import MeasurementNetwork, build_measurement_network
from repro.topogen.portfolio import AsSpec, Portfolio, default_portfolio
from repro.util.atomicio import DiskFullError
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

    def as_dict(self) -> dict:
        """The report's entry for this failure, which is also what the
        checkpoint banks."""
        return {
            "stage": self.stage,
            "error": self.error,
            "fault_counters": self.fault_counters.as_dict(),
            "retry_accounting": self.retry_accounting.as_dict(),
        }

    @classmethod
    def from_dict(cls, as_id: int, record: dict) -> "AsFailure":
        """Inverse of :meth:`as_dict` (tallies default to zero)."""
        return cls(
            as_id=as_id,
            stage=str(record["stage"]),
            error=str(record["error"]),
            fault_counters=FaultCounters.from_dict(
                record.get("fault_counters", {})
            ),
            retry_accounting=RetryAccounting.from_dict(
                record.get("retry_accounting", {})
            ),
        )


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

    def as_dict(self) -> dict:
        """The report's entry for this quarantine, which is also what
        the checkpoint banks (stage timings rounded to milliseconds)."""
        return {
            "reason": self.reason,
            "attempts": self.attempts,
            "detail": self.detail,
            "last_stage": self.last_stage,
            "stage_seconds": {
                stage: round(seconds, 3)
                for stage, seconds in sorted(self.stage_seconds.items())
            },
        }

    @classmethod
    def from_dict(cls, as_id: int, record: dict) -> "AsQuarantine":
        """Inverse of :meth:`as_dict`; the post-mortem is optional."""
        last_stage = record.get("last_stage")
        return cls(
            as_id=as_id,
            reason=str(record["reason"]),
            attempts=int(record["attempts"]),
            detail=str(record.get("detail", "")),
            last_stage=str(last_stage) if last_stage is not None else None,
            stage_seconds={
                str(stage): float(seconds)
                for stage, seconds in record.get("stage_seconds", {}).items()
            },
        )


#: what one AS of a portfolio run comes to
AsOutcome = AsCampaignResult | AsFailure | AsQuarantine


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

    def add(self, entry: AsOutcome, resumed: bool = False) -> None:
        """Record one AS's outcome and fold in its tallies.

        ``entry`` is a result, a failure or a quarantine.  A failed AS
        folds in the fault/retry cost it sank *before* failing, so
        partial work is accounted for rather than silently dropped.
        ``resumed`` marks a result restored from a checkpoint.
        """
        if isinstance(entry, AsQuarantine):
            self.quarantined[entry.as_id] = entry
            return
        self.fault_counters.merge(entry.fault_counters)
        self.retry_accounting.merge(entry.retry_accounting)
        if isinstance(entry, AsFailure):
            self.failures[entry.as_id] = entry
            return
        self._results[entry.as_id] = entry
        self.traces_quarantined += entry.analysis.traces_quarantined
        for kind, count in entry.analysis.anomaly_counts().items():
            self.anomaly_counts[kind] = (
                self.anomaly_counts.get(kind, 0) + count
            )
        if resumed:
            self.resumed_as_ids.append(entry.as_id)

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
        return {
            "completed": {
                str(as_id): {
                    key: value
                    for key, value in result_summary(result).items()
                    if key != "anomaly_counts"
                }
                for as_id, result in self._results.items()
            },
            "failures": {
                str(as_id): failure.as_dict()
                for as_id, failure in self.failures.items()
            },
            "quarantined": {
                str(as_id): quarantine.as_dict()
                for as_id, quarantine in self.quarantined.items()
            },
            "interrupted": self.interrupted,
            "fault_counters": self.fault_counters.as_dict(),
            "retry_accounting": self.retry_accounting.as_dict(),
            "traces_quarantined": self.traces_quarantined,
            "anomaly_counts": dict(sorted(self.anomaly_counts.items())),
        }


def result_summary(result: AsCampaignResult) -> dict:
    """One AS's canonical JSON summary (the banked analysis record).

    Both planes bank it per analyzed AS, and :meth:`CampaignReport.as_dict`
    reports it per completed AS (less ``anomaly_counts``, which the
    portfolio report totals instead).
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


def _quarantine_reason(outcome: TaskOutcome) -> str:
    """Stable quarantine reason of a final timeout/lease-loss/crash outcome:
    ``timeout``, ``hung`` (silent past ``heartbeat_timeout``) or ``crash``."""
    if outcome.status is TaskStatus.LEASE_EXPIRED:
        return "hung"
    return outcome.status.value


def _settle(outcome: TaskOutcome) -> AsOutcome:
    """One final engine outcome as the report entry it becomes."""
    as_id = outcome.key
    if outcome.status is TaskStatus.OK:
        message = outcome.value
        if message["status"] == "ok":
            return message["result"]
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
        return AsFailure(
            as_id, outcome.last_stage or "worker", outcome.error or ""
        )
    # TIMEOUT / LEASE_EXPIRED / CRASH past the re-dispatch budget
    return AsQuarantine(
        as_id,
        _quarantine_reason(outcome),
        outcome.attempts,
        outcome.error or "",
        outcome.last_stage,
        dict(outcome.stage_seconds or {}),
    )


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


def bank_durably(
    write: Callable[[], None],
    what: str,
    session: TelemetrySession | None,
    scope: object = None,
    export: dict | None = None,
) -> bool:
    """Run one checkpoint write as an outcome lands; both planes bank so.

    The write's latency feeds the session's fixed-bucket ``bank``
    histogram (observational only, so timing never orders results),
    then the worker's telemetry ``export`` joins the session under
    ``scope``.  A full disk leaves the checkpoint intact -- a torn
    tail at worst, salvaged on load -- and ``what`` unbanked, to run
    again on resume; the return value says whether the write landed.
    """
    tick = time.monotonic()
    try:
        write()
    except DiskFullError as exc:
        logger.error(
            "checkpoint write failed (disk full) banking %s: %s -- it "
            "will re-run on resume",
            what,
            exc,
        )
        return False
    if session is not None:
        session.observe("bank", time.monotonic() - tick)
        if export:
            session.record_export(scope, export)
    return True


def _campaign_worker(payload: tuple, ctl: WorkerControl) -> dict:
    """Executor task: rebuild the runner and run one AS.

    Each task -- in-process at ``jobs=1``, in a pool worker otherwise --
    constructs a *fresh* runner from the parent's constructor kwargs,
    so results are a pure function of ``(config, as_id)``: the property
    that makes parallel output byte-identical to serial.
    Stage transitions double as lease-renewing heartbeats.  Telemetry
    recorded in-worker is buffered and shipped back inside the outcome
    dict (see :meth:`_run_as_guarded`).  A checkpointed run spills the
    AS's traces into ``spill_dir`` before the task returns.  A failed
    AS recycles its worker, so its interpreter never serves the next AS.
    """
    as_id, runner_cls, kwargs, telemetry_on, traceparent, spill_dir = (
        payload
    )
    runner = runner_cls(**kwargs)
    runner._stage_hook = ctl.heartbeat
    runner._telemetry_on = telemetry_on
    runner._traceparent = traceparent
    runner._spill_dir = spill_dir
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
        #: per-VP probers/injectors and the fingerprint injector of the
        #: in-flight run_as, so a mid-stage failure can still report
        #: its partial tallies
        self._runs: list[VpRun] = []
        self._fingerprint_injector: FaultInjector | None = None
        #: run directory spill folder of a checkpointed portfolio (set
        #: by the task envelope), and the probe record of the AS just
        #: spilled there
        self._spill_dir: Path | None = None
        self._spilled = None

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
        self._runs = []
        self._fingerprint_injector = None
        self._spilled = None
        with tel.span("as", as_id=as_id):
            self._set_stage("setup")
            spec = self.portfolio.spec(as_id)
            vps = self._select_vps(as_id)
            self._set_stage("topology")
            with tel.span("topology"):
                net = build_measurement_network(
                    spec, [vp.vp_id for vp in vps], seed=self.seed
                )
                targets = build_target_list(
                    net,
                    per_prefix=self.per_prefix,
                    limit=self.targets_per_as,
                    seed=self.seed,
                )
            context = ShardContext(spec, vps, net, list(targets.addresses))
            dynamics = self._dynamics_for(as_id, net)
            if dynamics is not None:
                net.engine.dynamics = dynamics
            self._set_stage("probe")
            dataset = TraceDataset(
                target_asn=net.target_asn,
                metadata=self._dataset_metadata(as_id, vps),
            )
            self._probe(context, dataset)
            if dynamics is not None:
                # Churn is confined to trace collection: restore the
                # nominal topology before fingerprint/analysis, so a
                # fresh run analyzes exactly the network a resume
                # rebuilds (fresh == resumed, byte for byte).  Counters
                # ride the observational gauge channel only -- results
                # and checkpoints never see them.
                dynamics.quiesce()
                net.engine.dynamics = None
                for name, value in dynamics.counters.as_dict().items():
                    tel.gauge(f"churn_{name}", value)
            # Fast-path cache gauges: observational only (the telemetry
            # contract), but they make cache regressions visible per AS.
            for name, value in net.engine.stats.as_dict().items():
                tel.gauge(f"walkcache_{name}", value)
            faults, retry = probe_tallies(self._runs)
            result = self._fingerprint_and_analyze(
                spec, net, dataset, faults, retry
            )
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
          *deterministic in jobs*: the report and the final checkpoint
          are byte-identical for any job count, because each AS derives
          everything from ``(seed, as_id)``, the report is assembled in
          ``as_ids`` order, and the checkpoint -- banked in completion
          order -- is compacted canonically at the end.
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
        portfolio continues.  ``checkpoint`` names a run directory
        (``checkpoint.jsonl`` plus ``spills/``, the layout of
        :meth:`ScaleCampaign.run <repro.campaign.scale.ScaleCampaign.run>`):
        each AS spills its traces there as one whole-AS shard, and
        every outcome -- probe record plus :func:`result_summary`,
        failure, or quarantine -- is durably banked as it lands.
        ``resume=True`` restores banked outcomes (re-deriving analyses
        from the spills without re-probing, and without re-running
        known failures) and measures only what is missing, producing
        the same report as an uninterrupted run.  A spill that fails
        its banked digests is logged and its AS re-run.

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
        store: ShardCheckpoint | None = None
        restored: dict[int, AsOutcome] = {}
        if checkpoint is not None:
            store = open_run_dir(
                checkpoint, self._config_signature(), resume=resume
            )
            restored = self._restore(store, as_ids, session)
        to_run = [as_id for as_id in as_ids if as_id not in restored]
        if store is not None and to_run:
            store.reopen()
        settled, interrupted = self._execute(
            to_run, store, jobs, timeout_per_as, heartbeat_timeout, session
        )

        # Assemble strictly in as_ids order so the report is identical
        # whatever order tasks actually completed in.
        report = CampaignReport()
        report.interrupted = interrupted
        for as_id in as_ids:
            if as_id in restored:
                report.add(restored[as_id], resumed=True)
            elif as_id in settled:
                report.add(settled[as_id])
            # else: interrupted before this AS was dispatched
        if store is not None and not interrupted and not store.complete:
            # Canonical order makes a resumed checkpoint's bytes match
            # an uninterrupted run's.
            store.compact_canonical(list(as_ids))
        return report

    # -- checkpoint restore -------------------------------------------------------

    def _restore(
        self,
        store: ShardCheckpoint,
        as_ids: list[int],
        session: TelemetrySession | None,
    ) -> dict[int, AsOutcome]:
        """The banked outcomes of ``as_ids``, ready for the report.

        Failures and quarantines restore verbatim; an analyzed AS is
        rebuilt from its spill, unless the spill fails its banked facts
        -- then it is left out, and so runs again.
        """
        analyses = store.analyses
        failures = store.failures
        quarantines: dict[int, dict] = {}
        for (as_id, _bucket), detail in sorted(store.quarantines.items()):
            quarantines.setdefault(as_id, detail)
        vp_facts = store.vp_facts
        spill_dir = store.path.parent / SPILL_DIRNAME
        restored: dict[int, AsOutcome] = {}
        for as_id in as_ids:
            if as_id in analyses:
                facts = [
                    vp for (a, _), vp in sorted(vp_facts.items()) if a == as_id
                ]
                spill = spill_dir / self._whole_as(as_id).spill_name
                result = self._rehydrate(as_id, spill, facts, session)
                if result is not None:
                    restored[as_id] = result
                continue
            if as_id in failures:
                restored[as_id] = AsFailure.from_dict(
                    as_id, failures[as_id]
                )
                counter = "as_failed"
            elif as_id in quarantines:
                restored[as_id] = AsQuarantine.from_dict(
                    as_id, quarantines[as_id]
                )
                counter = "as_quarantined"
            else:
                continue
            if session is not None:
                session.record_scope(as_id, counters={counter: 1})
        return restored

    def _rehydrate(
        self,
        as_id: int,
        spill: Path,
        facts: list[VpProbe],
        session: TelemetrySession | None,
    ) -> AsCampaignResult | None:
        """Rebuild one banked AS from its whole-AS spill (None if damaged).

        The replay gets its own spans (the parent does the work, so the
        parent records it) and the result-derived counters -- banked
        tallies included -- so a resumed run's counter totals equal an
        uninterrupted run's.
        """
        from repro.campaign.scale import rehydrate_as

        damage = spill_damage(spill, facts)
        if damage is not None:
            logger.warning(
                "AS#%d: spill does not match its banked facts (%s); "
                "re-running the AS",
                as_id,
                damage,
            )
            return None
        faults, retry = probe_tallies(facts)
        tel = (
            Telemetry(trace=session.trace)
            if session is not None
            else NULL_TELEMETRY
        )
        previous = self.telemetry
        self.telemetry = tel
        try:
            with tel.span("as", as_id=as_id, resumed=True):
                result = rehydrate_as(self, as_id, [spill], faults, retry)
        finally:
            self.telemetry = previous
        if session is not None:
            merge_counters(tel.counters, result_counters(result))
            session.record_export(as_id, tel.export())
        return result

    # -- supervised execution ----------------------------------------------------

    def _execute(
        self,
        to_run: list[int],
        store: ShardCheckpoint | None,
        jobs: int,
        timeout_per_as: float | None,
        heartbeat_timeout: float | None,
        session: TelemetrySession | None = None,
    ) -> tuple[dict[int, AsOutcome], bool]:
        """Run the missing ASes under supervision, banking as they land.

        Outcomes are banked, and telemetry batches appended, in
        completion order; the caller's final compaction makes the
        checkpoint's bytes independent of that order.
        """
        if not to_run:
            return {}, False
        settled: dict[int, AsOutcome] = {}
        spill_dir = (
            store.path.parent / SPILL_DIRNAME if store is not None else None
        )

        def on_complete(outcome: TaskOutcome) -> None:
            entry = settled[outcome.key] = _settle(outcome)
            if session is not None:
                self._record_outcome_telemetry(session, outcome)
            if store is None:
                return

            def write() -> None:
                # A result's spill is already in place: its probe record
                # banks first, then its summary.
                if isinstance(entry, AsFailure):
                    store.record_failure(entry.as_id, entry.as_dict())
                elif isinstance(entry, AsQuarantine):
                    store.record_quarantine(
                        (entry.as_id, 0), entry.as_dict()
                    )
                else:
                    store.record_probe(outcome.value["record"])
                    store.record_analysis(entry.as_id, result_summary(entry))

            bank_durably(write, f"AS#{outcome.key}", session)

        engine = LeaseExecutor(
            _campaign_worker,
            jobs=jobs,
            lease_timeout=heartbeat_timeout,
            timeout=timeout_per_as,
        )
        envelope = (
            type(self),
            self._spawn_config(),
            session is not None,
            session.traceparent() if session is not None else None,
            spill_dir,
        )
        payloads = [(as_id, (as_id, *envelope)) for as_id in to_run]
        with GracefulShutdown() as shutdown:
            result = engine.run(
                payloads, on_complete=on_complete, stop=shutdown
            )
        return settled, result.interrupted

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
        the portfolio accounts for interrupted work; a full disk while
        spilling comes back as ``disk-full``, which quarantines the AS.
        A checkpointed run's message also carries the AS's probe record.

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
        except DiskFullError as exc:
            message = {"status": "disk-full", "error": str(exc)}
            if tel is not None:
                tel.count("as_quarantined")
                message["telemetry"] = tel.export()
            return message
        except Exception as exc:  # noqa: BLE001 -- per-AS isolation
            faults, retry = probe_tallies(self._runs)
            if self._fingerprint_injector is not None:
                faults.merge(self._fingerprint_injector.counters)
            message = {
                "status": "error",
                "stage": self._stage,
                "error": f"{type(exc).__name__}: {exc}",
                "fault_counters": faults,
                "retry_accounting": retry,
            }
            if tel is not None:
                tel.count("as_failed")
                message["telemetry"] = tel.export()
            return message
        finally:
            if tel is not None:
                self.telemetry = NULL_TELEMETRY
        message = {"status": "ok", "result": result, "record": self._spilled}
        if tel is not None:
            merge_counters(tel.counters, result_counters(result))
            message["telemetry"] = tel.export()
        return message

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

    # -- stages ----------------------------------------------------------------------

    def _select_vps(self, as_id: int) -> list[VantagePoint]:
        rng = DeterministicRng("vp-select", self.seed, as_id)
        return rng.sample(list(self.vantage_points), self.vps_per_as)

    def _dynamics_for(
        self, as_id: int, net: MeasurementNetwork
    ) -> NetworkDynamics | None:
        """A per-AS churn scheduler, or None for the no-churn plan.

        An inactive plan attaches nothing, keeping the engine's fused
        fast path eligible and the campaign byte-identical to the
        static-network behaviour.  The ``("as",
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

    def _dataset_metadata(
        self, as_id: int, vps: list[VantagePoint]
    ) -> dict[str, str]:
        """The metadata of one AS's dataset, fresh or rebuilt."""
        metadata = {
            "as_id": str(as_id),
            "seed": str(self.seed),
            "vps": ",".join(vp.vp_id for vp in vps),
        }
        if self.vps_per_as < self.vps_requested:
            metadata["vps_requested"] = str(self.vps_requested)
            metadata["vps_effective"] = str(self.vps_per_as)
        return metadata

    def _whole_as(self, as_id: int) -> ShardSpec:
        """The one-bucket shard of ``as_id``: a portfolio run's spill."""
        return shard_plan([as_id], self.vps_per_as, self.vps_per_as)[0]

    def _probe(self, context: ShardContext, dataset: TraceDataset) -> None:
        """Probe every selected VP into ``dataset``.

        A checkpointed run also streams the traces into the AS's
        whole-AS spill -- the bytes a one-bucket sharded run writes --
        and keeps its probe record for the supervisor to bank.
        """
        as_id = context.spec.as_id
        if self._spill_dir is None:
            probe_vps(
                self,
                context,
                range(len(context.vps)),
                dataset.add,
                runs=self._runs,
                telemetry=self.telemetry,
            )
            return
        shard = self._whole_as(as_id)
        self._spilled = probe_shard(
            self,
            context,
            shard,
            Path(self._spill_dir) / shard.spill_name,
            telemetry=self.telemetry,
            tee=dataset.add,
            runs=self._runs,
        )

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

    def _fingerprint_and_analyze(
        self,
        spec: AsSpec,
        net: MeasurementNetwork,
        dataset: TraceDataset,
        faults: FaultCounters,
        retry: RetryAccounting,
    ) -> AsCampaignResult:
        """Fingerprint and analyze one probed AS: the stages after probing.

        Fingerprinting runs on the fault-free engine (its pings see no
        probe faults) with SNMP timeouts drawn by a fresh ``("fingerprint",
        as_id)`` injector, so fingerprints depend only on the dataset and
        the config: a fresh run, a resume and the sharded plane derive
        the same ones.  ``faults`` and ``retry`` are the probe tallies;
        the SNMP timeouts join ``faults``.
        """
        tel = self.telemetry
        injector = (
            FaultInjector(self.fault_plan, "fingerprint", spec.as_id)
            if self.fault_plan.active
            else None
        )
        self._fingerprint_injector = injector
        self._set_stage("fingerprint")
        with tel.span("fingerprint"):
            fingerprints = self._fingerprint(net, dataset, faults=injector)
        self._set_stage("analysis")
        with tel.span("analyze"):
            result = self._analyze(spec, net, dataset, fingerprints)
        if injector is not None:
            faults.merge(injector.counters)
        result.fault_counters = faults
        result.retry_accounting = retry
        return result

    def _analyze(
        self,
        spec: AsSpec,
        net: MeasurementNetwork,
        dataset: TraceDataset,
        fingerprints: dict[IPv4Address, Fingerprint],
    ) -> AsCampaignResult:
        """Everything downstream of data collection.

        Deterministic given (dataset, fingerprints, seed) -- this is the
        path a resume replays from the spills without re-firing probes.
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
            # A portfolio with a descriptor (synthetic portfolios are
            # config, not code) binds it too; Table 5's has none.
            **(
                {"portfolio": self.portfolio.as_dict()}
                if callable(getattr(self.portfolio, "as_dict", None))
                else {}
            ),
        }
