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

It also survives an imperfect *execution* plane: ``run_portfolio``
calls the one campaign driver body (:mod:`repro.campaign.scale`),
each AS a whole-AS task that calls :meth:`CampaignRunner.run_as` in a
fresh runner (``jobs=N`` persistent workers, per-AS wall-clock
deadlines, hung / SIGKILLed workers re-dispatched once then
quarantined, SIGINT/SIGTERM drained gracefully), with the guarantee
that report and checkpoint are byte-identical for any ``jobs`` value.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.dataset import TraceDataset
from repro.campaign.shards import (
    MAX_TTL,
    ShardContext,
    VpProbe,
    VpRun,
    as_spills,
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
from repro.probing.records import Trace, truth_transport_is_sr
from repro.topogen.alias import AliasResolver, AliasSet
from repro.topogen.anaximander import build_target_list
from repro.topogen.bdrmapit import BdrmapIt
from repro.topogen.internet import MeasurementNetwork, build_measurement_network
from repro.topogen.portfolio import AsSpec, Portfolio, default_portfolio
from repro.util.determinism import DeterministicRng
from repro.util.retry import RetryAccounting, RetryPolicy

logger = logging.getLogger(__name__)

#: share of true alias pairs the MIDAR/APPLE-style resolver confirms
ALIAS_SUCCESS_RATE = 0.9


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


@dataclass(eq=False)
class CampaignReport(Mapping):
    """One campaign's outcome, whichever driver ran it.

    ``completed`` holds each analyzed AS's canonical summary
    (:func:`result_summary`); ``failures`` and ``quarantined`` hold the
    incident records keyed as the checkpoint banks them: a failure per
    AS, a quarantine per ``(as_id, bucket)`` shard (a whole AS's under
    bucket 0).  All three are in the campaign's ``as_ids`` order.
    Every total is computed from the summaries plus the partial tallies
    each failed AS sank before failing, so partial work is accounted
    for rather than silently dropped.

    The report is a ``Mapping[int, AsCampaignResult]`` over the results
    the driver kept: :meth:`CampaignRunner.run_portfolio` keeps every
    completed AS's, :meth:`ScaleCampaign.run
    <repro.campaign.scale.ScaleCampaign.run>` none.
    """

    #: AS id -> canonical analysis summary
    completed: dict[int, dict] = field(default_factory=dict)
    #: AS id -> failure (the stage reached and the tallies sunk)
    failures: dict[int, AsFailure] = field(default_factory=dict)
    #: (AS id, bucket) -> circuit-broken shard (deadline, crash, disk)
    quarantined: dict[tuple[int, int], AsQuarantine] = field(
        default_factory=dict
    )
    #: True when a shutdown request cut the run short, or an AS was
    #: left without an outcome; a resume completes it
    interrupted: bool = False
    #: completed ASes whose analysis the checkpoint had already banked
    resumed_as_ids: list[int] = field(default_factory=list)
    #: AS id -> kept result (empty unless the driver keeps results)
    results: dict[int, AsCampaignResult] = field(default_factory=dict)

    # -- Mapping protocol over the kept results ---------------------------------

    def __getitem__(self, as_id: int) -> AsCampaignResult:
        return self.results[as_id]

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    # -- totals -----------------------------------------------------------------

    @property
    def fault_counters(self) -> FaultCounters:
        """Faults injected, over completed and failed ASes."""
        total = FaultCounters()
        for summary in self.completed.values():
            total.merge(FaultCounters.from_dict(summary["fault_counters"]))
        for failure in self.failures.values():
            total.merge(failure.fault_counters)
        return total

    @property
    def retry_accounting(self) -> RetryAccounting:
        """Retry cost, over completed and failed ASes."""
        total = RetryAccounting()
        for summary in self.completed.values():
            total.merge(
                RetryAccounting.from_dict(summary["retry_accounting"])
            )
        for failure in self.failures.values():
            total.merge(failure.retry_accounting)
        return total

    def traces_total(self) -> int:
        """Traces collected by the completed ASes."""
        return sum(s["traces_total"] for s in self.completed.values())

    @property
    def traces_quarantined(self) -> int:
        """Traces the sanitizer withheld, over completed ASes."""
        return sum(s["traces_quarantined"] for s in self.completed.values())

    @property
    def anomaly_counts(self) -> dict[str, int]:
        """Sanitizer anomaly tallies by kind, over completed ASes."""
        total: dict[str, int] = {}
        for summary in self.completed.values():
            for kind, count in summary["anomaly_counts"].items():
                total[kind] = total.get(kind, 0) + count
        return dict(sorted(total.items()))

    # -- views ------------------------------------------------------------------

    def summary(self) -> str:
        """One-line human summary of the campaign outcome."""
        parts = [
            f"{len(self.completed)} AS(es) completed",
            f"{self.traces_total()} traces",
        ]
        if self.resumed_as_ids:
            parts.append(f"{len(self.resumed_as_ids)} from checkpoint")
        if self.failures:
            parts.append(f"{len(self.failures)} failed")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        faults = self.fault_counters.total_faults()
        if faults:
            parts.append(f"{faults} faults injected")
        retries = self.retry_accounting.retries
        if retries:
            parts.append(f"{retries} retries")
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
        """Canonical JSON view: the run directory's ``report.json``.

        This is the determinism contract: two runs of the same
        campaign -- either driver, any worker count or shard layout,
        fresh or resumed -- produce byte-identical
        ``json.dumps(report.as_dict())``.  Execution provenance (the
        kept results, ``resumed_as_ids``) is deliberately excluded.
        """
        return {
            "completed": {
                str(as_id): summary
                for as_id, summary in self.completed.items()
            },
            "failures": {
                str(as_id): failure.as_dict()
                for as_id, failure in self.failures.items()
            },
            "quarantined": dict(
                sorted(
                    (f"{as_id}:{bucket}", quarantine.as_dict())
                    for (as_id, bucket), quarantine
                    in self.quarantined.items()
                )
            ),
            "interrupted": self.interrupted,
            "traces_total": self.traces_total(),
            "fault_counters": self.fault_counters.as_dict(),
            "retry_accounting": self.retry_accounting.as_dict(),
            "anomaly_counts": self.anomaly_counts,
        }


def result_summary(result: AsCampaignResult) -> dict:
    """One AS's canonical JSON summary (the banked analysis record).

    Both drivers bank it per analyzed AS, and
    :meth:`CampaignReport.as_dict` reports it whole per completed AS.
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


def summary_counters(summary: dict) -> dict[str, int]:
    """Typed telemetry counters of one completed AS, from its
    :func:`result_summary`.

    Derivation from the (deterministic) banked summary -- rather than
    in-band instrumentation -- is what makes counter totals identical
    for serial, parallel, and resumed executions of the same campaign:
    an AS analyzed in this session and one a resume finds banked count
    alike, and addition is order-independent.
    """
    faults = summary["fault_counters"]
    retry = summary["retry_accounting"]
    counters = {
        "traces_collected": summary["traces_total"],
        "traces_analyzed": (
            summary["traces_total"] - summary["traces_quarantined"]
        ),
        "traces_quarantined": summary["traces_quarantined"],
        "probes_attempted": retry["probes"],
        "probe_retries": retry["retries"],
        "probes_exhausted": retry["exhausted"],
        "faults_injected": FaultCounters.from_dict(faults).total_faults(),
        "fingerprints": summary["fingerprints"],
    }
    # Per-class fault tallies (only observed classes get a key, so
    # fault-free campaigns keep the exact counter set they had).
    for name, count in faults.items():
        if count:
            counters[f"fault_{name}"] = count
    flags = summary["flags"]
    counters["flags_total"] = sum(flags.values())
    for name, count in flags.items():
        counters[f"flags_{name.lower()}"] = count
    anomalies = summary["anomaly_counts"]
    counters["anomalies_total"] = sum(anomalies.values())
    for kind, count in anomalies.items():
        counters[f"anomaly_{kind}"] = count
    return counters


def banked_spills(
    spill_dir: Path, as_id: int, vps: list[VpProbe], vps_per_as: int
) -> list[Path] | None:
    """The spills of ``as_id`` a resume may analyze, found by name.

    A compacted checkpoint keeps each VP's banked facts but neither the
    spill that holds them nor the layout that wrote it, so the AS's
    spills (``as{id:06d}-b*.jsonl``, in bucket order) are checked as one
    sequence against its facts ``vps`` (in VP order).  None -- the AS
    must be probed again -- when a VP is missing or the spills fail.
    """
    if [vp.vp_index for vp in vps] != list(range(vps_per_as)):
        return None
    spills = as_spills(spill_dir, as_id)
    damage = spill_damage(spills, vps)
    if damage is not None:
        logger.warning(
            "AS#%d: spills do not match its banked facts (%s); "
            "re-probing the AS",
            as_id,
            damage,
        )
        return None
    return spills


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
        #: per-VP probers/injectors and the fingerprint injector of the
        #: in-flight run_as, so a mid-stage failure can still report
        #: its partial tallies
        self._runs: list[VpRun] = []
        self._fingerprint_injector: FaultInjector | None = None
        #: run directory spill folder (set by the whole-AS task of a
        #: checkpointed run), and the probe record of the AS just
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
        merge_counters(tel.counters, summary_counters(result_summary(result)))
        session.record_export(as_id, tel.export())
        session.finalize("ok")
        return result

    def run_portfolio(
        self,
        as_ids: list[int] | None = None,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        jobs: int = 1,
        timeout_per_as: float | None = None,
        heartbeat_timeout: float | None = None,
        telemetry_dir: str | Path | None = None,
    ) -> CampaignReport:
        """Run every requested AS (default: the 41 analyzed ones).

        Runs the one campaign driver
        (:func:`repro.campaign.scale.run_campaign`) keeping each AS's
        :class:`AsCampaignResult`; each AS is a whole-AS task that
        calls :meth:`run_as` in a fresh runner:

        - ``jobs=1`` (default) runs in-process, exactly the sequential
          loop it always was; ``jobs>1`` dispatches the tasks to a
          pool of ``jobs`` persistent worker processes.  Results are
          *deterministic in jobs*: the report and the final checkpoint
          are byte-identical for any job count, because each AS derives
          everything from ``(seed, as_id)``, the report is assembled in
          ``as_ids`` order, and the checkpoint -- banked in completion
          order -- is compacted canonically at the end.
        - ``timeout_per_as`` bounds each attempt at an AS in wall-clock
          seconds from its dispatch (pool mode only); a worker past its
          deadline -- or silent past ``heartbeat_timeout``, its lease,
          which each stage and each VP renews -- is SIGKILLed and
          replaced, the AS re-dispatched once and quarantined on the
          second strike.  A worker killed from outside (OOM,
          ``kill -9``) is handled the same way.
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
        ``resume=True`` restores banked failures and quarantines
        verbatim, re-analyzes each banked AS from its spills (one
        analysis task each, without re-probing) and measures only what
        is missing, producing the same report as an uninterrupted run.
        A resume adopts the banked shard layout; spills that fail their
        banked digests are logged and their AS probed again.

        ``telemetry_dir`` turns on observability for the run: a
        :class:`~repro.obs.session.TelemetrySession` writes a run
        manifest, a crash-safe JSONL stream of per-AS stage timings
        and counters, and a Prometheus textfile export into that
        directory.  Telemetry is purely observational -- the report
        and the checkpoint are byte-identical with it on or off.
        """
        from repro.campaign.scale import run_campaign

        return run_campaign(
            self,
            "run_portfolio",
            checkpoint,
            as_ids,
            jobs=jobs,
            resume=resume,
            keep_results=True,
            timeout=timeout_per_as,
            lease_timeout=heartbeat_timeout,
            telemetry_dir=telemetry_dir,
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
            fault_plan=self.fault_plan,
            churn_plan=self.churn_plan,
            retry=self.retry,
        )

    def _set_stage(self, stage: str) -> None:
        self._stage = stage
        if self._stage_hook is not None:
            self._stage_hook(stage)

    def _renew(self, _note: str) -> None:
        """Renew the lease mid-stage (once per VP), under the stage name
        the run is in, so post-mortems keep ``run_as``'s stages."""
        if self._stage_hook is not None:
            self._stage_hook(self._stage)

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

    def _probe(self, context: ShardContext, dataset: TraceDataset) -> None:
        """Probe every selected VP into ``dataset``, renewing the lease
        once per VP.

        A checkpointed run also streams the traces into the AS's
        whole-AS spill -- the bytes a one-bucket sharded run writes --
        and keeps its probe record for the supervisor to bank.
        """
        if self._spill_dir is None:
            probe_vps(
                self,
                context,
                range(len(context.vps)),
                dataset.add,
                runs=self._runs,
                heartbeat=self._renew,
                telemetry=self.telemetry,
            )
            return
        shard = shard_plan(
            [context.spec.as_id], self.vps_per_as, self.vps_per_as
        )[0]
        self._spilled = probe_shard(
            self,
            context,
            shard,
            Path(self._spill_dir) / shard.spill_name,
            heartbeat=self._renew,
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
            success_rate=ALIAS_SUCCESS_RATE,
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
            "alias_success_rate": ALIAS_SUCCESS_RATE,
            "max_ttl": MAX_TTL,
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
