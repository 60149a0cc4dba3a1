"""Command-line interface for the AReST reproduction.

Subcommands mirror the paper's workflow::

    arest run-as 46                 # probe + analyze one portfolio AS
    arest portfolio                 # the full 41-AS campaign summary
    arest detect traces.jsonl       # offline AReST over a stored dataset
    arest serve --state-dir state   # always-on streaming detection service
    arest scale-campaign --out run  # paper-scale sharded campaign
    arest validate 46               # Table-3 style ground-truth scoring
    arest survey                    # regenerate Fig. 5 / Table 2
    arest portfolio-table           # print Table 5
    arest testbed                   # Fig. 6's controlled scenarios

All commands are deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Sequence

from repro.obs.logsetup import LOG_FORMATS, LOG_LEVELS, configure_logging
from repro.version import __version__


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Lease-executor knobs shared by campaign-running commands."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "persistent worker processes running one AS at a time "
            "(1 = in-process; results are byte-identical for any N)"
        ),
    )
    parser.add_argument(
        "--timeout-per-as",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock deadline per attempt at an AS (a worker past it "
            "is killed and replaced, the AS re-dispatched once, then "
            "quarantined; requires --jobs > 1)"
        ),
    )
    _add_telemetry_argument(parser)


def _add_telemetry_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help=(
            "write run telemetry into DIR: manifest.json, a crash-safe "
            "telemetry.jsonl event stream, and a Prometheus textfile "
            "(results are byte-identical with or without it)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``arest`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="arest",
        description=(
            "AReST: Advanced Revelation of Segment Routing Tunnels "
            "(IMC 2025 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"arest {__version__}"
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="warning",
        help="root logger threshold (default: warning)",
    )
    parser.add_argument(
        "--log-format",
        choices=LOG_FORMATS,
        default="text",
        help="text lines or one JSON object per line (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_as = sub.add_parser(
        "run-as", help="run the campaign against one portfolio AS"
    )
    run_as.add_argument("as_id", type=int, help="Table 5 AS id (1-60)")
    run_as.add_argument("--seed", type=int, default=1)
    run_as.add_argument("--vps", type=int, default=4, dest="vps_per_as")
    run_as.add_argument(
        "--targets", type=int, default=36, dest="targets_per_as"
    )
    run_as.add_argument(
        "--dump", metavar="FILE", help="write the trace dataset as JSONL"
    )
    run_as.add_argument(
        "--anonymize",
        metavar="KEY",
        help=(
            "prefix-preserving address anonymization (and ground-truth "
            "stripping) applied to the dumped dataset"
        ),
    )
    _add_telemetry_argument(run_as)

    portfolio = sub.add_parser(
        "portfolio", help="run the full 41-AS campaign"
    )
    portfolio.add_argument("--seed", type=int, default=1)
    portfolio.add_argument("--vps", type=int, default=4, dest="vps_per_as")
    portfolio.add_argument(
        "--targets", type=int, default=36, dest="targets_per_as"
    )
    portfolio.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="per-probe loss probability injected into the campaign",
    )
    portfolio.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "ICMP rate limit: sustained time-exceeded replies per router "
            "per probe sent (token bucket; default: unlimited)"
        ),
    )
    portfolio.add_argument(
        "--snmp-timeout",
        type=float,
        default=0.0,
        help="probability an SNMPv3 fingerprint lookup times out",
    )
    portfolio.add_argument(
        "--churn",
        type=float,
        default=0.0,
        metavar="RATE",
        help=(
            "topology churn intensity during probing: link flaps with "
            "reconvergence transients at RATE, LSP churn at RATE/2, SR "
            "migration waves at RATE/4 (default: static network)"
        ),
    )
    portfolio.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="attempts per probe (1 = no retries)",
    )
    portfolio.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="bank each completed AS to FILE (JSONL) as the run progresses",
    )
    portfolio.add_argument(
        "--resume",
        action="store_true",
        help="restore completed ASes from --checkpoint and run the rest",
    )
    portfolio.add_argument(
        "--as",
        action="append",
        type=int,
        dest="as_ids",
        metavar="ID",
        help="run only this AS id (repeatable; default: all analyzed)",
    )
    _add_execution_arguments(portfolio)

    degradation = sub.add_parser(
        "degradation",
        help="degradation curves: per-flag recall/precision vs. probe loss",
    )
    degradation.add_argument("--seed", type=int, default=1)
    degradation.add_argument(
        "--loss-levels",
        default="0,0.02,0.05,0.1",
        metavar="L1,L2,...",
        help="comma-separated probe-loss intensities to sweep",
    )
    degradation.add_argument(
        "--corruption",
        default=None,
        metavar="C1,C2,...",
        help=(
            "sweep trace-corruption intensities instead of probe loss "
            "(comma-separated rates for FaultPlan.corruption)"
        ),
    )
    degradation.add_argument(
        "--churn",
        default=None,
        metavar="C1,C2,...",
        help=(
            "sweep topology-churn intensities instead of probe loss "
            "(comma-separated rates for ChurnPlan.intensity)"
        ),
    )
    degradation.add_argument(
        "--stale-replay",
        type=float,
        default=0.0,
        metavar="RATE",
        help=(
            "fixed stale-label replay rate riding along a --corruption "
            "sweep (the semantic attack sanitization cannot remove)"
        ),
    )
    degradation.add_argument("--vps", type=int, default=3, dest="vps_per_as")
    degradation.add_argument(
        "--targets", type=int, default=15, dest="targets_per_as"
    )
    degradation.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="attempts per probe during the sweep",
    )

    scale = sub.add_parser(
        "scale-campaign",
        help=(
            "paper-scale sharded campaign: work-stealing workers, "
            "lease-based crash recovery, resumable checkpoint"
        ),
    )
    scale.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help=(
            "durable run directory: checkpoint.jsonl, spills/, "
            "report.json, metrics.prom; rerun with --resume to "
            "complete an interrupted campaign"
        ),
    )
    scale.add_argument(
        "--ases",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "run against a lazily-generated N-AS synthetic portfolio "
            "(default: the Table 5 portfolio)"
        ),
    )
    scale.add_argument(
        "--profile",
        choices=("small", "paper"),
        default="small",
        help=(
            "synthetic AS size profile: 'small' keeps every AS cheap, "
            "'paper' spreads across all Table 5 size tiers"
        ),
    )
    scale.add_argument("--seed", type=int, default=1)
    scale.add_argument("--vps", type=int, default=4, dest="vps_per_as")
    scale.add_argument(
        "--targets", type=int, default=36, dest="targets_per_as"
    )
    scale.add_argument(
        "--per-prefix",
        type=_positive_int,
        default=3,
        metavar="N",
        help="targets drawn per advertised prefix",
    )
    scale.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="per-probe loss probability injected into the campaign",
    )
    scale.add_argument(
        "--snmp-timeout",
        type=float,
        default=0.0,
        help="probability an SNMPv3 fingerprint lookup times out",
    )
    scale.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="attempts per probe (1 = no retries)",
    )
    scale.add_argument(
        "--as",
        action="append",
        type=int,
        dest="as_ids",
        metavar="ID",
        help="run only this AS id (repeatable; default: all analyzed)",
    )
    scale.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "worker processes pulling shards (1 = in-process; results "
            "are byte-identical for any N)"
        ),
    )
    scale.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        dest="vps_per_shard",
        metavar="VPS",
        help=(
            "vantage points per shard (default: one shard per AS; "
            "results are byte-identical for any value)"
        ),
    )
    scale.add_argument(
        "--lease-timeout",
        type=_positive_float,
        default=60.0,
        metavar="SECONDS",
        help=(
            "heartbeat lease per shard: a silent worker past it is "
            "presumed lost and its shard is re-dispatched"
        ),
    )
    scale.add_argument(
        "--max-redispatch",
        type=int,
        default=1,
        metavar="N",
        help=(
            "re-dispatches per shard after crash/lease loss before "
            "the shard is quarantined"
        ),
    )
    scale.add_argument(
        "--max-rss",
        type=_positive_int,
        default=None,
        metavar="MB",
        help=(
            "per-worker resident-set budget: soft pressure sheds the "
            "topology cache, hard pressure recycles the worker "
            "(default: ungoverned)"
        ),
    )
    scale.add_argument(
        "--resume",
        action="store_true",
        help=(
            "restore banked shards/analyses from DIR's checkpoint and "
            "run only what's missing"
        ),
    )
    _add_telemetry_argument(scale)

    detect = sub.add_parser(
        "detect", help="run AReST offline over a JSONL trace dataset"
    )
    detect.add_argument("dataset", help="path to a JSONL trace dataset")
    detect.add_argument(
        "--segments-json",
        action="store_true",
        help=(
            "print the canonical segments document instead of the "
            "summary (byte-identical to the streaming service's "
            "GET /segments over the same traces)"
        ),
    )
    detect.add_argument(
        "--asn",
        type=int,
        default=None,
        help=(
            "with --segments-json: restrict hop attribution to this AS "
            "(default: analyze every hop, like a service without --asn)"
        ),
    )
    detect.add_argument(
        "--vendor-breakdown",
        action="store_true",
        help=(
            "print the per-vendor segment/flag breakdown (JSON) computed "
            "in one columnar pass over the dataset"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="run the always-on streaming detection service",
    )
    serve.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help=(
            "crash-safe state directory (ingest journal + snapshot); "
            "restarting on the same DIR resumes without losing any "
            "acknowledged trace"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help=(
            "TCP port (0 = ephemeral; the bound address is printed as "
            "a machine-parseable JSON line on the first line of stdout)"
        ),
    )
    serve.add_argument(
        "--asn",
        type=int,
        default=None,
        help="restrict hop attribution to this AS",
    )
    serve.add_argument(
        "--queue-capacity",
        type=_positive_int,
        default=1024,
        metavar="N",
        help="bounded ingest queue size (the service's memory bound)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="detection worker tasks",
    )
    serve.add_argument(
        "--detect-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help=(
            "per-trace analysis deadline; a trace past it is "
            "quarantined as poison (0 disables)"
        ),
    )
    serve.add_argument(
        "--snapshot-every",
        type=_positive_int,
        default=256,
        metavar="N",
        help="compact the journal into a snapshot every N traces",
    )
    _add_telemetry_argument(serve)

    validate = sub.add_parser(
        "validate", help="ground-truth validation for one AS (Table 3)"
    )
    validate.add_argument("as_id", type=int)
    validate.add_argument("--seed", type=int, default=1)

    survey = sub.add_parser(
        "survey", help="regenerate the operator survey (Fig. 5)"
    )
    survey.add_argument("--seed", type=int, default=0)

    report = sub.add_parser(
        "report", help="write a full markdown campaign report"
    )
    report.add_argument("--seed", type=int, default=1)
    report.add_argument("--vps", type=int, default=4, dest="vps_per_as")
    report.add_argument(
        "--targets", type=int, default=36, dest="targets_per_as"
    )
    report.add_argument(
        "-o", "--output", metavar="FILE", help="write to FILE (else stdout)"
    )
    _add_execution_arguments(report)

    telemetry = sub.add_parser(
        "telemetry",
        help="summarize a run's telemetry directory (timings, counters)",
    )
    telemetry.add_argument(
        "directory", help="directory written by --telemetry-dir"
    )
    telemetry.add_argument(
        "--prometheus",
        action="store_true",
        help="print the Prometheus exposition text instead of tables",
    )
    telemetry.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable summary instead of tables",
    )

    timeline = sub.add_parser(
        "timeline",
        help=(
            "reconstruct a traced run's cross-process timeline: "
            "per-shard Gantt view, critical path, straggler report"
        ),
    )
    timeline.add_argument(
        "directory",
        help="telemetry directory of a traced run (--telemetry-dir)",
    )
    timeline.add_argument(
        "--json",
        action="store_true",
        help=(
            "print the machine-readable timeline report (critical "
            "path, stragglers, coverage share) instead of the text view"
        ),
    )
    timeline.add_argument(
        "--trace-json",
        metavar="FILE",
        help=(
            "additionally write Chrome/Perfetto trace-event JSON to "
            "FILE (load via chrome://tracing or ui.perfetto.dev)"
        ),
    )

    sub.add_parser("portfolio-table", help="print Table 5")
    sub.add_parser(
        "testbed",
        help="run the controlled validation environment (Fig. 6 in code)",
    )
    return parser


def _cmd_run_as(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRunner
    from repro.core.flags import Flag

    runner = CampaignRunner(
        seed=args.seed,
        vps_per_as=args.vps_per_as,
        targets_per_as=args.targets_per_as,
    )
    result = runner.run_as(args.as_id, telemetry_dir=args.telemetry_dir)
    analysis = result.analysis
    print(f"{result.spec}: {analysis.traces_total} traces, "
          f"{analysis.traces_in_as} crossing the AS")
    counts = analysis.flag_counts()
    print(
        "flags: "
        + ", ".join(f"{f.name}={counts[f]}" for f in Flag if counts[f])
        if any(counts.values())
        else "flags: none (no SR-MPLS evidence)"
    )
    print(
        f"areas: SR={len(analysis.sr_addresses)} "
        f"MPLS={len(analysis.mpls_addresses)} "
        f"IP={len(analysis.ip_addresses)} interfaces; "
        f"explicit tunnels {analysis.explicit_tunnel_share():.0%}"
    )
    if args.dump:
        dataset = result.dataset
        if args.anonymize:
            from repro.campaign import PrefixPreservingAnonymizer

            dataset = PrefixPreservingAnonymizer(
                args.anonymize
            ).anonymize_dataset(dataset)
        dataset.dump_jsonl(args.dump)
        print(f"dataset written to {args.dump}")
    return 0


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_flag_proportions
    from repro.analysis.validation import headline_detection
    from repro.campaign import CampaignRunner
    from repro.netsim.dynamics import ChurnPlan
    from repro.netsim.faults import FaultPlan
    from repro.util.retry import RetryPolicy

    plan = FaultPlan(
        probe_loss=args.loss,
        icmp_rate_limit=args.rate_limit,
        snmp_timeout_rate=args.snmp_timeout,
        seed=args.seed,
    )
    churn = ChurnPlan.intensity(args.churn, seed=args.seed)
    runner = CampaignRunner(
        seed=args.seed,
        vps_per_as=args.vps_per_as,
        targets_per_as=args.targets_per_as,
        fault_plan=plan if plan.active else None,
        churn_plan=churn if churn.active else None,
        retry=RetryPolicy(max_attempts=args.retries),
    )
    report = runner.run_portfolio(
        as_ids=args.as_ids,
        checkpoint=args.checkpoint,
        resume=args.resume,
        jobs=args.jobs,
        timeout_per_as=args.timeout_per_as,
        telemetry_dir=args.telemetry_dir,
    )
    if not len(report):
        for failure in report.failures.values():
            print(
                f"FAILED AS#{failure.as_id} during {failure.stage}: "
                f"{failure.error}"
            )
        for quarantine in report.quarantined.values():
            print(
                f"QUARANTINED AS#{quarantine.as_id} ({quarantine.reason}, "
                f"{quarantine.attempts} attempts): {quarantine.detail}"
            )
        print(report.summary())
        return 130 if report.interrupted else 1
    print(render_flag_proportions(report))
    headline = headline_detection(report)
    print(
        f"\nconfirmed ASes detected: {headline.confirmed_detected}/"
        f"{headline.confirmed_total} ({headline.confirmed_rate:.0%}); "
        f"unconfirmed with evidence: {headline.unconfirmed_detected}/"
        f"{headline.unconfirmed_total} ({headline.unconfirmed_rate:.0%})"
    )
    if report.resumed_as_ids:
        print(
            f"resumed {len(report.resumed_as_ids)} AS(es) from "
            f"{args.checkpoint}"
        )
    if plan.active or report.retry_accounting.retries:
        counters = report.fault_counters
        print(
            f"faults: {counters.probes_lost} probes lost, "
            f"{counters.icmp_rate_limited} rate-limited, "
            f"{counters.blackout_drops} blackout drops, "
            f"{counters.snmp_timeouts} SNMP timeouts; "
            f"{report.retry_accounting.retries} retries "
            f"({report.retry_accounting.backoff_ms:.0f}ms backoff)"
        )
    for failure in report.failures.values():
        print(
            f"FAILED AS#{failure.as_id} during {failure.stage}: "
            f"{failure.error}"
        )
    for quarantine in report.quarantined.values():
        print(
            f"QUARANTINED AS#{quarantine.as_id} ({quarantine.reason}, "
            f"{quarantine.attempts} attempts): {quarantine.detail}"
        )
    if report.interrupted:
        print(f"interrupted: {report.summary()}")
        return 130
    return 0


def _cmd_degradation(args: argparse.Namespace) -> int:
    from repro.analysis.robustness import (
        degradation_study,
        render_degradation_table,
    )
    from repro.util.retry import RetryPolicy

    levels = tuple(
        float(level) for level in args.loss_levels.split(",") if level
    )
    corruption_levels = None
    if args.corruption is not None:
        corruption_levels = tuple(
            float(level) for level in args.corruption.split(",") if level
        )
    churn_levels = None
    if args.churn is not None:
        churn_levels = tuple(
            float(level) for level in args.churn.split(",") if level
        )
    study = degradation_study(
        loss_levels=levels,
        seed=args.seed,
        vps_per_as=args.vps_per_as,
        targets_per_as=args.targets_per_as,
        retry=RetryPolicy(max_attempts=args.retries),
        corruption_levels=corruption_levels,
        stale_replay_rate=args.stale_replay,
        churn_levels=churn_levels,
    )
    print(render_degradation_table(study))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.campaign import TraceDataset
    from repro.core.columnar import ColumnarDetector, TraceBatch

    # Streaming end to end: the header read is constant-cost and the
    # body flows through bounded columnar chunks, so paper-scale spill
    # files analyze in bounded memory.
    header = TraceDataset.read_header(args.dataset)
    if args.segments_json:
        from repro.service.state import batch_aggregate

        aggregate = batch_aggregate(
            TraceDataset.iter_jsonl(args.dataset), asn=args.asn
        )
        sys.stdout.buffer.write(aggregate.segments_json(args.asn))
        sys.stdout.buffer.flush()
        return 0
    if args.vendor_breakdown:
        import json

        from repro.analysis.vendor_breakdown import (
            VendorBreakdownAccumulator,
        )

        detector = ColumnarDetector()
        accumulator = VendorBreakdownAccumulator()
        for batch in TraceBatch.iter_jsonl(args.dataset):
            accumulator.feed_batch(batch, detector.detect_batch(batch))
        doc = {"target_asn": header.target_asn, **accumulator.as_doc()}
        print(json.dumps(doc, indent=2, sort_keys=False))
        return 0
    counts: Counter = Counter()
    seen = set()
    total = 0
    detector = ColumnarDetector()
    for batch in TraceBatch.iter_jsonl(args.dataset):
        total += len(batch)
        for segments in detector.detect_batch(batch):
            for segment in segments:
                if segment.key() not in seen:
                    seen.add(segment.key())
                    counts[segment.flag] += 1
    print(
        f"{total} traces toward AS{header.target_asn}, "
        f"{len(seen)} distinct segments"
    )
    for flag, count in counts.most_common():
        print(f"  {flag.name:<4} {count}")
    if not counts:
        print("  (no SR-MPLS evidence)")
    return 0


def _cmd_scale_campaign(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.campaign import ScaleCampaign, default_vantage_points
    from repro.netsim.faults import FaultPlan
    from repro.obs.prometheus import render_scale_metrics
    from repro.topogen.synthetic import (
        SyntheticPortfolio,
        synthetic_vantage_points,
    )
    from repro.util.atomicio import atomic_write_text
    from repro.util.retry import RetryPolicy

    portfolio = None
    if args.ases is not None:
        portfolio = SyntheticPortfolio(
            args.ases, seed=args.seed, profile=args.profile
        )
    fleet = None
    if args.vps_per_as > len(default_vantage_points()):
        # paper-scale VP counts extend the Table 4 fleet with
        # deterministic clones instead of silently clamping
        fleet = synthetic_vantage_points(args.vps_per_as)
    plan = FaultPlan(
        probe_loss=args.loss,
        snmp_timeout_rate=args.snmp_timeout,
        seed=args.seed,
    )
    campaign = ScaleCampaign(
        portfolio=portfolio,
        vantage_points=fleet,
        seed=args.seed,
        vps_per_as=args.vps_per_as,
        targets_per_as=args.targets_per_as,
        per_prefix=args.per_prefix,
        fault_plan=plan if plan.active else None,
        retry=RetryPolicy(max_attempts=args.retries),
    )
    report = campaign.run(
        args.out,
        as_ids=args.as_ids,
        jobs=args.jobs,
        vps_per_shard=args.vps_per_shard,
        resume=args.resume,
        lease_timeout=args.lease_timeout,
        max_rss_bytes=(
            args.max_rss * 1024 * 1024 if args.max_rss else None
        ),
        max_redispatch=args.max_redispatch,
        telemetry_dir=args.telemetry_dir,
    )
    out = Path(args.out)
    # report.json is the determinism contract's artifact: identical
    # bytes for any --jobs/--shards value, fresh or resumed
    atomic_write_text(
        out / "report.json",
        _json.dumps(report.as_dict(), indent=2) + "\n",
    )
    metrics = render_scale_metrics(campaign.stats)
    if metrics:
        atomic_write_text(out / "metrics.prom", metrics)
    stats = campaign.stats
    print(report.summary())
    print(
        f"shards: {stats.get('shards_probed', 0)} probed, "
        f"{stats.get('shards_resumed', 0)} resumed, "
        f"{stats.get('shards_redispatched', 0)} re-dispatched, "
        f"{stats.get('shards_quarantined', 0)} quarantined; "
        f"workers: {stats.get('workers_spawned', 0)} spawned, "
        f"{stats.get('workers_crashed', 0)} crashed, "
        f"{stats.get('workers_recycled', 0)} recycled"
    )
    print(
        f"peak RSS {stats.get('rss_peak_bytes', 0) / 2**20:.0f} MiB, "
        f"wall {stats.get('wall_seconds', 0.0):.1f}s; "
        f"artifacts in {out}"
    )
    for as_id, failure in report.failures.items():
        print(
            f"FAILED AS#{as_id} during {failure.get('stage', '?')}: "
            f"{failure.get('error', '')}"
        )
    for key, detail in report.quarantined.items():
        print(
            f"QUARANTINED shard {key} ({detail.get('reason', '?')}, "
            f"{detail.get('attempts', '?')} attempts): "
            f"{detail.get('detail', '')}"
        )
    if report.interrupted:
        print(f"interrupted: resume with --resume --out {out}")
        return 130
    if not report.completed and (report.failures or report.quarantined):
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json as _json

    from repro.service.server import (
        EXIT_BIND_FAILURE,
        ServiceConfig,
        exit_code_for,
        run_service,
    )

    config = ServiceConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        asn=args.asn,
        queue_capacity=args.queue_capacity,
        workers=args.workers,
        detect_timeout=(
            args.detect_timeout if args.detect_timeout > 0 else None
        ),
        snapshot_every=args.snapshot_every,
        telemetry_dir=args.telemetry_dir,
    )

    def ready(host: str, port: int) -> None:
        # machine-parseable bound address: always the FIRST stdout line,
        # so `arest serve --port 0` callers can discover the ephemeral
        # port with a single readline
        print(
            _json.dumps(
                {
                    "kind": "arest-serve",
                    "event": "listening",
                    "host": host,
                    "port": port,
                    "url": f"http://{host}:{port}",
                }
            ),
            flush=True,
        )

    try:
        status = asyncio.run(run_service(config, ready=ready))
    except OSError as exc:
        print(
            f"arest serve: cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return EXIT_BIND_FAILURE
    return exit_code_for(status)


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_validation
    from repro.analysis.validation import validate_against_truth
    from repro.campaign import CampaignRunner

    result = CampaignRunner(seed=args.seed).run_as(args.as_id)
    report = validate_against_truth(result)
    print(render_validation(report))
    print(
        f"interface precision={report.interface_precision:.3f} "
        f"recall={report.interface_recall:.3f}"
    )
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    from repro.analysis.survey import generate_survey, summarize_survey
    from repro.util.tables import format_table

    summary = summarize_survey(generate_survey(seed=args.seed))
    print(
        format_table(
            ["Vendor", "Share"],
            [(v, f"{s:.2f}") for v, s in summary.vendors_ranked()],
            title=f"Fig. 5a (N={summary.num_respondents})",
        )
    )
    print()
    print(
        format_table(
            ["Usage", "Share"],
            [(u, f"{s:.2f}") for u, s in summary.usages_ranked()],
            title="Fig. 5b",
        )
    )
    print(
        f"\nkeep default SRGB: {summary.srgb_default_share:.0%}; "
        f"SRLB: {summary.srlb_default_share:.0%}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.markdown_report import render_markdown_report
    from repro.campaign import CampaignRunner

    runner = CampaignRunner(
        seed=args.seed,
        vps_per_as=args.vps_per_as,
        targets_per_as=args.targets_per_as,
    )
    results = runner.run_portfolio(
        jobs=args.jobs,
        timeout_per_as=args.timeout_per_as,
        telemetry_dir=args.telemetry_dir,
    )
    summary = None
    if args.telemetry_dir:
        from repro.obs import summarize_telemetry

        summary = summarize_telemetry(args.telemetry_dir)
    text = render_markdown_report(results, telemetry=summary)
    if args.output:
        from repro.util.atomicio import atomic_write_text

        atomic_write_text(args.output, text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import (
        render_prometheus,
        render_telemetry_report,
        summarize_telemetry,
        summary_as_dict,
    )

    summary = summarize_telemetry(args.directory)
    if summary.manifest is None and not summary.counters:
        print(f"no telemetry found in {args.directory}", file=sys.stderr)
        return 1
    if args.prometheus:
        print(render_prometheus(summary), end="")
    elif args.json:
        print(
            _json.dumps(summary_as_dict(summary), indent=2, sort_keys=True)
        )
    else:
        print(render_telemetry_report(summary))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import (
        load_timeline,
        render_timeline,
        timeline_report_dict,
    )
    from repro.obs.trace import write_trace_json

    timeline = load_timeline(args.directory)
    if not timeline.spans:
        print(
            f"no traced spans found in {args.directory} (was the run "
            f"started with --telemetry-dir on a tracing-aware command?)",
            file=sys.stderr,
        )
        return 1
    if args.trace_json:
        write_trace_json(timeline, args.trace_json)
    if args.json:
        print(
            _json.dumps(
                timeline_report_dict(timeline), indent=2, sort_keys=True
            )
        )
    else:
        print(render_timeline(timeline))
        if args.trace_json:
            print(f"trace events written to {args.trace_json}")
    return 0


def _cmd_portfolio_table(args: argparse.Namespace) -> int:
    from repro.topogen.portfolio import default_portfolio
    from repro.util.tables import format_table

    rows = [
        (
            spec.label,
            spec.asn,
            spec.name,
            str(spec.role),
            f"{spec.traces_sent:,}",
            f"{spec.ips_discovered:,}",
            str(spec.confirmation),
            "yes" if spec.analyzed else "no",
        )
        for spec in default_portfolio()
    ]
    print(
        format_table(
            ["AS", "ASN", "Name", "Type", "Traces", "IPs", "Confirmed",
             "Analyzed"],
            rows,
            title="Table 5 -- targeted ASes",
        )
    )
    return 0


def _cmd_testbed(args: argparse.Namespace) -> int:
    from repro.testbed import run_all_scenarios

    failures = 0
    for outcome in run_all_scenarios():
        verdict = "PASS" if outcome.as_expected else "FAIL"
        failures += not outcome.as_expected
        raised = ", ".join(f.name for f in outcome.flags_raised) or "none"
        print(
            f"{outcome.scenario.name:<5} expected="
            f"{outcome.scenario.expected_flag.name:<5} raised={raised:<10} "
            f"[{verdict}]"
        )
    if failures:
        print(f"{failures} scenario(s) failed")
        return 1
    print("all five flags isolated")
    return 0


_COMMANDS = {
    "run-as": _cmd_run_as,
    "portfolio": _cmd_portfolio,
    "degradation": _cmd_degradation,
    "detect": _cmd_detect,
    "scale-campaign": _cmd_scale_campaign,
    "serve": _cmd_serve,
    "validate": _cmd_validate,
    "survey": _cmd_survey,
    "report": _cmd_report,
    "telemetry": _cmd_telemetry,
    "timeline": _cmd_timeline,
    "portfolio-table": _cmd_portfolio_table,
    "testbed": _cmd_testbed,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level, args.log_format)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
