"""Deterministic campaign shards: (as_id, vp_bucket) probe units.

Paper-scale campaigns cannot treat one AS as the unit of work: a single
large AS probed from 50 vantage points is minutes of wall clock and a
gigabyte of traces, far too coarse for work stealing and far too big to
re-run wholesale after a worker dies.  This module splits every AS's
probing into **shards** -- contiguous buckets of its selected vantage
points -- that are small enough to steal, cheap enough to re-dispatch,
and, crucially, *independent*:

Per-VP purity.  Every trace in this simulator is a pure function of
``(config, as_id, vp, destination)``: the topology derives from
``(seed, as_id)``, target shuffling from ``(seed, vp_id)``, reveal
draws from ``(seed, flow)``; retry state is confined to one prober and
fault state to one injector, and sharded probing scopes **both per
vantage point** (a fresh :class:`~repro.probing.tnt.TntProber` and a
``("vp", as_id, vp_index)``-scoped injector per VP).  A VP therefore
produces byte-identical traces whichever bucket -- whichever *worker*,
whichever *attempt* -- it lands in, which is what makes the campaign's
output invariant under ``--shards``, ``--jobs``, and crash-and-resume.

(Churn is the one plan that breaks per-VP purity -- its schedule
mutates the network under *all* probes in sequence -- so sharded
campaigns refuse it; see :class:`repro.campaign.scale.ScaleCampaign`.)

Each shard streams its traces straight to a **spill file** -- a normal
:meth:`TraceDataset.dump_jsonl` file written through
:func:`~repro.util.atomicio.atomic_writer` -- so probing memory stays
bounded by one trace, not one campaign, and a ``kill -9`` mid-shard
leaves no torn artifact: the spill appears atomically or not at all,
and a re-run replaces it with identical bytes.  Alongside the spill,
each shard reports per-VP trace counts and SHA-256 digests of the
spill's trace lines -- partition-independent facts the checkpoint can
canonicalize regardless of how VPs were bucketed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.campaign.dataset import TraceDataset, trace_to_json
from repro.netsim.faults import FaultCounters, FaultInjector
from repro.probing.tnt import TntProber
from repro.topogen.anaximander import build_target_list
from repro.topogen.internet import MeasurementNetwork, build_measurement_network
from repro.util.atomicio import atomic_writer
from repro.util.determinism import DeterministicRng
from repro.util.retry import RetryAccounting

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.campaign.runner import CampaignRunner


@dataclass(slots=True, frozen=True)
class ShardSpec:
    """One unit of probing work: a bucket of one AS's vantage points.

    ``vp_indices`` index into the AS's *selected* VP list (the
    deterministic ``(seed, as_id)`` sample), not the global fleet, so a
    spec stays meaningful across processes without shipping VP objects.
    """

    as_id: int
    bucket: int
    vp_indices: tuple[int, ...]

    @property
    def key(self) -> tuple[int, int]:
        """The shard's identity in queues, leases and checkpoints."""
        return (self.as_id, self.bucket)

    @property
    def spill_name(self) -> str:
        """Canonical spill file name (stable across runs and workers)."""
        return f"as{self.as_id:06d}-b{self.bucket:03d}.jsonl"


def shard_plan(
    as_ids: Iterable[int], vps_per_as: int, vps_per_shard: int
) -> list[ShardSpec]:
    """Split a campaign into its deterministic shard list.

    Buckets are contiguous ``vps_per_shard``-sized slices of each AS's
    selected-VP index range, in ``(as_id, bucket)`` order -- the same
    plan on every run, whatever executes it.
    """
    if vps_per_as < 1:
        raise ValueError("vps_per_as must be >= 1")
    if vps_per_shard < 1:
        raise ValueError("vps_per_shard must be >= 1")
    vps_per_shard = min(vps_per_shard, vps_per_as)
    plan: list[ShardSpec] = []
    for as_id in as_ids:
        for bucket, start in enumerate(
            range(0, vps_per_as, vps_per_shard)
        ):
            plan.append(
                ShardSpec(
                    as_id=as_id,
                    bucket=bucket,
                    vp_indices=tuple(
                        range(start, min(start + vps_per_shard, vps_per_as))
                    ),
                )
            )
    return plan


@dataclass(slots=True)
class VpProbe:
    """Partition-independent summary of one VP's probing.

    The trace count and line digest describe *what the VP produced*,
    never *which shard produced it* -- the invariants the checkpoint
    canonicalizes so its bytes match across every ``--shards`` value.
    """

    vp_index: int
    vp_id: str
    traces: int
    sha256: str
    retry_accounting: RetryAccounting
    fault_counters: FaultCounters

    def as_dict(self) -> dict:
        return {
            "vp_index": self.vp_index,
            "vp_id": self.vp_id,
            "traces": self.traces,
            "sha256": self.sha256,
            "retry_accounting": self.retry_accounting.as_dict(),
            "fault_counters": self.fault_counters.as_dict(),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "VpProbe":
        return cls(
            vp_index=int(record["vp_index"]),
            vp_id=str(record["vp_id"]),
            traces=int(record["traces"]),
            sha256=str(record["sha256"]),
            retry_accounting=RetryAccounting.from_dict(
                record.get("retry_accounting", {})
            ),
            fault_counters=FaultCounters.from_dict(
                record.get("fault_counters", {})
            ),
        )


@dataclass(slots=True)
class ShardProbeRecord:
    """What one completed shard banked: spill location + per-VP facts."""

    as_id: int
    bucket: int
    spill: str
    vps: list[VpProbe]

    @property
    def key(self) -> tuple[int, int]:
        return (self.as_id, self.bucket)

    def as_dict(self) -> dict:
        return {
            "spill": self.spill,
            "vps": [vp.as_dict() for vp in self.vps],
        }

    @classmethod
    def from_dict(cls, as_id: int, bucket: int, record: dict) -> "ShardProbeRecord":
        return cls(
            as_id=as_id,
            bucket=bucket,
            spill=str(record["spill"]),
            vps=[VpProbe.from_dict(vp) for vp in record.get("vps", ())],
        )


@dataclass(slots=True)
class ShardContext:
    """Per-AS scaffolding shared by that AS's shards within a worker.

    Building the topology is the expensive part of a shard, and every
    bucket of the same AS needs the *same* network (topology must be a
    function of the AS, never of the bucket).  Workers cache one
    context per AS; the RSS watchdog sheds the cache under pressure.
    """

    spec: object
    vps: list
    net: MeasurementNetwork
    targets: list


def build_shard_context(
    runner: "CampaignRunner", as_id: int
) -> ShardContext:
    """Build (deterministically) everything a shard of ``as_id`` needs."""
    spec = runner.portfolio.spec(as_id)
    vps = runner._select_vps(as_id)
    net = build_measurement_network(
        spec, [vp.vp_id for vp in vps], seed=runner.seed
    )
    targets = list(
        build_target_list(
            net,
            per_prefix=runner.per_prefix,
            limit=runner.targets_per_as,
            seed=runner.seed,
        ).addresses
    )
    return ShardContext(spec=spec, vps=vps, net=net, targets=targets)


def probe_shard(
    runner: "CampaignRunner",
    context: ShardContext,
    shard: ShardSpec,
    spill_path: str | Path,
    heartbeat=None,
    telemetry=None,
) -> ShardProbeRecord:
    """Probe one shard, streaming traces to its spill file.

    Memory holds one trace at a time: each trace is serialized,
    written, digested and dropped.  The spill carries the standard
    dataset header so every downstream reader
    (:meth:`TraceDataset.iter_jsonl`, ``arest detect``) takes it as-is.

    The write is atomic: a crash at any instant leaves either no spill
    or the complete previous one, and the checkpoint line for this
    shard is only banked by the supervisor *after* this returns -- so
    resume either finds both (skip) or neither (re-run, byte-identical)
    and can never lose or duplicate a trace.

    ``telemetry`` (a :class:`~repro.obs.telemetry.Telemetry` recorder,
    usually trace-context-carrying) gets one ``probe`` span per VP and
    a per-trace latency observation; the traces themselves are pure
    functions of the config, so the spill bytes are identical with or
    without it.
    """
    spill_path = Path(spill_path)
    track = telemetry is not None and telemetry.enabled
    if track:
        clock = telemetry.clock
        # Per-probe seconds pile up in a plain list (pre-bound append)
        # and are batch-binned after the loop -- see AsAccumulator for
        # the same <2% instrumentation-budget trick.
        probe_samples: list[float] = []
        bin_probe = probe_samples.append
    vp_probes: list[VpProbe] = []
    try:
        with atomic_writer(spill_path) as fh:
            header = {
                "kind": "header",
                "target_asn": context.net.target_asn,
                "metadata": {
                    "as_id": str(shard.as_id),
                    "bucket": str(shard.bucket),
                    "seed": str(runner.seed),
                    "vps": ",".join(
                        context.vps[i].vp_id for i in shard.vp_indices
                    ),
                },
            }
            fh.write(json.dumps(header) + "\n")
            for vp_index in shard.vp_indices:
                vp = context.vps[vp_index]
                if heartbeat is not None:
                    # one lease renewal per VP keeps long shards alive
                    heartbeat(f"vp-{vp_index}")
                # Fault scope is the VP, not the AS: injector state
                # (token buckets, blackout clocks) evolves with the
                # probe sequence, and only a per-VP sequence is
                # invariant under re-bucketing.
                injector = (
                    FaultInjector(runner.fault_plan, "vp", shard.as_id, vp_index)
                    if runner.fault_plan.active
                    else None
                )
                context.net.engine.faults = injector
                # Fresh prober per VP for the same reason: retry
                # accounting and any per-prober state stay VP-scoped.
                prober = TntProber(
                    context.net.engine,
                    max_ttl=runner.max_ttl,
                    reveal_success_rate=runner.reveal_success_rate,
                    seed=runner.seed,
                    retry=runner.retry,
                )
                vp_router = context.net.vantage_points[vp.vp_id]
                rng = DeterministicRng("shuffle", runner.seed, vp.vp_id)
                shuffled = list(context.targets)
                rng.shuffle(shuffled)
                digest = hashlib.sha256()
                count = 0
                if track:
                    with telemetry.span("probe", vp=vp.vp_id):
                        for destination in shuffled:
                            tick = clock()
                            trace = prober.trace(
                                vp_router, destination, vp_name=vp.vp_id
                            )
                            bin_probe(clock() - tick)
                            line = json.dumps(trace_to_json(trace)) + "\n"
                            fh.write(line)
                            digest.update(line.encode("utf-8"))
                            count += 1
                else:
                    for destination in shuffled:
                        trace = prober.trace(
                            vp_router, destination, vp_name=vp.vp_id
                        )
                        line = json.dumps(trace_to_json(trace)) + "\n"
                        fh.write(line)
                        digest.update(line.encode("utf-8"))
                        count += 1
                vp_probes.append(
                    VpProbe(
                        vp_index=vp_index,
                        vp_id=vp.vp_id,
                        traces=count,
                        sha256=digest.hexdigest(),
                        retry_accounting=RetryAccounting.from_dict(
                            prober.accounting.as_dict()
                        ),
                        fault_counters=(
                            FaultCounters.from_dict(
                                injector.counters.as_dict()
                            )
                            if injector is not None
                            else FaultCounters()
                        ),
                    )
                )
    finally:
        context.net.engine.faults = None
        if track and probe_samples:
            telemetry.histogram("probe").observe_many(probe_samples)
    return ShardProbeRecord(
        as_id=shard.as_id,
        bucket=shard.bucket,
        spill=spill_path.name,
        vps=vp_probes,
    )


def merged_dataset(
    target_asn: int,
    metadata: dict[str, str],
    spill_paths: list[Path],
) -> TraceDataset:
    """Merge one AS's spills (in bucket order) into an analysis dataset.

    Bucket order concatenates VPs in ascending selected-VP order, so
    the merged trace sequence equals what a single unsharded probe loop
    over the same VPs would have produced.  Memory is bounded by one
    AS, never the campaign -- the streaming reader feeds it line by
    line.
    """
    dataset = TraceDataset(target_asn=target_asn, metadata=dict(metadata))
    for path in spill_paths:
        for trace in TraceDataset.iter_jsonl(path):
            dataset.add(trace)
    return dataset
