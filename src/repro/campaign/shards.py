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

:func:`probe_vps` is that per-VP loop, and the only one: the classic
runner's :meth:`~repro.campaign.runner.CampaignRunner.run_as` runs it
over all of an AS's VPs, :func:`probe_shard` over one bucket.  (Churn
is the one plan that breaks per-VP purity -- its schedule mutates the
network under *all* probes in sequence -- so a churned AS is never
split: it runs whole, through ``run_as``, which keeps one AS-wide
schedule across the loop.)

Each shard streams its traces straight to a **spill file** -- a normal
:meth:`TraceDataset.dump_jsonl` file written through
:func:`~repro.util.atomicio.atomic_writer` -- and a ``kill -9`` mid-shard
leaves no torn artifact: the spill appears atomically or not at all,
and a re-run replaces it with identical bytes.  Alongside the spill,
each shard reports per-VP trace counts and SHA-256 digests of the
spill's trace lines -- partition-independent facts the checkpoint can
canonicalize regardless of how VPs were bucketed, and that
:func:`spill_damage` checks a spill against before a later process
trusts it.

The worker that probed a bucket also keeps its traces on the AS's
cached :class:`ShardContext`, so the AS's analysis, when it lands on
that worker, reads them from memory instead of decoding the spill
(:func:`merged_dataset` takes either).  A worker's memory is thus
bounded by the ASes in its context cache, never by the campaign.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.campaign.dataset import TraceDataset, trace_to_json
from repro.netsim.faults import FaultCounters, FaultInjector
from repro.probing.records import Trace
from repro.probing.tnt import TntProber
from repro.topogen.anaximander import build_target_list
from repro.topogen.internet import MeasurementNetwork, build_measurement_network
from repro.util.atomicio import atomic_writer
from repro.util.determinism import DeterministicRng
from repro.util.retry import RetryAccounting

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.campaign.runner import CampaignRunner

#: TNT's probe TTL ceiling, for every VP of every campaign
MAX_TTL = 40


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
    ``buckets`` holds the traces of each bucket this worker probed, so
    the AS's analysis can run on this context without re-reading those
    spills (:func:`~repro.campaign.scale.rehydrate_as`).
    """

    spec: object
    vps: list
    net: MeasurementNetwork
    targets: list
    #: bucket -> the traces this worker probed into its spill, in order
    buckets: dict[int, list[Trace]] = field(default_factory=dict)


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


@dataclass(slots=True)
class VpRun:
    """One vantage point's probing: the live retry tally of its own
    prober and its own fault injector.

    The prober itself is not kept: its stored walks serve that VP's
    traces only, and go with it.
    """

    vp_index: int
    vp_id: str
    retry_accounting: RetryAccounting
    injector: FaultInjector | None

    @property
    def fault_counters(self) -> FaultCounters:
        """The live fault tally of this VP's injector."""
        if self.injector is None:
            return FaultCounters()
        return self.injector.counters


def probe_tallies(
    vps: Iterable[VpRun | VpProbe],
) -> tuple[FaultCounters, RetryAccounting]:
    """Fault and retry tallies of some VPs, summed afresh in VP order.

    Live runs and banked facts sum alike, and in the same order, so a
    fresh AS, its resume and its sharded twin carry bit-identical
    (float) tallies.
    """
    faults, retry = FaultCounters(), RetryAccounting()
    for vp in vps:
        faults.merge(vp.fault_counters)
        retry.merge(vp.retry_accounting)
    return faults, retry


def probe_vps(
    runner: "CampaignRunner",
    context: ShardContext,
    vp_indices: Iterable[int],
    emit: Callable[[Trace], None],
    *,
    vp_done: Callable[[VpRun], None] | None = None,
    runs: list[VpRun] | None = None,
    heartbeat=None,
    telemetry=None,
) -> None:
    """Probe the selected VPs ``vp_indices`` in turn; each trace to ``emit``.

    The per-VP probe loop of both planes.  Every VP gets a fresh
    :class:`~repro.probing.tnt.TntProber` and a ``("vp", as_id,
    vp_index)``-scoped fault injector: injector state (token buckets,
    blackout clocks) evolves with the probe sequence, and only a per-VP
    sequence is invariant under re-bucketing.  Each VP's
    :class:`VpRun` joins ``runs`` before its first probe, so a failure
    mid-VP can still report the tallies sunk so far, and goes to
    ``vp_done`` after its last.  A churn schedule the caller attached
    to the engine keeps running across VPs; the fault hook is cleared
    on exit.

    ``telemetry`` gets one ``probe`` span per VP and a per-trace
    latency histogram; traces are pure functions of the config, so
    they are identical with or without it.
    """
    as_id = context.spec.as_id
    engine = context.net.engine
    track = telemetry is not None and telemetry.enabled
    if track:
        clock = telemetry.clock
        # Per-probe seconds pile up in a plain list (pre-bound append)
        # and are batch-binned after the loop -- see AsAccumulator for
        # the same <2% instrumentation-budget trick.
        probe_samples: list[float] = []
        bin_probe = probe_samples.append
    try:
        for vp_index in vp_indices:
            vp = context.vps[vp_index]
            if heartbeat is not None:
                # one lease renewal per VP keeps long shards alive
                heartbeat(f"vp-{vp_index}")
            injector = (
                FaultInjector(runner.fault_plan, "vp", as_id, vp_index)
                if runner.fault_plan.active
                else None
            )
            engine.faults = injector
            prober = TntProber(
                engine,
                max_ttl=MAX_TTL,
                reveal_success_rate=runner.reveal_success_rate,
                seed=runner.seed,
                retry=runner.retry,
            )
            run = VpRun(vp_index, vp.vp_id, prober.accounting, injector)
            if runs is not None:
                runs.append(run)
            vp_router = context.net.vantage_points[vp.vp_id]
            # Each VP probes the same targets, shuffled per VP (Sec. 5).
            rng = DeterministicRng("shuffle", runner.seed, vp.vp_id)
            shuffled = list(context.targets)
            rng.shuffle(shuffled)
            if track:
                with telemetry.span("probe", vp=vp.vp_id):
                    for destination in shuffled:
                        tick = clock()
                        trace = prober.trace(
                            vp_router, destination, vp_name=vp.vp_id
                        )
                        bin_probe(clock() - tick)
                        emit(trace)
            else:
                for destination in shuffled:
                    emit(
                        prober.trace(vp_router, destination, vp_name=vp.vp_id)
                    )
            if vp_done is not None:
                vp_done(run)
    finally:
        engine.faults = None
        if track and probe_samples:
            telemetry.histogram("probe").observe_many(probe_samples)


class _Spill:
    """Streams one spill's trace lines, digesting each VP's slice."""

    __slots__ = ("_fh", "_digest", "_count", "vps")

    def __init__(self, fh) -> None:
        self._fh = fh
        self._digest = hashlib.sha256()
        self._count = 0
        self.vps: list[VpProbe] = []

    def add(self, trace: Trace) -> None:
        line = json.dumps(trace_to_json(trace)) + "\n"
        self._fh.write(line)
        self._digest.update(line.encode("utf-8"))
        self._count += 1

    def vp_done(self, run: VpRun) -> None:
        faults, retry = probe_tallies([run])
        self.vps.append(
            VpProbe(
                vp_index=run.vp_index,
                vp_id=run.vp_id,
                traces=self._count,
                sha256=self._digest.hexdigest(),
                retry_accounting=retry,
                fault_counters=faults,
            )
        )
        self._digest = hashlib.sha256()
        self._count = 0


def probe_shard(
    runner: "CampaignRunner",
    context: ShardContext,
    shard: ShardSpec,
    spill_path: str | Path,
    heartbeat=None,
    telemetry=None,
    *,
    tee: Callable[[Trace], None] | None = None,
    runs: list[VpRun] | None = None,
) -> ShardProbeRecord:
    """Probe one shard, streaming traces to its spill file.

    Each trace is serialized, written and digested as it comes, and
    ``tee`` also takes it (the classic runner keeps its AS in memory,
    a scale worker its bucket, for the AS's analysis).  The spill
    carries the standard dataset header so
    every downstream reader (:meth:`TraceDataset.iter_jsonl`,
    ``arest detect``) takes it as-is.

    The write is atomic: a crash at any instant leaves either no spill
    or the complete previous one, and the checkpoint line for this
    shard is only banked by the supervisor *after* this returns -- so
    resume either finds both (skip) or neither (re-run, byte-identical)
    and can never lose or duplicate a trace.

    ``heartbeat``, ``telemetry`` and ``runs`` go to :func:`probe_vps`.
    """
    spill_path = Path(spill_path)
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
        spill = _Spill(fh)
        emit = spill.add
        if tee is not None:

            def emit(trace: Trace) -> None:
                tee(trace)
                spill.add(trace)

        probe_vps(
            runner,
            context,
            shard.vp_indices,
            emit,
            vp_done=spill.vp_done,
            runs=runs,
            heartbeat=heartbeat,
            telemetry=telemetry,
        )
    return ShardProbeRecord(
        as_id=shard.as_id,
        bucket=shard.bucket,
        spill=spill_path.name,
        vps=spill.vps,
    )


def as_spills(spill_dir: Path, as_id: int) -> list[Path]:
    """Every spill of ``as_id`` in ``spill_dir``, in bucket order."""
    prefix = f"as{as_id:06d}-b"
    return sorted(
        spill_dir.glob(f"{prefix}*.jsonl"),
        key=lambda path: int(path.stem[len(prefix):]),
    )


def _trace_lines(paths: list[Path]) -> Iterator[bytes]:
    """The trace lines of ``paths`` in turn, each file's header skipped."""
    for path in paths:
        with path.open("rb") as fh:
            if not fh.readline():
                raise ValueError(f"{path.name} is empty")
            yield from fh


def spill_damage(spills: list[Path], vps: list[VpProbe]) -> str | None:
    """Why ``spills`` fail their banked facts ``vps``, or None.

    The spills (one shard's, or an AS's in bucket order) are read as one
    run of trace lines: they must be exactly each VP's banked slice in
    turn -- its line count and the SHA-256 of its lines.  Every process
    that trusts a spill an earlier one wrote checks it here first; a
    run never re-reads the spills it wrote itself.
    """
    lines = _trace_lines(spills)
    try:
        for vp in vps:
            digest = hashlib.sha256()
            for seen in range(vp.traces):
                line = next(lines, None)
                if line is None:
                    return (
                        f"VP {vp.vp_id} has {seen} of its {vp.traces} "
                        f"banked traces"
                    )
                digest.update(line)
            if digest.hexdigest() != vp.sha256:
                return f"VP {vp.vp_id}'s traces do not match their digest"
        if next(lines, None) is not None:
            return "it holds traces past the banked VPs"
    except (OSError, ValueError) as exc:
        return str(exc)
    finally:
        lines.close()
    return None


def merged_dataset(
    target_asn: int,
    metadata: dict[str, str],
    buckets: list[Path | list[Trace]],
) -> TraceDataset:
    """Merge one AS's buckets (in bucket order) into an analysis dataset.

    Each bucket is a spill path, decoded line by line, or the list of
    traces a worker still holds from probing it -- the same traces.
    Bucket order concatenates VPs in ascending selected-VP order, so
    the merged trace sequence equals what a single unsharded probe loop
    over the same VPs would have produced.  Memory is bounded by one
    AS, never the campaign.
    """
    dataset = TraceDataset(target_asn=target_asn, metadata=dict(metadata))
    for bucket in buckets:
        dataset.extend(
            bucket
            if isinstance(bucket, list)
            else TraceDataset.iter_jsonl(bucket)
        )
    return dataset
