"""Incremental, crash-safe state for the streaming detection service.

Two pieces compose the service's robustness story:

:class:`SegmentAggregate`
    The *order-independent projection* of everything the pipeline has
    seen: counters, distinct-segment key sets, anomaly tallies,
    histograms.  Every field merges commutatively and associatively
    (set union, counter addition), and each trace's contribution is
    computed independently of every other trace, so **any** arrival
    order, batch split, snapshot boundary or crash-recovery replay of
    the same trace set folds to the same aggregate -- the foundation of
    the service's streaming ≡ batch byte-identity contract.

:class:`ServiceState`
    The durable store, built on the campaign checkpoint's JSONL idiom
    (:mod:`repro.util.journal` + :mod:`repro.util.atomicio`):

    - ``ingest.jsonl`` -- header line (kind/version/config signature)
      then one ``{"seq": N, "trace": <text>}`` line per *accepted*
      trace, appended with write+flush+fsync **before** the service
      acknowledges the trace.  ``<text>`` is the trace's JSON object
      exactly as the client sent it (surrounding whitespace stripped),
      so accepting a trace never encodes it again; for a line
      :func:`~repro.campaign.dataset.trace_to_json` wrote, the journal
      line is the one a re-encode would have produced.
      A ``kill -9`` mid-append at worst tears the final line -- a trace
      that was therefore never acknowledged -- so recovery never loses
      an accepted trace and never resurrects an unacknowledged one.
      An append that fails while the service runs (a full disk) is
      truncated away before the batch is refused.
    - ``snapshot.json`` -- an atomic whole-file snapshot of the
      aggregate as of journal sequence N.  Periodic compaction writes
      the snapshot first, then atomically rewrites the journal without
      the lines the snapshot covers -- the header plus the raw bytes of
      the uncovered tail, found through a byte-offset index, so its
      cost follows the unfolded backlog; recovery filters replayed
      lines by ``seq > snapshot.seq``, so a crash *between* the two
      writes double-counts nothing.

Recovery is therefore: load snapshot (if any), salvage the journal's
intact prefix, replay the ``seq > snapshot.seq`` tail through the very
same batched fold the workers run live (:func:`batch_aggregate`), with
the workers' containment -- a chunk that raises is re-run trace by
trace and a trace that fails alone is quarantined as poison -- and
merge.  The result is byte-identical to a run that never crashed.
"""

from __future__ import annotations

import json
import logging
import os
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable

from repro.campaign.dataset import TraceDecoder
from repro.core.flags import Flag, STRONG_FLAGS
from repro.core.pipeline import MAX_BATCH, ArestPipeline
from repro.probing.records import Trace
from repro.probing.sanitize import AnomalyKind
from repro.service.wire import canonical_json
from repro.util.atomicio import (
    atomic_write_text,
    atomic_writer,
    durable_append,
)
from repro.util.journal import salvage_decode

logger = logging.getLogger(__name__)

#: canonical filenames inside a service state directory
INGEST_FILENAME = "ingest.jsonl"
SNAPSHOT_FILENAME = "snapshot.json"

_JOURNAL_KIND = "arest-ingest"
_SNAPSHOT_KIND = "arest-ingest-snapshot"
_VERSION = 1

#: the three hop-area buckets the aggregate tracks
_AREAS = ("sr", "mpls", "ip")


class StateMismatchError(ValueError):
    """The state dir was written by a differently-configured service."""


# ---------------------------------------------------------------------------
# aggregate


def _counter_from(record: dict, cast=int) -> Counter:
    return Counter({str(k): cast(v) for k, v in record.items()})


def _int_counter_from(record: dict) -> Counter:
    return Counter({int(k): int(v) for k, v in record.items()})


@dataclass(slots=True)
class SegmentAggregate:
    """Order-independent projection of the analyzed trace stream."""

    traces_collected: int = 0
    traces_quarantined: int = 0
    traces_in_as: int = 0
    #: anomaly tallies by kind value (sanitizer + poison quarantines)
    anomaly_counts: Counter = field(default_factory=Counter)
    #: flag name -> set of (addresses, top labels) distinct-segment keys
    distinct: dict[str, set] = field(
        default_factory=lambda: {flag.name: set() for flag in Flag}
    )
    #: flag name -> trace-level segment observations (non-distinct)
    observations: Counter = field(default_factory=Counter)
    consecutive_runs: int = 0
    suffix_matched_runs: int = 0
    stack_depths_strong: Counter = field(default_factory=Counter)
    stack_depths_other: Counter = field(default_factory=Counter)
    #: area -> traces touching at least one hop of that area
    traces_hitting: Counter = field(default_factory=Counter)
    #: area -> distinct interface addresses
    addresses: dict[str, set] = field(
        default_factory=lambda: {area: set() for area in _AREAS}
    )
    tunnel_types: Counter = field(default_factory=Counter)
    traces_with_explicit: int = 0
    interworking_modes: Counter = field(default_factory=Counter)
    sr_cloud_sizes: Counter = field(default_factory=Counter)
    ldp_cloud_sizes: Counter = field(default_factory=Counter)

    # -- invariants ----------------------------------------------------------

    @property
    def traces_analyzed(self) -> int:
        """Traces that reached detection (collected minus quarantined)."""
        return self.traces_collected - self.traces_quarantined

    def check_invariant(self) -> None:
        """The continuous reconciliation invariant.

        ``traces_analyzed + traces_quarantined == traces_collected``
        holds by construction (analyzed is derived); what can actually
        drift is the bound between the parts, so that is what is
        asserted -- after every merge.
        """
        if not (0 <= self.traces_quarantined <= self.traces_collected):
            raise AssertionError(
                f"invariant violated: quarantined="
                f"{self.traces_quarantined} collected="
                f"{self.traces_collected}"
            )
        if not (0 <= self.traces_in_as <= self.traces_analyzed):
            raise AssertionError(
                f"invariant violated: in_as={self.traces_in_as} "
                f"analyzed={self.traces_analyzed}"
            )

    # -- folding -------------------------------------------------------------

    def merge(self, other: "SegmentAggregate") -> None:
        """Fold ``other`` in (commutative + associative by field type)."""
        self.traces_collected += other.traces_collected
        self.traces_quarantined += other.traces_quarantined
        self.traces_in_as += other.traces_in_as
        self.anomaly_counts.update(other.anomaly_counts)
        for flag, keys in other.distinct.items():
            self.distinct.setdefault(flag, set()).update(keys)
        self.observations.update(other.observations)
        self.consecutive_runs += other.consecutive_runs
        self.suffix_matched_runs += other.suffix_matched_runs
        self.stack_depths_strong.update(other.stack_depths_strong)
        self.stack_depths_other.update(other.stack_depths_other)
        self.traces_hitting.update(other.traces_hitting)
        for area, addresses in other.addresses.items():
            self.addresses.setdefault(area, set()).update(addresses)
        self.tunnel_types.update(other.tunnel_types)
        self.traces_with_explicit += other.traces_with_explicit
        self.interworking_modes.update(other.interworking_modes)
        self.sr_cloud_sizes.update(other.sr_cloud_sizes)
        self.ldp_cloud_sizes.update(other.ldp_cloud_sizes)
        self.check_invariant()

    @classmethod
    def from_analysis(cls, analysis) -> "SegmentAggregate":
        """Project an :class:`~repro.core.pipeline.AsAnalysis`."""
        aggregate = cls(
            traces_collected=analysis.traces_total,
            traces_quarantined=analysis.traces_quarantined,
            traces_in_as=analysis.traces_in_as,
            anomaly_counts=Counter(analysis.anomaly_counts()),
            observations=Counter(
                segment.flag.name for segment in analysis.segments
            ),
            consecutive_runs=analysis.consecutive_runs,
            suffix_matched_runs=analysis.suffix_matched_runs,
            stack_depths_strong=Counter(analysis.stack_depths_strong),
            stack_depths_other=Counter(analysis.stack_depths_other),
            traces_hitting=Counter(
                {
                    "sr": analysis.traces_hitting_sr,
                    "mpls": analysis.traces_hitting_mpls,
                    "ip": analysis.traces_hitting_ip,
                }
            ),
            tunnel_types=Counter(
                {t.name: n for t, n in analysis.tunnel_types.items()}
            ),
            traces_with_explicit=analysis.traces_with_explicit,
            interworking_modes=Counter(
                {m.name: n for m, n in analysis.interworking_modes.items()}
            ),
            sr_cloud_sizes=Counter(analysis.sr_cloud_sizes),
            ldp_cloud_sizes=Counter(analysis.ldp_cloud_sizes),
        )
        for flag, keys in analysis.distinct_segments.items():
            aggregate.distinct[flag.name] = {
                (
                    tuple(str(address) for address in addresses),
                    tuple(int(label) for label in labels),
                )
                for _flag, addresses, labels in keys
            }
        aggregate.addresses = {
            "sr": {str(a) for a in analysis.sr_addresses},
            "mpls": {str(a) for a in analysis.mpls_addresses},
            "ip": {str(a) for a in analysis.ip_addresses},
        }
        aggregate.check_invariant()
        return aggregate

    @classmethod
    def poison(cls) -> "SegmentAggregate":
        """The delta for one trace whose detection stage failed.

        The trace is counted as collected *and* quarantined -- through
        the same anomaly bookkeeping a structurally-corrupt trace uses
        -- so the reconciliation invariant keeps holding and the worker
        that hit the poison input carries on.
        """
        return cls(
            traces_collected=1,
            traces_quarantined=1,
            anomaly_counts=Counter(
                {AnomalyKind.POISON_TRACE.value: 1}
            ),
        )

    # -- snapshot codec ------------------------------------------------------

    def as_state_dict(self) -> dict:
        """JSON-able snapshot of every field (deterministically ordered)."""
        return {
            "traces_collected": self.traces_collected,
            "traces_quarantined": self.traces_quarantined,
            "traces_in_as": self.traces_in_as,
            "anomaly_counts": dict(sorted(self.anomaly_counts.items())),
            "distinct": {
                flag: sorted(
                    [list(addresses), list(labels)]
                    for addresses, labels in keys
                )
                for flag, keys in sorted(self.distinct.items())
            },
            "observations": dict(sorted(self.observations.items())),
            "consecutive_runs": self.consecutive_runs,
            "suffix_matched_runs": self.suffix_matched_runs,
            "stack_depths_strong": {
                str(k): v
                for k, v in sorted(self.stack_depths_strong.items())
            },
            "stack_depths_other": {
                str(k): v
                for k, v in sorted(self.stack_depths_other.items())
            },
            "traces_hitting": dict(sorted(self.traces_hitting.items())),
            "addresses": {
                area: sorted(addresses)
                for area, addresses in sorted(self.addresses.items())
            },
            "tunnel_types": dict(sorted(self.tunnel_types.items())),
            "traces_with_explicit": self.traces_with_explicit,
            "interworking_modes": dict(
                sorted(self.interworking_modes.items())
            ),
            "sr_cloud_sizes": {
                str(k): v for k, v in sorted(self.sr_cloud_sizes.items())
            },
            "ldp_cloud_sizes": {
                str(k): v for k, v in sorted(self.ldp_cloud_sizes.items())
            },
        }

    @classmethod
    def from_state_dict(cls, record: dict) -> "SegmentAggregate":
        """Inverse of :meth:`as_state_dict`."""
        aggregate = cls(
            traces_collected=int(record["traces_collected"]),
            traces_quarantined=int(record["traces_quarantined"]),
            traces_in_as=int(record["traces_in_as"]),
            anomaly_counts=_counter_from(record["anomaly_counts"]),
            observations=_counter_from(record["observations"]),
            consecutive_runs=int(record["consecutive_runs"]),
            suffix_matched_runs=int(record["suffix_matched_runs"]),
            stack_depths_strong=_int_counter_from(
                record["stack_depths_strong"]
            ),
            stack_depths_other=_int_counter_from(
                record["stack_depths_other"]
            ),
            traces_hitting=_counter_from(record["traces_hitting"]),
            tunnel_types=_counter_from(record["tunnel_types"]),
            traces_with_explicit=int(record["traces_with_explicit"]),
            interworking_modes=_counter_from(record["interworking_modes"]),
            sr_cloud_sizes=_int_counter_from(record["sr_cloud_sizes"]),
            ldp_cloud_sizes=_int_counter_from(record["ldp_cloud_sizes"]),
        )
        aggregate.distinct = {flag.name: set() for flag in Flag}
        for flag, keys in record["distinct"].items():
            aggregate.distinct[str(flag)] = {
                (tuple(addresses), tuple(int(l) for l in labels))
                for addresses, labels in keys
            }
        aggregate.addresses = {
            str(area): set(addresses)
            for area, addresses in record["addresses"].items()
        }
        aggregate.check_invariant()
        return aggregate

    # -- canonical query surfaces -------------------------------------------

    def segments_dict(self, asn: int | None = None) -> dict:
        """The ``GET /segments`` document (order-independent fields only)."""
        flags = {}
        for flag in Flag:
            keys = self.distinct.get(flag.name, set())
            flags[flag.name] = {
                "distinct": len(keys),
                "observations": int(self.observations.get(flag.name, 0)),
                "segments": [
                    {"addresses": list(addresses), "labels": list(labels)}
                    for addresses, labels in sorted(keys)
                ],
            }
        strong = sum(
            len(self.distinct.get(flag.name, ())) for flag in STRONG_FLAGS
        )
        total = sum(len(keys) for keys in self.distinct.values())
        return {
            "kind": "arest-segments",
            "version": _VERSION,
            "asn": asn,
            "traces": {
                "collected": self.traces_collected,
                "analyzed": self.traces_analyzed,
                "quarantined": self.traces_quarantined,
                "in_as": self.traces_in_as,
            },
            "anomalies": dict(sorted(self.anomaly_counts.items())),
            "flags": flags,
            "total_distinct": total,
            "strong_distinct": strong,
        }

    def segments_json(self, asn: int | None = None) -> bytes:
        """Canonical bytes of :meth:`segments_dict`."""
        return canonical_json(self.segments_dict(asn))

    def report_dict(self, asn: int | None = None) -> dict:
        """The ``GET /report`` analysis section: segments + area/tunnel
        aggregates the markdown report would show for a batch run."""
        report = self.segments_dict(asn)
        report["kind"] = "arest-report"
        report["areas"] = {
            area: {
                "addresses": len(self.addresses.get(area, ())),
                "traces_hitting": int(self.traces_hitting.get(area, 0)),
            }
            for area in _AREAS
        }
        report["tunnels"] = {
            "types": dict(sorted(self.tunnel_types.items())),
            "traces_with_explicit": self.traces_with_explicit,
        }
        report["interworking"] = {
            "modes": dict(sorted(self.interworking_modes.items())),
            "sr_cloud_sizes": {
                str(k): v for k, v in sorted(self.sr_cloud_sizes.items())
            },
            "ldp_cloud_sizes": {
                str(k): v for k, v in sorted(self.ldp_cloud_sizes.items())
            },
        }
        report["stack_depths"] = {
            "strong": {
                str(k): v
                for k, v in sorted(self.stack_depths_strong.items())
            },
            "other": {
                str(k): v
                for k, v in sorted(self.stack_depths_other.items())
            },
        }
        report["runs"] = {
            "consecutive": self.consecutive_runs,
            "suffix_matched": self.suffix_matched_runs,
        }
        return report


# ---------------------------------------------------------------------------
# analysis (the pure functions workers run, possibly in a thread)


def _fold(
    traces: Iterable[Trace], asn: int | None, pipeline: ArestPipeline
) -> SegmentAggregate:
    """Fold ``traces`` in one call of a fresh accumulator; project it once."""
    accumulator = pipeline.accumulator(asn, {})
    accumulator.feed_many(traces)
    return SegmentAggregate.from_analysis(accumulator.finish())


def analyze_trace(
    trace: Trace,
    *,
    asn: int | None = None,
    pipeline: ArestPipeline | None = None,
) -> SegmentAggregate:
    """Project one trace through sanitize → detect into an aggregate delta.

    Pure with respect to shared state: the accumulator is fresh per
    call, so a poisoned or timed-out analysis can be abandoned without
    ever having touched the service's live aggregate.  Workers call it
    for a wake-up that dequeues a lone trace, and fall back to it, one
    trace at a time, when a whole batch fails; either way the trace is
    a one-row chunk of :meth:`~repro.core.pipeline.AsAccumulator.feed_many`.
    """
    pipeline = pipeline if pipeline is not None else ArestPipeline()
    return _fold((trace,), asn, pipeline)


def batch_aggregate(
    traces: Iterable[Trace],
    *,
    asn: int | None = None,
    pipeline: ArestPipeline | None = None,
) -> SegmentAggregate:
    """Fold a trace set into one aggregate, :data:`MAX_BATCH` at a time.

    Each chunk of up to :data:`MAX_BATCH` traces runs through one
    accumulator call (one detector call) and is projected and merged
    once, which amortizes those per-call costs over the chunk; a
    streamed input stays in bounded memory, since the accumulator's
    segment and anomaly lists live for one chunk only.  Every aggregate
    field is a per-trace sum or union, so the result is byte-identical
    to merging :func:`analyze_trace` over the traces one by one (the
    differential tests hold it to that).

    This one fold is the batch reference ``arest detect
    --segments-json`` prints, the call a service worker makes per
    dequeued batch, and recovery's journal replay -- so ``GET
    /segments`` equals the batch bytes by construction.  Pure like
    :func:`analyze_trace`.
    """
    pipeline = pipeline if pipeline is not None else ArestPipeline()
    total = SegmentAggregate()
    traces = iter(traces)
    while chunk := list(islice(traces, MAX_BATCH)):
        total.merge(_fold(chunk, asn, pipeline))
    return total


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def poison_delta(seq: int, detail: str) -> SegmentAggregate:
    """Quarantine trace ``seq``, whose analysis failed on its own.

    Logs the quarantine and returns the trace's
    :meth:`SegmentAggregate.poison` delta.  The workers and recovery's
    journal replay both quarantine through it, so a poison trace is
    counted and reported the same way live and after a restart.
    """
    logger.warning("trace seq=%d quarantined as poison: %s", seq, detail)
    return SegmentAggregate.poison()


# ---------------------------------------------------------------------------
# durable store


@dataclass(slots=True)
class RecoveryInfo:
    """What :meth:`ServiceState.recover` found on disk."""

    snapshot_seq: int = 0
    replayed: int = 0
    damaged_lines: int = 0

    def as_dict(self) -> dict:
        return {
            "snapshot_seq": self.snapshot_seq,
            "replayed": self.replayed,
            "damaged_lines": self.damaged_lines,
        }


class ServiceState:
    """Durable aggregate + ingest journal for one service instance.

    Alongside the journal it keeps a byte-offset index over the lines
    the snapshot does not cover yet: ``(seq, start offset)`` pairs in
    file order, plus the journal's last good length.  Compaction bisects
    the index for its cut and copies the uncovered tail as raw bytes;
    a refused append truncates back to the good length.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        asn: int | None = None,
        snapshot_every: int = 256,
        pipeline: ArestPipeline | None = None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.asn = asn
        self.snapshot_every = snapshot_every
        self.pipeline = pipeline if pipeline is not None else ArestPipeline()
        self.aggregate = SegmentAggregate()
        self._journal = self.directory / INGEST_FILENAME
        self._snapshot = self.directory / SNAPSHOT_FILENAME
        self._config = {"asn": asn, "version": _VERSION}
        self._header = (
            json.dumps(
                {
                    "kind": _JOURNAL_KIND,
                    "version": _VERSION,
                    "config": self._config,
                }
            )
            + "\n"
        ).encode("ascii")
        #: highest sequence number handed out (next append gets +1)
        self._last_seq = 0
        #: every seq <= watermark has been folded into the aggregate
        self._fed_watermark = 0
        #: seqs folded ahead of the watermark (multi-worker reordering)
        self._fed_ahead: set[int] = set()
        #: seq the current snapshot covers
        self._snapshot_seq = 0
        #: the index: the journal line starting at byte ``_offsets[i]``
        #: has seq ``_seqs[i]``; it lists exactly the lines with
        #: ``seq > _snapshot_seq``, and both lists ascend
        self._seqs: list[int] = []
        self._offsets: list[int] = []
        #: bytes of the journal's intact prefix: header + whole lines
        self._journal_size = 0
        #: the file on disk ends at ``_journal_size``, so appends may go
        #: straight to it; until then the next accept rewrites it first
        self._journal_ready = False

    # -- recovery ------------------------------------------------------------

    def recover(self) -> RecoveryInfo:
        """Rebuild the aggregate from snapshot + journal tail.

        Safe after a crash at any instant: the journal's intact prefix
        is salvaged (a torn final line was never acknowledged, so
        dropping it loses nothing accepted), lines the snapshot already
        covers are skipped by sequence number (so a crash between
        snapshot and journal truncation double-counts nothing), and the
        tail is replayed through the same batched fold used live, with
        the same containment (:meth:`_replay`).
        """
        info = RecoveryInfo()
        snapshot = self._load_snapshot()
        if snapshot is not None:
            self.aggregate = SegmentAggregate.from_state_dict(
                snapshot["aggregate"]
            )
            self._snapshot_seq = int(snapshot["seq"])
            info.snapshot_seq = self._snapshot_seq
        entries, damaged = self._load_journal()
        info.damaged_lines = damaged
        max_seq = self._snapshot_seq
        tail = []
        for seq, offset, trace in entries:
            max_seq = max(max_seq, seq)
            if seq > self._snapshot_seq:
                self._seqs.append(seq)
                self._offsets.append(offset)
                tail.append((seq, trace))
        self.aggregate.merge(self._replay(tail))
        info.replayed = len(tail)
        self._last_seq = max_seq
        self._fed_watermark = max_seq
        self._fed_ahead.clear()
        if damaged:
            # compact the torn tail away so the next append starts clean
            self._rewrite_journal()
        return info

    def _replay(self, tail: list[tuple[int, Trace]]) -> SegmentAggregate:
        """The journal tail's aggregate, contained as a worker contains it.

        Each chunk of up to :data:`MAX_BATCH` traces folds in one
        :func:`batch_aggregate` call.  A chunk that raises is discarded
        and re-run one trace at a time, and a trace that fails alone
        folds in as :func:`poison_delta` -- so a trace the live worker
        quarantined is quarantined again here instead of stopping the
        service from starting on its own state dir.
        """
        total = SegmentAggregate()
        for lo in range(0, len(tail), MAX_BATCH):
            chunk = tail[lo : lo + MAX_BATCH]
            try:
                delta = batch_aggregate(
                    [trace for _, trace in chunk],
                    asn=self.asn,
                    pipeline=self.pipeline,
                )
            except Exception as exc:
                logger.warning(
                    "journal replay: batch of %d traces (seq %d..%d) "
                    "failed, retrying trace by trace: %s",
                    len(chunk),
                    chunk[0][0],
                    chunk[-1][0],
                    _failure(exc),
                )
                delta = SegmentAggregate()
                for seq, trace in chunk:
                    try:
                        one = analyze_trace(
                            trace, asn=self.asn, pipeline=self.pipeline
                        )
                    except Exception as failure:
                        one = poison_delta(seq, _failure(failure))
                    delta.merge(one)
            total.merge(delta)
        return total

    def _load_snapshot(self) -> dict | None:
        if not self._snapshot.exists():
            return None
        try:
            record = json.loads(self._snapshot.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            # atomic_write_text makes this near-impossible; treat a
            # garbled snapshot as absent and rebuild from the journal
            logger.warning(
                "snapshot %s is unreadable; rebuilding from the journal",
                self._snapshot,
            )
            return None
        if record.get("kind") != _SNAPSHOT_KIND:
            raise StateMismatchError(
                f"{self._snapshot} is not an AReST ingest snapshot"
            )
        if record.get("config") != self._config:
            raise StateMismatchError(
                f"state dir {self.directory} was written by a "
                f"differently-configured service; delete it or restart "
                f"with the original settings"
            )
        return record

    def _load_journal(self) -> tuple[list[tuple[int, int, Trace]], int]:
        """Salvage the journal's intact lines and measure its good length.

        Returns ``((seq, start offset, trace) per intact line, damaged
        line count)`` and sets :attr:`_journal_size`.  An unterminated
        final line is torn even when it parses: every append ends with
        a newline, so the append that wrote it never returned.
        """
        if not self._journal.exists():
            return [], 0
        data = self._journal.read_bytes()
        header_line, _, body = data.partition(b"\n")
        try:
            header = json.loads(header_line)
        except ValueError:
            raise StateMismatchError(
                f"not an AReST ingest journal (unparseable header): "
                f"{self._journal}"
            ) from None
        if not isinstance(header, dict) or header.get("kind") != _JOURNAL_KIND:
            raise StateMismatchError(
                f"not an AReST ingest journal: {self._journal}"
            )
        if header.get("config") != self._config:
            raise StateMismatchError(
                f"state dir {self.directory} was written by a "
                f"differently-configured service; delete it or restart "
                f"with the original settings"
            )
        # bytes, not text: offsets are byte offsets, and json.loads
        # refuses a line of invalid UTF-8 as damage instead of failing
        # the whole read
        lines = body.split(b"\n")
        # the piece after the last newline: empty unless an append tore
        unterminated = lines[-1]
        if not unterminated:
            lines.pop()
        starts = []
        offset = len(header_line) + 1
        for line in lines:
            starts.append(offset)
            offset += len(line) + 1

        decoder = TraceDecoder()

        def decode(record: dict) -> tuple[int, Trace]:
            return int(record["seq"]), decoder.decode(record["trace"])

        decoded, damaged = salvage_decode(
            lines,
            decode,
            path=self._journal,
            label="ingest journal",
            noun="accepted trace(s)",
            logger=logger,
        )
        if unterminated and not damaged:
            logger.warning(
                "ingest journal %s: line %d has no newline (its append "
                "never finished); discarding it",
                self._journal,
                len(lines) + 1,
            )
            if unterminated.strip():
                decoded.pop()
            damaged = 1
        self._journal_size = (
            starts[len(lines) - damaged] if damaged else len(data)
        )
        self._journal_ready = not damaged
        # salvage_decode skips blank lines: decoded[i] is the i-th
        # non-blank line of the intact prefix
        nonblank = [start for start, line in zip(starts, lines) if line.strip()]
        return [
            (seq, start, trace)
            for (seq, trace), start in zip(decoded, nonblank)
        ], damaged

    # -- accept + ingest -----------------------------------------------------

    def accept(self, texts: list[str]) -> list[int]:
        """Durably journal a batch of trace texts; returns their seqs.

        Each text is one trace's JSON object as received -- what
        :func:`~repro.service.wire.decode_body` keeps of a line it
        decoded -- and is journaled verbatim as ``{"seq": N, "trace":
        <text>}``.  A text holding a newline would split its journal
        line, so such a batch is refused whole (``ValueError``) before
        anything is written.

        One write + one fsync for the whole batch; callers acknowledge
        (202) only after this returns, which is what makes the
        zero-accepted-trace-loss guarantee hold under ``kill -9``.  A
        batch whose append fails is refused whole: it uses no seq and
        leaves no byte in the journal.
        """
        for text in texts:
            if not isinstance(text, str):
                raise TypeError(
                    f"accept() journals trace texts, not "
                    f"{type(text).__name__} objects"
                )
            if "\n" in text:
                raise ValueError(
                    "a journaled trace text must not contain a newline"
                )
        if not self._journal_ready:
            self._rewrite_journal()
        first = self._last_seq + 1
        seqs = list(range(first, first + len(texts)))
        lines = [
            f'{{"seq": {seq}, "trace": {text}}}\n'
            for seq, text in zip(seqs, texts)
        ]
        if not lines:
            return seqs
        # the index counts bytes, and a non-ASCII text is longer in
        # UTF-8 than in characters
        sizes = [
            len(line) if line.isascii() else len(line.encode("utf-8"))
            for line in lines
        ]
        try:
            durable_append(self._journal, "".join(lines))
        except OSError:
            # the append may have landed whole (only the fsync failed)
            # or torn: either way cut it off, or a client retry would
            # count it twice and the next append would merge with it
            try:
                self._truncate_journal()
            except OSError:
                logger.exception(
                    "cannot truncate %s after a failed append; the "
                    "next accept rewrites it",
                    self._journal,
                )
                self._journal_ready = False
            raise
        offset = self._journal_size
        for seq, size in zip(seqs, sizes):
            self._seqs.append(seq)
            self._offsets.append(offset)
            offset += size
        self._journal_size = offset
        self._last_seq = seqs[-1]
        return seqs

    def ingest(self, seqs: Iterable[int], delta: SegmentAggregate) -> None:
        """Fold one analyzed batch's delta in (one merge for the whole
        batch) and advance the watermark over every seq it covers."""
        self.aggregate.merge(delta)
        ahead = self._fed_ahead
        ahead.update(seqs)
        watermark = self._fed_watermark
        while watermark + 1 in ahead:
            watermark += 1
            ahead.remove(watermark)
        self._fed_watermark = watermark

    @property
    def fed_watermark(self) -> int:
        """Highest seq below which every trace has been folded in."""
        return self._fed_watermark

    @property
    def compaction_due(self) -> bool:
        """Snapshot + truncate when enough contiguous traces were fed.

        Only when no trace is folded *ahead* of the watermark: the
        snapshot must cover exactly ``seq <= watermark`` or recovery
        would double-count the folded-ahead tail.
        """
        return (
            not self._fed_ahead
            and self._fed_watermark - self._snapshot_seq
            >= self.snapshot_every
        )

    def compact(self) -> None:
        """Snapshot the aggregate, then drop covered journal lines.

        Write order is the crash-safety argument: the snapshot (atomic
        replace) lands first; the journal rewrite (atomic replace)
        second.  A crash between them leaves covered lines in the
        journal, which recovery skips by sequence number.
        """
        if self._fed_ahead:
            raise RuntimeError(
                "cannot compact with traces folded ahead of the watermark"
            )
        upto = self._fed_watermark
        snapshot = {
            "kind": _SNAPSHOT_KIND,
            "version": _VERSION,
            "config": self._config,
            "seq": upto,
            "aggregate": self.aggregate.as_state_dict(),
        }
        atomic_write_text(
            self._snapshot, json.dumps(snapshot, sort_keys=True) + "\n"
        )
        self._snapshot_seq = upto
        cut = bisect_right(self._seqs, upto)
        del self._seqs[:cut]
        del self._offsets[:cut]
        self._rewrite_journal()

    def final_checkpoint(self) -> None:
        """The drain-time flush: snapshot everything fed so far."""
        if not self._fed_ahead:
            self.compact()

    def _rewrite_journal(self) -> None:
        """Atomically rewrite the journal as header + the indexed lines.

        The one rewrite path -- journal creation (empty index),
        compaction and torn-tail salvage.  The lines the snapshot does
        not cover are copied as raw bytes, from the first indexed line
        up to the good length, so the cost follows the unfolded
        backlog and nothing is decoded or re-encoded.
        """
        start = self._offsets[0] if self._offsets else self._journal_size
        tail = b""
        if self._offsets:
            with self._journal.open("rb") as fh:
                fh.seek(start)
                tail = fh.read(self._journal_size - start)
        with atomic_writer(self._journal) as fh:
            fh.buffer.write(self._header)
            fh.buffer.write(tail)
        shift = len(self._header) - start
        self._offsets = [offset + shift for offset in self._offsets]
        self._journal_size = len(self._header) + len(tail)
        self._journal_ready = True

    def _truncate_journal(self) -> None:
        """Durably cut the journal back to its good length."""
        with self._journal.open("r+b") as fh:
            fh.truncate(self._journal_size)
            os.fsync(fh.fileno())
