"""End-to-end per-AS AReST analysis.

Ties together detection (Sec. 4), area classification (Sec. 7.1),
tunnel taxonomy (Appendix C) and interworking analysis (Sec. 7.2) over
a batch of traces, restricted -- like the paper does with bdrmapIT -- to
the hops owned by the AS of interest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Mapping

from repro.core.classification import HopArea, classify_hops
from repro.core.columnar import ColumnarDetector
from repro.core.detector import ArestDetector, FingerprintLookup
from repro.core.flags import Flag, STRONG_FLAGS
from repro.core.interworking import (
    InterworkingMode,
    analyze_tunnel_composition,
    refine_areas_for_interworking,
)
from repro.core.segments import DetectedSegment
from repro.fingerprint.records import Fingerprint
from repro.netsim.addressing import IPv4Address
from repro.probing.records import Trace, TraceHop, truth_owner
from repro.probing.sanitize import TraceAnomaly, TraceSanitizer
from repro.probing.tunnels import TunnelType, classify_tunnels

AsnLookup = Callable[[TraceHop], int | None]

#: most traces one accumulator call folds: the chunk size of
#: :meth:`ArestPipeline.analyze_as` and of the service's folds
MAX_BATCH = 64


@dataclass(slots=True)
class AsAnalysis:
    """Aggregated AReST results for one autonomous system."""

    asn: int
    traces_total: int = 0
    traces_in_as: int = 0
    #: traces the sanitizer withheld from analysis (never silently dropped)
    traces_quarantined: int = 0
    #: every structural anomaly the sanitizer found (repaired or not)
    anomalies: list[TraceAnomaly] = field(default_factory=list)
    #: every detected segment occurrence (trace-level)
    segments: list[DetectedSegment] = field(default_factory=list)
    #: distinct segments per flag (Table 3 counts distinct segments)
    distinct_segments: dict[Flag, set] = field(default_factory=dict)
    #: distinct interface addresses per area
    sr_addresses: set[IPv4Address] = field(default_factory=set)
    mpls_addresses: set[IPv4Address] = field(default_factory=set)
    ip_addresses: set[IPv4Address] = field(default_factory=set)
    #: traces traversing at least one hop of each area
    traces_hitting_sr: int = 0
    traces_hitting_mpls: int = 0
    traces_hitting_ip: int = 0
    tunnel_types: Counter = field(default_factory=Counter)
    traces_with_explicit: int = 0
    interworking_modes: Counter = field(default_factory=Counter)
    sr_cloud_sizes: list[int] = field(default_factory=list)
    ldp_cloud_sizes: list[int] = field(default_factory=list)
    #: stack-depth distribution inside strong-flag segments (Fig. 9a)
    stack_depths_strong: Counter = field(default_factory=Counter)
    #: stack-depth distribution on LSO / classic-MPLS hops (Fig. 9b)
    stack_depths_other: Counter = field(default_factory=Counter)
    suffix_matched_runs: int = 0
    consecutive_runs: int = 0

    # -- derived metrics -----------------------------------------------------

    @property
    def traces_analyzed(self) -> int:
        """Traces that actually reached detection.

        The reconciliation invariant: ``traces_analyzed +
        traces_quarantined == traces_total`` (the collected count).
        """
        return self.traces_total - self.traces_quarantined

    def anomaly_counts(self) -> dict[str, int]:
        """Anomaly tallies by kind (data-quality reporting)."""
        counts = Counter(a.kind.value for a in self.anomalies)
        return dict(counts)

    def flag_counts(self) -> dict[Flag, int]:
        """Distinct segments per flag."""
        return {
            flag: len(keys) for flag, keys in self.distinct_segments.items()
        }

    def total_distinct_segments(self) -> int:
        """Distinct segments across all flags."""
        return sum(len(keys) for keys in self.distinct_segments.values())

    def flag_proportions(self) -> dict[Flag, float]:
        """Share of distinct segments per flag (the Fig. 8 series)."""
        total = self.total_distinct_segments()
        if total == 0:
            return {}
        return {
            flag: len(keys) / total
            for flag, keys in self.distinct_segments.items()
            if keys
        }

    def has_sr_evidence(self, strong_only: bool = True) -> bool:
        """Did any (strong, by default) flag fire in this AS?"""
        flags = STRONG_FLAGS if strong_only else set(Flag)
        return any(
            self.distinct_segments.get(flag) for flag in flags
        )

    def strong_share(self) -> float:
        """Share of distinct segments carried by strong flags."""
        total = self.total_distinct_segments()
        if total == 0:
            return 0.0
        strong = sum(
            len(keys)
            for flag, keys in self.distinct_segments.items()
            if flag in STRONG_FLAGS
        )
        return strong / total

    def explicit_tunnel_share(self) -> float:
        """Explicit tunnels over all tunnel observations."""
        total = sum(self.tunnel_types.values())
        if total == 0:
            return 0.0
        return self.tunnel_types.get(TunnelType.EXPLICIT, 0) / total

    def interworking_share(self) -> float:
        """Share of MPLS tunnels that mix SR and LDP clouds (Sec. 7.2)."""
        relevant = [
            mode
            for mode in self.interworking_modes
            if mode is not InterworkingMode.FULL_LDP
        ]
        total = sum(self.interworking_modes[m] for m in relevant)
        if total == 0:
            return 0.0
        inter = sum(
            self.interworking_modes[m]
            for m in relevant
            if m is not InterworkingMode.FULL_SR
        )
        return inter / total


def _timed_sanitize(sanitize, clock, bin_sample):
    """Wrap ``sanitize`` so every call's wall seconds land in ``bin_sample``.

    Closure cells (not attribute lookups) carry the clock and the
    sample sink, and the wrapper takes exactly the wrapped call's
    arguments (``*args``/``**kwargs`` forwarding costs about as much
    as the timing itself), so the per-call cost is two clock reads and
    one append on top of the call itself.
    """

    def timed(trace):
        tick = clock()
        out = sanitize(trace)
        bin_sample(clock() - tick)
        return out

    return timed


def _timed_detect_many(detect_many, clock, bin_sample):
    """:func:`_timed_sanitize` for ``detect_many(traces, fingerprints,
    scopes)``: each sample is a (seconds, rows) pair."""

    def timed(traces, fingerprints, scopes):
        tick = clock()
        out = detect_many(traces, fingerprints, scopes)
        bin_sample((clock() - tick, len(traces)))
        return out

    return timed


class AsAccumulator:
    """Incremental AReST analysis of one AS, one chunk of traces at a time.

    The batch entry point (:meth:`ArestPipeline.analyze_as`) is a thin
    loop over this class; long-lived consumers -- the streaming
    detection service in :mod:`repro.service` -- construct one via
    :meth:`ArestPipeline.accumulator` and :meth:`feed_many` traces as
    they arrive, reading :attr:`analysis` at any point between calls.

    Feeding order and chunking never change the aggregate facts
    (counters, distinct segment sets): each trace's contribution
    depends only on the trace itself, so any permutation or split of
    the same trace set accumulates to the same totals (the service's
    streaming ≡ batch contract builds on this).  Only the observational
    *lists* (``anomalies``, ``segments``) record arrival order.

    ``asn=None`` widens the analysis to every hop of every trace (no
    ownership restriction), which is how the service analyzes datasets
    that were already scoped at collection time.
    """

    def __init__(
        self,
        detector: ArestDetector | ColumnarDetector,
        asn: int | None,
        fingerprints: Mapping[IPv4Address, Fingerprint] | FingerprintLookup,
        asn_of: AsnLookup | None = None,
        segment_sink: list[tuple[Trace, list[DetectedSegment]]] | None = None,
        telemetry=None,
    ) -> None:
        self._asn = asn
        self._fingerprints = fingerprints
        self._asn_of = asn_of if asn_of is not None else truth_owner
        self._segment_sink = segment_sink
        self._track = telemetry is not None and telemetry.enabled
        self._telemetry = telemetry
        # The fold calls these two pre-bound callables with no
        # telemetry branch of its own: untracked they ARE the sanitizer
        # and the detector's chunk call, tracked each is wrapped in a
        # closure that drops the call's wall seconds into a plain list
        # (summed and binned once, in :meth:`finish`).  Branch-free
        # dispatch plus batched binning is what holds the <2%
        # instrumentation budget.
        self._sanitize = TraceSanitizer().sanitize
        self._detect_many = detector.detect_many
        self._sanitize_samples: list[float] = []
        self._detect_samples: list[tuple[float, int]] = []
        if self._track:
            clock = telemetry.clock
            self._sanitize = _timed_sanitize(
                self._sanitize, clock, self._sanitize_samples.append
            )
            self._detect_many = _timed_detect_many(
                self._detect_many, clock, self._detect_samples.append
            )
        self.analysis = AsAnalysis(asn=asn if asn is not None else 0)
        for flag in Flag:
            self.analysis.distinct_segments[flag] = set()

    def _in_as(self, hop: TraceHop) -> bool:
        """Predicate: does this hop belong to the AS of interest?"""
        return self._asn is None or self._asn_of(hop) == self._asn

    def feed_many(self, traces: Iterable[Trace]) -> None:
        """Sanitize, detect and accumulate one chunk of traces.

        Three passes, each in input order: sanitize every trace and
        scope it to its in-AS hops (a quarantined trace, or one that
        touches no in-AS hop, stops there), detect every kept trace in
        one ``detect_many`` call, then accumulate every kept trace.
        Every counter (including the ``traces_analyzed +
        traces_quarantined == traces_total`` reconciliation invariant)
        is up to date when this returns.
        """
        analysis = self.analysis
        sanitize = self._sanitize
        in_as = self._in_as
        kept: list[Trace] = []
        scopes: list[set[int]] = []
        for trace in traces:
            analysis.traces_total += 1
            sanitized = sanitize(trace)
            analysis.anomalies.extend(sanitized.anomalies)
            trace = sanitized.trace
            if trace is None:
                analysis.traces_quarantined += 1
                continue
            # AS membership is resolved once per hop; the resulting index
            # set scopes detection and feeds both accumulators.
            in_as_set = {i for i, hop in enumerate(trace.hops) if in_as(hop)}
            if not in_as_set:
                continue
            analysis.traces_in_as += 1
            kept.append(trace)
            scopes.append(in_as_set)
        if not kept:
            return
        rows = self._detect_many(kept, self._fingerprints, scopes)
        sink = self._segment_sink
        for trace, segments, in_as_set in zip(kept, rows, scopes):
            if sink is not None:
                sink.append((trace, segments))
            _accumulate_segments(analysis, trace, segments)
            _accumulate_areas(analysis, trace, segments, in_as_set)
            _accumulate_tunnels(analysis, trace, in_as_set)

    def finish(self) -> AsAnalysis:
        """Flush accumulated telemetry and return the analysis.

        Idempotent with respect to the analysis object; only here do
        the samples turn into stage seconds (``sum`` over insertion
        order is bit-identical to a running ``+=``) and latency-histogram
        buckets, keeping that work out of the fold entirely.  The
        ``detect`` histogram takes one observation per detected trace:
        its chunk's seconds over the chunk's rows.
        """
        if self._track:
            tel = self._telemetry
            tel.add_seconds("sanitize", sum(self._sanitize_samples))
            tel.add_seconds(
                "detect", sum(seconds for seconds, _ in self._detect_samples)
            )
            tel.histogram("sanitize").observe_many(self._sanitize_samples)
            tel.histogram("detect").observe_many(
                [
                    seconds / rows
                    for seconds, rows in self._detect_samples
                    for _ in range(rows)
                ]
            )
            self._track = False
        return self.analysis


class ArestPipeline:
    """Runs AReST over trace batches, one AS of interest at a time.

    Detection defaults to the columnar core
    (:class:`~repro.core.columnar.ColumnarDetector`): each chunk of up
    to :data:`MAX_BATCH` traces is one column batch, so the pipeline's
    object API -- and every caller built on it, including the streaming
    service -- rides the same array passes ``arest detect`` uses.  Tests
    and the ablation benches pass an explicit :class:`ArestDetector`,
    the paper-spec oracle, as the reference; the two are byte-identical
    by the differential contract.
    """

    def __init__(
        self, detector: ArestDetector | ColumnarDetector | None = None
    ) -> None:
        self._detector = (
            detector if detector is not None else ColumnarDetector()
        )

    def accumulator(
        self,
        asn: int | None,
        fingerprints: Mapping[IPv4Address, Fingerprint] | FingerprintLookup,
        asn_of: AsnLookup | None = None,
        segment_sink: list[tuple[Trace, list[DetectedSegment]]] | None = None,
        telemetry=None,
    ) -> AsAccumulator:
        """An incremental accumulator for streaming consumers."""
        return AsAccumulator(
            self._detector,
            asn,
            fingerprints,
            asn_of=asn_of,
            segment_sink=segment_sink,
            telemetry=telemetry,
        )

    def analyze_as(
        self,
        asn: int,
        traces: Iterable[Trace],
        fingerprints: Mapping[IPv4Address, Fingerprint] | FingerprintLookup,
        asn_of: AsnLookup | None = None,
        segment_sink: list[tuple[Trace, list[DetectedSegment]]] | None = None,
        telemetry=None,
    ) -> AsAnalysis:
        """Analyze every trace, keeping only hops inside ``asn``.

        ``asn_of`` maps a hop to its owner AS (bdrmapIT-style annotation);
        by default the hop's ``truth_asn`` is used, which corresponds to a
        perfect annotator.  ``segment_sink``, when given, receives every
        (trace, segments) pair for downstream validation.  Traces fold
        :data:`MAX_BATCH` at a time (:meth:`AsAccumulator.feed_many`).

        Every trace is sanitized before detection
        (:class:`TraceSanitizer`): repairable structural defects are
        fixed and recorded, unresolvable ones quarantine the trace --
        counted, never silently dropped.  Well-formed traces pass
        through unchanged.

        ``telemetry`` (a :class:`repro.obs.telemetry.Telemetry`, duck
        typed to avoid the dependency) receives ``sanitize`` and
        ``detect`` stage durations.
        """
        accumulator = self.accumulator(
            asn,
            fingerprints,
            asn_of=asn_of,
            segment_sink=segment_sink,
            telemetry=telemetry,
        )
        traces = iter(traces)
        while chunk := list(islice(traces, MAX_BATCH)):
            accumulator.feed_many(chunk)
        return accumulator.finish()

# -- accumulation ----------------------------------------------------------


def _accumulate_segments(
    analysis: AsAnalysis,
    trace: Trace,
    segments: list[DetectedSegment],
) -> None:
    for segment in segments:
        analysis.segments.append(segment)
        analysis.distinct_segments[segment.flag].add(segment.key())
        if segment.flag in (Flag.CVR, Flag.CO):
            analysis.consecutive_runs += 1
            if segment.suffix_based:
                analysis.suffix_matched_runs += 1
        depth_counter = (
            analysis.stack_depths_strong
            if segment.flag in STRONG_FLAGS
            else analysis.stack_depths_other
        )
        for depth in segment.stack_depths:
            depth_counter[depth] += 1

def _accumulate_areas(
    analysis: AsAnalysis,
    trace: Trace,
    segments: list[DetectedSegment],
    indices_in_as: set[int],
    ) -> None:
    areas = classify_hops(trace, segments, strong_only=True)
    flagged = {
        i for segment in segments for i in segment.hop_indices
    }
    hit_sr = hit_mpls = hit_ip = False
    for i in indices_in_as:
        hop = trace.hops[i]
        area = areas[i]
        if hop.address is not None:
            if area is HopArea.SR:
                analysis.sr_addresses.add(hop.address)
            elif area is HopArea.MPLS:
                analysis.mpls_addresses.add(hop.address)
                # flagged (LSO) hops were already counted by the
                # segment accumulator; count only unflagged classic
                # MPLS hops here (Fig. 9b's other half)
                if (
                    hop.has_lses
                    and not hop.tnt_revealed
                    and i not in flagged
                ):
                    analysis.stack_depths_other[hop.stack_depth] += 1
            else:
                analysis.ip_addresses.add(hop.address)
        hit_sr = hit_sr or area is HopArea.SR
        hit_mpls = hit_mpls or area is HopArea.MPLS
        hit_ip = hit_ip or area is HopArea.IP
    analysis.traces_hitting_sr += int(hit_sr)
    analysis.traces_hitting_mpls += int(hit_mpls)
    analysis.traces_hitting_ip += int(hit_ip)
    # Interworking: decompose the in-AS area sequence into tunnels,
    # after the Sec. 6.3 refinements (LSO-with-strong-evidence and
    # TE-stack smoothing).
    refined = refine_areas_for_interworking(trace, segments, areas)
    in_as_areas = [
        refined[i]
        if i in indices_in_as and not trace.hops[i].tnt_revealed
        else HopArea.IP
        for i in range(len(trace.hops))
    ]
    compositions = analyze_tunnel_composition(in_as_areas)
    for composition in compositions:
        analysis.interworking_modes[composition.mode] += 1
        analysis.sr_cloud_sizes.extend(composition.sr_cloud_sizes())
        analysis.ldp_cloud_sizes.extend(composition.ldp_cloud_sizes())

def _accumulate_tunnels(
    analysis: AsAnalysis,
    trace: Trace,
    indices_in_as: set[int],
    ) -> None:
    saw_explicit = False
    for tunnel in classify_tunnels(trace):
        if not any(i in indices_in_as for i in tunnel.hop_indices):
            continue
        analysis.tunnel_types[tunnel.tunnel_type] += 1
        saw_explicit = saw_explicit or (
            tunnel.tunnel_type is TunnelType.EXPLICIT
        )
    analysis.traces_with_explicit += int(saw_explicit)

