"""The AReST flag-raising engine (Sec. 4 of the paper).

Input: one TNT-augmented trace plus a fingerprint per responding
address.  Output: the list of detected SR-MPLS segments, each tagged
with its flag.

:class:`ArestDetector` is the paper-spec oracle: it walks one hop
object at a time, and the columnar core
(:mod:`repro.core.columnar`) is tested byte-identical against it.  Its
run rule is selectable (``min_run_length``, ``suffix_matching``) for
the ablation benches; production detection runs the columnar core at
the paper's rule.

Detection order mirrors the paper's flag hierarchy:

1. Scan for maximal runs of >= 2 consecutive labeled hops whose top
   labels match (identical or suffix-matched).  A run becomes **CVR**
   when at least one of its hops is fingerprinted to a vendor whose SR
   range contains that hop's label; otherwise **CO**.
2. Every labeled hop outside such runs is examined alone:
   - stack depth >= 2 and top label inside the fingerprinted vendor's
     SR range -> **LSVR**;
   - stack depth == 1 and label inside the range -> **LVR**;
   - stack depth >= 2, no vendor mapping -> **LSO**;
   - stack depth == 1, no vendor mapping -> nothing (indistinguishable
     from classic MPLS -- the false-negative case of Sec. 6.3).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.labels import run_is_suffix_based, sequence_match
from repro.core.segments import DetectedSegment
from repro.core.flags import Flag
from repro.core.vendor_ranges import label_in_vendor_range
from repro.fingerprint.records import Fingerprint
from repro.netsim.addressing import IPv4Address
from repro.netsim.mpls import ReservedLabel
from repro.probing.records import Trace, TraceHop

_ELI = int(ReservedLabel.ENTROPY_LABEL_INDICATOR)
_FIRST_UNRESERVED = 16


def effective_labels(hop: TraceHop) -> tuple[int, ...]:
    """The hop's quoted labels with special-purpose labels stripped.

    Two classes of labels carry no SR signal and must not contaminate
    detection:

    - an ELI (label 7) announces that the following label is an entropy
      value for load balancing (RFC 6790); the pair is skipped as one;
    - the remaining reserved labels (explicit-null, router-alert, ...,
      values < 16) are signalling artefacts -- consecutive explicit-null
      tops are routine on UHP deployments and would otherwise fabricate
      CO runs out of thin air.

    A quoted ``[transport, ELI, EL]`` is a single-label observation; a
    bare ``[0]`` or ``[ELI, EL]`` carries no detectable signal at all.
    """
    if not hop.lses:
        return ()
    labels = [e.label for e in hop.lses]
    out: list[int] = []
    i = 0
    while i < len(labels):
        if labels[i] == _ELI:
            i += 2  # skip the ELI and its entropy value
            continue
        if labels[i] < _FIRST_UNRESERVED:
            i += 1  # other reserved labels: signalling only
            continue
        out.append(labels[i])
        i += 1
    return tuple(out)

FingerprintLookup = Callable[[IPv4Address], Fingerprint]

#: the shared no-information fingerprint (hoisted: building a fresh one
#: per unfingerprinted hop showed up in the detector profile)
_NO_FINGERPRINT = Fingerprint.none()


def _lookup_from_mapping(
    fingerprints: Mapping[IPv4Address, Fingerprint]
) -> FingerprintLookup:
    def lookup(address: IPv4Address) -> Fingerprint:
        """Resolve one address to its fingerprint (none when absent)."""
        return fingerprints.get(address, _NO_FINGERPRINT)

    return lookup


class ArestDetector:
    """Stateless detector; one instance can process any number of traces.

    ``suffix_matching`` toggles footnote 4's differing-SRGB heuristic
    (on by default, as in the paper); the ablation benchmark measures
    what it buys on heterogeneous-SRGB deployments.
    """

    def __init__(
        self,
        min_run_length: int = 2,
        suffix_matching: bool = True,
    ) -> None:
        if min_run_length < 2:
            raise ValueError("consecutive flags need runs of >= 2 hops")
        self._min_run = min_run_length
        self._suffix_matching = suffix_matching

    def detect(
        self,
        trace: Trace,
        fingerprints: Mapping[IPv4Address, Fingerprint] | FingerprintLookup,
        hop_mask: frozenset[int] | set[int] | None = None,
    ) -> list[DetectedSegment]:
        """Detect SR-MPLS segments in one trace.

        ``hop_mask`` restricts detection to the hop indices of interest
        (the pipeline passes the trace's in-target-AS hops); hops
        outside it break label runs, like AS boundaries do in the paper.
        """
        lookup = (
            fingerprints
            if callable(fingerprints)
            else _lookup_from_mapping(fingerprints)
        )
        # One effective-label computation per hop; every later stage
        # (eligibility, run discovery, classification) reads this view.
        views = [effective_labels(hop) for hop in trace.hops]
        eligible = self._eligibility(trace, views, hop_mask)
        segments: list[DetectedSegment] = []
        in_run: set[int] = set()
        for run in self._label_runs(trace, views, eligible):
            segments.append(self._classify_run(trace, run, views, lookup))
            in_run.update(run)
        for i, hop in enumerate(trace.hops):
            if not eligible[i] or i in in_run:
                continue
            segment = self._classify_single(trace, i, hop, views[i], lookup)
            if segment is not None:
                segments.append(segment)
        segments.sort(key=lambda s: s.hop_indices[0])
        return segments

    def detect_many(
        self,
        traces: Iterable[Trace],
        fingerprints: Mapping[IPv4Address, Fingerprint] | FingerprintLookup,
        scopes: Iterable[frozenset[int] | set[int] | None],
    ) -> list[list[DetectedSegment]]:
        """:meth:`detect` per trace, each under its own ``hop_mask``
        from ``scopes`` (the chunk call the pipeline makes)."""
        return [
            self.detect(trace, fingerprints, scope)
            for trace, scope in zip(traces, scopes, strict=True)
        ]

    # -- run discovery -----------------------------------------------------------

    def _eligibility(
        self,
        trace: Trace,
        views: list[tuple[int, ...]],
        hop_mask: frozenset[int] | set[int] | None,
    ) -> list[bool]:
        flags = []
        for i, hop in enumerate(trace.hops):
            # an address-less hop cannot be classified (no fingerprint,
            # no reportable interface) -- sanitized-but-anonymous labeled
            # hops must break runs, not crash single classification
            ok = (
                bool(views[i])
                and not hop.tnt_revealed
                and hop.address is not None
                and (hop_mask is None or i in hop_mask)
            )
            flags.append(ok)
        return flags

    def _label_runs(
        self,
        trace: Trace,
        views: list[tuple[int, ...]],
        eligible: list[bool],
    ) -> list[list[int]]:
        """Maximal runs of consecutive, label-matching, eligible hops."""
        runs: list[list[int]] = []
        current: list[int] = []
        prev_label: int | None = None
        for i in range(len(trace.hops)):
            effective = views[i] if eligible[i] else ()
            label = effective[0] if effective else None
            if label is None:
                self._flush(runs, current)
                current, prev_label = [], None
                continue
            matches = (
                sequence_match(prev_label, label)
                if self._suffix_matching
                else prev_label == label
            ) if prev_label is not None else False
            if matches:
                current.append(i)
            else:
                self._flush(runs, current)
                current = [i]
            prev_label = label
        self._flush(runs, current)
        return runs

    def _flush(self, runs: list[list[int]], current: list[int]) -> None:
        if len(current) >= self._min_run:
            runs.append(list(current))

    # -- classification -------------------------------------------------------------

    def _classify_run(
        self,
        trace: Trace,
        run: list[int],
        views: list[tuple[int, ...]],
        lookup: FingerprintLookup,
    ) -> DetectedSegment:
        hops = [trace.hops[i] for i in run]
        run_views = [views[i] for i in run]
        labels = tuple(v[0] for v in run_views)
        vendor_confirmed = any(
            label_in_vendor_range(v[0], lookup(h.address))
            for h, v in zip(hops, run_views)
        )
        flag = Flag.CVR if vendor_confirmed else Flag.CO
        return DetectedSegment(
            flag=flag,
            hop_indices=tuple(run),
            addresses=tuple(h.address for h in hops),  # type: ignore[arg-type]
            top_labels=labels,
            stack_depths=tuple(len(v) for v in run_views),
            suffix_based=run_is_suffix_based(labels),
        )

    def _classify_single(
        self,
        trace: Trace,
        index: int,
        hop: TraceHop,
        effective: tuple[int, ...],
        lookup: FingerprintLookup,
    ) -> DetectedSegment | None:
        assert hop.address is not None
        assert effective
        label = effective[0]
        in_range = label_in_vendor_range(label, lookup(hop.address))
        depth = len(effective)
        if depth >= 2:
            flag = Flag.LSVR if in_range else Flag.LSO
        elif in_range:
            flag = Flag.LVR
        else:
            return None  # single label, no range: classic MPLS
        return DetectedSegment(
            flag=flag,
            hop_indices=(index,),
            addresses=(hop.address,),
            top_labels=(label,),
            stack_depths=(depth,),
        )
