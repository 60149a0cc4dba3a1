"""Columnar trace core: vectorized flag evaluation over whole campaigns.

The object-path detector (:class:`repro.core.detector.ArestDetector`)
walks one hop object at a time -- per-hop Python dispatch caps it around
27k traces/sec, three orders of magnitude short of what replaying a
paper-scale 7.7M-trace campaign wants.  This module trades the per-hop
walk for a *columnar* batch representation plus array passes:

:class:`TraceBatch`
    Flat per-hop columns for a batch of traces, built **once** from
    :class:`~repro.probing.records.Trace` objects or streamed, sanitized,
    from a ``dump_jsonl`` dataset (:meth:`TraceBatch.iter_jsonl`):
    effective top labels, effective stack depths, eligibility (which
    folds in each trace's hop scope), vendor-range membership,
    adjacent-label match bits, each eligible hop's fingerprint and
    hop->trace offsets.  Everything the flag hierarchy (Sec. 4) consumes
    is precomputed at build; re-detection over a built batch touches
    only the columns.

:class:`ColumnarDetector`
    The production flag evaluator, at the paper's run rule (runs of
    >= 2 hops, footnote 4's suffix matching on).  Its one
    implementation is :meth:`~ColumnarDetector.detect_batch`:
    eligibility masking, maximal-run discovery, suffix matching and
    CVR/CO/LSVR/LVR/LSO classification run as whole-batch array passes:
    per-hop bits are combined with arbitrary-precision integer bitwise
    ops (one machine op per 30 bytes of hops, via ``int.from_bytes``),
    maximal label runs fall out of a single C-level regex scan over the
    match bytes, and per-run evidence checks are ``bytearray.find``
    range probes.  The only per-segment Python executed is the
    construction of the :class:`~repro.core.segments.DetectedSegment`
    results themselves.  :meth:`~ColumnarDetector.detect_many` (what the
    pipeline calls once per chunk of traces) and the one-row
    :meth:`~ColumnarDetector.detect` build a batch and run it.

The output is byte-identical to the paper-spec oracle
(:class:`~repro.core.detector.ArestDetector` at its default rule) --
same flags, same hop indices, same ``suffix_based`` bits, same
ordering -- enforced by the Hypothesis differential suite in
``tests/core/test_columnar_differential.py``.

No new dependencies: columns live in :mod:`array`/``bytearray``
storage, the bitwise passes are stdlib big-int arithmetic, and the run
scan is :mod:`re` on bytes.
"""

from __future__ import annotations

import re
from array import array
from typing import Iterable, Iterator, Mapping

from repro.core.detector import FingerprintLookup, _lookup_from_mapping
from repro.core.flags import Flag
from repro.core.labels import SUFFIX_DIGITS
from repro.core.segments import DetectedSegment
from repro.core.vendor_ranges import ranges_for_fingerprint
from repro.fingerprint.records import Fingerprint, FingerprintMethod
from repro.netsim.addressing import IPv4Address
from repro.netsim.mpls import ReservedLabel
from repro.probing.records import Trace, truth_owner
from repro.probing.sanitize import TraceSanitizer

_ELI = int(ReservedLabel.ENTROPY_LABEL_INDICATOR)
_FIRST_UNRESERVED = 16
_SUFFIX_MODULUS = 10**SUFFIX_DIGITS

#: default chunk size for streamed (JSONL) batch construction
DEFAULT_CHUNK = 4096

#: a maximal stretch of k set match bytes covers k+1 hops: every
#: stretch is a run of >= 2 hops
_RUN_RE = re.compile(b"\x01+")


class TraceBatch:
    """Flat, append-only columnar storage for a batch of traces.

    Build through the classmethods (:meth:`from_traces`,
    :meth:`from_pairs`, :meth:`iter_jsonl`) or
    :meth:`ColumnarDetector.detect_many`, each of which seals the batch
    (:meth:`_seal`) by caching the big-int projections of the bit
    columns, after which detection never touches Python-level per-hop
    state again.
    """

    __slots__ = (
        "traces",
        "offsets",
        "top",
        "depth",
        "addresses",
        "fingerprints",
        "elig",
        "in_range",
        "eq_next",
        "sfx_next",
        "single",
        "quarantined",
        "_elig_int",
        "_eq_int",
        "_sfx_int",
        "_single_int",
    )

    def __init__(self) -> None:
        self.traces: list[Trace] = []
        #: hop-offset of each trace; ``offsets[k] .. offsets[k+1]`` is
        #: trace ``k``'s global hop range
        self.offsets = array("q", [0])
        #: effective top label per hop (-1: no detectable signal)
        self.top = array("i")
        #: effective stack depth per hop (reserved/ELI pairs stripped)
        self.depth = array("i")
        #: responding address per hop (None on ``*`` hops)
        self.addresses: list[IPv4Address | None] = []
        #: the fingerprint of each eligible fingerprinted hop (None on
        #: every other hop)
        self.fingerprints: list[Fingerprint | None] = []
        #: eligibility: signal present, not TNT-revealed, addressed,
        #: and inside its trace's hop scope
        self.elig = bytearray()
        #: top label inside the hop fingerprint's SR range
        self.in_range = bytearray()
        #: ``top[i] == top[i+1]`` within the same trace
        self.eq_next = bytearray()
        #: labels differ but share the decimal suffix (footnote 4)
        self.sfx_next = bytearray()
        #: single-hop signal: effective depth >= 2 or in-range label
        self.single = bytearray()
        #: traces the sanitizer withheld while :meth:`iter_jsonl`
        #: streamed this batch (not among :attr:`traces`)
        self.quarantined = 0
        self._elig_int = 0
        self._eq_int = 0
        self._sfx_int = 0
        self._single_int = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_traces(
        cls,
        traces: Iterable[Trace],
        fingerprints: Mapping[IPv4Address, Fingerprint]
        | FingerprintLookup
        | None = None,
    ) -> "TraceBatch":
        """Build one batch; every trace shares one fingerprint mapping."""
        lookup = _as_lookup(fingerprints)
        batch = cls()
        for trace in traces:
            batch._append(trace, lookup, None)
        batch._seal()
        return batch

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[
            tuple[Trace, Mapping[IPv4Address, Fingerprint] | FingerprintLookup]
        ],
    ) -> "TraceBatch":
        """Build from (trace, fingerprints) pairs -- campaigns may carry
        per-AS fingerprint maps, exactly as the pipeline feeds the
        object detector."""
        batch = cls()
        cache: dict[int, FingerprintLookup] = {}
        for trace, fingerprints in pairs:
            key = id(fingerprints)
            lookup = cache.get(key)
            if lookup is None:
                lookup = cache[key] = _as_lookup(fingerprints)
            batch._append(trace, lookup, None)
        batch._seal()
        return batch

    @classmethod
    def iter_jsonl(
        cls,
        path,
        fingerprints: Mapping[IPv4Address, Fingerprint]
        | FingerprintLookup
        | None = None,
        chunk: int = DEFAULT_CHUNK,
        asn: int | None = None,
    ) -> Iterator["TraceBatch"]:
        """Stream a dataset as bounded-size batches of sanitized traces.

        Every stored trace passes the same :class:`TraceSanitizer` the
        pipeline runs before detection: repaired traces enter the batch
        in their repaired form, and quarantined ones are counted in the
        :attr:`quarantined` of the batch they were read into (a last,
        trace-less batch carries the tail's), so ``len(batch) +
        batch.quarantined`` summed over the stream is every trace read.

        ``asn`` scopes each trace to the hops whose ground-truth owner
        (:func:`~repro.probing.records.truth_owner`) is that AS: the
        pipeline's in-AS hop scope under its default annotator.  Other
        hops stay in the columns but are ineligible.

        Constant memory in the dataset size: each yielded batch holds at
        most ``chunk`` traces, so paper-scale archives re-detect without
        ever materializing the whole campaign.
        """
        from repro.campaign.dataset import TraceDataset

        if chunk < 1:
            raise ValueError("chunk must be positive")
        lookup = _as_lookup(fingerprints)
        sanitize = TraceSanitizer().sanitize
        batch = cls()
        scope = None
        for raw in TraceDataset.iter_jsonl(path):
            trace = sanitize(raw).trace
            if trace is None:
                batch.quarantined += 1
                continue
            if asn is not None:
                scope = {
                    i
                    for i, hop in enumerate(trace.hops)
                    if truth_owner(hop) == asn
                }
            batch._append(trace, lookup, scope)
            if len(batch.traces) >= chunk:
                batch._seal()
                yield batch
                batch = cls()
        if batch.traces or batch.quarantined:
            batch._seal()
            yield batch

    def _append(
        self,
        trace: Trace,
        lookup: FingerprintLookup,
        scope: frozenset[int] | set[int] | None,
    ) -> None:
        """Project one trace's hops onto the columns (the only per-hop
        Python in the columnar life cycle -- paid once per batch).

        A hop outside ``scope`` (hop indices; None: every hop) is
        ineligible, so it breaks label runs like an AS boundary does.
        The two adjacent-label match columns are built per trace and
        extended once; the others take one append per hop.
        """
        top = self.top
        depth = self.depth
        addresses = self.addresses
        fingerprints = self.fingerprints
        elig = self.elig
        in_range = self.in_range
        single = self.single
        none_method = FingerprintMethod.NONE
        hops = trace.hops
        eq_next = bytearray(len(hops))
        sfx_next = bytearray(len(hops))
        prev_top = -1
        for k, hop in enumerate(hops):
            hop_top = -1
            hop_depth = 0
            lses = hop.lses
            if lses:
                n = len(lses)
                i = 0
                while i < n:
                    value = lses[i].label
                    if value == _ELI:
                        i += 2  # skip the ELI and its entropy value
                        continue
                    if value < _FIRST_UNRESERVED:
                        i += 1  # other reserved labels: signalling only
                        continue
                    if hop_top < 0:
                        hop_top = value
                    hop_depth += 1
                    i += 1
            address = hop.address
            ok = (
                hop_top >= 0
                and address is not None
                and not hop.tnt_revealed
                and (scope is None or k in scope)
            )
            ranged = 0
            fp = None
            if ok:
                fp = lookup(address)
                if fp.method is none_method:
                    fp = None
                else:
                    ranged = int(
                        any(r.low <= hop_top <= r.high for r in ranges_for_fingerprint(fp))
                    )
            top.append(hop_top)
            depth.append(hop_depth)
            addresses.append(address)
            fingerprints.append(fp)
            elig.append(1 if ok else 0)
            in_range.append(ranged)
            single.append(1 if (hop_depth >= 2 or ranged) else 0)
            if prev_top >= 0 and hop_top >= 0:
                if prev_top == hop_top:
                    eq_next[k - 1] = 1
                elif prev_top % _SUFFIX_MODULUS == hop_top % _SUFFIX_MODULUS:
                    sfx_next[k - 1] = 1
            prev_top = hop_top
        self.eq_next += eq_next
        self.sfx_next += sfx_next
        self.traces.append(trace)
        self.offsets.append(len(top))

    def _seal(self) -> None:
        """Cache the big-int projections of the bit columns.

        ``int.from_bytes`` turns a bytearray of 0/1 flags into one
        arbitrary-precision integer whose byte *i* is hop *i*
        (little-endian), so whole-batch boolean algebra becomes a
        handful of big-int ``&``/``|``/``>>`` ops instead of a Python
        loop per hop.
        """
        self._elig_int = int.from_bytes(self.elig, "little")
        self._eq_int = int.from_bytes(self.eq_next, "little")
        self._sfx_int = int.from_bytes(self.sfx_next, "little")
        self._single_int = int.from_bytes(self.single, "little")

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def n_hops(self) -> int:
        """Total hops across all traces."""
        return len(self.top)


def _as_lookup(
    fingerprints: Mapping[IPv4Address, Fingerprint]
    | FingerprintLookup
    | None,
) -> FingerprintLookup:
    if fingerprints is None:
        fingerprints = {}
    if callable(fingerprints):
        return fingerprints
    return _lookup_from_mapping(fingerprints)


class ColumnarDetector:
    """Flag evaluation at the paper's rule over a batch of traces.

    Output is byte-identical to
    :meth:`ArestDetector.detect <repro.core.detector.ArestDetector.detect>`
    at its default rule, trace by trace.  :meth:`detect_batch` is the
    one implementation; :meth:`detect_many` (the pipeline's chunk call)
    and the one-row :meth:`detect` build a batch and run it.
    """

    def detect(
        self,
        trace: Trace,
        fingerprints: Mapping[IPv4Address, Fingerprint] | FingerprintLookup,
        hop_mask: frozenset[int] | set[int] | None = None,
    ) -> list[DetectedSegment]:
        """Same contract as :meth:`ArestDetector.detect`: a one-row batch."""
        return self.detect_many((trace,), fingerprints, (hop_mask,))[0]

    def detect_many(
        self,
        traces: Iterable[Trace],
        fingerprints: Mapping[IPv4Address, Fingerprint] | FingerprintLookup,
        scopes: Iterable[frozenset[int] | set[int] | None],
    ) -> list[list[DetectedSegment]]:
        """Per-trace segments of ``traces``, detected as one batch.

        ``scopes`` pairs each trace with its hop scope (the hop indices
        detection may use, as :meth:`ArestDetector.detect`'s
        ``hop_mask``; None: every hop).
        """
        lookup = _as_lookup(fingerprints)
        batch = TraceBatch()
        for trace, scope in zip(traces, scopes, strict=True):
            batch._append(trace, lookup, scope)
        batch._seal()
        return self.detect_batch(batch)

    def detect_batch(self, batch: TraceBatch) -> list[list[DetectedSegment]]:
        """Per-trace detected segments for the whole batch."""
        n_traces = len(batch.traces)
        out: list[list[DetectedSegment]] = [[] for _ in range(n_traces)]
        n_hops = batch.n_hops
        if n_hops == 0:
            return out
        elig_int = batch._elig_int

        # pair (i, i+1) continues a run iff both hops are eligible and
        # their top labels sequence-match; eq/sfx bits are already zero
        # across trace boundaries, so runs can never span traces
        link = batch._eq_int | batch._sfx_int
        match_int = elig_int & (elig_int >> 8) & link
        found: list[tuple[int, int, bool]] = []  # (start, end incl, is_run)
        if match_int:
            match = match_int.to_bytes(n_hops, "little")
            singles_int = elig_int & batch._single_int
            if singles_int:
                cand = bytearray(singles_int.to_bytes(n_hops, "little"))
            else:
                cand = None
            zeros: bytes | None = None
            for m in _RUN_RE.finditer(match):
                start, last = m.start(), m.end()  # hops start..last incl.
                found.append((start, last, True))
                if cand is not None:
                    width = last + 1 - start
                    if zeros is None or len(zeros) < width:
                        zeros = bytes(width)
                    cand[start : last + 1] = zeros[:width]
        else:
            singles_int = elig_int & batch._single_int
            cand = (
                bytearray(singles_int.to_bytes(n_hops, "little"))
                if singles_int
                else None
            )
        if cand is not None:
            find = cand.find
            pos = find(1)
            while pos != -1:
                found.append((pos, pos, False))
                pos = find(1, pos + 1)
        if not found:
            return out
        found.sort(key=_found_start)

        offsets = batch.offsets
        top = batch.top
        depth = batch.depth
        addresses = batch.addresses
        in_range = batch.in_range
        eq_next = batch.eq_next
        in_range_find = in_range.find
        eq_find = eq_next.find
        trusted = DetectedSegment.trusted
        k = 0
        base = 0
        nxt = offsets[1]
        for start, last, is_run in found:
            while start >= nxt:
                k += 1
                nxt = offsets[k + 1]
            base = offsets[k]
            if is_run:
                stop = last + 1
                vendor_confirmed = in_range_find(1, start, stop) != -1
                segment = trusted(
                    Flag.CVR if vendor_confirmed else Flag.CO,
                    tuple(range(start - base, stop - base)),
                    tuple(addresses[start:stop]),
                    tuple(top[start:stop]),
                    tuple(depth[start:stop]),
                    # any adjacent pair that is not label-equal relied
                    # on suffix matching (footnote 4)
                    eq_find(0, start, last) != -1,
                )
            else:
                ranged = in_range[start]
                hop_depth = depth[start]
                if hop_depth >= 2:
                    flag = Flag.LSVR if ranged else Flag.LSO
                else:  # single label; candidates guarantee in-range
                    flag = Flag.LVR
                segment = trusted(
                    flag,
                    (start - base,),
                    (addresses[start],),
                    (top[start],),
                    (hop_depth,),
                    False,
                )
            out[k].append(segment)
        return out


def _found_start(item: tuple[int, int, bool]) -> int:
    return item[0]
