"""Trace sanitization: structural validation, repair and quarantine.

Every trace passes through a :class:`TraceSanitizer` before detection.
The checks mirror what a careful measurement pipeline can verify without
ground truth:

- **field ranges** -- quoted labels fit 20 bits, TC fits 3 bits,
  LSE-TTLs and reply IP TTLs fit 8 bits (a reply TTL of 0 or > 255 is
  physically impossible);
- **bottom-of-stack structure** -- a quoted stack sets the S-bit exactly
  once, on its last entry (RFC 3032);
- **martian sources** -- replies sourced from reserved address space
  (0/8, 127/8, 224/4, 240/4) cannot come from an on-path router;
- **destination quoted stacks** -- a port-unreachable/echo reply from
  the destination never carries an RFC 4950 extension;
- **probe-TTL order** -- recorded hops are non-decreasing in probe TTL
  (TNT-revealed hops legitimately share their anchor's TTL);
- **duplicates** -- the same probe TTL answered twice: byte-identical
  records are deduplicated, *conflicting* records are unresolvable;
- **epoch changes** -- on churned campaigns (``repro.netsim.dynamics``)
  traces whose hops span more than one topology epoch are quarantined
  (``cross-epoch``; plus ``vanished-responder`` when a responder went
  dark mid-trace): each hop is individually well-formed, but the
  sequence stitches two control-plane states together, and a label
  window spanning the seam can fabricate evidence no single network
  state exhibited.

Every repairable anomaly is fixed in place and recorded as a
:class:`TraceAnomaly`; traces with unresolvable anomalies -- or more
than :data:`MAX_REPAIRS_PER_TRACE` repairs -- are *quarantined*
(``SanitizeResult.trace is None``) rather than silently dropped.  Every
analysis path (the pipeline, the service, ``arest detect`` and archive
re-detection) runs this one policy before detection.

A well-formed trace sanitizes to the *same object* with no anomalies,
so the default-on sanitizer leaves clean campaigns byte-identical
(property-tested in ``tests/test_sanitize_properties.py``).

One anomaly kind is recorded *about* a trace rather than found in it:
:attr:`AnomalyKind.POISON_TRACE` marks a trace whose detection stage
failed outright (exception or per-request timeout).  The streaming
service (:mod:`repro.service`) quarantines such traces through this
same structured-anomaly path, so a poison input is counted and
reported exactly like a structurally-corrupt one instead of killing
the worker that was analyzing it.

What sanitization deliberately does **not** attempt: removing
stale-label replay.  In uniform-mode SR tunnels adjacent hops genuinely
quote identical ``[label, ttl=1]`` stacks -- that *is* the CVR/CO
signal -- so a replayed stack is observationally indistinguishable from
real evidence and any filter would destroy true detections.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.netsim.addressing import IPv4Address
from repro.probing.records import QuotedLse, Trace, TraceHop
from repro.util.slots import slot_init

_MAX_LABEL = 2**20 - 1
_MAX_TC = 7
_MAX_TTL = 255

#: repairs one trace may take; a trace needing more is quarantined
MAX_REPAIRS_PER_TRACE = 8


def is_martian(address: IPv4Address) -> bool:
    """True when no on-path router could legitimately own ``address``.

    The reserved source ranges are 0.0.0.0/8 ("this network"),
    127.0.0.0/8 (loopback), 224.0.0.0/4 (multicast) and 240.0.0.0/4
    (reserved): the top octet is 0 or 127, or the address is at least
    224.0.0.0.
    """
    value = address.value
    return value >= 0xE0000000 or (value >> 24) in (0, 127)


class AnomalyKind(enum.Enum):
    """Structural defect classes a trace can exhibit."""

    LSE_FIELD_RANGE = "lse-field-range"
    REPLY_TTL_RANGE = "reply-ttl-range"
    BAD_BOTTOM_OF_STACK = "bad-bottom-of-stack"
    MARTIAN_SOURCE = "martian-source"
    DESTINATION_QUOTED_STACK = "destination-quoted-stack"
    NON_MONOTONIC_TTL = "non-monotonic-ttl"
    DUPLICATE_HOP = "duplicate-hop"
    CONFLICTING_HOPS = "conflicting-hops"
    TRAILING_HOPS = "trailing-hops"
    REACHED_MISMATCH = "reached-mismatch"
    REPAIR_BUDGET_EXCEEDED = "repair-budget-exceeded"
    #: the topology mutated while the trace was being probed (the hops
    #: were observed under more than one forwarding epoch)
    CROSS_EPOCH = "cross-epoch"
    #: a cross-epoch trace where a responder went dark mid-trace: some
    #: hop answered, then everything after it timed out and the
    #: destination was never reached -- the classic signature of a path
    #: element withdrawn between probes
    VANISHED_RESPONDER = "vanished-responder"
    #: the trace made the detection stage itself fail (an exception or
    #: a per-request timeout in the streaming service): the trace is
    #: quarantined through the normal anomaly path instead of killing
    #: the worker that was analyzing it
    POISON_TRACE = "poison-trace"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@slot_init
@dataclass(frozen=True, slots=True)
class TraceAnomaly:
    """One structured record of a defect found (and possibly repaired)."""

    kind: AnomalyKind
    vp: str
    destination: str
    flow_id: int
    probe_ttl: int | None
    detail: str
    repaired: bool

    def as_dict(self) -> dict:
        """JSON-friendly view (reports, checkpoint metadata)."""
        return {
            "kind": self.kind.value,
            "vp": self.vp,
            "destination": self.destination,
            "flow_id": self.flow_id,
            "probe_ttl": self.probe_ttl,
            "detail": self.detail,
            "repaired": self.repaired,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "TraceAnomaly":
        """Inverse of :meth:`as_dict`."""
        return cls(
            kind=AnomalyKind(record["kind"]),
            vp=record["vp"],
            destination=record["destination"],
            flow_id=int(record["flow_id"]),
            probe_ttl=(
                int(record["probe_ttl"])
                if record.get("probe_ttl") is not None
                else None
            ),
            detail=record.get("detail", ""),
            repaired=bool(record["repaired"]),
        )


@dataclass(slots=True)
class SanitizeResult:
    """Outcome of sanitizing one trace."""

    #: the (possibly repaired) trace, or None when quarantined
    trace: Trace | None
    anomalies: list[TraceAnomaly] = field(default_factory=list)

    @property
    def quarantined(self) -> bool:
        """True when the trace was withheld from analysis."""
        return self.trace is None


class TraceSanitizer:
    """Validates, repairs and quarantines traces before detection."""

    def sanitize(self, trace: Trace) -> SanitizeResult:
        """Validate one trace; identity on well-formed input.

        Each check is one plain scan over the hops.  A well-formed trace
        allocates nothing but its result: the hop tuple is copied only
        when a check repairs it.
        """
        anomalies: list[TraceAnomaly] = []
        hops: tuple[TraceHop, ...] | list[TraceHop] = trace.hops
        changed = False

        sanitize_hop = self._sanitize_hop
        for i, hop in enumerate(trace.hops):
            fixed = sanitize_hop(trace, hop, anomalies)
            if fixed is not hop:
                if not changed:
                    hops = list(hops)
                    changed = True
                hops[i] = fixed

        # consecutive hops only: a probe TTL may be any integer
        previous = hops[0].probe_ttl if hops else None
        for i in range(1, len(hops)):
            ttl = hops[i].probe_ttl
            if ttl < previous:
                self._note(
                    anomalies,
                    trace,
                    AnomalyKind.NON_MONOTONIC_TTL,
                    None,
                    "probe TTLs decrease; restored by stable sort",
                )
                hops = sorted(hops, key=lambda h: h.probe_ttl)
                changed = True
                break
            previous = ttl

        deduped = self._dedupe(trace, hops, anomalies)
        if deduped is None:
            return SanitizeResult(trace=None, anomalies=anomalies)
        if deduped is not hops:
            changed = True
        hops = deduped

        first = None
        for i, hop in enumerate(hops):
            if hop.destination_reply:
                first = i
                break
        if first is not None and first != len(hops) - 1:
            self._note(
                anomalies,
                trace,
                AnomalyKind.TRAILING_HOPS,
                hops[first].probe_ttl,
                f"{len(hops) - first - 1} hop(s) recorded after the "
                f"destination reply; truncated",
            )
            hops = hops[: first + 1]
            changed = True

        # the hops kept end at the first destination reply, if any
        reached = first is not None
        if reached != trace.reached:
            self._note(
                anomalies,
                trace,
                AnomalyKind.REACHED_MISMATCH,
                None,
                f"reached={trace.reached} but destination replies "
                f"say {reached}",
            )
            changed = True

        if trace.crosses_epochs and trace.epoch_span is not None:
            # environmental, not structural: the topology changed under
            # the trace.  Each hop is individually well-formed, but the
            # *sequence* stitches two control-plane states together --
            # a consecutive-label window spanning the boundary can pair
            # an SR run with a pre-change RSVP/LDP hop and fabricate
            # evidence no single network state ever exhibited.  Not
            # repairable (the seam is unknowable without truth), so the
            # trace is quarantined.
            lo, hi = trace.epoch_span
            self._note(
                anomalies,
                trace,
                AnomalyKind.CROSS_EPOCH,
                None,
                f"hops observed under topology epochs {lo}..{hi}",
                repaired=False,
            )
            vanished_ttl = self._vanished_responder(hops, reached)
            if vanished_ttl is not None:
                self._note(
                    anomalies,
                    trace,
                    AnomalyKind.VANISHED_RESPONDER,
                    vanished_ttl,
                    "responder went dark mid-trace across an epoch "
                    "change (trailing stars, destination unreached)",
                    repaired=False,
                )
            return SanitizeResult(trace=None, anomalies=anomalies)

        if not anomalies:
            return SanitizeResult(trace, anomalies)

        repairs = sum(1 for a in anomalies if a.repaired)
        if repairs > MAX_REPAIRS_PER_TRACE:
            self._note(
                anomalies,
                trace,
                AnomalyKind.REPAIR_BUDGET_EXCEEDED,
                None,
                f"{repairs} repairs exceed the budget of "
                f"{MAX_REPAIRS_PER_TRACE}",
                repaired=False,
            )
            return SanitizeResult(trace=None, anomalies=anomalies)

        sanitized = trace
        if changed:
            sanitized = trace.with_hops(tuple(hops))
        if reached != trace.reached:
            sanitized = Trace(
                vp=sanitized.vp,
                vp_router_id=sanitized.vp_router_id,
                destination=sanitized.destination,
                flow_id=sanitized.flow_id,
                hops=sanitized.hops,
                reached=reached,
                epoch_span=sanitized.epoch_span,
            )
        return SanitizeResult(trace=sanitized, anomalies=anomalies)

    # -- per-hop checks ----------------------------------------------------------

    def _sanitize_hop(
        self,
        trace: Trace,
        hop: TraceHop,
        anomalies: list[TraceAnomaly],
    ) -> TraceHop:
        reply_ttl = hop.reply_ip_ttl
        if reply_ttl is not None and not 1 <= reply_ttl <= _MAX_TTL:
            self._note(
                anomalies,
                trace,
                AnomalyKind.REPLY_TTL_RANGE,
                hop.probe_ttl,
                f"reply IP TTL {reply_ttl} impossible; cleared",
            )
            hop = hop.with_annotation(reply_ip_ttl=None)
        if hop.lses:
            hop = self._sanitize_stack(trace, hop, anomalies)
        if hop.address is not None and is_martian(hop.address):
            self._note(
                anomalies,
                trace,
                AnomalyKind.MARTIAN_SOURCE,
                hop.probe_ttl,
                f"reply sourced from martian {hop.address}; "
                f"hop blanked to unresponsive",
            )
            hop = hop.with_annotation(
                address=None,
                rtt_ms=None,
                reply_ip_ttl=None,
                lses=None,
                destination_reply=False,
            )
        if hop.destination_reply and hop.lses:
            self._note(
                anomalies,
                trace,
                AnomalyKind.DESTINATION_QUOTED_STACK,
                hop.probe_ttl,
                "destination reply quotes a label stack; stack stripped",
            )
            hop = hop.with_annotation(lses=None)
        return hop

    def _sanitize_stack(
        self,
        trace: Trace,
        hop: TraceHop,
        anomalies: list[TraceAnomaly],
    ) -> TraceHop:
        lses = hop.lses
        assert lses is not None
        last = len(lses) - 1
        bottoms_ok = True
        for i, entry in enumerate(lses):
            if not (
                0 <= entry.label <= _MAX_LABEL
                and 0 <= entry.tc <= _MAX_TC
                and 0 <= entry.ttl <= _MAX_TTL
            ):
                self._note(
                    anomalies,
                    trace,
                    AnomalyKind.LSE_FIELD_RANGE,
                    hop.probe_ttl,
                    f"LSE fields out of range ({entry.label}, "
                    f"{entry.tc}, {entry.ttl}); stack stripped",
                )
                return hop.with_annotation(lses=None)
            # RFC 3032: the S-bit is set on the last entry alone
            if entry.bottom_of_stack != (i == last):
                bottoms_ok = False
        if bottoms_ok:
            return hop
        self._note(
            anomalies,
            trace,
            AnomalyKind.BAD_BOTTOM_OF_STACK,
            hop.probe_ttl,
            "bottom-of-stack bit not set exactly once on the last "
            "entry; flags rebuilt",
        )
        return hop.with_annotation(
            lses=tuple(
                [
                    QuotedLse(e.label, e.tc, i == last, e.ttl)
                    for i, e in enumerate(lses)
                ]
            )
        )

    # -- cross-hop checks --------------------------------------------------------

    def _dedupe(
        self,
        trace: Trace,
        hops: tuple[TraceHop, ...] | list[TraceHop],
        anomalies: list[TraceAnomaly],
    ) -> tuple[TraceHop, ...] | list[TraceHop] | None:
        """Collapse identical duplicate probe TTLs; flag conflicts.

        TNT-revealed hops share their anchor's probe TTL by design and
        are exempt.  Two *different* answers for the same probe TTL are
        unresolvable without ground truth: the trace is quarantined
        (None).  Without duplicates ``hops`` itself comes back; the
        first one dropped starts a new list.
        """
        out: list[TraceHop] | None = None
        last_real: TraceHop | None = None
        for i, hop in enumerate(hops):
            if not hop.tnt_revealed:
                if (
                    last_real is not None
                    and hop.probe_ttl == last_real.probe_ttl
                ):
                    if hop == last_real:
                        self._note(
                            anomalies,
                            trace,
                            AnomalyKind.DUPLICATE_HOP,
                            hop.probe_ttl,
                            "identical duplicate record dropped",
                        )
                        if out is None:
                            out = list(hops[:i])
                        continue
                    self._note(
                        anomalies,
                        trace,
                        AnomalyKind.CONFLICTING_HOPS,
                        hop.probe_ttl,
                        "two different answers for one probe TTL; "
                        "trace quarantined",
                        repaired=False,
                    )
                    return None
                last_real = hop
            if out is not None:
                out.append(hop)
        return hops if out is None else out

    @staticmethod
    def _vanished_responder(
        hops: tuple[TraceHop, ...] | list[TraceHop], reached: bool
    ) -> int | None:
        """Probe TTL of the first trailing star after a responder.

        Only meaningful on cross-epoch traces: a run of unanswered
        probes at the tail of an unreached trace, directly after a hop
        that *did* answer, marks where a path element vanished between
        probes.  Returns None when the pattern is absent.
        """
        if reached or not hops or hops[-1].responded:
            return None
        idx = len(hops) - 1
        while idx >= 0 and not hops[idx].responded:
            idx -= 1
        if idx < 0:
            return None
        return hops[idx + 1].probe_ttl

    # -- bookkeeping -------------------------------------------------------------

    def _note(
        self,
        anomalies: list[TraceAnomaly],
        trace: Trace,
        kind: AnomalyKind,
        probe_ttl: int | None,
        detail: str,
        repaired: bool = True,
    ) -> None:
        anomaly = TraceAnomaly(
            kind=kind,
            vp=trace.vp,
            destination=str(trace.destination),
            flow_id=trace.flow_id,
            probe_ttl=probe_ttl,
            detail=detail,
            repaired=repaired,
        )
        anomalies.append(anomaly)
