"""The trace sanitizer as it was before its checks became plain loops.

Kept verbatim as the oracle of ``test_sanitize_differential.py``: the
production :class:`repro.probing.sanitize.TraceSanitizer` must return
the same trace (the same object whenever this one returns its input)
and the same anomalies on every trace.  Only the class name changed;
:func:`is_martian` is the original range-table test, and the record and
anomaly types are the production ones.
"""

from __future__ import annotations

from repro.netsim.addressing import IPv4Address
from repro.probing.records import QuotedLse, Trace, TraceHop
from repro.probing.sanitize import (
    MAX_REPAIRS_PER_TRACE,
    AnomalyKind,
    SanitizeResult,
    TraceAnomaly,
)

_MAX_LABEL = 2**20 - 1
_MAX_TC = 7
_MAX_TTL = 255

#: (base, mask) pairs of source ranges no on-path router can own
_MARTIAN_RANGES = (
    (0x00000000, 0xFF000000),  # 0.0.0.0/8        "this network"
    (0x7F000000, 0xFF000000),  # 127.0.0.0/8      loopback
    (0xE0000000, 0xF0000000),  # 224.0.0.0/4      multicast
    (0xF0000000, 0xF0000000),  # 240.0.0.0/4      reserved
)


def is_martian(address: IPv4Address) -> bool:
    """True when no on-path router could legitimately own ``address``."""
    return any(
        address.value & mask == base for base, mask in _MARTIAN_RANGES
    )


class OracleTraceSanitizer:
    """Validates, repairs and quarantines traces before detection."""

    def sanitize(self, trace: Trace) -> SanitizeResult:
        """Validate one trace; identity on well-formed input."""
        anomalies: list[TraceAnomaly] = []
        hops = list(trace.hops)
        changed = False

        for i, hop in enumerate(hops):
            fixed = self._sanitize_hop(trace, hop, anomalies)
            if fixed is not hop:
                hops[i] = fixed
                changed = True

        ttls = [h.probe_ttl for h in hops]
        if any(b < a for a, b in zip(ttls, ttls[1:])):
            self._note(
                anomalies,
                trace,
                AnomalyKind.NON_MONOTONIC_TTL,
                None,
                "probe TTLs decrease; restored by stable sort",
            )
            hops.sort(key=lambda h: h.probe_ttl)
            changed = True

        deduped, conflict = self._dedupe(trace, hops, anomalies)
        if conflict:
            return SanitizeResult(trace=None, anomalies=anomalies)
        if len(deduped) != len(hops):
            changed = True
        hops = deduped

        hops, truncated = self._truncate_after_destination(
            trace, hops, anomalies
        )
        changed = changed or truncated

        reached = any(h.destination_reply for h in hops)
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
            return SanitizeResult(trace=trace)

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
        if hop.reply_ip_ttl is not None and not (
            1 <= hop.reply_ip_ttl <= _MAX_TTL
        ):
            self._note(
                anomalies,
                trace,
                AnomalyKind.REPLY_TTL_RANGE,
                hop.probe_ttl,
                f"reply IP TTL {hop.reply_ip_ttl} impossible; cleared",
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
        assert hop.lses is not None
        for entry in hop.lses:
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
        expected = tuple(
            i == len(hop.lses) - 1 for i in range(len(hop.lses))
        )
        actual = tuple(e.bottom_of_stack for e in hop.lses)
        if actual != expected:
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
                    QuotedLse(
                        label=e.label,
                        tc=e.tc,
                        bottom_of_stack=bottom,
                        ttl=e.ttl,
                    )
                    for e, bottom in zip(hop.lses, expected)
                )
            )
        return hop

    # -- cross-hop checks --------------------------------------------------------

    def _dedupe(
        self,
        trace: Trace,
        hops: list[TraceHop],
        anomalies: list[TraceAnomaly],
    ) -> tuple[list[TraceHop], bool]:
        """Collapse identical duplicate probe TTLs; flag conflicts.

        TNT-revealed hops share their anchor's probe TTL by design and
        are exempt.  Two *different* answers for the same probe TTL are
        unresolvable without ground truth: the trace is quarantined.
        """
        out: list[TraceHop] = []
        last_real: TraceHop | None = None
        for hop in hops:
            if (
                not hop.tnt_revealed
                and last_real is not None
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
                return out, True
            out.append(hop)
            if not hop.tnt_revealed:
                last_real = hop
        return out, False

    @staticmethod
    def _vanished_responder(
        hops: list[TraceHop], reached: bool
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

    def _truncate_after_destination(
        self,
        trace: Trace,
        hops: list[TraceHop],
        anomalies: list[TraceAnomaly],
    ) -> tuple[list[TraceHop], bool]:
        first = next(
            (i for i, h in enumerate(hops) if h.destination_reply), None
        )
        if first is None or first == len(hops) - 1:
            return hops, False
        self._note(
            anomalies,
            trace,
            AnomalyKind.TRAILING_HOPS,
            hops[first].probe_ttl,
            f"{len(hops) - first - 1} hop(s) recorded after the "
            f"destination reply; truncated",
        )
        return hops[: first + 1], True

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
