"""Measurement-side data model: hops, traces, quoted LSEs.

These records are what AReST post-processes.  They deliberately contain
only information a real vantage point could observe -- addresses, RTTs,
quoted label stacks, reply TTLs -- plus clearly marked ``truth_*``
fields that the evaluation harness (and only it) uses to score
detections against simulator ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.netsim.addressing import IPv4Address


@dataclass(frozen=True, slots=True)
class QuotedLse:
    """One label stack entry quoted in an ICMP time-exceeded message."""

    label: int
    tc: int
    bottom_of_stack: bool
    ttl: int

    def __post_init__(self) -> None:
        if not 0 <= self.label < 2**20:
            raise ValueError(f"label out of range: {self.label}")
        if not 0 <= self.tc <= 7:
            raise ValueError(f"LSE-TC out of range: {self.tc}")
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"LSE-TTL out of range: {self.ttl}")

    def __reduce__(self):
        # Pickle as a constructor call (see TraceHop.__reduce__).
        return (
            type(self),
            (self.label, self.tc, self.bottom_of_stack, self.ttl),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.label},{self.ttl}>"


@dataclass(frozen=True, slots=True)
class TraceHop:
    """One traceroute hop as recorded by the vantage point.

    ``address is None`` renders as ``*`` (no reply).  ``lses`` is the
    quoted stack, top first, or None when the reply carried no RFC 4950
    extension.  ``tnt_revealed`` marks hops TNT uncovered inside hidden
    tunnels (addresses only, never LSEs -- Sec. 2.2 of the paper).
    """

    probe_ttl: int
    address: IPv4Address | None
    rtt_ms: float | None = None
    reply_ip_ttl: int | None = None
    lses: tuple[QuotedLse, ...] | None = None
    tnt_revealed: bool = False
    #: the reply came from the destination itself (port unreachable /
    #: echo reply), not from an expiring router
    destination_reply: bool = False
    #: simulator ground truth (evaluation only)
    truth_router_id: int | None = None
    truth_asn: int | None = None
    truth_planes: tuple[str, ...] = ()
    #: TTL model at this hop (False: the hop sat in a pipe-mode tunnel)
    truth_uniform: bool = True

    @property
    def responded(self) -> bool:
        """True when the hop answered (not a ``*``)."""
        return self.address is not None

    @property
    def has_lses(self) -> bool:
        """True when the hop quoted at least one LSE."""
        return bool(self.lses)

    @property
    def stack_depth(self) -> int:
        """Number of quoted LSEs (0 when none)."""
        return len(self.lses) if self.lses else 0

    @property
    def top_label(self) -> int | None:
        """The active (top) quoted label, or None."""
        if self.lses:
            return self.lses[0].label
        return None

    def with_annotation(self, **changes: object) -> "TraceHop":
        """A copy of the hop with the given fields replaced.

        Hand-rolled rather than :func:`dataclasses.replace`: annotation
        runs once per hop per trace, and ``replace``'s per-call field
        introspection dominated the TNT annotation stage.
        """
        get = changes.get
        return TraceHop(
            probe_ttl=get("probe_ttl", self.probe_ttl),
            address=get("address", self.address),
            rtt_ms=get("rtt_ms", self.rtt_ms),
            reply_ip_ttl=get("reply_ip_ttl", self.reply_ip_ttl),
            lses=get("lses", self.lses),
            tnt_revealed=get("tnt_revealed", self.tnt_revealed),
            destination_reply=get("destination_reply", self.destination_reply),
            truth_router_id=get("truth_router_id", self.truth_router_id),
            truth_asn=get("truth_asn", self.truth_asn),
            truth_planes=get("truth_planes", self.truth_planes),
            truth_uniform=get("truth_uniform", self.truth_uniform),
        )

    def __reduce__(self):
        """Pickle as one constructor call over every field, in order.

        A pool worker ships whole campaign results home by pickle, and
        the frozen-slots default walks ``dataclasses.fields()`` once
        per object on both ends.  A new field must join this tuple.
        """
        return (
            type(self),
            (
                self.probe_ttl,
                self.address,
                self.rtt_ms,
                self.reply_ip_ttl,
                self.lses,
                self.tnt_revealed,
                self.destination_reply,
                self.truth_router_id,
                self.truth_asn,
                self.truth_planes,
                self.truth_uniform,
            ),
        )


@dataclass(frozen=True, slots=True)
class Trace:
    """One Paris traceroute (constant flow identifier)."""

    vp: str
    vp_router_id: int
    destination: IPv4Address
    flow_id: int
    hops: tuple[TraceHop, ...]
    reached: bool
    #: (lowest, highest) topology epoch the probes of this trace were
    #: forwarded under; None on a static network (the default -- the
    #: field only materializes when a churn scheduler is attached, so
    #: churn-free datasets serialize byte-identically to before)
    epoch_span: tuple[int, int] | None = None

    @property
    def crosses_epochs(self) -> bool:
        """True when the topology mutated while this trace was probed."""
        return self.epoch_span is not None and (
            self.epoch_span[0] != self.epoch_span[1]
        )

    def __iter__(self) -> Iterator[TraceHop]:
        return iter(self.hops)

    def __len__(self) -> int:
        return len(self.hops)

    def responding_hops(self) -> list[TraceHop]:
        """Hops that answered, in path order."""
        return [h for h in self.hops if h.responded]

    def labeled_hops(self) -> list[TraceHop]:
        """Hops that quoted LSEs, in path order."""
        return [h for h in self.hops if h.has_lses]

    def addresses(self) -> set[IPv4Address]:
        """The set of responding addresses in this trace."""
        return {h.address for h in self.hops if h.address is not None}

    def with_hops(self, hops: tuple[TraceHop, ...]) -> "Trace":
        """A copy of the trace with the hop tuple replaced."""
        return Trace(
            vp=self.vp,
            vp_router_id=self.vp_router_id,
            destination=self.destination,
            flow_id=self.flow_id,
            hops=hops,
            reached=self.reached,
            epoch_span=self.epoch_span,
        )

    def __reduce__(self):
        # Pickle as a constructor call (see TraceHop.__reduce__).
        return (
            type(self),
            (
                self.vp,
                self.vp_router_id,
                self.destination,
                self.flow_id,
                self.hops,
                self.reached,
                self.epoch_span,
            ),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"traceroute {self.vp} -> {self.destination}"]
        for hop in self.hops:
            addr = str(hop.address) if hop.address else "*"
            stack = ""
            if hop.lses:
                stack = " MPLS " + " ".join(str(e) for e in hop.lses)
            revealed = " (TNT)" if hop.tnt_revealed else ""
            parts.append(f"  {hop.probe_ttl:2d}  {addr}{stack}{revealed}")
        return "\n".join(parts)


def truth_transport_is_sr(trace: "Trace", index: int) -> bool:
    """Ground truth: is this hop carrying Segment Routing?

    Evaluation-only helper over the ``truth_planes`` annotations.  True
    when any carried label came from the SR control plane -- transport
    node/adjacency SIDs (``sr``) or SR service SIDs (``service-sr``,
    SRLB-allocated; the ESnet operator confirmed service-SID stacks as
    genuine SR).  A hop whose remaining stack is only plain VPN labels
    (``service``) inherits the transport of the nearest earlier labeled
    hop.
    """
    planes = trace.hops[index].truth_planes
    if not planes:
        return False
    if "sr" in planes or "service-sr" in planes:
        return True
    if "ldp" in planes or "rsvp" in planes:
        return False
    for i in range(index - 1, -1, -1):
        earlier = trace.hops[i].truth_planes
        if "sr" in earlier or "service-sr" in earlier:
            return True
        if "ldp" in earlier or "rsvp" in earlier:
            return False
        if not earlier:
            break
    return False


@dataclass(slots=True)
class TraceMetadata:
    """Campaign-level context attached to a batch of traces."""

    target_asn: int
    campaign: str = ""
    notes: dict[str, str] = field(default_factory=dict)
