"""The simulated data plane.

Walks probe packets hop by hop through the network, applying full
MPLS/SR semantics: ingress push (per :class:`TunnelController` programs),
per-hop swap or pop, PHP, SR-to-LDP and LDP-to-SR interworking, service
SID termination, TTL propagation (RFC 3443 uniform vs. pipe models) and
RFC 4950 ICMP quoting.

The observable behaviour -- who answers a given probe, from which
address, quoting which label stack, with which remaining reply TTL -- is
exactly the input TNT-style traceroute consumes, so the measurement
layer above never peeks at simulator internals except through fields
explicitly prefixed ``truth_``.

TTL semantics
-------------

*uniform* (ingress has ``ttl_propagate``): the IP TTL is copied into the
pushed LSE-TTL; inner LSEs inherit the outer TTL on pop; the IP TTL is
restored from the last popped LSE.  Every LSR in the tunnel is one
visible traceroute hop (*explicit*/*implicit* tunnels).

*pipe* (no ``ttl_propagate``): the pushed LSE-TTL starts at 255; the IP
TTL is frozen inside the tunnel and decremented once more by the router
performing the final pop.  The tunnel therefore collapses into a single
traceroute hop -- the ending hop -- which, if it implements RFC 4950,
quotes the received LSE and betrays the tunnel (*opaque*); otherwise the
tunnel is *invisible*.

Fast path
---------

Because forwarding decisions never read the TTL, one instrumented walk
per ``(src, destination, flow)`` -- :meth:`ForwardingEngine.record_walk`
-- captures enough state to answer every probe TTL of a traceroute in
O(1).  The TNT prober's fused loop answers its probes from that
recording, replaying the per-probe fault draws in the reference call
order, and hands any probe the recording cannot answer exactly to
:meth:`ForwardingEngine.walk_probe`.  See :mod:`repro.netsim.walkcache`
for the synthesis model and its exactness guarantees.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

from repro.netsim.addressing import IPv4Address
from repro.netsim.faults import FaultInjector
from repro.netsim.igp import NoRouteError, ShortestPaths
from repro.netsim.mpls import LabelStack, LabelStackEntry, ReservedLabel
from repro.netsim.topology import Network, Router
from repro.netsim.tunnels import TunnelController, TunnelProgram
from repro.netsim.vendors import VENDOR_PROFILES
from repro.netsim.walkcache import (
    RECORD_TTL,
    RecordedWalk,
    SymTtl,
    WalkRecorder,
    WalkStats,
)
from repro.util.determinism import unit_hash

_MAX_WALK = 512
_DEFAULT_INITIAL_TTL = 64


def _ecmp_bucket(flow_id: int, node: int, target: int) -> int:
    """The per-flow ECMP hash bucket.

    Not memoized: its one caller, :meth:`ForwardingEngine._flow_next_hop`,
    already caches the resolved hop per (node, target, flow).
    """
    digest = hashlib.sha256(f"{flow_id}:{node}:{target}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@lru_cache(maxsize=1 << 16)
def _truth_hop(
    node: int,
    asn: int,
    labels: tuple[int, ...],
    planes: tuple[str, ...],
    pushed: bool,
    uniform: bool,
) -> "TruthHop":
    """A memoized ground-truth hop: every flow crossing a router in the
    same tunnel state records the identical (frozen) hop."""
    return TruthHop(node, asn, labels, planes, pushed, uniform)


class ReplyKind(enum.Enum):
    """ICMP reply categories the VP can receive."""
    TIME_EXCEEDED = "time-exceeded"
    DEST_UNREACHABLE = "dest-unreachable"
    ECHO_REPLY = "echo-reply"


@dataclass(frozen=True, slots=True)
class ProbeReply:
    """What the vantage point receives for one probe (or None)."""

    kind: ReplyKind
    source_ip: IPv4Address
    #: label stack quoted via RFC 4950 extensions, if any
    quoted_stack: tuple[LabelStackEntry, ...] | None
    #: remaining IP TTL of the reply as it reaches the VP (fingerprinting)
    reply_ip_ttl: int
    #: ground truth -- never consumed by the measurement pipeline
    truth_router_id: int
    truth_forward_hops: int


@dataclass(frozen=True, slots=True)
class TruthHop:
    """Ground-truth record of one forwarding step (for evaluation only)."""

    router_id: int
    asn: int
    #: label stack carried by the packet when it *arrived* at the router
    received_labels: tuple[int, ...]
    #: control plane that produced each received label, top-first
    received_planes: tuple[str, ...]
    #: True when this router pushed a tunnel program
    pushed: bool
    #: TTL model of the tunnel at this hop (False = pipe / hidden)
    uniform: bool = True


class DropReason(enum.Enum):
    """Why a packet died without generating ICMP."""
    NO_ROUTE = "no-route"
    UNKNOWN_LABEL = "unknown-label"
    WALK_LIMIT = "walk-limit"
    BLACKOUT = "blackout"


class PacketDropped(Exception):
    """Internal signal: the packet died without generating ICMP."""

    def __init__(self, reason: DropReason) -> None:
        super().__init__(reason.value)
        self.reason = reason


@dataclass(slots=True)
class _Packet:
    dest: IPv4Address
    ip_ttl: int
    flow_id: int
    origin: int = -1
    stack: LabelStack = field(default_factory=LabelStack)
    planes: list[str] = field(default_factory=list)
    uniform: bool = True  # RFC 3443 TTL model of the current tunnel
    #: True for measurement probes; ground-truth walks are never faulted
    measured: bool = False
    #: observer of an instrumented recording walk (fast path)
    recorder: WalkRecorder | None = None


class ForwardingEngine:
    """Hop-by-hop packet walker over a converged network."""

    def __init__(
        self,
        network: Network,
        igp: ShortestPaths,
        tunnels: TunnelController,
        faults: FaultInjector | None = None,
    ) -> None:
        self._network = network
        self._igp = igp
        self._tunnels = tunnels
        self._faults = faults
        #: attached network-dynamics scheduler (None = static topology)
        self._dynamics = None
        #: monotonic topology epoch; bumped by every cache invalidation
        self._epoch = 0
        #: fast-path and cache counters (observational only)
        self.stats = WalkStats()
        #: (node, target, flow) -> resolved ECMP next hop
        self._next_hop_cache: dict[tuple[int, int, int], int] = {}
        #: (node, prev, vp) -> reply skeleton, shared by walk recorders
        self._reply_skeletons: dict = {}

    def invalidate_caches(self) -> None:
        """Drop memoized routing state (call after topology changes).

        Also invalidates the underlying IGP caches and advances the
        topology :attr:`epoch`.  Recorded walks held by callers are NOT
        tracked here: they keep the epoch they were stamped with, and a
        recording whose epoch trails the engine's must never answer a
        probe (the TNT prober walks such a probe live and re-records).
        """
        self._next_hop_cache.clear()
        self._reply_skeletons.clear()
        self._igp.invalidate()
        self._epoch += 1
        self.stats.epoch_transitions += 1

    @property
    def network(self) -> Network:
        """The network this engine forwards over."""
        return self._network

    @property
    def igp(self) -> ShortestPaths:
        """The converged IGP."""
        return self._igp

    @property
    def tunnels(self) -> TunnelController:
        """The tunnel controller."""
        return self._tunnels

    @property
    def faults(self) -> FaultInjector | None:
        """The attached fault injector (None = pristine measurement plane)."""
        return self._faults

    @faults.setter
    def faults(self, injector: FaultInjector | None) -> None:
        self._faults = injector

    @property
    def epoch(self) -> int:
        """The current topology epoch (monotonic, starts at 0)."""
        return self._epoch

    @property
    def dynamics(self):
        """The attached churn scheduler (None = static topology)."""
        return self._dynamics

    @dynamics.setter
    def dynamics(self, scheduler) -> None:
        self._dynamics = scheduler

    # -- public API -------------------------------------------------------------

    def forward_probe(
        self,
        src: int,
        dest: IPv4Address,
        ttl: int,
        flow_id: int = 0,
        attempt: int = 0,
    ) -> ProbeReply | None:
        """Send one UDP probe; return the ICMP reply observed at the VP.

        Returns None when the expiring router is ICMP-silent, the packet
        is dropped, or an attached fault injector swallows the probe.
        ``attempt`` distinguishes retries of the same probe so each
        attempt redraws its loss fate independently.
        """
        if ttl <= 0:
            raise ValueError(f"probe TTL must be positive, got {ttl}")
        if self._dynamics is not None:
            self._dynamics.on_probe()
        if self._faults is not None:
            self._faults.on_probe()
            if self._faults.probe_lost(flow_id, dest, ttl, attempt):
                return None
        return self.walk_probe(src, dest, ttl, flow_id)

    def walk_probe(
        self, src: int, dest: IPv4Address, ttl: int, flow_id: int = 0
    ) -> ProbeReply | None:
        """Forward one sent, unlost probe hop by hop; return its reply.

        The walk of :meth:`forward_probe` without its clock ticks and
        loss draw: the TNT prober's fused loop makes those itself and
        calls this for a probe its recorded walk cannot answer.
        """
        try:
            return self._walk(src, dest, ttl, flow_id, truth=None)
        except PacketDropped:
            return None
        except NoRouteError:
            # A destination transiently unroutable mid-reconvergence:
            # the probe dies in the blackhole.
            return None

    def truth_walk(
        self, src: int, dest: IPv4Address, flow_id: int = 0
    ) -> list[TruthHop]:
        """Walk the full forward path with an effectively infinite TTL and
        record per-hop ground truth.  Evaluation-only."""
        truth: list[TruthHop] = []
        try:
            self._walk(src, dest, 255, flow_id, truth=truth)
        except (PacketDropped, NoRouteError):
            pass
        return truth

    def record_walk(
        self, src: int, dest: IPv4Address, flow_id: int = 0
    ) -> RecordedWalk:
        """Run one instrumented, fault-free walk and record enough state
        to synthesize the reply for every probe TTL of this flow.

        The recording consumes no fault-injector state, so it may run at
        any point relative to the probes it answers.  When the walk
        cannot guarantee exactness the result has ``ok=False`` and every
        probe of the flow goes to :meth:`walk_probe` instead.  The
        recording doubles as the ground-truth walk
        (``RecordedWalk.truth`` equals :meth:`truth_walk` output).
        """
        recorder = WalkRecorder(self, src, dest, flow_id)
        truth: list[TruthHop] = []
        reply: ProbeReply | None = None
        dropped = False
        try:
            reply = self._walk(
                src,
                dest,
                SymTtl(RECORD_TTL, probe=True),
                flow_id,
                truth=truth,
                recorder=recorder,
            )
        except PacketDropped:
            # A TTL-independent silent death (no route, unknown label,
            # walk limit): every deep-enough probe dies the same way.
            dropped = True
        except Exception:
            # Anything else (e.g. NoRouteError mid-path) may never
            # surface in the reference because shallow probes expire
            # first and consecutive stars abort the trace -- refuse to
            # synthesize rather than guess.
            recorder.inexact = True
        walk = recorder.finalize(reply, dropped, truth)
        walk.epoch = self._epoch
        if walk.ok:
            self.stats.walks_recorded += 1
        else:
            self.stats.walks_fallback += 1
        return walk

    def ping(self, src: int, target: IPv4Address, flow_id: int = 0) -> ProbeReply | None:
        """ICMP echo to an interface address (TTL fingerprint, 2nd half)."""
        owner = self._network.owner_of(target)
        if owner is None:
            return None
        router = self._network.router(owner)
        if not router.responds_to_ping:
            return None
        if self._dynamics is not None:
            self._dynamics.on_probe()
            if self._dynamics.blackholed(owner):
                return None
        if self._faults is not None:
            self._faults.on_probe()
            if self._faults.probe_lost(flow_id, target, 0, 0, kind="ping"):
                return None
            if self._faults.blacked_out(owner):
                return None
        reply_ttl, return_hops = self._reply_meta(owner, src, echo=True)
        return ProbeReply(
            kind=ReplyKind.ECHO_REPLY,
            source_ip=target,
            quoted_stack=None,
            reply_ip_ttl=reply_ttl,
            truth_router_id=owner,
            truth_forward_hops=return_hops,
        )

    # -- walk ---------------------------------------------------------------------

    def _walk(
        self,
        src: int,
        dest: IPv4Address,
        ttl: int,
        flow_id: int,
        truth: list[TruthHop] | None,
        recorder: WalkRecorder | None = None,
    ) -> ProbeReply | None:
        final = self._network.owner_of(dest)
        if final is None:
            raise PacketDropped(DropReason.NO_ROUTE)
        packet = _Packet(
            dest=dest,
            ip_ttl=ttl,
            flow_id=flow_id,
            origin=src,
            measured=truth is None,
            recorder=recorder,
        )
        node = src
        prev: int | None = None
        for _ in range(_MAX_WALK):
            if node == src:
                # The sender itself neither decrements nor pushes.
                if node == final:
                    return self._deliver(node, packet)
                next_node = self._flow_next_hop(node, final, packet.flow_id)
                prev, node = node, next_node
                continue
            if (
                packet.measured
                and self._dynamics is not None
                and self._dynamics.blackholed(node)
            ):
                # Mid-reconvergence the router has no usable FIB entry
                # for the prefix yet: the probe falls into the transient
                # blackhole.
                raise PacketDropped(DropReason.BLACKOUT)
            if (
                packet.measured
                and self._faults is not None
                and self._faults.blacked_out(node)
            ):
                # The router is transiently dark: it neither forwards
                # nor replies, so the probe dies silently.
                raise PacketDropped(DropReason.BLACKOUT)
            if packet.recorder is not None:
                # Mirror the blackout checkpoint above: a measured probe
                # draws blacked_out() once per router reached, in order.
                packet.recorder.on_visit(node)
            step = self._process_at(node, prev, final, packet, truth)
            if isinstance(step, ProbeReply):
                return step
            if step is None:
                return None  # silent expiry / delivered silently
            if (
                packet.measured
                and prev is not None
                and self._dynamics is not None
                and self._dynamics.microloops(node)
            ):
                # Classic post-repair micro-loop: the router still
                # points back the way the packet came, so it bounces
                # between the pair until its TTL expires inside the loop.
                step = prev
            prev, node = node, step
        raise PacketDropped(DropReason.WALK_LIMIT)

    # -- per-node processing ---------------------------------------------------------

    def _process_at(
        self,
        node: int,
        prev: int | None,
        final: int,
        packet: _Packet,
        truth: list[TruthHop] | None,
    ) -> ProbeReply | int | None:
        """Process the packet at ``node``.

        Returns the next-hop router id to keep forwarding, a ProbeReply
        to stop with, or None for a silent stop.
        """
        self.stats.nodes_processed += 1
        router = self._network.router(node)
        received_stack = packet.stack.copy() if packet.stack else None
        if truth is not None:
            # positional: router_id, asn, received_labels, received_planes,
            # pushed (fixed up below if a push happens), uniform
            truth.append(
                _truth_hop(
                    node,
                    router.asn,
                    packet.stack.labels() if received_stack is not None else (),
                    tuple(packet.planes) if packet.planes else (),
                    False,
                    packet.uniform,
                )
            )

        if packet.stack:
            # MPLS TTL processing on the outermost header.
            if packet.recorder is not None:
                packet.recorder.on_check(
                    node, prev, packet.stack.top.ttl,
                    received_stack if router.rfc4950 else None,
                )
            if packet.stack.top.ttl <= 1:
                return self._time_exceeded(
                    node, prev, packet.origin,
                    received_stack if router.rfc4950 else None,
                    packet,
                )
            packet.stack.decrement_ttl()
            return self._label_ops(node, prev, final, packet, received_stack, truth)

        # Plain IP processing.  The final router is still a router: it
        # decrements before handing the packet to the destination host.
        if packet.recorder is not None:
            packet.recorder.on_check(node, prev, packet.ip_ttl, None)
        if packet.ip_ttl <= 1:
            return self._time_exceeded(
                node, prev, packet.origin, None, packet
            )
        packet.ip_ttl -= 1
        if node == final:
            return self._deliver(node, packet)
        # Ingress push: only the first router of an AS on the path is an LER.
        if prev is None or self._network.router(prev).asn != router.asn:
            program = self._tunnels.program_for(node, final)
            if program is not None:
                self._push_program(router, packet, program)
                if truth is not None and truth:
                    last = truth[-1]
                    truth[-1] = _truth_hop(
                        last.router_id,
                        last.asn,
                        last.received_labels,
                        last.received_planes,
                        True,
                        packet.uniform,
                    )
                return self._forward_labeled(node, final, packet)
        return self._flow_next_hop(node, final, packet.flow_id)

    def _push_program(
        self, router: Router, packet: _Packet, program: TunnelProgram
    ) -> None:
        packet.uniform = router.ttl_propagate
        lse_ttl = packet.ip_ttl if packet.uniform else 255
        for label, plane in zip(
            reversed(program.labels), reversed(program.truth_planes)
        ):
            packet.stack.push(LabelStackEntry(label=label, ttl=lse_ttl))
            packet.planes.insert(0, plane)

    # -- label operations ---------------------------------------------------------------

    def _label_ops(
        self,
        node: int,
        prev: int | None,
        final: int,
        packet: _Packet,
        received_stack: LabelStack | None,
        truth: list[TruthHop] | None,
    ) -> ProbeReply | int | None:
        """Resolve the (already TTL-decremented) top label at ``node``.

        May pop several labels (segment endpoints, service SIDs) before
        forwarding; transitions to IP processing when the stack empties.
        """
        router = self._network.router(node)
        for _ in range(packet.stack.depth + 2):
            if not packet.stack:
                return self._ip_after_pop(
                    node, prev, final, packet, received_stack, truth
                )
            label = packet.stack.top.label
            domain = self._tunnels.sr_domain(router.asn)

            # 1. Service SID owned by this router (bottom of stack).
            if self._tunnels.services.is_service_label(node, label):
                self._pop(packet)
                continue
            # 1b. Entropy label indicator: strip the ELI + EL pair (the
            # EL only feeds the load-balancing hash, it is never
            # forwarded on; RFC 6790).
            if label == int(ReservedLabel.ENTROPY_LABEL_INDICATOR):
                self._pop(packet)  # ELI
                if packet.stack:
                    self._pop(packet)  # EL
                continue

            # 0. Explicit null: a signalling label addressed to us --
            # strip it and keep processing (RFC 3032).
            if label == int(ReservedLabel.IPV4_EXPLICIT_NULL):
                self._pop(packet)
                continue

            if router.sr_enabled and domain is not None:
                # 2. Our own node SID: segment complete, pop and re-examine.
                target = domain.resolve_label(node, label)
                if target == node:
                    self._pop(packet)
                    continue
                # 2b. A binding SID of a local SR policy: splice the
                # policy's segment list in place of the BSID (RFC 9256).
                registry = self._tunnels.policy_registry(router.asn)
                if registry is not None:
                    policy = registry.policy_for(node, label)
                    if policy is not None:
                        self._splice_policy(packet, policy)
                        continue
                # 3. Our adjacency SID: pop, forward over that very link.
                adj = domain.adjacency_target(node, label)
                if adj is not None:
                    self._pop(packet)
                    if packet.stack:
                        return adj
                    # Transport ended exactly here; deliver IP-wise next hop.
                    return adj
                # 4. A node SID toward another router.
                if target is not None:
                    nh = self._forward_node_sid(node, target, domain, packet)
                    return self._after_forwarding_pop(
                        node, prev, packet, received_stack, router, nh
                    )

            if router.ldp_enabled:
                fec = self._tunnels.ldp.fec_for_label(node, label)
                if fec is not None:
                    nh = self._forward_ldp(node, fec.egress, packet)
                    return self._after_forwarding_pop(
                        node, prev, packet, received_stack, router, nh
                    )
                # RSVP-TE: the label is bound to a signaled LSP whose
                # explicit route overrides the IGP next hop.
                step = self._tunnels.rsvp.next_step(node, label)
                if step is not None:
                    nh, out_label = step
                    if out_label is None:
                        self._pop(packet)  # PHP at the penultimate hop
                    else:
                        packet.stack.swap(out_label)
                        packet.planes[0] = "rsvp"
                    return self._after_forwarding_pop(
                        node, prev, packet, received_stack, router, nh
                    )

            raise PacketDropped(DropReason.UNKNOWN_LABEL)
        raise PacketDropped(DropReason.WALK_LIMIT)  # pragma: no cover

    def _forward_node_sid(
        self,
        node: int,
        target: int,
        domain,
        packet: _Packet,
    ) -> int:
        index = domain.node_index(target)
        assert index is not None
        nh = self._flow_next_hop(node, target, packet.flow_id)
        if domain.is_enrolled(nh):
            if nh == target and domain.explicit_null:
                # signal explicit-null: the endpoint still receives an
                # MPLS header, carrying only label 0
                packet.stack.swap(0)
                packet.planes[0] = "sr"
            elif nh == target and domain.php:
                self._pop(packet)  # PHP toward the segment endpoint
            else:
                packet.stack.swap(domain.label_on_wire(nh, index))
                packet.planes[0] = "sr"
            return nh
        # SR -> LDP interworking: downstream neighbour is LDP-only.  The
        # mapping-server SID got us here; continue on the LDP binding.
        fec = self._tunnels.egress_fec(target)
        binding = self._tunnels.ldp.binding(nh, fec)
        if binding == int(ReservedLabel.IMPLICIT_NULL):
            self._pop(packet)
        else:
            packet.stack.swap(binding)
            packet.planes[0] = "ldp"
        return nh

    def _forward_ldp(self, node: int, egress: int, packet: _Packet) -> int:
        if node == egress:
            # UHP tail: we advertised this binding and we are the egress.
            self._pop(packet)
            return node
        nh = self._flow_next_hop(node, egress, packet.flow_id)
        nh_router = self._network.router(nh)
        fec = self._tunnels.egress_fec(egress)
        if nh_router.ldp_enabled:
            binding = self._tunnels.ldp.binding(nh, fec)
            if binding == int(ReservedLabel.IMPLICIT_NULL):
                self._pop(packet)
            else:
                packet.stack.swap(binding)
                packet.planes[0] = "ldp"
            return nh
        # LDP -> SR interworking: downstream speaks SR only.  This border
        # router mirrors the egress's node SID into the SR domain.
        domain = self._tunnels.sr_domain(self._network.router(node).asn)
        if domain is None or not domain.is_enrolled(nh):
            raise PacketDropped(DropReason.UNKNOWN_LABEL)
        index = domain.node_index(egress)
        if index is None:
            raise PacketDropped(DropReason.UNKNOWN_LABEL)
        if nh == egress:
            self._pop(packet)
        else:
            packet.stack.swap(domain.label_on_wire(nh, index))
            packet.planes[0] = "sr"
        return nh

    def _forward_labeled(self, node: int, final: int, packet: _Packet) -> int:
        """First hop after an ingress push: route on the top label."""
        router = self._network.router(node)
        domain = self._tunnels.sr_domain(router.asn)
        label = packet.stack.top.label
        if domain is not None and router.sr_enabled:
            target = domain.resolve_label(node, label)
            if target is not None and target != node:
                return self._flow_next_hop(node, target, packet.flow_id)
        if router.ldp_enabled:
            # The pushed label is the *next hop's* binding; find the FEC
            # through the tunnel program's egress instead.
            program = self._tunnels.program_for(node, final)
            if program is not None:
                return self._flow_next_hop(node, program.egress, packet.flow_id)
        program = self._tunnels.program_for(node, final)
        if program is not None:
            return self._flow_next_hop(node, program.egress, packet.flow_id)
        raise PacketDropped(DropReason.UNKNOWN_LABEL)  # pragma: no cover

    def _after_forwarding_pop(
        self,
        node: int,
        prev: int | None,
        packet: _Packet,
        received_stack: LabelStack | None,
        router: Router,
        nh: int,
    ) -> ProbeReply | int | None:
        """Post-forwarding hook at a router that may have performed the
        final pop (PHP).  In pipe mode the popping LSR owes the IP TTL
        check the tunnel swallowed; expiring here with RFC 4950 yields
        the *opaque* signature (the received LSE is quoted)."""
        if packet.stack or packet.uniform:
            return nh
        if packet.recorder is not None:
            packet.recorder.on_check(
                node, prev, packet.ip_ttl,
                received_stack if router.rfc4950 else None,
            )
        if packet.ip_ttl <= 1:
            return self._time_exceeded(
                node, prev, packet.origin,
                received_stack if router.rfc4950 else None,
                packet,
            )
        packet.ip_ttl -= 1
        return nh

    def _ip_after_pop(
        self,
        node: int,
        prev: int | None,
        final: int,
        packet: _Packet,
        received_stack: LabelStack | None,
        truth: list[TruthHop] | None,
    ) -> ProbeReply | int | None:
        """The stack emptied at this node (it is the ending hop)."""
        router = self._network.router(node)
        if not packet.uniform:
            # Pipe model: the EH performs the IP TTL check + decrement the
            # tunnel swallowed.  Expiring here with RFC 4950 produces the
            # *opaque* tunnel signature (one quoted LSE, TTL ~255-k).
            if packet.recorder is not None:
                packet.recorder.on_check(
                    node, prev, packet.ip_ttl,
                    received_stack if router.rfc4950 else None,
                )
            if packet.ip_ttl <= 1:
                return self._time_exceeded(
                    node, prev, packet.origin,
                    received_stack if router.rfc4950 else None,
                    packet,
                )
            packet.ip_ttl -= 1
        # Uniform model: the MPLS decrement already covered this hop; the
        # IP TTL was synchronised on each pop.
        if node == final:
            return self._deliver(node, packet)
        return self._flow_next_hop(node, final, packet.flow_id)

    def _splice_policy(self, packet: _Packet, policy) -> None:
        """Replace the active BSID with the policy's segment list; the
        pushed LSEs inherit the BSID's remaining TTL (uniform model) so
        downstream hops keep expiring consecutively."""
        bsid_entry = packet.stack.pop()
        if packet.planes:
            packet.planes.pop(0)
        ttl = bsid_entry.ttl if packet.uniform else 255
        for label in reversed(policy.segment_labels):
            packet.stack.push(LabelStackEntry(label=label, ttl=ttl))
            packet.planes.insert(0, "sr")

    def _pop(self, packet: _Packet) -> None:
        popped = packet.stack.pop()
        if packet.planes:
            packet.planes.pop(0)
        if packet.uniform:
            if packet.stack:
                packet.stack.set_top_ttl(popped.ttl)
            else:
                packet.ip_ttl = popped.ttl

    # -- replies -----------------------------------------------------------------------

    def _time_exceeded(
        self,
        node: int,
        prev: int | None,
        vp: int,
        quoted: LabelStack | None,
        packet: _Packet | None = None,
    ) -> ProbeReply | None:
        router = self._network.router(node)
        if router.icmp_silent:
            return None
        if router.icmp_response_rate < 1.0 and packet is not None:
            draw = unit_hash(
                "icmp-drop", node, packet.flow_id, packet.dest.value
            )
            if draw >= router.icmp_response_rate:
                # ICMP rate limiting: this flow's probes expiring here are
                # consistently policed away (a '*' in the traceroute).
                return None
        if (
            self._faults is not None
            and packet is not None
            and packet.measured
            and not self._faults.allow_icmp(node)
        ):
            # Injected token-bucket policing: the router's ICMP budget
            # for this stretch of the campaign is spent.
            return None
        source = (
            router.interfaces.get(prev) if prev is not None else router.loopback
        )
        if source is None:  # pragma: no cover - defensive
            source = router.loopback
            assert source is not None
        reply_ttl, return_hops = self._reply_meta(node, vp, echo=False)
        return ProbeReply(
            kind=ReplyKind.TIME_EXCEEDED,
            source_ip=source,
            quoted_stack=tuple(quoted) if quoted is not None else None,
            reply_ip_ttl=reply_ttl,
            truth_router_id=node,
            truth_forward_hops=return_hops,
        )

    def _deliver(self, node: int, packet: _Packet) -> ProbeReply:
        reply_ttl, return_hops = self._reply_meta(node, packet.origin, echo=False)
        return ProbeReply(
            kind=ReplyKind.DEST_UNREACHABLE,
            source_ip=packet.dest,
            quoted_stack=None,
            reply_ip_ttl=reply_ttl,
            truth_router_id=node,
            truth_forward_hops=return_hops,
        )

    # -- helpers ------------------------------------------------------------------------

    def _flow_next_hop(self, node: int, target: int, flow_id: int) -> int:
        key = (node, target, flow_id)
        cached = self._next_hop_cache.get(key)
        if cached is not None:
            self.stats.next_hop_hits += 1
            return cached
        hops = self._igp.ecmp_next_hops(node, target)
        if len(hops) == 1:
            nh = hops[0]
        else:
            nh = hops[_ecmp_bucket(flow_id, node, target) % len(hops)]
        self.stats.next_hop_misses += 1
        self._next_hop_cache[key] = nh
        return nh

    def _return_hops(self, responder: int, vp: int) -> int:
        if vp < 0 or responder == vp:
            return 0
        try:
            return self._igp.hop_count(responder, vp)
        except NoRouteError:  # pragma: no cover - connected graphs
            return 0

    def _reply_meta(self, responder: int, vp: int, echo: bool) -> tuple[int, int]:
        """(reply IP TTL, return-path hop count) for one responder.

        One helper so every reply builder pays the hop-count lookup once.
        """
        hops = self._return_hops(responder, vp)
        vendor = self._network.router(responder).vendor
        profile = VENDOR_PROFILES.get(vendor)
        if profile is None:
            initial = _DEFAULT_INITIAL_TTL
        else:
            initial = (
                profile.ttl_signature.echo_reply
                if echo
                else profile.ttl_signature.time_exceeded
            )
        return max(1, initial - hops), hops
