"""Paris traceroute over the simulated data plane.

Sends TTL-increasing UDP probes with a *constant flow identifier* so
per-flow ECMP keeps the path stable (Augustin et al.), records the
responding address, RTT, reply TTL and any RFC 4950-quoted label stack.

RTTs are synthesized from hop counts with deterministic jitter -- enough
for TNT-style heuristics (RTT jumps at tunnel entrances) to have
something to look at without pretending to model queueing.

:class:`ParisTraceroute` is the plain per-probe reference walker: every
probe, and every retry, is forwarded hop by hop through
:meth:`~repro.netsim.forwarding.ForwardingEngine.forward_probe`.  The
TNT prober's fused loop (:meth:`repro.probing.tnt.TntProber.trace`)
synthesizes the same traces from recorded walks, about one per VP and
destination router; ``TntProber(fast_path=False)`` probes through this
client instead, as the oracle the fused loop is tested against.  Both
corrupt a reply through the one step here, :func:`corrupt_reply`, and
a trace's hop order through :func:`corrupt_order`.
"""

from __future__ import annotations

from functools import lru_cache
from hashlib import sha256

from repro.netsim.addressing import IPv4Address
from repro.netsim.faults import FaultInjector
from repro.netsim.forwarding import ForwardingEngine, ProbeReply, ReplyKind
from repro.netsim.mpls import LabelStackEntry
from repro.probing.records import QuotedLse, Trace, TraceHop
from repro.util.determinism import unit_hash
from repro.util.retry import RetryAccounting, RetryPolicy

#: per-hop one-way latency used to synthesize RTTs, in milliseconds
_HOP_LATENCY_MS = 0.42
_MAX_CONSECUTIVE_STARS = 4


@lru_cache(maxsize=1 << 16)
def derive_flow_id(vp_router_id: int, destination: IPv4Address) -> int:
    """The default Paris flow identifier: a stable hash of the tuple."""
    return int(unit_hash("flow", vp_router_id, destination) * 2**16)


@lru_cache(maxsize=1 << 16)
def _rtt_jitter(seed: int, flow_id: int, ttl: int) -> float:
    """The deterministic per-probe RTT jitter, in milliseconds.

    Bit-identical to ``unit_hash(seed, "rtt", flow_id, ttl) * 0.3`` but
    hashes the prebuilt key text directly (unit_hash pays more building
    its key string than the SHA-256 costs) and memoizes per flow: probe
    campaigns re-trace the same flows round after round.
    """
    digest = sha256(
        f"{seed}\x1frtt\x1f{flow_id}\x1f{ttl}".encode("utf-8")
    ).digest()
    return (int.from_bytes(digest[:8], "big") / 2**64) * 0.3


@lru_cache(maxsize=1 << 14)
def _quote_entries(
    stack: tuple[LabelStackEntry, ...],
) -> tuple[QuotedLse, ...]:
    """Measurement records for a quoted stack, memoized: probes of
    different flows expiring at the same tunnel position quote identical
    stacks."""
    return tuple(
        QuotedLse(
            label=e.label,
            tc=e.tc,
            bottom_of_stack=e.bottom_of_stack,
            ttl=e.ttl,
        )
        for e in stack
    )


@lru_cache(maxsize=1 << 14)
def quote_records(
    quote: tuple[tuple[int, int, bool, bool, int], ...], ttl: int
) -> tuple[QuotedLse, ...]:
    """Measurement records for a recorded walk's quote template
    (:data:`repro.netsim.walkcache.QuoteTemplate`) at one probe TTL."""
    return tuple(
        QuotedLse(
            label=label,
            tc=tc,
            bottom_of_stack=bottom,
            ttl=ttl + value if relative else value,
        )
        for label, tc, bottom, relative, value in quote
    )


class ParisTraceroute:
    """A traceroute client bound to one forwarding engine, forwarding
    every probe hop by hop."""

    def __init__(
        self,
        engine: ForwardingEngine,
        max_ttl: int = 40,
        seed: int = 0,
        retry: RetryPolicy | None = None,
    ) -> None:
        if max_ttl <= 0:
            raise ValueError("max_ttl must be positive")
        self._engine = engine
        self._max_ttl = max_ttl
        self._seed = seed
        self._retry = retry or RetryPolicy.none()
        self.accounting = RetryAccounting()

    @property
    def retry(self) -> RetryPolicy:
        """The per-probe retry policy."""
        return self._retry

    @property
    def max_ttl(self) -> int:
        """The deepest TTL probed per trace."""
        return self._max_ttl

    @property
    def seed(self) -> int:
        """The RTT-jitter seed."""
        return self._seed

    def trace(
        self,
        vp_router_id: int,
        destination: IPv4Address,
        vp_name: str = "",
        flow_id: int | None = None,
    ) -> Trace:
        """Run one traceroute; the flow id defaults to a stable hash of
        (vp, destination) as Paris traceroute derives it from the tuple."""
        if flow_id is None:
            flow_id = derive_flow_id(vp_router_id, destination)
        faults = self._engine.faults
        corrupting = faults is not None and faults.corrupting
        reroute = (
            faults.rerouted_flow(flow_id, destination, self._max_ttl)
            if faults is not None and faults.rerouting
            else None
        )
        churning = self._engine.dynamics is not None
        # Epochs are stamped relative to the trace's start so the span
        # reflects only mutations observed mid-trace -- engine-internal
        # history (setup-time cache resets) must not leak into bytes.
        epoch_base = self._engine.epoch if churning else 0
        epoch_lo: int | None = None
        epoch_hi: int | None = None
        hops: list[TraceHop] = []
        reached = False
        stars = 0
        for ttl in range(1, self._max_ttl + 1):
            probe_flow = flow_id
            if reroute is not None and ttl >= reroute[0]:
                probe_flow = reroute[1]
            reply = self._probe_with_retries(
                vp_router_id, destination, ttl, probe_flow
            )
            if churning:
                # Stamp the epoch each probe was actually forwarded
                # under (read after the send: the probe's own clock tick
                # may have fired the mutation it observed).
                observed = self._engine.epoch - epoch_base
                if epoch_lo is None:
                    epoch_lo = epoch_hi = observed
                else:
                    epoch_hi = observed
            if reply is None:
                hops.append(TraceHop(probe_ttl=ttl, address=None))
                stars += 1
                if stars >= _MAX_CONSECUTIVE_STARS:
                    break
                continue
            stars = 0
            is_destination = reply.kind is not ReplyKind.TIME_EXCEEDED
            address, reply_ip_ttl, node = (
                reply.source_ip, reply.reply_ip_ttl, reply.truth_router_id
            )
            stack = reply.quoted_stack
            lses = None if stack is None else _quote_entries(stack)
            if corrupting:
                address, reply_ip_ttl, lses, node = corrupt_reply(
                    faults, flow_id, destination, ttl,
                    address, reply_ip_ttl, lses, node,
                    hops[-1].lses if hops else None,
                )
            rtt = (
                (ttl + reply.truth_forward_hops) * _HOP_LATENCY_MS
                + _rtt_jitter(self._seed, flow_id, ttl)
            )
            hops.append(TraceHop(
                probe_ttl=ttl,
                address=address,
                rtt_ms=round(rtt, 3),
                reply_ip_ttl=reply_ip_ttl,
                lses=lses,
                destination_reply=is_destination,
                truth_router_id=node,
            ))
            if is_destination:
                reached = True
                break
        if corrupting:
            hops = corrupt_order(hops, faults, flow_id, destination)
        return Trace(
            vp=vp_name or f"vp{vp_router_id}",
            vp_router_id=vp_router_id,
            destination=destination,
            flow_id=flow_id,
            hops=tuple(hops),
            reached=reached,
            epoch_span=(
                (epoch_lo, epoch_hi) if epoch_lo is not None else None
            ),
        )

    def _probe_with_retries(
        self,
        vp_router_id: int,
        destination: IPv4Address,
        ttl: int,
        flow_id: int,
    ) -> ProbeReply | None:
        """Fire one probe, re-firing per the retry policy while silent.

        Each attempt redraws its loss fate in the fault injector (the
        ``attempt`` index keys the draw), so retries genuinely recover
        lost probes; a router that is ICMP-silent by configuration stays
        silent on every attempt, exactly as in the wild.
        """
        forward = self._engine.forward_probe
        self.accounting.probes += 1
        reply = forward(vp_router_id, destination, ttl, flow_id, attempt=0)
        attempt = 1
        while reply is None and attempt < self._retry.max_attempts:
            self.accounting.retries += 1
            self.accounting.backoff_ms += self._retry.backoff_ms(attempt)
            reply = forward(
                vp_router_id, destination, ttl, flow_id, attempt=attempt
            )
            attempt += 1
        if reply is None and self._retry.enabled:
            self.accounting.exhausted += 1
        return reply


# -- corruption application (decisions live in the fault injector) -----------


def corrupt_reply(
    faults: FaultInjector,
    flow_id: int,
    destination: IPv4Address,
    ttl: int,
    address: IPv4Address,
    reply_ip_ttl: int | None,
    lses: tuple[QuotedLse, ...] | None,
    node: int | None,
    prev_lses: tuple[QuotedLse, ...] | None,
) -> tuple[
    IPv4Address, int | None, tuple[QuotedLse, ...] | None, int | None
]:
    """Apply the per-hop corruption classes to one reply's fields.

    Takes and returns ``(address, reply_ip_ttl, lses, node)`` (``node``
    is the responder's ``truth_router_id``); ``prev_lses`` is the
    previous recorded hop's quote.  Both walkers call it before they
    build the hop, so a corrupted hop is built once.  Decisions are
    keyed on ``(flow, destination, probe TTL)``, so the schedule is
    independent of call order; a class draws only where it applies, so
    the counters equal the corruptions applied, and a class at rate 0
    costs no call.
    """
    plan = faults.plan
    if (
        prev_lses
        and plan.stale_replay_rate
        and faults.stale_replayed(flow_id, destination, ttl)
    ):
        lses = prev_lses
    if (
        lses
        and plan.stack_suppress_rate
        and faults.stack_suppressed(flow_id, destination, ttl)
    ):
        lses = None
    if (
        lses
        and len(lses) > 1
        and plan.stack_truncate_rate
        and faults.stack_truncated(flow_id, destination, ttl)
    ):
        # the kept top entry retains bottom_of_stack=False: exactly
        # the structural wound the sanitizer detects and repairs
        lses = (lses[0],)
    if lses and plan.label_garble_rate:
        top = lses[0]
        garbled = faults.garbled_label(flow_id, destination, ttl, top.label)
        if garbled is not None:
            lses = (
                QuotedLse(garbled, top.tc, top.bottom_of_stack, top.ttl),
            ) + lses[1:]
    if reply_ip_ttl is not None and plan.ttl_perturb_rate:
        reply_ip_ttl += faults.ttl_perturbation(flow_id, destination, ttl)
    if address is not None and plan.spoof_rate:
        spoofed = faults.spoofed_source(flow_id, destination, ttl)
        if spoofed is not None:
            address, node = IPv4Address(spoofed), None
    return address, reply_ip_ttl, lses, node


def corrupt_order(
    hops: list[TraceHop],
    faults: FaultInjector,
    flow_id: int,
    destination: IPv4Address,
) -> list[TraceHop]:
    """Duplicate and reorder recorded hops per the fault plan.

    Every hop draws its duplicate, then every adjacent pair of the
    result its swap; a class at rate 0 draws nothing.  Swaps happen in
    place: the caller hands over its list.
    """
    plan = faults.plan
    if plan.duplicate_hop_rate:
        duplicated: list[TraceHop] = []
        for hop in hops:
            duplicated.append(hop)
            if faults.hop_duplicated(flow_id, destination, hop.probe_ttl):
                duplicated.append(hop)
        hops = duplicated
    if plan.reorder_rate:
        i = 0
        while i < len(hops) - 1:
            if faults.hops_swapped(flow_id, destination, i):
                hops[i], hops[i + 1] = hops[i + 1], hops[i]
                i += 2
            else:
                i += 1
    return hops
