"""The reply-corruption step as it was before it worked on fields.

Kept verbatim as the oracle of ``test_corrupt_differential.py``:
``ParisTraceroute._corrupt_hop`` and ``_corrupt_order`` rebuilt the hop
with ``with_annotation`` once per applied fault and called every class's
draw, whatever its rate.  The production
:func:`repro.probing.traceroute.corrupt_reply` and
:func:`~repro.probing.traceroute.corrupt_order` must give the same
fields, hops and counters.  Only the enclosing class changed; the
record and injector types are the production ones.
"""

from __future__ import annotations

from repro.netsim.addressing import IPv4Address
from repro.netsim.faults import FaultInjector
from repro.probing.records import QuotedLse, TraceHop


class OracleCorruption:
    """``ParisTraceroute``'s corruption staticmethods, verbatim."""

    @staticmethod
    def _corrupt_hop(
        hop: TraceHop,
        prev_lses: tuple[QuotedLse, ...] | None,
        faults: FaultInjector,
        flow_id: int,
        destination: IPv4Address,
    ) -> TraceHop:
        """Apply per-hop corruption faults to one recorded reply.

        Decisions are keyed on ``(flow, destination, probe TTL)`` so the
        schedule is independent of call order; only applicable faults
        draw, keeping counters equal to applied corruptions.
        """
        ttl = hop.probe_ttl
        if prev_lses and faults.stale_replayed(flow_id, destination, ttl):
            hop = hop.with_annotation(lses=prev_lses)
        if hop.lses and faults.stack_suppressed(flow_id, destination, ttl):
            hop = hop.with_annotation(lses=None)
        if (
            hop.lses
            and len(hop.lses) > 1
            and faults.stack_truncated(flow_id, destination, ttl)
        ):
            # the kept top entry retains bottom_of_stack=False: exactly
            # the structural wound the sanitizer detects and repairs
            hop = hop.with_annotation(lses=(hop.lses[0],))
        if hop.lses:
            garbled = faults.garbled_label(
                flow_id, destination, ttl, hop.lses[0].label
            )
            if garbled is not None:
                top = hop.lses[0]
                hop = hop.with_annotation(
                    lses=(
                        QuotedLse(
                            label=garbled,
                            tc=top.tc,
                            bottom_of_stack=top.bottom_of_stack,
                            ttl=top.ttl,
                        ),
                    )
                    + hop.lses[1:]
                )
        if hop.reply_ip_ttl is not None:
            delta = faults.ttl_perturbation(flow_id, destination, ttl)
            if delta:
                hop = hop.with_annotation(
                    reply_ip_ttl=hop.reply_ip_ttl + delta
                )
        if hop.responded:
            spoofed = faults.spoofed_source(flow_id, destination, ttl)
            if spoofed is not None:
                hop = hop.with_annotation(
                    address=IPv4Address(spoofed), truth_router_id=None
                )
        return hop

    @staticmethod
    def _corrupt_order(
        hops: list[TraceHop],
        faults: FaultInjector,
        flow_id: int,
        destination: IPv4Address,
    ) -> list[TraceHop]:
        """Duplicate and reorder recorded hops per the fault plan."""
        duplicated: list[TraceHop] = []
        for hop in hops:
            duplicated.append(hop)
            if faults.hop_duplicated(flow_id, destination, hop.probe_ttl):
                duplicated.append(hop)
        i = 0
        while i < len(duplicated) - 1:
            if faults.hops_swapped(flow_id, destination, i):
                duplicated[i], duplicated[i + 1] = (
                    duplicated[i + 1],
                    duplicated[i],
                )
                i += 2
            else:
                i += 1
        return duplicated
