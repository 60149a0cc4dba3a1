"""Differential suite: the shared corruption step ≡ its per-hop oracle.

Both walkers corrupt a reply through
:func:`~repro.probing.traceroute.corrupt_reply`, on the reply's fields
before the hop is built, and reorder the trace through
:func:`~repro.probing.traceroute.corrupt_order`; a class at rate 0 costs
no call.  The staticmethods they replaced, which rebuilt the hop once
per applied fault, are kept verbatim in ``corrupt_oracle.py``.  Over
drawn traces -- silent hops, hops without LSEs, single-entry stacks,
destination replies -- and plans with every corruption class on (or
some off), both must give the same hops and leave the same counters.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.netsim.addressing import IPv4Address
from repro.netsim.faults import FaultInjector, FaultPlan
from repro.probing.records import QuotedLse, TraceHop
from repro.probing.traceroute import corrupt_order, corrupt_reply

from tests.conftest import scaled_examples
from tests.probing.corrupt_oracle import OracleCorruption

_on = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.just(1.0),
)


def _plans(rates):
    return st.builds(
        FaultPlan,
        stack_suppress_rate=rates,
        stack_truncate_rate=rates,
        label_garble_rate=rates,
        stale_replay_rate=rates,
        ttl_perturb_rate=rates,
        spoof_rate=rates,
        duplicate_hop_rate=rates,
        reorder_rate=rates,
        reroute_rate=rates,
        seed=st.integers(min_value=0, max_value=1000),
    )


#: every corruption class on, or a mix with some classes off
plans = st.one_of(_plans(_on), _plans(st.sampled_from((0.0, 0.3, 1.0))))

_lses = st.builds(
    QuotedLse,
    label=st.integers(min_value=0, max_value=2**20 - 1),
    tc=st.integers(min_value=0, max_value=7),
    bottom_of_stack=st.booleans(),
    ttl=st.integers(min_value=0, max_value=255),
)

#: no extension, an empty one, a single entry, or a deeper stack
stacks = st.one_of(
    st.none(),
    st.just(()),
    st.tuples(_lses),
    st.lists(_lses, min_size=2, max_size=4).map(tuple),
)

_addresses = st.one_of(
    st.none(),
    st.sampled_from((0, 2**32 - 1)).map(IPv4Address),
    st.integers(0, 2**32 - 1).map(IPv4Address),
)

hops = st.builds(
    TraceHop,
    probe_ttl=st.integers(min_value=1, max_value=40),
    address=_addresses,
    rtt_ms=st.one_of(st.none(), st.floats(0.0, 100.0)),
    reply_ip_ttl=st.one_of(st.none(), st.integers(0, 255)),
    lses=stacks,
    destination_reply=st.booleans(),
    truth_router_id=st.one_of(st.none(), st.integers(0, 500)),
    truth_asn=st.one_of(st.none(), st.integers(1, 65_000)),
)

_EVERY_CLASS = FaultPlan(
    stack_suppress_rate=0.3,
    stack_truncate_rate=0.3,
    label_garble_rate=0.5,
    stale_replay_rate=0.3,
    ttl_perturb_rate=0.5,
    spoof_rate=0.3,
    duplicate_hop_rate=0.3,
    reorder_rate=0.3,
    reroute_rate=0.3,
    seed=7,
)
_LSE = QuotedLse(16_005, 0, False, 254)
_BOTTOM = QuotedLse(24_001, 0, True, 253)


@settings(max_examples=scaled_examples(80), deadline=None)
@given(
    plan=plans,
    flow_id=st.integers(min_value=0, max_value=2**16 - 1),
    destination=st.integers(0, 2**32 - 1).map(IPv4Address),
    trace=st.lists(hops, min_size=1, max_size=12),
)
@example(
    plan=_EVERY_CLASS,
    flow_id=4242,
    destination=IPv4Address(0x0A000A0A),
    trace=[
        TraceHop(ttl, IPv4Address(0x0A000000 + ttl), 1.0, 250 - ttl,
                 stack, False, ttl == 12, ttl)
        for ttl, stack in enumerate(
            (None, (_BOTTOM,), (_LSE, _BOTTOM), (_LSE, _LSE, _BOTTOM), ())
            * 2 + (None, None),
            start=1,
        )
    ]
    + [TraceHop(13, None)],
)
def test_corruption_matches_the_oracle(plan, flow_id, destination, trace):
    """Per hop, the corrupted fields are the oracle's hop's; per trace,
    the duplicated and reordered hops are the oracle's; the counters
    agree."""
    faults = FaultInjector(plan, "vp", 1, 0)
    oracle_faults = FaultInjector(plan, "vp", 1, 0)
    recorded: list[TraceHop] = []
    expected: list[TraceHop] = []
    for hop in trace:
        want = OracleCorruption._corrupt_hop(
            hop,
            expected[-1].lses if expected else None,
            oracle_faults,
            flow_id,
            destination,
        )
        address, reply_ip_ttl, lses, node = corrupt_reply(
            faults, flow_id, destination, hop.probe_ttl,
            hop.address, hop.reply_ip_ttl, hop.lses, hop.truth_router_id,
            recorded[-1].lses if recorded else None,
        )
        assert (address, reply_ip_ttl, lses, node) == (
            want.address, want.reply_ip_ttl, want.lses, want.truth_router_id
        )
        recorded.append(hop.with_annotation(
            address=address,
            reply_ip_ttl=reply_ip_ttl,
            lses=lses,
            truth_router_id=node,
        ))
        expected.append(want)
    assert recorded == expected
    assert corrupt_order(
        recorded, faults, flow_id, destination
    ) == OracleCorruption._corrupt_order(
        expected, oracle_faults, flow_id, destination
    )
    assert faults.counters == oracle_faults.counters
