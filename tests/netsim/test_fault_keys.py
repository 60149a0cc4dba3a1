"""Differential suite: every fault draw hashes its oracle key text.

:class:`~repro.netsim.faults.FaultInjector` builds the constant head of
each draw kind's key (seed, kind, scope) once and a destination's text
once per run of draws naming it, and hashes only that text.  The
injector it replaced, kept verbatim in ``faults_oracle.py``, calls
``unit_hash``/``int_hash`` on each draw's parts.  Both must make every
decision alike, return the same garbled labels, TTL deltas, spoofed
addresses and reroutes, and end with the same counters -- so a change to
any draw's parts, their order or the separator fails here.  The draws
cover scopes of ints, strings and both, destinations given as addresses
and as strings (the all-zero and all-ones addresses included), both
loss kinds, and two destinations interleaved so the per-destination
text is replaced and reused.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.netsim.addressing import IPv4Address
from repro.netsim.faults import FaultInjector, FaultPlan
from repro.netsim.mpls import FIRST_UNRESERVED_LABEL, MAX_LABEL
from repro.util.determinism import int_hash

from tests.conftest import scaled_examples
from tests.netsim.faults_oracle import OracleFaultInjector

#: a rate strictly between 0 and 1 (decisions that depend on the key),
#: or 1 (every draw fires, so the value draws run on each call)
_rates = st.one_of(
    st.floats(
        min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
    ),
    st.just(1.0),
)

plans = st.builds(
    FaultPlan,
    probe_loss=_rates,
    blackout_rate=_rates,
    blackout_window=st.integers(min_value=1, max_value=8),
    snmp_timeout_rate=_rates,
    stack_suppress_rate=_rates,
    stack_truncate_rate=_rates,
    label_garble_rate=_rates,
    stale_replay_rate=_rates,
    ttl_perturb_rate=_rates,
    spoof_rate=_rates,
    duplicate_hop_rate=_rates,
    reorder_rate=_rates,
    reroute_rate=_rates,
    seed=st.integers(min_value=-(2**40), max_value=2**40),
)

scopes = st.lists(
    st.one_of(st.integers(min_value=-(2**31), max_value=2**31), st.text()),
    max_size=4,
).map(tuple)

_addresses = st.one_of(
    st.sampled_from((0, 2**32 - 1)), st.integers(0, 2**32 - 1)
).map(IPv4Address)

#: a destination as the probe plane passes it, or as its dotted text
destinations = st.one_of(_addresses, _addresses.map(str))

#: one round of draws: flow, TTL, attempt, swap position, loss kind, a
#: top label (None: the label the garble would pick, so it must step
#: past it), the reroute's max TTL and a router id
rounds = st.tuples(
    st.integers(min_value=0, max_value=2**16 - 1),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=80),
    st.sampled_from(("probe", "ping")),
    st.one_of(
        st.none(),
        st.integers(min_value=FIRST_UNRESERVED_LABEL, max_value=MAX_LABEL),
    ),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=5000),
)


def _draws(injector, plan, scope, dest, args):
    """Every draw of one round, in a fixed order."""
    flow, ttl, attempt, position, kind, label, max_ttl, router = args
    if label is None:
        span = MAX_LABEL + 1 - FIRST_UNRESERVED_LABEL
        label = FIRST_UNRESERVED_LABEL + int_hash(
            plan.seed, "garble-value", *scope, flow, dest, ttl
        ) % span
    return (
        injector.probe_lost(flow, dest, ttl, attempt, kind),
        injector.blacked_out(router),
        injector.snmp_timeout(router),
        injector.reveal_lost(flow, (router, ttl), attempt),
        injector.stack_suppressed(flow, dest, ttl),
        injector.stack_truncated(flow, dest, ttl),
        injector.garbled_label(flow, dest, ttl, label),
        injector.stale_replayed(flow, dest, ttl),
        injector.ttl_perturbation(flow, dest, ttl),
        injector.spoofed_source(flow, dest, ttl),
        injector.hop_duplicated(flow, dest, ttl),
        injector.hops_swapped(flow, dest, position),
        injector.rerouted_flow(flow, dest, max_ttl),
    )


_HALF = FaultPlan(
    probe_loss=0.5,
    blackout_rate=0.5,
    snmp_timeout_rate=0.5,
    stack_suppress_rate=0.5,
    stack_truncate_rate=0.5,
    label_garble_rate=0.5,
    stale_replay_rate=0.5,
    ttl_perturb_rate=0.5,
    spoof_rate=0.5,
    duplicate_hop_rate=0.5,
    reorder_rate=0.5,
    reroute_rate=0.5,
    seed=1,
)


@settings(max_examples=scaled_examples(60), deadline=None)
@given(
    plan=plans,
    scope=scopes,
    dests=st.tuples(destinations, destinations),
    draws=st.lists(rounds, min_size=1, max_size=12),
)
@example(
    plan=_HALF,
    scope=("vp", 46, 0),
    dests=(IPv4Address(0), "255.255.255.255"),
    draws=[
        (flow, ttl, ttl % 3, ttl, "probe", None, 30, flow)
        for flow in (0, 4242, 65535)
        for ttl in range(1, 9)
    ],
)
def test_every_draw_matches_the_oracle(plan, scope, dests, draws):
    """Interleaved over two destinations, each draw returns the oracle's
    decision or value, and both injectors end with equal counters."""
    injector = FaultInjector(plan, *scope)
    oracle = OracleFaultInjector(plan, *scope)
    for i, args in enumerate(draws):
        dest = dests[i % 2]
        assert _draws(injector, plan, scope, dest, args) == _draws(
            oracle, plan, scope, dest, args
        )
        injector.on_probe()
        oracle.on_probe()
    assert injector.counters == oracle.counters
    assert injector.clock == oracle.clock
