"""Differential property tests for the single-walk fast path.

The tentpole contract: recording one instrumented walk per flow and
synthesizing every probe's reply from it must be a *pure performance*
change.  Whatever the topology, TTL model, vendor mix, fault plan,
retry policy or churn schedule, the fast path must emit Traces
byte-identical to the reference per-probe walker
(``TntProber(fast_path=False)``), which records no walk and forwards
every probe hop by hop -- and it must leave the fault injector's
counters and the prober's retry accounting exactly as the reference
leaves them.  This suite is the check that the two agree.

One synthesizer is under test: the fused loop of ``TntProber.trace``.
It answers most probes from the recorded walk and walks the rest live
(inexact recordings, stale epochs, reconvergence transients), so the
suite drives it through every engine state: fault-free, every fault
class (loss, ICMP token buckets, blackout windows, each corruption
class), retries, churn, and faults under churn.  Each leg traces a
sequence of destinations from one prober and one injector, as
``shards.probe_vps`` does per vantage point, so token buckets, blackout
windows and per-attempt draws carry across traces; the campaign-shaped
test runs ``probe_vps`` itself.

Legs trace several hosts of one /24, so most of their walks are reused
across destinations.  The last tests pin each condition of that reuse:
the flow's ECMP choices, the topology epoch, and the fields a reused
walk redoes for its destination and flow.
"""

from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.campaign.shards as shards
from repro.campaign import ScaleCampaign
from repro.netsim.dynamics import ChurnPlan, NetworkDynamics
from repro.netsim.faults import FaultInjector, FaultPlan
from repro.netsim.forwarding import ForwardingEngine
from repro.netsim.igp import ShortestPaths
from repro.netsim.ldp import LdpState
from repro.netsim.topology import Network, RouterRole
from repro.netsim.tunnels import TunnelController
from repro.netsim.vendors import Vendor
from repro.probing.tnt import TntProber
from repro.probing.traceroute import derive_flow_id
from repro.topogen.synthetic import SyntheticPortfolio
from repro.util.retry import RetryPolicy

from tests.conftest import VP_ASN, TARGET_ASN, ChainNetwork, scaled_examples
from tests.test_properties import build_chain, chain_configs

churn_plans = st.builds(
    ChurnPlan,
    link_failure_rate=st.sampled_from([0.2, 0.6, 1.0]),
    lsp_churn_rate=st.sampled_from([0.0, 0.3]),
    sr_migration_rate=st.sampled_from([0.0, 0.3]),
    churn_window=st.sampled_from([4, 16]),
    reconvergence_probes=st.sampled_from([0, 6]),
    seed=st.integers(min_value=0, max_value=50),
)

#: moderate rates: high enough to fire on short chains, low enough that
#: probes still get through and traces keep interesting structure
_rate = st.sampled_from([0.0, 0.15, 0.5])

fault_plans = st.builds(
    FaultPlan,
    probe_loss=_rate,
    icmp_rate_limit=st.sampled_from([None, 0.05, 0.5]),
    icmp_burst=st.sampled_from([1, 2, 8]),
    blackout_rate=_rate,
    blackout_window=st.sampled_from([4, 16, 256]),
    stack_suppress_rate=_rate,
    stack_truncate_rate=_rate,
    label_garble_rate=_rate,
    stale_replay_rate=_rate,
    ttl_perturb_rate=_rate,
    spoof_rate=_rate,
    duplicate_hop_rate=_rate,
    reorder_rate=_rate,
    reroute_rate=_rate,
    seed=st.integers(min_value=0, max_value=50),
)

retry_policies = st.sampled_from(
    [RetryPolicy.none(), RetryPolicy(max_attempts=3)]
)

#: host offsets in the chain's /24: the destinations one leg traces, in
#: order (distinct destinations are distinct Paris flows)
host_sequences = st.lists(
    st.integers(min_value=1, max_value=250),
    min_size=1,
    max_size=5,
    unique=True,
)

#: per-flow ICMP response rates of the chain's routers
response_rates = st.sampled_from([1.0, 0.6])

#: the ``scale-lossy`` benchmark workload's plan and retry policy
#: (benchmarks/e2e/workloads.py)
SCALE_LOSSY_PLAN = FaultPlan(
    probe_loss=0.05,
    snmp_timeout_rate=0.1,
    label_garble_rate=0.02,
    duplicate_hop_rate=0.02,
    seed=1,
)
SCALE_LOSSY_RETRY = RetryPolicy(max_attempts=3)
#: empty token buckets and short blackout windows: retries of policed
#: and dark probes must spend tokens and draw windows as the reference
PINNED_BUCKETS_PLAN = FaultPlan(
    icmp_rate_limit=0.05,
    icmp_burst=1,
    blackout_rate=0.15,
    blackout_window=4,
    seed=0,
)

_PINNED_CHAIN = {
    "length": 6,
    "sr": True,
    "propagate": True,
    "rfc4950": True,
    "php": True,
    "vendor": Vendor.CISCO,
    "te": 1.0,
    "service": 1.0,
    "seed": 3,
}


def _legs(
    config, plan=None, retry=None, churn=None, hosts=(10,), response=1.0
):
    """The fast leg and the reference leg over the same chain.

    Each leg gets its own freshly built network, one fault injector
    (when a plan is given) and one prober, and traces the chain
    prefix's ``hosts`` in order; a churn plan adds a bypass link (so a
    link failure survives the bridge-safety check and actually fires)
    and its own :class:`NetworkDynamics`, so both legs see the
    identical seeded schedules on the identical probe clocks.  The
    chain's routers answer each flow with probability ``response``
    (below 1, some flows' probes expire silently, as behind ICMP rate
    limiting).  Returns per leg ``(traces, fault counters, retry
    accounting, walk stats)``.
    """
    legs = {}
    for fast in (False, True):
        chain = build_chain(config)
        for router in chain.routers:
            router.icmp_response_rate = response
        if churn is not None:
            if len(chain.routers) >= 3:
                chain.network.add_link(
                    chain.routers[0], chain.routers[-1], cost=90
                )
                chain.controller.invalidate()
                chain.engine.invalidate_caches()
            chain.engine.dynamics = NetworkDynamics(
                churn,
                chain.network,
                chain.engine,
                chain.controller,
                chain.domains.get(TARGET_ASN),
                TARGET_ASN,
                "diff",
            )
        injector = None
        if plan is not None:
            injector = FaultInjector(plan, "vp", TARGET_ASN, 0)
            chain.engine.faults = injector
        prober = TntProber(
            chain.engine, seed=config["seed"], retry=retry, fast_path=fast
        )
        traces = [
            prober.trace(
                chain.vp.router_id, chain.prefix.address_at(host), "vp"
            )
            for host in hosts
        ]
        legs[fast] = (
            traces,
            injector.counters.as_dict() if injector is not None else None,
            prober.accounting.as_dict(),
            chain.engine.stats,
        )
    return legs[True], legs[False]


def _assert_same(fast, reference):
    """Traces, fault counters and retry accounting all agree."""
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]
    assert fast[2] == reference[2]


@settings(max_examples=scaled_examples(60), deadline=None)
@given(config=chain_configs, hosts=host_sequences)
def test_fast_path_is_byte_identical(config, hosts):
    """Fault-free, retry-free: the fused synthesizer must reproduce the
    reference walker's Traces exactly."""
    fast, reference = _legs(config, hosts=hosts)
    _assert_same(fast, reference)
    fast_stats, ref_stats = fast[3], reference[3]
    # The fast leg must actually have recorded its walks; the reference
    # leg must never touch the recording machinery.
    recorded = fast_stats.walks_recorded + fast_stats.walks_fallback
    assert recorded == len(hosts)
    assert ref_stats.walks_recorded == ref_stats.probes_synthesized == 0


@settings(max_examples=scaled_examples(60), deadline=None)
@given(
    config=chain_configs,
    plan=fault_plans,
    retry=retry_policies,
    hosts=host_sequences,
    response=response_rates,
)
@example(
    config=_PINNED_CHAIN,
    plan=SCALE_LOSSY_PLAN,
    retry=SCALE_LOSSY_RETRY,
    hosts=[10, 11, 12, 13, 14],
    response=1.0,
)
@example(
    config=_PINNED_CHAIN,
    plan=PINNED_BUCKETS_PLAN,
    retry=SCALE_LOSSY_RETRY,
    hosts=[10, 11, 12, 13, 14],
    response=0.6,
)
def test_fast_path_is_byte_identical_under_faults(
    config, plan, retry, hosts, response
):
    """With an active fault plan, with or without retries, the fused
    loop must replay every per-attempt fault draw in reference order:
    corrupted traces, fault counters and retry tallies agree."""
    _assert_same(
        *_legs(
            config, plan=plan, retry=retry, hosts=hosts, response=response
        )
    )


@settings(max_examples=scaled_examples(30), deadline=None)
@given(config=chain_configs)
def test_retry_enabled_fault_free_is_byte_identical(config):
    """Regression: attempt 0 reuses the legacy draw key, so enabling a
    retry policy on a loss-free plane must not change a single byte --
    in either the fast path or the reference walker."""
    retry = RetryPolicy.default()
    fast, reference = _legs(config, retry=retry)
    _assert_same(fast, reference)

    plain_fast, plain_ref = _legs(config)
    assert fast[0] == plain_fast[0]
    assert reference[0] == plain_ref[0]


@settings(max_examples=scaled_examples(40), deadline=None)
@given(config=chain_configs, plan=churn_plans, hosts=host_sequences)
def test_fast_path_is_byte_identical_under_churn(config, plan, hosts):
    """Mid-trace topology mutation: the fused loop must walk stale
    epochs and transients live so that its Traces -- epoch spans,
    blackholed hops, rerouted tails and all -- match the reference
    walker byte for byte."""
    _assert_same(*_legs(config, churn=plan, hosts=hosts))


@settings(max_examples=scaled_examples(40), deadline=None)
@given(
    config=chain_configs,
    plan=fault_plans,
    churn=churn_plans,
    retry=retry_policies,
    hosts=host_sequences,
    response=response_rates,
)
def test_fast_path_is_byte_identical_under_faults_and_churn(
    config, plan, churn, retry, hosts, response
):
    """Faults and retries on a churning network: the fault clock, the
    churn clock and the stale-epoch fallbacks interleave per attempt
    exactly as in the reference."""
    _assert_same(
        *_legs(
            config,
            plan=plan,
            retry=retry,
            churn=churn,
            hosts=hosts,
            response=response,
        )
    )


def _campaign_probe(plan, retry, fast):
    """Probe a small synthetic AS through ``shards.probe_vps``: one
    prober and one ``("vp", as_id, vp_index)`` injector per VP."""
    runner = ScaleCampaign(
        portfolio=SyntheticPortfolio(1, seed=2),
        seed=2,
        vps_per_as=3,
        targets_per_as=8,
        fault_plan=plan,
        retry=retry,
    )
    context = shards.build_shard_context(runner, 1)
    traces, runs = [], []
    with pytest.MonkeyPatch.context() as patch:
        if not fast:
            patch.setattr(
                shards, "TntProber", partial(TntProber, fast_path=False)
            )
        shards.probe_vps(
            runner, context, range(len(context.vps)), traces.append, runs=runs
        )
    faults, retried = shards.probe_tallies(runs)
    return traces, faults.as_dict(), retried.as_dict()


@settings(max_examples=scaled_examples(8), deadline=None)
@given(plan=fault_plans, retry=retry_policies)
@example(plan=SCALE_LOSSY_PLAN, retry=SCALE_LOSSY_RETRY)
def test_campaign_probing_is_byte_identical(plan, retry):
    """Campaign-shaped: every VP's trace sequence and its fault and
    retry tallies are the reference walker's."""
    assert _campaign_probe(plan, retry, True) == _campaign_probe(
        plan, retry, False
    )


def test_no_blackout_draws_at_blackout_rate_zero(monkeypatch):
    """A plan without blackouts leaves ``blacked_out`` uncalled on both
    legs over lossy, retried traces; one with blackouts draws them."""
    calls = []
    original = FaultInjector.blacked_out

    def counting(self, router_id):
        calls.append(router_id)
        return original(self, router_id)

    monkeypatch.setattr(FaultInjector, "blacked_out", counting)
    lossy = FaultPlan(probe_loss=0.3, seed=1)
    fast, reference = _legs(
        _PINNED_CHAIN, plan=lossy, retry=SCALE_LOSSY_RETRY, hosts=[10, 11]
    )
    _assert_same(fast, reference)
    assert fast[1]["probes_lost"] > 0 and fast[2]["retries"] > 0
    assert calls == []
    _legs(_PINNED_CHAIN, plan=PINNED_BUCKETS_PLAN, hosts=[10])
    assert calls


# -- walk reuse across destinations -------------------------------------------


def _double_diamond():
    """VP -> a -> {b1, b2} -> c -> {d1, d2} -> z, every link equal cost:
    a flow makes two ECMP choices on its way to z's /24."""
    net = Network()
    vp = net.add_router("vp", VP_ASN, role=RouterRole.VANTAGE)
    a, b1, b2, c, d1, d2, z = (
        net.add_router(name, TARGET_ASN)
        for name in ("a", "b1", "b2", "c", "d1", "d2", "z")
    )
    net.add_link(vp, a)
    for left, middle, right in (
        (a, b1, c), (a, b2, c), (c, d1, z), (c, d2, z)
    ):
        net.add_link(left, middle)
        net.add_link(middle, right)
    prefix = net.announce_prefix(z, 24)
    igp = ShortestPaths(net)
    engine = ForwardingEngine(
        net, igp, TunnelController(net, igp, LdpState(net), {})
    )
    return engine, vp.router_id, prefix, (b1, b2, d1, d2)


def test_reuse_follows_ecmp_choices():
    """One VP's flows toward one router split over equal-cost branches:
    each trace must take its own flow's branches, as the reference
    does, so several stored walks serve the /24."""
    hosts = range(1, 41)
    legs = {}
    for fast in (False, True):
        engine, vp, prefix, branches = _double_diamond()
        prober = TntProber(engine, seed=1, fast_path=fast)
        traces = [
            prober.trace(vp, prefix.address_at(host), "vp") for host in hosts
        ]
        legs[fast] = (traces, engine.stats)
    (fast, stats), (reference, _) = legs[True], legs[False]
    assert fast == reference
    # every branch router answers some trace: the flows really split
    seen = {hop.truth_router_id for trace in fast for hop in trace.hops}
    assert {router.router_id for router in branches} <= seen
    fresh = stats.walks_recorded - stats.walks_reused
    assert fresh >= 2 and stats.walks_reused >= 2
    assert stats.walks_recorded + stats.walks_fallback == len(hosts)


def _bypassed_chain():
    """A five-router SR chain with a costly bypass from its first router
    to its last, so failing an inner link reroutes the /24."""
    chain = ChainNetwork()
    chain.network.add_link(chain.routers[0], chain.routers[-1], cost=90)
    chain.controller.invalidate()
    chain.engine.invalidate_caches()
    return chain


def test_topology_mutation_between_traces_forces_a_fresh_recording():
    """A link fails between two traces toward the same router: the
    second trace must walk the new path, as the reference does, from a
    fresh recording instead of the stored pre-failure walk."""
    legs = {}
    for fast in (False, True):
        chain = _bypassed_chain()
        prober = TntProber(chain.engine, seed=1, fast_path=fast)
        vp = chain.vp.router_id
        traces = [prober.trace(vp, chain.prefix.address_at(10), "vp")]
        inner = chain.routers[1].router_id, chain.routers[2].router_id
        chain.network.set_link_down(*inner)
        chain.controller.invalidate()
        chain.engine.invalidate_caches()
        chain.controller.converge()
        traces.append(prober.trace(vp, chain.prefix.address_at(11), "vp"))
        legs[fast] = (traces, chain.engine.stats)
    (fast, stats), (reference, _) = legs[True], legs[False]
    assert fast == reference
    # the detour skips the chain's middle routers
    assert len(fast[1].hops) < len(fast[0].hops)
    assert stats.walks_reused == 0
    assert stats.walks_recorded == 2


def test_reused_walk_equals_a_fresh_recording():
    """Field by field, a reused walk is what ``record_walk`` records for
    the new destination and flow: every host of the /24, with a router
    answering each flow at rate 0.6 on the path."""
    chain = ChainNetwork()
    chain.routers[2].icmp_response_rate = 0.6
    engine = chain.engine
    prober = TntProber(engine, seed=1)
    vp = chain.vp.router_id
    hosts = range(1, 255)
    passed = set()
    for host in hosts:
        dest = chain.prefix.address_at(host)
        flow_id = derive_flow_id(vp, dest)
        walk = prober._walk_for(vp, dest, flow_id)
        fresh = engine.record_walk(vp, dest, flow_id)
        assert walk.ok and walk == fresh
        assert walk.terminal_reply.source_ip == dest
        (ttl, _rate), = walk.rated
        passed.add(walk.expiry_by_ttl[ttl].rate_passed)
    # one recording served the whole /24, and the per-flow draw at the
    # rate-limited router came out both ways
    assert engine.stats.walks_reused == len(hosts) - 1
    assert passed == {True, False}
