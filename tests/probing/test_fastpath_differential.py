"""Differential property tests for the single-walk fast path.

The tentpole contract: recording one instrumented walk per flow and
synthesizing every probe's reply from it must be a *pure performance*
change.  Whatever the topology, TTL model, vendor mix, fault plan or
retry policy, the fast path must emit Traces byte-identical to the
reference per-probe walker (``TntProber(fast_path=False)``), which
records no walk and forwards every probe hop by hop.  This suite is the
check that the two agree.

Three code paths are exercised: the fused single-pass synthesizer
(fault-free, retry-free), the generic cached-walk prober (faults or
retries active), and the automatic fallback to the reference walker
(walk not exact).
"""

from hypothesis import given, settings, strategies as st

from repro.netsim.dynamics import ChurnPlan, NetworkDynamics
from repro.netsim.faults import FaultInjector, FaultPlan
from repro.probing.tnt import TntProber
from repro.util.retry import RetryPolicy

from tests.conftest import TARGET_ASN, scaled_examples
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


def _trace_pair(config, plan=None, retry=None):
    """One fast-path trace and one reference trace of the same chain.

    Each leg gets its own freshly built network (and fault injector, if
    any) so no state crosses over; the reference leg walks every probe
    through the engine and records nothing.
    """
    traces = {}
    for fast in (False, True):
        chain = build_chain(config)
        if plan is not None:
            chain.engine.faults = FaultInjector(plan, config["seed"])
        prober = TntProber(
            chain.engine, seed=config["seed"], retry=retry, fast_path=fast
        )
        traces[fast] = (
            prober.trace(chain.vp.router_id, chain.target, vp_name="vp"),
            chain.engine.stats,
        )
    return traces[True], traces[False]


@settings(max_examples=scaled_examples(60), deadline=None)
@given(config=chain_configs)
def test_fast_path_is_byte_identical(config):
    """Fault-free, retry-free: the fused synthesizer (or its fallback)
    must reproduce the reference walker's Trace exactly."""
    (fast_trace, fast_stats), (ref_trace, ref_stats) = _trace_pair(config)
    assert fast_trace == ref_trace
    # The fast leg must actually have recorded a walk (fused or generic);
    # the reference leg must never touch the recording machinery.
    assert fast_stats.walks_recorded + fast_stats.walks_fallback >= 1
    assert ref_stats.walks_recorded == ref_stats.probes_synthesized == 0


@settings(max_examples=scaled_examples(60), deadline=None)
@given(config=chain_configs, plan=fault_plans)
def test_fast_path_is_byte_identical_under_faults(config, plan):
    """With an active fault plan the fused path steps aside, but the
    cached-walk prober must still replay every per-probe fault draw in
    reference order -- corrupted traces agree byte for byte."""
    (fast_trace, _), (ref_trace, _) = _trace_pair(config, plan=plan)
    assert fast_trace == ref_trace


@settings(max_examples=scaled_examples(30), deadline=None)
@given(config=chain_configs)
def test_retry_enabled_fault_free_is_byte_identical(config):
    """Regression: attempt 0 reuses the legacy draw key, so enabling a
    retry policy on a loss-free plane must not change a single byte --
    in either the fast path or the reference walker."""
    retry = RetryPolicy.default()
    (fast_trace, _), (ref_trace, _) = _trace_pair(config, retry=retry)
    assert fast_trace == ref_trace

    (plain_fast, _), (plain_ref, _) = _trace_pair(config)
    assert fast_trace == plain_fast
    assert ref_trace == plain_ref


def _churn_trace_pair(config, plan):
    """Trace the same churning chain with and without the fast path.

    Each leg gets a fresh chain plus its own :class:`NetworkDynamics`
    built from the same plan, so both see the identical seeded mutation
    schedule on the identical virtual probe clock.  A bypass link turns
    the chain into a ring so link failures survive the bridge-safety
    check and actually fire.
    """
    traces = {}
    for fast in (False, True):
        chain = build_chain(config)
        if len(chain.routers) >= 3:
            chain.network.add_link(
                chain.routers[0], chain.routers[-1], cost=90
            )
            chain.controller.invalidate()
            chain.engine.invalidate_caches()
        chain.engine.dynamics = NetworkDynamics(
            plan,
            chain.network,
            chain.engine,
            chain.controller,
            chain.domains.get(TARGET_ASN),
            TARGET_ASN,
            "diff",
        )
        prober = TntProber(
            chain.engine, seed=config["seed"], retry=None, fast_path=fast
        )
        traces[fast] = prober.trace(
            chain.vp.router_id, chain.target, vp_name="vp"
        )
    return traces[True], traces[False]


@settings(max_examples=scaled_examples(40), deadline=None)
@given(config=chain_configs, plan=churn_plans)
def test_fast_path_is_byte_identical_under_churn(config, plan):
    """Mid-trace topology mutation: the cached-walk prober must fall
    back (stale epochs, transients) so that its Trace -- epoch span,
    blackholed hops, rerouted tails and all -- matches the reference
    walker byte for byte."""
    fast_trace, ref_trace = _churn_trace_pair(config, plan)
    assert fast_trace == ref_trace
