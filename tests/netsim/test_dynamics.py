"""Unit tests for the network dynamics engine (churn, reconvergence).

Covers the plan template, the topology-level link down/up surface, SR
promote/demote round-trips, the scheduler's determinism and safety
invariants, quiesce, and the stale-walk guard: a probe answered after a
topology mutation must never be served from a pre-mutation recording.
"""

from __future__ import annotations

import pytest

from repro.netsim.dynamics import ChurnCounters, ChurnPlan, NetworkDynamics
from repro.netsim.forwarding import ForwardingEngine
from repro.netsim.igp import ShortestPaths
from repro.netsim.ldp import LdpState
from repro.netsim.sr import SegmentRoutingDomain, SrConfigError
from repro.netsim.topology import Network, RouterRole
from repro.netsim.tunnels import TunnelController, TunnelPolicy
from repro.probing.tnt import TntProber
from repro.probing.traceroute import derive_flow_id

from tests.conftest import ChainNetwork, TARGET_ASN, VP_ASN


def _ringed_chain(length: int = 4, **kwargs) -> ChainNetwork:
    """A chain with a bypass link so interior links are not bridges."""
    chain = ChainNetwork(length=length, **kwargs)
    chain.network.add_link(chain.routers[0], chain.routers[-1], cost=90)
    chain.controller.invalidate()
    chain.engine.invalidate_caches()
    return chain


def _dynamics(chain: ChainNetwork, plan: ChurnPlan) -> NetworkDynamics:
    scheduler = NetworkDynamics(
        plan,
        chain.network,
        chain.engine,
        chain.controller,
        chain.domains.get(TARGET_ASN),
        TARGET_ASN,
        "test",
    )
    chain.engine.dynamics = scheduler
    return scheduler


class TestChurnPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChurnPlan(link_failure_rate=1.5)
        with pytest.raises(ValueError):
            ChurnPlan(lsp_churn_rate=-0.1)
        with pytest.raises(ValueError):
            ChurnPlan(churn_window=0)
        with pytest.raises(ValueError):
            ChurnPlan(reconvergence_probes=-1)

    def test_none_is_inactive(self):
        plan = ChurnPlan.none()
        assert not plan.active
        assert plan.as_dict()["link_failure_rate"] == 0.0

    def test_intensity_mix(self):
        plan = ChurnPlan.intensity(0.4, seed=7)
        assert plan.active
        assert plan.link_failure_rate == 0.4
        assert plan.lsp_churn_rate == 0.2
        assert plan.sr_migration_rate == 0.1
        assert plan.seed == 7

    def test_as_dict_round_trips_fields(self):
        plan = ChurnPlan.intensity(0.2, seed=3)
        assert ChurnPlan(**plan.as_dict()) == plan


class TestLinkDownUp:
    def test_down_link_hidden_everywhere(self):
        chain = ChainNetwork(length=3)
        a, b = chain.routers[0].router_id, chain.routers[1].router_id
        before = chain.network.neighbors(a)
        chain.network.set_link_down(a, b)
        assert b not in chain.network.neighbors(a)
        assert a not in chain.network.neighbors(b)
        assert chain.network.link_between(a, b) is None
        assert chain.network.link_is_down(b, a)
        assert chain.network.down_links() == [(min(a, b), max(a, b))]
        graph = chain.network.to_graph()
        assert not graph.has_edge(a, b)
        chain.network.set_link_up(a, b)
        assert chain.network.neighbors(a) == before
        assert chain.network.link_between(a, b) is not None
        assert chain.network.down_links() == []

    def test_down_is_idempotent(self):
        chain = ChainNetwork(length=3)
        a, b = chain.routers[0].router_id, chain.routers[1].router_id
        chain.network.set_link_down(a, b)
        chain.network.set_link_down(b, a)
        assert len(chain.network.down_links()) == 1
        chain.network.set_link_up(a, b)
        chain.network.set_link_up(a, b)
        assert chain.network.down_links() == []

    def test_unknown_link_raises(self):
        chain = ChainNetwork(length=3)
        a = chain.routers[0].router_id
        c = chain.routers[2].router_id
        with pytest.raises(KeyError):
            chain.network.set_link_down(a, c)

    def test_failed_link_reroutes_probes(self):
        chain = _ringed_chain(length=4)
        vp = chain.vp.router_id
        a = chain.routers[0].router_id
        b = chain.routers[1].router_id
        direct = chain.engine.forward_probe(vp, chain.target, 3)
        assert direct is not None
        chain.network.set_link_down(a, b)
        chain.controller.invalidate()
        chain.engine.invalidate_caches()
        rerouted = chain.engine.forward_probe(vp, chain.target, 3)
        assert rerouted is not None
        # the bypass path visits different routers at this TTL
        assert rerouted.source_ip != direct.source_ip


class TestPromoteDemote:
    def _mapped_domain(self):
        net = Network()
        routers = [
            net.add_router(f"r{i}", TARGET_ASN) for i in range(3)
        ]
        net.add_link(routers[0], routers[1])
        net.add_link(routers[1], routers[2])
        domain = SegmentRoutingDomain(net, asn=TARGET_ASN, seed=1)
        domain.enroll(routers[0])
        index = domain.add_mapping_server_entry(routers[1])
        return net, domain, routers, index

    def test_promote_keeps_index(self):
        net, domain, routers, index = self._mapped_domain()
        config = domain.promote_mapping_entry(routers[1])
        assert config.sid_index == index
        assert domain.is_enrolled(routers[1].router_id)
        assert not domain.has_mapping_entry(routers[1].router_id)
        # the reused index must not burn the allocation cursor
        later = domain.enroll(routers[2])
        assert later.sid_index != index

    def test_demote_restores_entry(self):
        net, domain, routers, index = self._mapped_domain()
        domain.promote_mapping_entry(routers[1])
        restored = domain.demote_to_mapping_entry(routers[1])
        assert restored == index
        assert domain.has_mapping_entry(routers[1].router_id)
        assert not domain.is_enrolled(routers[1].router_id)
        assert not routers[1].sr_enabled

    def test_promote_without_entry_raises(self):
        net, domain, routers, _ = self._mapped_domain()
        with pytest.raises(SrConfigError):
            domain.promote_mapping_entry(routers[2])

    def test_demote_unenrolled_raises(self):
        net, domain, routers, _ = self._mapped_domain()
        with pytest.raises(SrConfigError):
            domain.demote_to_mapping_entry(routers[2])


class TestNetworkDynamics:
    def test_schedule_is_deterministic(self):
        plan = ChurnPlan(
            link_failure_rate=0.6, churn_window=8, reconvergence_probes=4
        )
        tallies = []
        for _ in range(2):
            chain = _ringed_chain(length=4)
            scheduler = _dynamics(chain, plan)
            for _ in range(100):
                scheduler.on_probe()
            tallies.append(
                (
                    scheduler.counters.as_dict(),
                    chain.network.down_links(),
                    chain.engine.epoch,
                )
            )
        assert tallies[0] == tallies[1]

    def test_bridges_never_fail(self):
        # a pure chain: every intra-AS link is a bridge, so even a
        # certain-failure draw must be refused (no partitions, ever)
        chain = ChainNetwork(length=4)
        plan = ChurnPlan(link_failure_rate=1.0, churn_window=4)
        scheduler = _dynamics(chain, plan)
        for _ in range(50):
            scheduler.on_probe()
        assert scheduler.counters.links_failed == 0
        assert chain.network.down_links() == []

    def test_certain_failure_fires_on_a_ring(self):
        chain = _ringed_chain(length=4)
        plan = ChurnPlan(
            link_failure_rate=1.0, churn_window=4, reconvergence_probes=8
        )
        scheduler = _dynamics(chain, plan)
        for _ in range(5):
            scheduler.on_probe()
        # exactly one failure: after it, the remaining links are bridges
        assert scheduler.counters.links_failed == 1
        assert len(chain.network.down_links()) == 1
        assert scheduler.in_transient()
        down = chain.network.down_links()[0]
        assert scheduler.blackholed(down[0])
        assert scheduler.blackholed(down[1])

    def test_transient_blackhole_drops_probes(self):
        # the pristine twin proves this TTL answers absent churn
        pristine = _ringed_chain(length=4)
        baseline = pristine.engine.forward_probe(
            pristine.vp.router_id, pristine.target, 3
        )
        assert baseline is not None
        chain = _ringed_chain(length=4)
        vp = chain.vp.router_id
        plan = ChurnPlan(
            link_failure_rate=1.0, churn_window=4, reconvergence_probes=64
        )
        scheduler = _dynamics(chain, plan)
        # the first tick opens window 0: the on-path failure blackholes
        # the failed link's endpoints for the reconvergence phase
        replies = [
            chain.engine.forward_probe(vp, chain.target, 3)
            for _ in range(6)
        ]
        assert scheduler.counters.links_failed == 1
        assert any(r is None for r in replies)

    def test_lsp_churn_and_migration_counters(self):
        net = Network()
        vp = net.add_router("vp", VP_ASN, role=RouterRole.VANTAGE)
        routers = []
        prev = vp
        for i in range(4):
            r = net.add_router(f"r{i}", TARGET_ASN)
            net.add_link(prev, r)
            routers.append(r)
            prev = r
        net.add_link(routers[0], routers[-1], cost=90)
        prefix = net.announce_prefix(routers[-1], 24)
        igp = ShortestPaths(net)
        ldp = LdpState(net, seed=1)
        domain = SegmentRoutingDomain(net, asn=TARGET_ASN, seed=1)
        for r in routers[:2]:
            domain.enroll(r)
        for r in routers[2:]:
            r.ldp_enabled = True
            domain.add_mapping_server_entry(r)
        controller = TunnelController(net, igp, ldp, {TARGET_ASN: domain})
        controller.set_policy(TunnelPolicy(asn=TARGET_ASN))
        engine = ForwardingEngine(net, igp, controller)
        plan = ChurnPlan(sr_migration_rate=1.0, churn_window=4)
        scheduler = NetworkDynamics(
            plan, net, engine, controller, domain, TARGET_ASN, "test"
        )
        engine.dynamics = scheduler
        for _ in range(10):
            scheduler.on_probe()
        assert scheduler.counters.sr_promotions >= 1
        promoted = scheduler.counters.sr_promotions
        mapped_before = sorted(
            r.router_id
            for r in routers
            if domain.has_mapping_entry(r.router_id)
        )
        scheduler.quiesce()
        mapped_after = sorted(
            r.router_id
            for r in routers
            if domain.has_mapping_entry(r.router_id)
        )
        assert len(mapped_after) == len(mapped_before) + promoted

    def test_quiesce_restores_pristine_topology(self):
        plan = ChurnPlan(
            link_failure_rate=0.8, churn_window=4, reconvergence_probes=4
        )
        pristine = _ringed_chain(length=4)
        chain = _ringed_chain(length=4)
        scheduler = _dynamics(chain, plan)
        for _ in range(200):
            scheduler.on_probe()
        assert scheduler.counters.links_failed >= 1
        scheduler.quiesce()
        assert chain.network.down_links() == []
        assert not scheduler.in_transient()
        for router in chain.routers:
            rid = router.router_id
            assert chain.network.neighbors(rid) == pristine.network.neighbors(
                rid
            )
        # post-quiesce forwarding matches a never-churned network
        chain.engine.dynamics = None
        a = chain.engine.forward_probe(chain.vp.router_id, chain.target, 3)
        b = pristine.engine.forward_probe(
            pristine.vp.router_id, pristine.target, 3
        )
        assert (a is None) == (b is None)
        if a is not None:
            assert a.source_ip == b.source_ip

    def test_counters_total(self):
        counters = ChurnCounters(
            links_failed=2, links_repaired=1, lsps_torn_down=3,
            sr_promotions=1, transient_probes=9,
        )
        assert counters.total_events() == 7
        assert counters.as_dict()["transient_probes"] == 9


class TestStaleWalkGuard:
    """The satellite-1 regression: a probe forwarded after a topology
    mutation must never be answered from a pre-mutation recording."""

    def _diamond(self):
        """vp -> a -> b -> e (cost 20) with a detour a -> c -> e (60)."""
        net = Network()
        vp = net.add_router("vp", VP_ASN, role=RouterRole.VANTAGE)
        a = net.add_router("a", TARGET_ASN)
        b = net.add_router("b", TARGET_ASN)
        c = net.add_router("c", TARGET_ASN)
        e = net.add_router("e", TARGET_ASN)
        net.add_link(vp, a)
        net.add_link(a, b)
        net.add_link(b, e)
        net.add_link(a, c, cost=30)
        net.add_link(c, e, cost=30)
        prefix = net.announce_prefix(e, 24)
        igp = ShortestPaths(net)
        ldp = LdpState(net, seed=1)
        controller = TunnelController(net, igp, ldp, {})
        controller.set_policy(TunnelPolicy(asn=TARGET_ASN))
        engine = ForwardingEngine(net, igp, controller)
        return net, controller, engine, vp, a, b, c, prefix.address_at(7)

    @staticmethod
    def _flap_once(net, controller, engine, a, b, after: int):
        """Scripted scheduler: ``a``-``b`` goes down at clock tick
        ``after``."""

        class _FlapOnce:
            def __init__(self) -> None:
                self.remaining = after

            def on_probe(self) -> None:
                self.remaining -= 1
                if self.remaining == 0:
                    net.set_link_down(a.router_id, b.router_id)
                    controller.invalidate()
                    engine.invalidate_caches()

            def in_transient(self) -> bool:
                return False

            def blackholed(self, node: int) -> bool:
                return False

            def microloops(self, node: int) -> bool:
                return False

        return _FlapOnce()

    def test_post_invalidation_probe_never_reuses_recording(self):
        net, controller, engine, vp, a, b, c, target = self._diamond()
        flow = derive_flow_id(vp.router_id, target)
        recording = engine.record_walk(vp.router_id, target, flow)
        assert recording.ok
        # before the change, the recording answers TTL 2 from b
        assert recording.expiry_by_ttl[2].node == b.router_id

        # the preferred path loses its middle link at the TTL-2 probe's
        # clock tick, after the trace recorded its walk
        engine.dynamics = self._flap_once(net, controller, engine, a, b, 2)
        trace = TntProber(engine, seed=5).trace(vp.router_id, target, "vp")
        assert engine.stats.probes_synthesized >= 1  # TTL 1, pre-change
        assert engine.stats.stale_walk_fallbacks == 1
        after = next(h for h in trace.hops if h.probe_ttl == 2)
        assert after.address is not None
        # the reply reflects the post-change world (detour via c), not
        # the recording's pre-change responder
        assert after.truth_router_id == c.router_id
        engine.dynamics = None
        live = engine.forward_probe(vp.router_id, target, 2, flow)
        assert live is not None
        assert after.address == live.source_ip

    def test_walk_for_rerecords_after_mutation(self):
        """End-to-end: a trace spanning a mid-flight mutation carries a
        widened epoch span and its tail reflects the new topology."""
        net, controller, engine, vp, a, b, c, target = self._diamond()
        engine.dynamics = self._flap_once(net, controller, engine, a, b, 2)
        prober = TntProber(engine, seed=5)
        trace = prober.trace(vp.router_id, target, vp_name="vp")
        assert trace.epoch_span is not None
        assert trace.crosses_epochs
        # hop 2 was probed after the flap: it must show the detour,
        # never the recording's pre-change answer
        hop2 = next(h for h in trace.hops if h.probe_ttl == 2)
        assert hop2.truth_router_id == c.router_id
        assert engine.stats.walks_recorded >= 2
