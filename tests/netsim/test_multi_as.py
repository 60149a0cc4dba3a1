"""Tests for packets crossing *several* MPLS-enabled ASes.

The campaign's transit chains are plain IP, so these tests build the
harder case explicitly: VP -> AS1 (SR) -> AS2 (LDP) -> destination.
The packet must be pushed at AS1's border, popped at AS1's egress,
re-pushed at AS2's border, and popped again -- with each AS's labels
confined to its own region of the trace.
"""

import pytest

from repro.core.detector import ArestDetector
from repro.core.flags import Flag
from repro.netsim.forwarding import ForwardingEngine, ReplyKind
from repro.netsim.igp import ShortestPaths
from repro.netsim.ldp import LdpState
from repro.netsim.sr import SegmentRoutingDomain
from repro.netsim.topology import Network, RouterRole
from repro.netsim.tunnels import TunnelController, TunnelPolicy
from repro.netsim.vendors import Vendor
from repro.probing.tnt import TntProber

AS1, AS2 = 65_101, 65_102


@pytest.fixture(scope="module")
def two_as_world():
    net = Network()
    vp = net.add_router("vp", asn=64_900, role=RouterRole.VANTAGE)
    prev = vp
    as1_routers, as2_routers = [], []
    for i in range(4):
        r = net.add_router(f"a{i}", asn=AS1, vendor=Vendor.CISCO)
        net.add_link(prev, r)
        as1_routers.append(r)
        prev = r
    for i in range(4):
        r = net.add_router(
            f"b{i}", asn=AS2, vendor=Vendor.JUNIPER, ldp_enabled=True
        )
        net.add_link(prev, r)
        as2_routers.append(r)
        prev = r
    prefix = net.announce_prefix(as2_routers[-1], 24)

    igp = ShortestPaths(net)
    ldp = LdpState(net, seed=3)
    sr = SegmentRoutingDomain(net, asn=AS1, seed=3)
    for r in as1_routers:
        sr.enroll(r)
    controller = TunnelController(net, igp, ldp, {AS1: sr})
    controller.set_policy(TunnelPolicy(asn=AS1))
    controller.set_policy(TunnelPolicy(asn=AS2))
    engine = ForwardingEngine(net, igp, controller)
    target = prefix.address_at(3)
    return net, vp, target, engine


class TestTwoAsTraversal:
    def test_delivery(self, two_as_world):
        net, vp, target, engine = two_as_world
        reply = engine.forward_probe(vp.router_id, target, 64)
        assert reply is not None
        assert reply.kind is ReplyKind.DEST_UNREACHABLE

    def test_two_disjoint_tunnels(self, two_as_world):
        net, vp, target, engine = two_as_world
        truth = engine.truth_walk(vp.router_id, target)
        pushers = [t.router_id for t in truth if t.pushed]
        assert len(pushers) == 2  # one push per AS border
        pusher_asns = {net.router(rid).asn for rid in pushers}
        assert pusher_asns == {AS1, AS2}

    def test_labels_confined_to_their_as(self, two_as_world):
        net, vp, target, engine = two_as_world
        truth = engine.truth_walk(vp.router_id, target)
        for hop in truth:
            if not hop.received_planes:
                continue
            if hop.asn == AS1:
                assert hop.received_planes[0] == "sr"
            elif hop.asn == AS2:
                assert hop.received_planes[0] == "ldp"

    def test_trace_shows_both_tunnel_flavours(self, two_as_world):
        net, vp, target, engine = two_as_world
        trace = TntProber(engine, seed=2).trace(vp.router_id, target)
        as1_labels = [
            h.top_label
            for h in trace.labeled_hops()
            if h.truth_asn == AS1
        ]
        as2_labels = [
            h.top_label
            for h in trace.labeled_hops()
            if h.truth_asn == AS2
        ]
        assert len(set(as1_labels)) == 1  # SR: one persistent label
        assert len(set(as2_labels)) == len(as2_labels)  # LDP: all differ

    def test_detector_flags_only_the_sr_as(self, two_as_world):
        net, vp, target, engine = two_as_world
        trace = TntProber(engine, seed=2).trace(vp.router_id, target)
        detector = ArestDetector()

        def hops_of(asn):
            return {i for i, h in enumerate(trace.hops) if h.truth_asn == asn}

        as1_segments = detector.detect(trace, {}, hop_mask=hops_of(AS1))
        as2_segments = detector.detect(trace, {}, hop_mask=hops_of(AS2))
        assert [s.flag for s in as1_segments] == [Flag.CO]
        assert as2_segments == []

    def test_cross_as_run_never_forms(self, two_as_world):
        """Even unfiltered, the AS boundary breaks label runs: AS1's SR
        label and AS2's first LDP label never sequence-match by luck in
        this fixture, and the unlabeled inter-AS hop separates them."""
        net, vp, target, engine = two_as_world
        trace = TntProber(engine, seed=2).trace(vp.router_id, target)
        detector = ArestDetector()
        segments = detector.detect(trace, {})
        for segment in segments:
            asns = {
                trace.hops[i].truth_asn for i in segment.hop_indices
            }
            assert len(asns) == 1
