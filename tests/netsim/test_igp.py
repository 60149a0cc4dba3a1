"""Tests for the link-state IGP, with networkx as the SPF oracle."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.igp import NoRouteError, ShortestPaths
from repro.netsim.topology import Network
from repro.util.determinism import DeterministicRng


def build_ring(n: int = 6, chord: bool = True):
    net = Network()
    routers = [net.add_router(f"r{i}", asn=1) for i in range(n)]
    for i in range(n):
        net.add_link(routers[i], routers[(i + 1) % n], cost=10)
    if chord:
        net.add_link(routers[0], routers[n // 2], cost=15)
    return net, routers


class TestShortestPaths:
    def test_distance_matches_networkx(self):
        net, routers = build_ring()
        igp = ShortestPaths(net)
        g = net.to_graph()
        for src in routers:
            for dst in routers:
                if src is dst:
                    continue
                expected = nx.shortest_path_length(
                    g, src.router_id, dst.router_id, weight="weight"
                )
                assert igp.distance(src.router_id, dst.router_id) == expected

    def test_path_endpoints(self):
        net, routers = build_ring()
        igp = ShortestPaths(net)
        path = igp.path(routers[0].router_id, routers[3].router_id)
        assert path[0] == routers[0].router_id
        assert path[-1] == routers[3].router_id

    def test_path_is_connected_and_optimal(self):
        net, routers = build_ring()
        igp = ShortestPaths(net)
        path = igp.path(routers[1].router_id, routers[4].router_id)
        cost = 0
        for a, b in zip(path, path[1:]):
            link = net.link_between(a, b)
            assert link is not None
            cost += link.cost
        assert cost == igp.distance(routers[1].router_id, routers[4].router_id)

    def test_next_hop_deterministic_ecmp(self):
        # Square: two equal-cost paths 0->1->2 and 0->3->2; the tie must
        # break to the lower router id consistently.
        net = Network()
        r = [net.add_router(f"r{i}", asn=1) for i in range(4)]
        net.add_link(r[0], r[1], cost=10)
        net.add_link(r[1], r[2], cost=10)
        net.add_link(r[0], r[3], cost=10)
        net.add_link(r[3], r[2], cost=10)
        igp = ShortestPaths(net)
        hops = igp.ecmp_next_hops(r[0].router_id, r[2].router_id)
        assert hops == sorted(hops)
        assert igp.next_hop(r[0].router_id, r[2].router_id) == hops[0]

    def test_no_route(self):
        net = Network()
        a = net.add_router("a", asn=1)
        b = net.add_router("b", asn=1)  # disconnected
        igp = ShortestPaths(net)
        assert not igp.reachable(a.router_id, b.router_id)
        with pytest.raises(NoRouteError):
            igp.distance(a.router_id, b.router_id)
        with pytest.raises(NoRouteError):
            igp.next_hop(a.router_id, b.router_id)

    def test_next_hop_self_rejected(self):
        net, routers = build_ring()
        igp = ShortestPaths(net)
        with pytest.raises(ValueError):
            igp.next_hop(routers[0].router_id, routers[0].router_id)

    def test_distance_zero_to_self(self):
        net, routers = build_ring()
        igp = ShortestPaths(net)
        assert igp.distance(routers[0].router_id, routers[0].router_id) == 0

    def test_distances_from_symmetric(self):
        net, routers = build_ring()
        igp = ShortestPaths(net)
        d = igp.distances_from(routers[2].router_id)
        for dst, distance in d.items():
            assert igp.distance(dst, routers[2].router_id) == distance

    def test_invalidate_clears_cache(self):
        net, routers = build_ring(chord=False)
        igp = ShortestPaths(net)
        pairs = [
            (src.router_id, dst.router_id)
            for src in routers
            for dst in routers
            if src is not dst
        ]
        # Warm every derived cache, not just the SPF distance fields.
        for src, dst in pairs:
            igp.ecmp_next_hops(src, dst)
            igp.hop_count(src, dst)
        before = igp.distance(routers[0].router_id, routers[3].router_id)
        net.add_link(routers[0], routers[3], cost=1)
        igp.invalidate()
        after = igp.distance(routers[0].router_id, routers[3].router_id)
        assert after < before
        fresh = ShortestPaths(net)
        for src, dst in pairs:
            assert igp.ecmp_next_hops(src, dst) == fresh.ecmp_next_hops(
                src, dst
            )
            assert igp.hop_count(src, dst) == fresh.hop_count(src, dst)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=12),
    extra=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_spf_matches_networkx_on_random_graphs(n, extra, seed):
    """Property: our Dijkstra equals networkx on random connected graphs."""
    rng = DeterministicRng("igp-prop", seed)
    net = Network()
    routers = [net.add_router(f"r{i}", asn=1) for i in range(n)]
    for i in range(1, n):  # random spanning tree keeps it connected
        parent = rng.randrange(i)
        net.add_link(routers[i], routers[parent], cost=rng.choice([1, 5, 10]))
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        if net.link_between(routers[a].router_id, routers[b].router_id) is None:
            net.add_link(routers[a], routers[b], cost=rng.choice([1, 5, 10]))
    igp = ShortestPaths(net)
    g = net.to_graph()
    src = routers[rng.randrange(n)].router_id
    lengths = nx.single_source_dijkstra_path_length(g, src, weight="weight")
    for dst, expected in lengths.items():
        assert igp.distance(src, dst) == expected
