"""Tests for the router/link/network model."""

import random

import pytest

from repro.netsim.addressing import IPv4Address, IPv4Prefix
from repro.netsim.topology import Network, RouterRole
from repro.netsim.vendors import Vendor

from tests.netsim.test_addressing import boundary_addresses, scan_longest_match


@pytest.fixture
def net() -> Network:
    return Network("10.0.0.0/16")


class TestRouters:
    def test_add_router_allocates_loopback(self, net):
        a = net.add_router("a", asn=1)
        b = net.add_router("b", asn=1)
        assert a.loopback is not None and b.loopback is not None
        assert a.loopback != b.loopback
        assert net.owner_of(a.loopback) == a.router_id

    def test_router_ids_sequential(self, net):
        ids = [net.add_router(f"r{i}", asn=1).router_id for i in range(4)]
        assert ids == [0, 1, 2, 3]

    def test_config_kwargs(self, net):
        r = net.add_router(
            "r", asn=1, vendor=Vendor.JUNIPER, ttl_propagate=False
        )
        assert r.vendor is Vendor.JUNIPER
        assert not r.ttl_propagate
        assert r.rfc4950  # default

    def test_routers_in_as(self, net):
        net.add_router("a", asn=1)
        net.add_router("b", asn=2)
        net.add_router("c", asn=1)
        assert len(net.routers_in_as(1)) == 2


class TestLinks:
    def test_link_assigns_p2p_addresses(self, net):
        a = net.add_router("a", asn=1)
        b = net.add_router("b", asn=1)
        link = net.add_link(a, b)
        assert link.prefix is not None and link.prefix.length == 31
        assert a.interfaces[b.router_id] != b.interfaces[a.router_id]
        assert net.owner_of(a.interfaces[b.router_id]) == a.router_id
        assert net.owner_of(b.interfaces[a.router_id]) == b.router_id

    def test_duplicate_link_rejected(self, net):
        a = net.add_router("a", asn=1)
        b = net.add_router("b", asn=1)
        net.add_link(a, b)
        with pytest.raises(ValueError):
            net.add_link(a, b)

    def test_self_loop_rejected(self, net):
        a = net.add_router("a", asn=1)
        with pytest.raises(ValueError):
            net.add_link(a, a)

    def test_unknown_router_rejected(self, net):
        a = net.add_router("a", asn=1)
        with pytest.raises(KeyError):
            net.add_link(a.router_id, 99)

    def test_nonpositive_cost_rejected(self, net):
        a = net.add_router("a", asn=1)
        b = net.add_router("b", asn=1)
        with pytest.raises(ValueError):
            net.add_link(a, b, cost=0)

    def test_neighbors_sorted(self, net):
        hub = net.add_router("hub", asn=1)
        spokes = [net.add_router(f"s{i}", asn=1) for i in range(3)]
        for s in reversed(spokes):
            net.add_link(hub, s)
        assert net.neighbors(hub.router_id) == sorted(
            s.router_id for s in spokes
        )

    def test_link_between(self, net):
        a = net.add_router("a", asn=1)
        b = net.add_router("b", asn=1)
        c = net.add_router("c", asn=1)
        net.add_link(a, b)
        assert net.link_between(a.router_id, b.router_id) is not None
        assert net.link_between(a.router_id, c.router_id) is None

    def test_link_other(self, net):
        a = net.add_router("a", asn=1)
        b = net.add_router("b", asn=1)
        link = net.add_link(a, b)
        assert link.other(a.router_id) == b.router_id
        assert link.other(b.router_id) == a.router_id
        with pytest.raises(ValueError):
            link.other(99)


class TestAnnouncedPrefixes:
    def test_announce_and_originate(self, net):
        r = net.add_router("pe", asn=1, role=RouterRole.EDGE)
        prefix = net.announce_prefix(r, 24)
        assert isinstance(prefix, IPv4Prefix)
        assert net.originating_router(prefix.address_at(5)) == r.router_id
        assert net.owner_of(prefix.address_at(5)) == r.router_id

    def test_longest_prefix_wins(self, net):
        coarse = net.add_router("coarse", asn=1)
        fine = net.add_router("fine", asn=1)
        p24 = net.announce_prefix(coarse, 24)
        # carve a /26 inside a fresh /24 announced by `fine`; announce
        # order should not matter, only the length
        p26_parent = net.announce_prefix(fine, 26)
        assert net.originating_router(p24.address_at(1)) == coarse.router_id
        assert net.originating_router(
            p26_parent.address_at(1)
        ) == fine.router_id

    def test_unknown_address_unowned(self, net):
        from repro.netsim.addressing import IPv4Address

        assert net.owner_of(IPv4Address.from_string("203.0.113.9")) is None

    def test_announce_unknown_router_rejected(self, net):
        with pytest.raises(KeyError):
            net.announce_prefix(42, 24)

    def test_owner_of_matches_linear_scan(self):
        """Differential: the prefix index against the old scan over
        every announced prefix, at prefix boundaries, in the gaps that
        aligning mixed lengths leaves, on interfaces and far outside."""
        rng = random.Random(7)
        net = Network("10.0.0.0/16")
        routers = [net.add_router(f"r{i}", asn=1) for i in range(6)]
        for a, b in zip(routers, routers[1:]):
            net.add_link(a, b)
        for _ in range(40):
            length = rng.choice((22, 24, 26, 28, 32))
            net.announce_prefix(rng.choice(routers), length)
        announced = net.announced_prefixes()
        interfaces = net.interface_addresses()
        probes = [
            a for prefix, _ in announced for a in boundary_addresses(prefix)
        ]
        probes += list(interfaces)
        probes += [IPv4Address(rng.randrange(2**32)) for _ in range(200)]
        probes += [
            IPv4Address((10 << 24) + rng.randrange(2**16)) for _ in range(500)
        ]
        for address in probes:
            expected = scan_longest_match(announced, address)
            assert net.originating_router(address) == expected, address
            owner = interfaces.get(address, expected)
            assert net.owner_of(address) == owner, address


class TestGraphExport:
    def test_to_graph_shape(self, net):
        a = net.add_router("a", asn=1)
        b = net.add_router("b", asn=1)
        c = net.add_router("c", asn=2)
        net.add_link(a, b, cost=5)
        net.add_link(b, c, cost=7)
        g = net.to_graph()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 2
        assert g[a.router_id][b.router_id]["weight"] == 5
        assert g.nodes[c.router_id]["asn"] == 2

    def test_counts(self, net):
        a = net.add_router("a", asn=1)
        b = net.add_router("b", asn=1)
        net.add_link(a, b)
        assert net.num_routers == 2
        assert net.num_links == 1
