"""Router / link / network model.

A :class:`Network` is a flat graph of :class:`Router` objects connected by
point-to-point :class:`Link` objects.  Routers belong to autonomous systems
(``asn``), carry a hardware :class:`~repro.netsim.vendors.Vendor`, and hold
the per-box configuration knobs that drive what traceroute can observe:

``ttl_propagate``
    Whether this router, when acting as ingress LER, copies the IP TTL
    into the LSE-TTL of pushed labels (``ttl-propagate`` in vendor CLIs).
    Off means the tunnel is *invisible* or *opaque* (Sec. 2.2).

``rfc4950``
    Whether the router quotes the received MPLS label stack in ICMP
    ``time-exceeded`` messages (RFC 4950).  Off downgrades *explicit*
    tunnels to *implicit* ones.

``snmp_responsive``
    Whether the router answers SNMPv3 discovery probes, feeding the
    SNMPv3 fingerprinting dataset of Albakour et al.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import networkx as nx

from repro.netsim.addressing import (
    IPv4Address,
    IPv4Prefix,
    PrefixAllocator,
    PrefixIndex,
)
from repro.netsim.vendors import Vendor


class RouterRole(enum.Enum):
    """Coarse role of a router inside its AS."""

    CORE = "core"  # P router
    EDGE = "edge"  # PE router (ingress/egress LER)
    BORDER = "border"  # ASBR facing other ASes
    VANTAGE = "vantage"  # measurement vantage point


@dataclass(slots=True)
class Router:
    """A simulated router (or vantage-point host)."""

    router_id: int
    name: str
    asn: int
    vendor: Vendor = Vendor.UNKNOWN
    role: RouterRole = RouterRole.CORE
    loopback: IPv4Address | None = None
    ttl_propagate: bool = True
    rfc4950: bool = True
    snmp_responsive: bool = False
    sr_enabled: bool = False
    ldp_enabled: bool = False
    #: router never answers traceroute probes (shows as '*')
    icmp_silent: bool = False
    #: probability the router answers any given expiring probe (ICMP
    #: rate limiting / control-plane policing; per-flow deterministic)
    icmp_response_rate: float = 1.0
    #: router answers ICMP echo (needed for TTL fingerprint's second half)
    responds_to_ping: bool = True
    #: interface address facing each neighbour: neighbour id -> address
    interfaces: dict[int, IPv4Address] = field(default_factory=dict)

    def interface_to(self, neighbor_id: int) -> IPv4Address:
        """The interface address facing one neighbour."""
        try:
            return self.interfaces[neighbor_id]
        except KeyError:
            raise KeyError(
                f"router {self.name} has no interface to #{neighbor_id}"
            ) from None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}(AS{self.asn})"


@dataclass(frozen=True, slots=True)
class Link:
    """A point-to-point link with symmetric IGP cost."""

    a: int
    b: int
    cost: int = 10
    prefix: IPv4Prefix | None = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("self-loop links are not allowed")
        if self.cost <= 0:
            raise ValueError(f"IGP cost must be positive, got {self.cost}")

    def other(self, router_id: int) -> int:
        """The far end of the link from one endpoint."""
        if router_id == self.a:
            return self.b
        if router_id == self.b:
            return self.a
        raise ValueError(f"router #{router_id} not on link {self.a}-{self.b}")

    def endpoints(self) -> tuple[int, int]:
        """Both router ids of the link."""
        return (self.a, self.b)


class Network:
    """The global simulated internetwork.

    Owns routers, links and address space.  Interface and loopback
    addresses are carved out of a per-network supernet so that addresses
    are unique network-wide, and an ``ip -> router`` reverse map supports
    the measurement-side tooling (alias resolution, bdrmapIT-style
    annotation).
    """

    def __init__(self, supernet: str | IPv4Prefix = "10.0.0.0/8") -> None:
        if isinstance(supernet, str):
            supernet = IPv4Prefix.from_string(supernet)
        self._allocator = PrefixAllocator(supernet)
        self._routers: dict[int, Router] = {}
        self._links: list[Link] = []
        self._adjacency: dict[int, dict[int, Link]] = {}
        self._ip_owner: dict[IPv4Address, int] = {}
        #: prefixes announced into BGP by a router (targets live here)
        self._announced: list[tuple[IPv4Prefix, int]] = []
        #: longest-prefix index over ``_announced``
        self._announced_index = PrefixIndex()
        #: administratively/operationally failed links, as normalized
        #: ``(min_id, max_id)`` endpoint pairs; the links keep their
        #: numbering and interface addresses so a repair restores the
        #: exact pre-failure state
        self._down_links: set[tuple[int, int]] = set()
        self._next_id = 0

    # -- construction -------------------------------------------------------

    def add_router(
        self,
        name: str,
        asn: int,
        vendor: Vendor = Vendor.UNKNOWN,
        role: RouterRole = RouterRole.CORE,
        **config: bool,
    ) -> Router:
        """Create a router, allocating a /32 loopback for it."""
        router_id = self._next_id
        self._next_id += 1
        loopback = self._allocator.allocate(32).network
        router = Router(
            router_id=router_id,
            name=name,
            asn=asn,
            vendor=vendor,
            role=role,
            loopback=loopback,
            **config,
        )
        self._routers[router_id] = router
        self._adjacency[router_id] = {}
        self._ip_owner[loopback] = router_id
        return router

    def add_link(self, a: Router | int, b: Router | int, cost: int = 10) -> Link:
        """Connect two routers with a /31-numbered point-to-point link."""
        a_id = a.router_id if isinstance(a, Router) else a
        b_id = b.router_id if isinstance(b, Router) else b
        for rid in (a_id, b_id):
            if rid not in self._routers:
                raise KeyError(f"unknown router #{rid}")
        if b_id in self._adjacency[a_id]:
            raise ValueError(
                f"duplicate link between #{a_id} and #{b_id}"
            )
        prefix = self._allocator.allocate(31)
        link = Link(a=a_id, b=b_id, cost=cost, prefix=prefix)
        self._links.append(link)
        self._adjacency[a_id][b_id] = link
        self._adjacency[b_id][a_id] = link
        a_ip = prefix.address_at(0)
        b_ip = prefix.address_at(1)
        self._routers[a_id].interfaces[b_id] = a_ip
        self._routers[b_id].interfaces[a_id] = b_ip
        self._ip_owner[a_ip] = a_id
        self._ip_owner[b_ip] = b_id
        return link

    def announce_prefix(self, router: Router | int, length: int = 24) -> IPv4Prefix:
        """Allocate a destination prefix originated by ``router``.

        Traceroute targets are drawn from announced prefixes; packets to
        any address inside the prefix are delivered to the announcing
        router, which answers on the target's behalf (the simulated
        equivalent of a customer network behind a PE).
        """
        rid = router.router_id if isinstance(router, Router) else router
        if rid not in self._routers:
            raise KeyError(f"unknown router #{rid}")
        prefix = self._allocator.allocate(length)
        self._announced.append((prefix, rid))
        self._announced_index.add(prefix, rid)
        return prefix

    # -- dynamics -----------------------------------------------------------

    def _link_key(self, a: int, b: int) -> tuple[int, int]:
        if self._adjacency.get(a, {}).get(b) is None:
            raise KeyError(f"no link between #{a} and #{b}")
        return (a, b) if a < b else (b, a)

    def set_link_down(self, a: int, b: int) -> None:
        """Fail a link without destroying it.

        The link vanishes from :meth:`neighbors` / :meth:`link_between`
        (so SPF routes around it after the caller invalidates the IGP),
        but keeps its prefix, interface addresses, and position in the
        link list -- :meth:`set_link_up` restores the exact pre-failure
        network.  Idempotent.
        """
        self._down_links.add(self._link_key(a, b))

    def set_link_up(self, a: int, b: int) -> None:
        """Repair a previously failed link.  Idempotent."""
        self._down_links.discard(self._link_key(a, b))

    def link_is_down(self, a: int, b: int) -> bool:
        """True when the link between ``a`` and ``b`` is failed."""
        key = (a, b) if a < b else (b, a)
        return key in self._down_links

    def down_links(self) -> list[tuple[int, int]]:
        """Normalized endpoint pairs of every failed link, sorted."""
        return sorted(self._down_links)

    # -- lookup -------------------------------------------------------------

    def router(self, router_id: int) -> Router:
        """Look up a router by id."""
        return self._routers[router_id]

    def routers(self) -> Iterator[Router]:
        """Iterate over every router."""
        return iter(self._routers.values())

    def routers_in_as(self, asn: int) -> list[Router]:
        """Every router of one AS."""
        return [r for r in self._routers.values() if r.asn == asn]

    def links(self) -> Iterable[Link]:
        """Every link (immutable view)."""
        return tuple(self._links)

    def link_between(self, a: int, b: int) -> Link | None:
        """The link joining two routers, or None (failed links hidden)."""
        link = self._adjacency.get(a, {}).get(b)
        if link is not None and self._down_links and self.link_is_down(a, b):
            return None
        return link

    def neighbors(self, router_id: int) -> list[int]:
        """Sorted neighbour ids of one router (failed links hidden)."""
        if not self._down_links:
            return sorted(self._adjacency[router_id])
        return sorted(
            n
            for n in self._adjacency[router_id]
            if not self.link_is_down(router_id, n)
        )

    def owner_of(self, address: IPv4Address) -> int | None:
        """Router owning an interface or loopback address, if any."""
        owner = self._ip_owner.get(address)
        if owner is not None:
            return owner
        rid = self.originating_router(address)
        return rid

    def originating_router(self, address: IPv4Address) -> int | None:
        """Router announcing the longest prefix covering ``address``.

        Between identical prefixes the one announced first wins.
        """
        return self._announced_index.lookup(address)

    def announced_prefixes(self) -> list[tuple[IPv4Prefix, int]]:
        """Every (prefix, originating router) pair."""
        return list(self._announced)

    def interface_addresses(self) -> dict[IPv4Address, int]:
        """All interface/loopback addresses and their owning routers."""
        return dict(self._ip_owner)

    @property
    def num_routers(self) -> int:
        """Router count."""
        return len(self._routers)

    @property
    def num_links(self) -> int:
        """Link count."""
        return len(self._links)

    # -- export -------------------------------------------------------------

    def to_graph(self) -> nx.Graph:
        """Export as a networkx graph (used by tests as an SPF oracle)."""
        graph = nx.Graph()
        for router in self._routers.values():
            graph.add_node(router.router_id, asn=router.asn, name=router.name)
        for link in self._links:
            if self._down_links and self.link_is_down(link.a, link.b):
                continue
            graph.add_edge(link.a, link.b, weight=link.cost)
        return graph
