"""Link-state interior routing (IS-IS / OSPF stand-in).

The simulator does not model protocol messages; like a converged IGP, it
computes shortest-path trees over the network graph.  One Dijkstra run per
*destination* (costs are symmetric) yields a distance field from which any
router's next hop toward that destination falls out; results are cached.

Determinism matters: the paper's detection signals depend on which path a
Paris traceroute flow takes, so ECMP ties are broken by preferring the
neighbour with the lowest router id.  This makes every experiment in the
benchmark suite reproducible bit-for-bit.
"""

from __future__ import annotations

import heapq
from typing import Mapping

from repro.netsim.topology import Network

_INFINITY = float("inf")


class NoRouteError(Exception):
    """Raised when no IGP route exists between two routers."""


class ShortestPaths:
    """All-pairs shortest-path oracle with deterministic ECMP tie-breaks."""

    def __init__(self, network: Network) -> None:
        self._network = network
        #: destination -> {router -> distance}
        self._distance_cache: dict[int, dict[int, float]] = {}
        #: (src, dst) -> ECMP next-hop set, lowest router id first
        self._ecmp_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        #: (src, dst) -> shortest-path hop count
        self._hop_count_cache: dict[tuple[int, int], int] = {}

    def invalidate(self) -> None:
        """Drop cached SPF results (call after topology changes)."""
        self._distance_cache.clear()
        self._ecmp_cache.clear()
        self._hop_count_cache.clear()

    # -- SPF ----------------------------------------------------------------

    def _distances_to(self, dst: int) -> dict[int, float]:
        """Dijkstra from ``dst`` over the undirected graph."""
        cached = self._distance_cache.get(dst)
        if cached is not None:
            return cached
        dist: dict[int, float] = {dst: 0.0}
        heap: list[tuple[float, int]] = [(0.0, dst)]
        visited: set[int] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for neighbor in self._network.neighbors(node):
                link = self._network.link_between(node, neighbor)
                assert link is not None
                nd = d + link.cost
                if nd < dist.get(neighbor, _INFINITY):
                    dist[neighbor] = nd
                    heapq.heappush(heap, (nd, neighbor))
        self._distance_cache[dst] = dist
        return dist

    # -- queries ------------------------------------------------------------

    def distance(self, src: int, dst: int) -> float:
        """IGP metric of the shortest path from ``src`` to ``dst``."""
        dist = self._distances_to(dst).get(src)
        if dist is None:
            raise NoRouteError(f"no route from #{src} to #{dst}")
        return dist

    def reachable(self, src: int, dst: int) -> bool:
        """True when a route from ``src`` to ``dst`` exists."""
        return src in self._distances_to(dst)

    def next_hop(self, src: int, dst: int) -> int:
        """The unique (tie-broken) next hop from ``src`` toward ``dst``."""
        if src == dst:
            raise ValueError("next_hop undefined for src == dst")
        hops = self.ecmp_next_hops(src, dst)
        return hops[0]

    def ecmp_next_hops(self, src: int, dst: int) -> list[int]:
        """Every neighbour on a shortest path, lowest router id first."""
        hops = self._ecmp_cache.get((src, dst))
        if hops is None:
            hops = self._ecmp_scan(src, dst)
            self._ecmp_cache[(src, dst)] = hops
        return list(hops)

    def _ecmp_scan(self, src: int, dst: int) -> tuple[int, ...]:
        distances = self._distances_to(dst)
        if src not in distances:
            raise NoRouteError(f"no route from #{src} to #{dst}")
        best = distances[src]
        hops = []
        for neighbor in self._network.neighbors(src):
            link = self._network.link_between(src, neighbor)
            assert link is not None
            if distances.get(neighbor, _INFINITY) + link.cost == best:
                hops.append(neighbor)
        if not hops:
            raise NoRouteError(f"no route from #{src} to #{dst}")
        return tuple(hops)

    def path(self, src: int, dst: int) -> list[int]:
        """The tie-broken shortest path, inclusive of both endpoints."""
        path = [src]
        node = src
        guard = self._network.num_routers + 1
        while node != dst:
            node = self.next_hop(node, dst)
            path.append(node)
            guard -= 1
            if guard == 0:  # pragma: no cover - defensive
                raise RuntimeError("next-hop loop detected")
        return path

    def hop_count(self, src: int, dst: int) -> int:
        """Number of links on the tie-broken shortest path, memoized.

        Every ICMP reply pays this lookup (return-path length for the
        reply TTL), so one ``path()`` walk seeds the cache for every
        suffix of the path at once.
        """
        if src == dst:
            return 0
        cached = self._hop_count_cache.get((src, dst))
        if cached is not None:
            return cached
        path = self.path(src, dst)
        length = len(path) - 1
        for i, node in enumerate(path):
            self._hop_count_cache[(node, dst)] = length - i
        return length

    def distances_from(self, src: int) -> Mapping[int, float]:
        """Distance to every reachable router (symmetric costs)."""
        # With symmetric link costs d(src, x) == d(x, src), so reuse the
        # per-destination cache.
        return dict(self._distances_to(src))
