"""Tunnel programming: what an ingress LER pushes, and why.

In the simulated Internet every AS runs a BGP-free core: when a packet
enters an AS at a border/edge router and must leave it (or reach a PE
deeper inside), the entry router pushes a label program steering the
packet to the AS exit point.  Depending on the AS's deployment the
program is:

- an **LDP tunnel**: one label, the downstream neighbour's binding for
  the egress FEC; every subsequent LSR swaps to *its* downstream
  neighbour's binding -- labels change hop by hop;
- an **SR tunnel**: the egress node SID, mapped into the downstream
  neighbour's SRGB -- the label *persists* across hops when SRGBs agree
  (the CVR/CO signal);
- an **SR traffic-engineered tunnel**: node SID of a waypoint, an
  adjacency SID, then the egress node SID (Fig. 3 of the paper);
- optionally **service SIDs** below the transport labels (Sec. 6.2:
  "unshrinking stacks" observed at ESnet), popped only by the egress.

Programs are deterministic: every stochastic choice (waypoint insertion,
service labels) hashes the (seed, ingress, egress) tuple.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.netsim.addressing import IPv4Prefix
from repro.netsim.igp import NoRouteError, ShortestPaths
from repro.netsim.ldp import Fec, LdpState
from repro.netsim.mpls import ReservedLabel
from repro.netsim.policies import SrPolicyRegistry
from repro.netsim.rsvp import RsvpLsp, RsvpTeState
from repro.netsim.sr import SegmentRoutingDomain, SrConfigError
from repro.netsim.topology import Network
from repro.netsim.vendors import VENDOR_PROFILES, LabelRange
from repro.util.determinism import unit_hash as _hash_unit


class ServiceSidRegistry:
    """Allocates per-egress service SIDs (VPN / service-programming labels).

    A service SID is meaningful only to the router that allocated it; it
    rides at the bottom of the stack across the whole tunnel and is popped
    by the egress, producing the deep, unshrinking stacks the paper
    associates with advanced SR usage (Sec. 6.2).

    SR-enabled egresses allocate from their *configured* SRLB (which may
    be operator-customized), classic egresses from the dynamic pool.
    """

    def __init__(
        self,
        network: Network,
        sr_domains: "dict[int, SegmentRoutingDomain] | None" = None,
    ) -> None:
        self._network = network
        self._sr_domains = sr_domains or {}
        self._labels: dict[int, list[int]] = {}
        self._owned: dict[tuple[int, int], bool] = {}

    def allocate(self, router_id: int, slot: int = 0) -> int:
        """The ``slot``-th service label of ``router_id`` (lazily created)."""
        labels = self._labels.setdefault(router_id, [])
        while len(labels) <= slot:
            label = self._next_label(router_id, len(labels))
            labels.append(label)
            self._owned[(router_id, label)] = True
        return labels[slot]

    def _configured_srlb(self, router_id: int) -> LabelRange | None:
        router = self._network.router(router_id)
        if not router.sr_enabled:
            return None
        domain = self._sr_domains.get(router.asn)
        if domain is not None and domain.is_enrolled(router_id):
            return domain.config(router_id).srlb
        profile = VENDOR_PROFILES.get(router.vendor)
        return profile.default_srlb if profile else None

    def _next_label(self, router_id: int, index: int) -> int:
        router = self._network.router(router_id)
        profile = VENDOR_PROFILES.get(router.vendor)
        srlb = self._configured_srlb(router_id)
        pool: LabelRange
        if srlb is not None:
            # SR service SIDs come from the (possibly customized) SRLB...
            pool = srlb
        elif profile is not None:
            # ...but plain VPN labels are ordinary dynamic labels; a
            # non-SR box never allocates from 15,000-15,999, which is
            # what keeps the LVR flag's false positives rare (Sec. 4.4)
            pool = profile.dynamic_pool
        else:
            pool = LabelRange(700_000, 1_048_575)
        offset = (
            int.from_bytes(
                hashlib.sha256(f"svc:{router_id}".encode()).digest()[:4], "big"
            )
            % max(1, pool.size() - 64)
        )
        return pool.low + offset + index

    def is_service_label(self, router_id: int, label: int) -> bool:
        """Did ``router_id`` allocate this service label?"""
        return self._owned.get((router_id, label), False)


@dataclass(frozen=True, slots=True)
class TunnelProgram:
    """A resolved label program for one (ingress, final destination) pair.

    ``labels`` is top-first; empty programs mean "no push" (e.g. a one-hop
    LSP whose downstream advertised implicit-null).
    """

    labels: tuple[int, ...]
    egress: int
    #: ground truth for evaluation: which control plane built each label,
    #: top-first, values in {"sr", "ldp", "service"}
    truth_planes: tuple[str, ...]

    @property
    def depth(self) -> int:
        """Number of labels in the program."""
        return len(self.labels)


@dataclass(slots=True)
class TunnelPolicy:
    """Per-AS knobs controlling what tunnels look like."""

    asn: int
    #: probability an SR tunnel gets a TE waypoint (node SID + adj SID)
    te_waypoint_share: float = 0.0
    #: probability a tunnel carries one bottom service SID
    service_sid_share: float = 0.0
    #: probability a tunnel carries a second service SID (given the first)
    second_service_share: float = 0.25
    #: probability an SR tunnel is steered through an SR policy at a
    #: mid-path head-end (binding SID splice, RFC 9256)
    sr_policy_share: float = 0.0
    #: probability a tunnel carries an entropy-label pair (RFC 6790):
    #: ELI + EL below the transport label, for load balancing.  Entropy
    #: labels deepen stacks *without* Segment Routing -- the classic
    #: LSO confounder.
    entropy_share: float = 0.0
    #: probability a *classic* (non-SR) tunnel is carried by an RSVP-TE
    #: signaled LSP instead of LDP (explicitly routed, per-hop labels)
    rsvp_te_share: float = 0.0
    seed: int = 0


class TunnelController:
    """Builds (and caches) ingress label programs.

    The controller inspects the converged control planes: if the ingress
    is SR-capable and the egress has a node (or mapping-server) SID, an SR
    program wins; otherwise LDP.  Interworking needs no special-casing
    here -- it emerges inside the forwarding plane when the next hop of a
    labelled packet speaks a different protocol than the label.
    """

    def __init__(
        self,
        network: Network,
        igp: ShortestPaths,
        ldp: LdpState,
        sr_domains: dict[int, SegmentRoutingDomain],
        services: ServiceSidRegistry | None = None,
    ) -> None:
        self._network = network
        self._igp = igp
        self._ldp = ldp
        self._sr_domains = dict(sr_domains)
        self._services = services or ServiceSidRegistry(
            network, self._sr_domains
        )
        self._policies: dict[int, TunnelPolicy] = {}
        self._policy_registries: dict[int, SrPolicyRegistry] = {}
        self._rsvp = RsvpTeState(network)
        self._rsvp_lsps: dict[tuple[int, int], RsvpLsp] = {}
        self._cache: dict[tuple[int, int], TunnelProgram | None] = {}
        self._egress_cache: dict[tuple[int, int], int] = {}

    @property
    def services(self) -> ServiceSidRegistry:
        """The service-SID registry."""
        return self._services

    @property
    def ldp(self) -> LdpState:
        """The LDP control plane."""
        return self._ldp

    @property
    def rsvp(self) -> RsvpTeState:
        """The RSVP-TE state."""
        return self._rsvp

    def sr_domain(self, asn: int) -> SegmentRoutingDomain | None:
        """The SR domain of one AS, or None."""
        return self._sr_domains.get(asn)

    def policy_registry(self, asn: int) -> SrPolicyRegistry | None:
        """The SR-policy registry of one AS (created on first use)."""
        registry = self._policy_registries.get(asn)
        if registry is None:
            domain = self._sr_domains.get(asn)
            if domain is None:
                return None
            registry = SrPolicyRegistry(
                self._network, domain, seed=self.policy(asn).seed
            )
            self._policy_registries[asn] = registry
        return registry

    def set_policy(self, policy: TunnelPolicy) -> None:
        """Register one AS's tunnel policy (invalidates caches)."""
        self._policies[policy.asn] = policy
        self._cache.clear()

    def invalidate(self) -> None:
        """Drop derived program state (call after topology changes).

        Clears the program cache and the IGP-dependent egress cache;
        signaled RSVP-TE LSPs are kept (an IGP event does not tear down
        established LSPs -- use :meth:`churn_rsvp` for that).
        """
        self._cache.clear()
        self._egress_cache.clear()

    def churn_rsvp(self) -> int:
        """Tear down every signaled RSVP-TE LSP; returns the count.

        Subsequent demand re-signals fresh LSPs with new labels over
        whatever paths the (possibly changed) IGP then prefers -- the
        LSP setup/teardown churn a live network shows during
        maintenance.  Deterministic: re-signaling order follows demand
        order, which is itself deterministic per seed.
        """
        torn_down = len(self._rsvp_lsps)
        self._rsvp_lsps.clear()
        self.invalidate()
        return torn_down

    def converge(self) -> None:
        """Eagerly allocate every demand-driven label in canonical order.

        Label state in this simulator is allocated on first use -- LDP
        bindings, RSVP-TE LSPs, SR-TE adjacency SIDs, binding SIDs --
        from per-router cursors.  Left lazy, the *values* depend on the
        order the data plane first asks for them: whichever vantage
        point traces through a router first fixes the labels every
        later probe sees.  That is harmless for a single sequential
        campaign but breaks the sharded executor's per-VP purity
        contract, where a VP's traces must be byte-identical whichever
        bucket, worker, or attempt they run in.

        Convergence walks routers in sorted id order and builds every
        (LSR, FEC) binding and every (ingress, final) tunnel program up
        front, so all cursors advance in an order no probe schedule can
        influence and probing only ever reads.  This is also the
        truthful model: a real control plane converges before traffic
        flows.  Topology churn invalidates programs back to lazy
        demand, so :class:`~repro.netsim.dynamics.NetworkDynamics`
        re-converges after every mutation -- post-churn label values
        must likewise not depend on which walk rebuilds them first.
        (A churned AS still never splits into VP shards: the churn
        *clock* ticks per probe across all of the AS's VPs in turn, so
        campaigns run it whole, and refuse a layout that would split
        it.)
        """
        routers = sorted(
            router.router_id for router in self._network.routers()
        )
        # Per-hop LDP bindings: forwarding asks binding(nh, fec) for
        # every LSR along an LSP, not just the program's first hop, so
        # the full (LSR x loopback-FEC) matrix must exist.
        for egress in routers:
            if self._network.router(egress).loopback is None:
                continue
            fec = self.egress_fec(egress)
            for lsr in routers:
                if lsr != egress and self._network.router(lsr).ldp_enabled:
                    self._ldp.binding(lsr, fec)
        # Tunnel programs: RSVP LSPs, adjacency SIDs, binding SIDs and
        # service SIDs are all allocated inside program construction.
        for ingress in routers:
            for final in routers:
                if final != ingress:
                    self.program_for(ingress, final)

    def policy(self, asn: int) -> TunnelPolicy:
        """The AS's tunnel policy (a default is created lazily)."""
        existing = self._policies.get(asn)
        if existing is None:
            existing = TunnelPolicy(asn=asn)
            self._policies[asn] = existing
        return existing

    # -- AS egress computation -------------------------------------------------

    def as_egress(self, ingress: int, final: int) -> int:
        """Last router of ``ingress``'s AS on the IGP path to ``final``."""
        key = (ingress, final)
        cached = self._egress_cache.get(key)
        if cached is not None:
            return cached
        asn = self._network.router(ingress).asn
        egress = ingress
        for hop in self._igp.path(ingress, final):
            if self._network.router(hop).asn == asn:
                egress = hop
            else:
                break
        self._egress_cache[key] = egress
        return egress

    # -- FEC helpers ------------------------------------------------------------

    def egress_fec(self, egress: int) -> Fec:
        """The loopback /32 FEC of an egress router (BGP-free core)."""
        loopback = self._network.router(egress).loopback
        assert loopback is not None
        prefix = IPv4Prefix(loopback, 32)
        return self._ldp.register_fec(prefix, egress)

    # -- program construction -----------------------------------------------------

    def program_for(self, ingress: int, final: int) -> TunnelProgram | None:
        """Label program pushed by ``ingress`` for packets to ``final``.

        Returns None when the ingress is not an LER, the packet stays
        local, or no usable bindings exist.
        """
        key = (ingress, final)
        if key in self._cache:
            return self._cache[key]
        program = self._build(ingress, final)
        self._cache[key] = program
        return program

    def _build(self, ingress: int, final: int) -> TunnelProgram | None:
        router = self._network.router(ingress)
        if not (router.sr_enabled or router.ldp_enabled):
            return None
        try:
            egress = self.as_egress(ingress, final)
        except NoRouteError:
            return None
        if egress == ingress:
            return None
        labels: list[int] = []
        planes: list[str] = []
        policy = self.policy(router.asn)
        built = False
        if router.sr_enabled:
            built = self._build_sr(ingress, egress, policy, labels, planes)
        if not built and router.ldp_enabled:
            if (
                _hash_unit("rsvp", policy.seed, ingress, egress)
                < policy.rsvp_te_share
            ):
                built = self._build_rsvp(ingress, egress, labels, planes)
            if not built:
                built = self._build_ldp(ingress, egress, labels, planes)
        if not built:
            return None
        self._maybe_add_services(ingress, egress, policy, labels, planes)
        if not labels:
            return None
        return TunnelProgram(
            labels=tuple(labels), egress=egress, truth_planes=tuple(planes)
        )

    def _build_sr(
        self,
        ingress: int,
        egress: int,
        policy: TunnelPolicy,
        labels: list[int],
        planes: list[str],
    ) -> bool:
        domain = self._sr_domains.get(self._network.router(ingress).asn)
        if domain is None:
            return False
        index = domain.node_index(egress)
        if index is None:
            return False
        if (
            _hash_unit("pol", policy.seed, ingress, egress)
            < policy.sr_policy_share
        ):
            if self._build_sr_policy(ingress, egress, domain, labels, planes):
                return True
        if _hash_unit("te", policy.seed, ingress, egress) < policy.te_waypoint_share:
            if self._build_sr_te(ingress, egress, domain, labels, planes):
                return True
        return self._build_sr_plain(ingress, egress, domain, labels, planes)

    def _build_sr_plain(
        self,
        ingress: int,
        egress: int,
        domain: SegmentRoutingDomain,
        labels: list[int],
        planes: list[str],
    ) -> bool:
        index = domain.node_index(egress)
        assert index is not None
        nh = self._igp.next_hop(ingress, egress)
        if domain.is_enrolled(nh):
            if nh == egress:
                # PHP: downstream is the segment endpoint; nothing on the
                # wire, the packet travels unlabelled for this one hop.
                return False
            try:
                labels.append(domain.label_on_wire(nh, index))
            except SrConfigError:
                return False
            planes.append("sr")
            return True
        # Next hop is LDP-only: the ingress is an SR/LDP border itself;
        # start the LSP with the neighbour's LDP binding (SR->LDP at hop 0).
        return self._build_ldp(ingress, egress, labels, planes)

    def _build_sr_te(
        self,
        ingress: int,
        egress: int,
        domain: SegmentRoutingDomain,
        labels: list[int],
        planes: list[str],
    ) -> bool:
        """[node SID of waypoint; adjacency SID; node SID of egress]."""
        waypoint = self._pick_waypoint(ingress, egress, domain)
        if waypoint is None:
            return False
        egress_index = domain.node_index(egress)
        waypoint_index = domain.node_index(waypoint)
        assert egress_index is not None and waypoint_index is not None
        try:
            nh1 = self._igp.next_hop(ingress, waypoint)
            if not domain.is_enrolled(nh1):
                return False
            via = self._igp.next_hop(waypoint, egress)
            if not domain.is_enrolled(via):
                return False
            adj = domain.adjacency_sid(waypoint, via)
            top = domain.label_on_wire(nh1, waypoint_index)
            bottom = domain.label_on_wire(via, egress_index)
        except (NoRouteError, SrConfigError):
            return False
        labels.extend([top, adj, bottom])
        planes.extend(["sr", "sr", "sr"])
        return True

    def _pick_waypoint(
        self, ingress: int, egress: int, domain: SegmentRoutingDomain
    ) -> int | None:
        candidates = [
            rid
            for rid in domain.enrolled_routers()
            if rid not in (ingress, egress)
            and self._network.neighbors(rid)
        ]
        if not candidates:
            return None
        pick = int(
            _hash_unit("wp", ingress, egress) * len(candidates)
        ) % len(candidates)
        waypoint = candidates[pick]
        try:
            self._igp.distance(ingress, waypoint)
            self._igp.distance(waypoint, egress)
        except NoRouteError:
            return None
        return waypoint

    def _build_sr_policy(
        self,
        ingress: int,
        egress: int,
        domain: SegmentRoutingDomain,
        labels: list[int],
        planes: list[str],
    ) -> bool:
        """[node SID of the head-end; binding SID of a policy there].

        The head-end splices in the policy's (deeper) segment list when
        the BSID becomes active -- the mid-path stack growth of Sec. 6.2.
        """
        registry = self.policy_registry(self._network.router(ingress).asn)
        if registry is None:
            return False
        head_end = self._pick_policy_head_end(ingress, egress, domain)
        if head_end is None:
            return False
        via = self._pick_waypoint(head_end, egress, domain)
        if via is None or via == head_end:
            via = egress
        try:
            policy = registry.install(head_end, via, egress)
            head_index = domain.node_index(head_end)
            assert head_index is not None
            nh = self._igp.next_hop(ingress, head_end)
            if not domain.is_enrolled(nh):
                return False
            top = domain.label_on_wire(nh, head_index)
        except (NoRouteError, SrConfigError):
            return False
        labels.extend([top, policy.binding_sid])
        planes.extend(["sr", "sr"])
        return True

    def _pick_policy_head_end(
        self, ingress: int, egress: int, domain: SegmentRoutingDomain
    ) -> int | None:
        """A mid-path SR router, so the splice is visible in traces."""
        try:
            path = self._igp.path(ingress, egress)
        except NoRouteError:
            return None
        interior = [
            rid
            for rid in path[1:-1]
            if domain.is_enrolled(rid)
        ]
        if not interior:
            return None
        return interior[len(interior) // 2]

    def _build_ldp(
        self,
        ingress: int,
        egress: int,
        labels: list[int],
        planes: list[str],
    ) -> bool:
        fec = self.egress_fec(egress)
        try:
            nh = self._igp.next_hop(ingress, egress)
        except NoRouteError:
            return False
        nh_router = self._network.router(nh)
        if nh_router.ldp_enabled:
            binding = self._ldp.binding(nh, fec)
            if binding == int(ReservedLabel.IMPLICIT_NULL):
                return False  # one-hop LSP, PHP leaves nothing on the wire
            labels.append(binding)
            planes.append("ldp")
            return True
        # LDP->SR at hop 0: next hop is SR-only; use its SRGB directly.
        domain = self._sr_domains.get(self._network.router(ingress).asn)
        if domain is None or not domain.is_enrolled(nh):
            return False
        index = domain.node_index(egress)
        if index is None or nh == egress:
            return False
        try:
            labels.append(domain.label_on_wire(nh, index))
        except SrConfigError:
            return False
        planes.append("sr")
        return True

    def _build_rsvp(
        self,
        ingress: int,
        egress: int,
        labels: list[int],
        planes: list[str],
    ) -> bool:
        """Signal (or reuse) an RSVP-TE LSP and push its head label."""
        lsp = self._rsvp_lsps.get((ingress, egress))
        if lsp is None:
            try:
                route = self._explicit_route(ingress, egress)
            except NoRouteError:
                return False
            if len(route) < 2:
                return False
            lsp = self._rsvp.signal_lsp(route)
            self._rsvp_lsps[(ingress, egress)] = lsp
        head_label = self._rsvp.head_label(lsp)
        if head_label is None:
            return False  # 2-hop LSP: PHP leaves nothing on the wire
        labels.append(head_label)
        planes.append("rsvp")
        return True

    def _explicit_route(self, ingress: int, egress: int) -> list[int]:
        """The TE path: the IGP route, detoured through an off-path
        neighbour where one exists (that is the point of RSVP-TE)."""
        route = self._igp.path(ingress, egress)
        asn = self._network.router(ingress).asn
        for i in range(1, len(route) - 1):
            for candidate in self._network.neighbors(route[i - 1]):
                if (
                    candidate not in route
                    and self._network.router(candidate).asn == asn
                    and self._network.link_between(candidate, route[i + 1])
                    is not None
                    and self._network.router(candidate).ldp_enabled
                ):
                    return route[:i] + [candidate] + route[i + 1 :]
        return route

    def _maybe_add_services(
        self,
        ingress: int,
        egress: int,
        policy: TunnelPolicy,
        labels: list[int],
        planes: list[str],
    ) -> None:
        if not labels:
            return
        if (
            _hash_unit("svc", policy.seed, ingress, egress)
            < policy.service_sid_share
        ):
            # An SR-enabled egress hands out *SR service SIDs* (SRLB);
            # a classic egress hands out plain VPN labels.  The truth
            # plane distinguishes them: the ESnet operator confirmed
            # service-SID stacks as genuine SR (Sec. 6.1).
            service_plane = (
                "service-sr"
                if self._network.router(egress).sr_enabled
                else "service"
            )
            labels.append(self._services.allocate(egress, slot=0))
            planes.append(service_plane)
            if (
                _hash_unit("svc2", policy.seed, ingress, egress)
                < policy.second_service_share
            ):
                labels.append(self._services.allocate(egress, slot=1))
                planes.append(service_plane)
        if (
            _hash_unit("eli", policy.seed, ingress, egress)
            < policy.entropy_share
        ):
            # ELI + EL at the bottom: the EL value is a per-tunnel flow
            # hash from the general label space (RFC 6790 Sec. 4.2)
            entropy_value = 100_000 + int(
                _hash_unit("el", policy.seed, ingress, egress) * 900_000
            )
            labels.append(int(ReservedLabel.ENTROPY_LABEL_INDICATOR))
            labels.append(entropy_value)
            planes.extend(["entropy", "entropy"])
