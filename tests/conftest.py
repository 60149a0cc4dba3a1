"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.netsim.addressing import IPv4Address
from repro.netsim.forwarding import ForwardingEngine
from repro.netsim.igp import ShortestPaths
from repro.netsim.ldp import LdpState
from repro.netsim.sr import SegmentRoutingDomain
from repro.netsim.topology import Network, Router, RouterRole
from repro.netsim.tunnels import TunnelController, TunnelPolicy
from repro.netsim.vendors import Vendor
from repro.probing.records import QuotedLse, Trace, TraceHop

TARGET_ASN = 65_001
VP_ASN = 64_900


def scaled_examples(default: int) -> int:
    """Hypothesis example budget for ``@settings(max_examples=...)``.

    Local runs keep the fast default; CI's dedicated property-test job
    multiplies every budget via ``AREST_HYPOTHESIS_SCALE``.
    """
    return default * max(1, int(os.environ.get("AREST_HYPOTHESIS_SCALE", "1")))


#: the two kinds of spill damage a resume must catch
SPILL_DAMAGE = ("relabel", "drop-last-line")


def damage_spill(path: Path, damage: str) -> None:
    """Damage a spill file the way a bad disk or a stray edit would.

    ``relabel`` changes one MPLS label in the last trace line that
    quotes one; ``drop-last-line`` removes the last trace line.  Both
    leave a well-formed dataset file behind.
    """
    lines = path.read_text().splitlines(keepends=True)
    if damage == "drop-last-line":
        lines.pop()
    else:
        index = max(i for i, line in enumerate(lines) if '"lses"' in line)
        record = json.loads(lines[index])
        hop = next(h for h in record["hops"] if "lses" in h)
        hop["lses"][0][0] += 1
        lines[index] = json.dumps(record) + "\n"
    path.write_text("".join(lines))


class ChainNetwork:
    """A VP -> [AS chain of N routers] -> announced /24 testbed.

    The canonical single-path topology most unit tests use: every knob
    (SR vs LDP, propagate, RFC 4950, PHP, vendors) is explicit.
    """

    def __init__(
        self,
        length: int = 5,
        sr: bool = True,
        ldp: bool = False,
        propagate: bool = True,
        rfc4950: bool = True,
        php: bool = True,
        vendor: Vendor = Vendor.CISCO,
        seed: int = 1,
        policy: TunnelPolicy | None = None,
    ) -> None:
        self.network = Network()
        self.vp = self.network.add_router(
            "vp", VP_ASN, role=RouterRole.VANTAGE
        )
        self.routers: list[Router] = []
        prev: Router = self.vp
        for i in range(length):
            role = (
                RouterRole.BORDER
                if i == 0
                else RouterRole.EDGE
                if i == length - 1
                else RouterRole.CORE
            )
            router = self.network.add_router(
                f"r{i}",
                TARGET_ASN,
                vendor=vendor,
                role=role,
                ttl_propagate=propagate,
                rfc4950=rfc4950,
            )
            self.network.add_link(prev, router)
            self.routers.append(router)
            prev = router
        self.egress = self.routers[-1]
        self.prefix = self.network.announce_prefix(self.egress, 24)
        self.target = self.prefix.address_at(10)

        self.igp = ShortestPaths(self.network)
        self.ldp = LdpState(self.network, seed=seed)
        self.domains: dict[int, SegmentRoutingDomain] = {}
        if sr:
            domain = SegmentRoutingDomain(
                self.network, asn=TARGET_ASN, seed=seed, php=php
            )
            for router in self.routers:
                domain.enroll(router)
            self.domains[TARGET_ASN] = domain
        if ldp:
            for router in self.routers:
                router.ldp_enabled = True
        self.controller = TunnelController(
            self.network, self.igp, self.ldp, self.domains
        )
        self.controller.set_policy(
            policy if policy is not None else TunnelPolicy(asn=TARGET_ASN)
        )
        self.engine = ForwardingEngine(
            self.network, self.igp, self.controller
        )

    @property
    def sr_domain(self) -> SegmentRoutingDomain:
        return self.domains[TARGET_ASN]


@pytest.fixture
def sr_chain() -> ChainNetwork:
    """Five-router full-SR chain, explicit tunnels."""
    return ChainNetwork()


@pytest.fixture
def ldp_chain() -> ChainNetwork:
    """Five-router LDP chain, explicit tunnels."""
    return ChainNetwork(sr=False, ldp=True)


def make_hop(
    ttl: int,
    address: str | None,
    labels: tuple[int, ...] = (),
    lse_ttl: int = 1,
    tnt_revealed: bool = False,
    reply_ip_ttl: int | None = 250,
    truth_planes: tuple[str, ...] = (),
    destination_reply: bool = False,
) -> TraceHop:
    """Build a synthetic trace hop for detector tests."""
    lses = None
    if labels:
        lses = tuple(
            QuotedLse(
                label=label,
                tc=0,
                bottom_of_stack=(i == len(labels) - 1),
                ttl=lse_ttl,
            )
            for i, label in enumerate(labels)
        )
    return TraceHop(
        probe_ttl=ttl,
        address=IPv4Address.from_string(address) if address else None,
        rtt_ms=1.0 if address else None,
        reply_ip_ttl=reply_ip_ttl if address else None,
        lses=lses,
        tnt_revealed=tnt_revealed,
        destination_reply=destination_reply,
        truth_planes=truth_planes,
    )


def make_trace(
    hops: list[TraceHop],
    reached: bool = True,
    epoch_span: tuple[int, int] | None = None,
) -> Trace:
    """Wrap synthetic hops into a trace."""
    return Trace(
        vp="test-vp",
        vp_router_id=0,
        destination=IPv4Address.from_string("203.0.113.1"),
        flow_id=42,
        hops=tuple(hops),
        reached=reached,
        epoch_span=epoch_span,
    )


# Campaign results are expensive enough to share; session-scoped caches.
@pytest.fixture(scope="session")
def esnet_result():
    """The ground-truth AS (#46, ESnet-like) campaign result."""
    from repro.campaign import CampaignRunner

    return CampaignRunner(seed=1).run_as(46)


@pytest.fixture(scope="session")
def small_portfolio_results():
    """A representative slice of the portfolio (one AS per flavour)."""
    from repro.campaign import CampaignRunner

    runner = CampaignRunner(seed=1)
    return runner.run_portfolio(as_ids=[7, 15, 27, 31, 46, 59])
