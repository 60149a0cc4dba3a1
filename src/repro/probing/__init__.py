"""Measurement tooling: Paris traceroute, TNT revelation, tunnel taxonomy.

This layer plays the role of the paper's data-collection stack: a Paris
traceroute whose replies may quote MPLS label stacks (RFC 4950), the
TNT extension that reveals hidden tunnels, and the Donnet et al. tunnel
taxonomy (explicit / implicit / opaque / invisible).
"""

from repro.probing.records import QuotedLse, Trace, TraceHop
from repro.probing.sanitize import (
    AnomalyKind,
    SanitizeResult,
    TraceAnomaly,
    TraceSanitizer,
)
from repro.probing.traceroute import ParisTraceroute
from repro.probing.tnt import TntProber
from repro.probing.tunnels import ObservedTunnel, TunnelType, classify_tunnels

__all__ = [
    "QuotedLse",
    "Trace",
    "TraceHop",
    "AnomalyKind",
    "SanitizeResult",
    "TraceAnomaly",
    "TraceSanitizer",
    "ParisTraceroute",
    "TntProber",
    "ObservedTunnel",
    "TunnelType",
    "classify_tunnels",
]
