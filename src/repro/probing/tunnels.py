"""Tunnel taxonomy (Donnet et al., extended by Vanaubel et al.).

Classifies the MPLS tunnels *observable* in a trace into the four types
the paper builds on (Sec. 2.2 / Sec. 6.2 / Appendix C):

explicit
    ``ttl-propagate`` on + RFC 4950 on: every LSR answers and quotes its
    LSE stack.  Eligible for **all** AReST flags.
opaque
    ``ttl-propagate`` off + RFC 4950 on: only the ending hop answers,
    quoting a single LSE whose TTL is near 255 (255 minus the hidden
    length).  Eligible for the stack flags only (LSVR / LVR / LSO).
implicit
    ``ttl-propagate`` on + RFC 4950 off: hops answer without LSEs; TNT
    heuristics (qTTL / u-turn) can still infer the tunnel.
invisible
    ``ttl-propagate`` off + RFC 4950 off: nothing shows; TNT revelation
    may surface addresses (marked ``tnt_revealed``), never LSEs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.probing.records import Trace, TraceHop
from repro.util.slots import slot_init

#: quoted LSE-TTL at or above this is taken as "never propagated" (the
#: ingress wrote 255 and only a handful of hops decremented it)
_OPAQUE_TTL_FLOOR = 200


class TunnelType(enum.Enum):
    """The Donnet et al. tunnel visibility classes."""
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"
    OPAQUE = "opaque"
    INVISIBLE = "invisible"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@slot_init
@dataclass(frozen=True, slots=True)
class ObservedTunnel:
    """A maximal tunnel observation within one trace.

    ``hop_indices`` indexes into ``trace.hops`` and covers every hop
    attributed to the tunnel (for invisible tunnels: the TNT-revealed
    hops; for opaque ones: the single ending hop).
    """

    tunnel_type: TunnelType
    hop_indices: tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of hops attributed to this tunnel."""
        return len(self.hop_indices)


def _is_opaque_hop(hop: TraceHop) -> bool:
    return (
        hop.has_lses
        and hop.stack_depth >= 1
        and hop.lses is not None
        and hop.lses[0].ttl >= _OPAQUE_TTL_FLOOR
    )


def classify_tunnels(trace: Trace) -> list[ObservedTunnel]:
    """Extract every tunnel observation from one trace, in path order."""
    tunnels: list[ObservedTunnel] = []
    i = 0
    hops = trace.hops
    n = len(hops)
    while i < n:
        hop = hops[i]
        if hop.tnt_revealed:
            # A revealed run: addresses without LSEs inserted by TNT.
            j = i
            while j < n and hops[j].tnt_revealed:
                j += 1
            tunnels.append(
                ObservedTunnel(
                    tunnel_type=TunnelType.INVISIBLE,
                    hop_indices=tuple(range(i, j)),
                )
            )
            i = j
            continue
        if hop.has_lses:
            if _is_opaque_hop(hop) and _run_length_of_labels(hops, i) == 1:
                if (
                    tunnels
                    and tunnels[-1].tunnel_type is TunnelType.INVISIBLE
                    and tunnels[-1].hop_indices[-1] == i - 1
                ):
                    # TNT revealed the hidden interior of this very
                    # tunnel; it is one opaque observation, not two.
                    tunnels[-1] = ObservedTunnel(
                        tunnel_type=TunnelType.OPAQUE,
                        hop_indices=tunnels[-1].hop_indices + (i,),
                    )
                else:
                    tunnels.append(
                        ObservedTunnel(
                            tunnel_type=TunnelType.OPAQUE,
                            hop_indices=(i,),
                        )
                    )
                i += 1
                continue
            j = i
            while j < n and hops[j].has_lses and not hops[j].tnt_revealed:
                j += 1
            tunnels.append(
                ObservedTunnel(
                    tunnel_type=TunnelType.EXPLICIT,
                    hop_indices=tuple(range(i, j)),
                )
            )
            i = j
            continue
        if hop.responded and hop.truth_planes:
            if not hop.truth_uniform:
                # The ending hop of a pipe-mode tunnel, answering without
                # a quote: the tunnel is invisible and this is its only
                # observable trace (TNT's qTTL == 1 signature).
                if (
                    tunnels
                    and tunnels[-1].tunnel_type is TunnelType.INVISIBLE
                    and tunnels[-1].hop_indices[-1] == i - 1
                ):
                    tunnels[-1] = ObservedTunnel(
                        tunnel_type=TunnelType.INVISIBLE,
                        hop_indices=tunnels[-1].hop_indices + (i,),
                    )
                else:
                    tunnels.append(
                        ObservedTunnel(
                            tunnel_type=TunnelType.INVISIBLE,
                            hop_indices=(i,),
                        )
                    )
                i += 1
                continue
            # Implicit tunnel: the hop answered while carrying labels but
            # quoted nothing (no RFC 4950).  Real TNT infers these via
            # qTTL/u-turn heuristics; the ground-truth annotation stands
            # in for those near-exact heuristics.
            j = i
            while (
                j < n
                and hops[j].responded
                and not hops[j].has_lses
                and not hops[j].tnt_revealed
                and hops[j].truth_planes
                and hops[j].truth_uniform
            ):
                j += 1
            tunnels.append(
                ObservedTunnel(
                    tunnel_type=TunnelType.IMPLICIT,
                    hop_indices=tuple(range(i, j)),
                )
            )
            i = j
            continue
        i += 1
    return tunnels


def _run_length_of_labels(hops: tuple[TraceHop, ...], start: int) -> int:
    length = 0
    for hop in hops[start:]:
        if hop.has_lses and not hop.tnt_revealed:
            length += 1
        else:
            break
    return length


def infer_opaque_length(hop: TraceHop) -> int | None:
    """Infer the hidden tunnel length from an opaque LSE's TTL.

    The ingress wrote 255; each hidden LSR decremented once, so a quoted
    TTL of ``255 - k`` betrays ``k`` hidden hops before the ending hop
    (the trick TNT uses on opaque tunnels).
    """
    if not _is_opaque_hop(hop):
        return None
    assert hop.lses is not None
    return 255 - hop.lses[0].ttl


def implicit_hops(trace: Trace) -> list[int]:
    """Indices of hops that responded without LSEs but are known (via the
    ground-truth annotation) to have carried labels: the *implicit*
    tunnel hops TNT's qTTL/u-turn heuristics would flag."""
    return [
        i
        for i, hop in enumerate(trace.hops)
        if hop.responded
        and not hop.has_lses
        and not hop.tnt_revealed
        and hop.truth_planes
    ]
