"""SR-LDP interworking analysis (Sec. 7.2 of the paper).

Within a trace, a *tunnel observation* is a maximal run of hops showing
MPLS evidence.  Each hop of the run belongs to an **SR cloud** (covered
by a strong flag) or an **LDP cloud** (MPLS without SR evidence).  The
cloud sequence determines the tunnel's nature:

- ``[SR]``                      -> full-SR tunnel
- ``[SR, LDP]``                 -> SR-to-LDP interworking (the dominant
  mode: 95% in the paper, needs a Mapping Server)
- ``[LDP, SR]``                 -> LDP-to-SR (~2%)
- ``[LDP, SR, LDP]``            -> LDP-SR-LDP (~2%)
- ``[SR, LDP, SR]``             -> SR-LDP-SR (~1%)
- anything longer               -> OTHER (combinations of the above)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.classification import HopArea
from repro.core.flags import Flag, STRONG_FLAGS
from repro.core.labels import sequence_match
from repro.util.slots import slot_init


class InterworkingMode(enum.Enum):
    """The tunnel compositions of Sec. 7.2."""
    FULL_SR = "full-SR"
    SR_TO_LDP = "SR->LDP"
    LDP_TO_SR = "LDP->SR"
    LDP_SR_LDP = "LDP-SR-LDP"
    SR_LDP_SR = "SR-LDP-SR"
    FULL_LDP = "full-LDP"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@slot_init
@dataclass(frozen=True, slots=True)
class Cloud:
    """A maximal same-plane run inside one tunnel observation."""

    plane: HopArea  # SR or MPLS (the paper's "LDP cloud")
    hop_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        """Hops in this cloud."""
        return len(self.hop_indices)


@slot_init
@dataclass(frozen=True, slots=True)
class TunnelComposition:
    """One tunnel observation decomposed into clouds."""

    clouds: tuple[Cloud, ...]
    mode: InterworkingMode

    @property
    def is_interworking(self) -> bool:
        """True when the tunnel mixes SR and LDP clouds."""
        return self.mode not in (
            InterworkingMode.FULL_SR,
            InterworkingMode.FULL_LDP,
        )

    def sr_cloud_sizes(self) -> list[int]:
        """Sizes of the SR clouds, path order."""
        return [c.size for c in self.clouds if c.plane is HopArea.SR]

    def ldp_cloud_sizes(self) -> list[int]:
        """Sizes of the LDP clouds, path order."""
        return [c.size for c in self.clouds if c.plane is HopArea.MPLS]


_MODE_BY_SEQUENCE: dict[tuple[HopArea, ...], InterworkingMode] = {
    (HopArea.SR,): InterworkingMode.FULL_SR,
    (HopArea.MPLS,): InterworkingMode.FULL_LDP,
    (HopArea.SR, HopArea.MPLS): InterworkingMode.SR_TO_LDP,
    (HopArea.MPLS, HopArea.SR): InterworkingMode.LDP_TO_SR,
    (HopArea.MPLS, HopArea.SR, HopArea.MPLS): InterworkingMode.LDP_SR_LDP,
    (HopArea.SR, HopArea.MPLS, HopArea.SR): InterworkingMode.SR_LDP_SR,
}


def analyze_tunnel_composition(
    areas: Sequence[HopArea],
) -> list[TunnelComposition]:
    """Decompose a trace's hop areas into tunnels and classify each.

    ``areas`` comes from :func:`repro.core.classification.classify_hops`;
    IP hops delimit tunnels.
    """
    tunnels: list[TunnelComposition] = []
    run: list[tuple[int, HopArea]] = []
    for i, area in enumerate(areas):
        if area is HopArea.IP:
            if run:
                tunnels.append(_compose(run))
                run = []
        else:
            run.append((i, area))
    if run:
        tunnels.append(_compose(run))
    return tunnels


def _compose(run: list[tuple[int, HopArea]]) -> TunnelComposition:
    clouds: list[Cloud] = []
    current: list[int] = []
    plane: HopArea | None = None
    for index, area in run:
        if area is plane:
            current.append(index)
        else:
            if plane is not None:
                clouds.append(Cloud(plane=plane, hop_indices=tuple(current)))
            plane, current = area, [index]
    assert plane is not None
    clouds.append(Cloud(plane=plane, hop_indices=tuple(current)))
    sequence = tuple(c.plane for c in clouds)
    mode = _MODE_BY_SEQUENCE.get(sequence, InterworkingMode.OTHER)
    return TunnelComposition(clouds=tuple(clouds), mode=mode)


def refine_areas_for_interworking(
    trace,
    segments,
    areas: Sequence[HopArea],
) -> list[HopArea]:
    """Refine per-hop areas before interworking decomposition (Sec. 6.3).

    Two adjustments the paper motivates to avoid misclassifying full-SR
    tunnels as interworking:

    1. when a trace already carries strong SR evidence, its LSO-flagged
       hops are credited to SR ("the detection strength of Lso-flagged
       segments is significantly enhanced because explicit evidence of
       Sr-Mpls has already been confirmed");
    2. a *single* labeled hop directly sandwiched between SR hops is
       credited to SR -- it is the mid-tunnel label change of a TE stack
       (adjacency-SID pop), not an LDP island.  Longer runs are left
       alone so genuine SR-LDP-SR chains survive.
    """
    refined = list(areas)
    if any(s.flag in STRONG_FLAGS for s in segments):
        for segment in segments:
            if segment.flag is Flag.LSO:
                for i in segment.hop_indices:
                    refined[i] = HopArea.SR
    if HopArea.SR not in refined:
        # every rule below credits a hop to SR only next to SR evidence
        return refined
    while True:  # iterate to a fixed point so adjacent fixes propagate
        before = list(refined)
        # Same-label adoption: an unflagged labeled hop whose active
        # label (sequence-)matches an SR hop in the same contiguous
        # non-IP run carries the same segment -- the CO run merely broke
        # on an implicit hop or a lone fingerprint (Sec. 6.3 FN cases).
        for run in _non_ip_runs(refined):
            sr_labels = [
                trace.hops[i].top_label
                for i in run
                if refined[i] is HopArea.SR
                and trace.hops[i].top_label is not None
            ]
            if not sr_labels:
                continue
            for i in run:
                hop = trace.hops[i]
                if (
                    refined[i] is HopArea.MPLS
                    and hop.top_label is not None
                    and any(
                        sequence_match(hop.top_label, l) for l in sr_labels
                    )
                ):
                    refined[i] = HopArea.SR
        for i in range(len(refined)):
            if refined[i] is not HopArea.MPLS:
                continue
            hop = trace.hops[i]
            left = refined[i - 1] if i > 0 else None
            right = refined[i + 1] if i + 1 < len(refined) else None
            # Mid-TE label change (or implicit gap) sandwiched by SR.
            if left is HopArea.SR and right is HopArea.SR:
                refined[i] = HopArea.SR
                continue
            # TE head/tail: the hop's *inner* labels contain the adjacent
            # SR run's active label -- the stack encodes the very segment
            # the neighbouring hops are flagged for (Fig. 3 semantics).
            if hop.stack_depth >= 2 and (
                (left is HopArea.SR and _inner_matches(trace, i, i - 1))
                or (right is HopArea.SR and _inner_matches(trace, i, i + 1))
            ):
                refined[i] = HopArea.SR
                continue
            # Service-SID tail: after PHP the transport label is gone and
            # the ending hop quotes only the service SID -- whose value
            # appeared as an *inner* label in the preceding SR hop's
            # quoted stack.  A genuine LDP tail label never did.
            if (
                hop.top_label is not None
                and left is HopArea.SR
                and _top_matches_neighbor_inner(trace, i, i - 1)
            ):
                refined[i] = HopArea.SR
        if refined == before:  # monotone MPLS->SR, so this terminates
            break
    return refined


def _top_matches_neighbor_inner(trace, index: int, neighbor: int) -> bool:
    hop = trace.hops[index]
    other = trace.hops[neighbor]
    if hop.top_label is None or other.lses is None:
        return False
    return any(e.label == hop.top_label for e in other.lses[1:])


def _non_ip_runs(areas: list[HopArea]) -> list[list[int]]:
    runs: list[list[int]] = []
    current: list[int] = []
    for i, area in enumerate(areas):
        if area is HopArea.IP:
            if current:
                runs.append(current)
            current = []
        else:
            current.append(i)
    if current:
        runs.append(current)
    return runs


def _inner_matches(trace, index: int, neighbor: int) -> bool:
    hop = trace.hops[index]
    other = trace.hops[neighbor]
    if hop.lses is None or other.top_label is None:
        return False
    return any(e.label == other.top_label for e in hop.lses[1:])


def interworking_summary(
    compositions: Iterable[TunnelComposition],
) -> dict[InterworkingMode, int]:
    """Count tunnels per mode (the Fig. 11 aggregation)."""
    counts: dict[InterworkingMode, int] = {}
    for composition in compositions:
        counts[composition.mode] = counts.get(composition.mode, 0) + 1
    return counts
