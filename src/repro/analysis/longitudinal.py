"""Longitudinal SR-MPLS adoption tracking (the paper's future work).

Sec. 9: "Future work plans to focus on ... longitudinal analyses to
track the evolution of SR-MPLS adoption patterns over time."  This
module implements that study over the simulator: the portfolio's
deployment scenarios evolve year by year (each AS starts its SR
migration at some adoption year and ramps its SR share up), the
campaign re-runs per year, and the tracker reports the adoption curve
AReST would have measured.

The evolution model is deliberately simple and fully deterministic:

- every AS that (per the 2025-portfolio ground truth) deploys SR gets an
  adoption year hashed into [first_year, reference_year]; survey/Cisco-
  confirmed ASes adopt earlier on average (they were the early movers);
- before its adoption year an AS runs classic LDP; from the adoption
  year on, its SR share ramps linearly to the 2025 value over
  ``ramp_years``;
- ASes that do not deploy SR by 2025 never do within the window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from repro.campaign.runner import CampaignRunner
from repro.topogen.portfolio import AsSpec, Portfolio, default_portfolio
from repro.util.determinism import unit_hash

#: the paper's measurement year: scenarios are calibrated to this point
REFERENCE_YEAR = 2025


@dataclass(frozen=True, slots=True)
class AdoptionSnapshot:
    """What AReST would have measured in one year."""

    year: int
    ases_analyzed: int
    ases_with_sr_evidence: int
    sr_interfaces: int
    mpls_interfaces: int

    @property
    def detection_share(self) -> float:
        """Fraction of analyzed ASes with strong SR evidence."""
        if self.ases_analyzed == 0:
            return 0.0
        return self.ases_with_sr_evidence / self.ases_analyzed

    @property
    def sr_interface_share(self) -> float:
        """SR interfaces over all MPLS-involved interfaces."""
        total = self.sr_interfaces + self.mpls_interfaces
        return self.sr_interfaces / total if total else 0.0


def adoption_year(spec: AsSpec, first_year: int, seed: int = 0) -> int:
    """The year this AS begins its SR migration (deterministic)."""
    window = REFERENCE_YEAR - first_year
    draw = unit_hash("adoption", seed, spec.as_id)
    if spec.confirmation.confirmed:
        # early movers: the confirmed deployments skew to the window's
        # first half
        draw *= 0.6
    return first_year + int(draw * window)


def scenario_in_year(
    spec: AsSpec,
    year: int,
    first_year: int,
    ramp_years: int = 3,
    seed: int = 0,
):
    """The AS's deployment scenario as it stood in ``year``."""
    scenario = spec.scenario
    if not scenario.deploys_sr:
        return scenario
    start = adoption_year(spec, first_year, seed)
    if year < start:
        # pre-migration: the same network, but running LDP only
        return replace(
            scenario,
            deploys_sr=False,
            sr_share=0.0,
            sr_policy_share=0.0,
            uhp=False,
            heterogeneous_srgb=False,
        )
    progress = min(1.0, (year - start + 1) / max(1, ramp_years))
    return replace(
        scenario,
        sr_share=min(1.0, scenario.sr_share * progress)
        if progress < 1.0
        else scenario.sr_share,
        sr_policy_share=scenario.sr_policy_share * progress,
    )


class AdoptionTracker:
    """Runs yearly campaigns over an evolving portfolio."""

    def __init__(
        self,
        portfolio: Portfolio | None = None,
        first_year: int = 2018,
        last_year: int = REFERENCE_YEAR,
        as_ids: list[int] | None = None,
        seed: int = 0,
        targets_per_as: int = 12,
        vps_per_as: int = 2,
    ) -> None:
        if last_year < first_year:
            raise ValueError("last_year must not precede first_year")
        self._portfolio = portfolio or default_portfolio()
        self._first_year = first_year
        self._last_year = last_year
        self._seed = seed
        self._targets = targets_per_as
        self._vps = vps_per_as
        if as_ids is None:
            as_ids = [s.as_id for s in self._portfolio.analyzed()]
        self._as_ids = as_ids

    def run(self) -> list[AdoptionSnapshot]:
        """One snapshot per year, chronological."""
        snapshots = []
        for year in range(self._first_year, self._last_year + 1):
            snapshots.append(self._run_year(year))
        return snapshots

    def _run_year(self, year: int) -> AdoptionSnapshot:
        specs = tuple(
            replace(
                self._portfolio.spec(as_id),
                scenario=scenario_in_year(
                    self._portfolio.spec(as_id),
                    year,
                    self._first_year,
                    seed=self._seed,
                ),
            )
            for as_id in self._as_ids
        )
        runner = CampaignRunner(
            portfolio=Portfolio(specs),
            seed=self._seed,
            targets_per_as=self._targets,
            vps_per_as=self._vps,
        )
        detected = sr_ifaces = mpls_ifaces = 0
        for as_id in self._as_ids:
            result = runner.run_as(as_id)
            analysis = result.analysis
            # strong evidence only: LSO fires on classic service stacks
            # too, which would mask the adoption signal entirely
            detected += analysis.has_sr_evidence(strong_only=True)
            sr_ifaces += len(analysis.sr_addresses)
            mpls_ifaces += len(analysis.mpls_addresses)
        return AdoptionSnapshot(
            year=year,
            ases_analyzed=len(self._as_ids),
            ases_with_sr_evidence=detected,
            sr_interfaces=sr_ifaces,
            mpls_interfaces=mpls_ifaces,
        )


@dataclass(frozen=True, slots=True)
class ReDetectionSnapshot:
    """Strong-evidence tally from re-detecting one year's archives."""

    year: int
    datasets: int
    traces: int
    ases_analyzed: int
    ases_with_sr_evidence: int

    @property
    def detection_share(self) -> float:
        """Fraction of archived target ASes with strong SR evidence."""
        if self.ases_analyzed == 0:
            return 0.0
        return self.ases_with_sr_evidence / self.ases_analyzed


def re_detect_adoption(
    archives_by_year: Mapping[int, Iterable],
    fingerprints: Mapping | None = None,
    chunk: int = 4096,
) -> list[ReDetectionSnapshot]:
    """Adoption curve from *archived* JSONL datasets -- no re-probing.

    The longitudinal question the tracker answers by re-running
    campaigns can also be asked of data already on disk: given each
    year's ``dump_jsonl`` archives, which target ASes show strong SR
    evidence?  This streams every archive as sanitized columnar chunks
    (:meth:`~repro.core.columnar.TraceBatch.iter_jsonl`, the stream
    ``arest detect`` reads, scoped to the archive header's
    ``target_asn``) and runs
    :meth:`~repro.core.columnar.ColumnarDetector.detect_batch` on each
    chunk -- the fast re-detection path (see OPERATIONS.md), so
    decade-scale archives re-analyze in one sitting.  ``traces`` counts
    the traces that reached detection (quarantined ones excluded).

    ``fingerprints`` is an optional address->fingerprint mapping applied
    to every archive (a merged fingerprint DB); without it detection
    still raises the fingerprint-free strong flags (CO), so the curve
    degrades gracefully rather than collapsing.
    """
    from repro.campaign.dataset import TraceDataset
    from repro.core.columnar import ColumnarDetector, TraceBatch
    from repro.core.flags import STRONG_FLAGS

    detector = ColumnarDetector()
    snapshots = []
    for year in sorted(archives_by_year):
        datasets = traces = 0
        ases_analyzed: set[int] = set()
        ases_with: set[int] = set()
        for path in archives_by_year[year]:
            datasets += 1
            asn = TraceDataset.read_header(path).target_asn
            ases_analyzed.add(asn)
            for batch in TraceBatch.iter_jsonl(
                path, fingerprints, chunk, asn=asn
            ):
                traces += len(batch)
                if asn not in ases_with and any(
                    segment.flag in STRONG_FLAGS
                    for segments in detector.detect_batch(batch)
                    for segment in segments
                ):
                    ases_with.add(asn)
        snapshots.append(
            ReDetectionSnapshot(
                year=year,
                datasets=datasets,
                traces=traces,
                ases_analyzed=len(ases_analyzed),
                ases_with_sr_evidence=len(ases_with),
            )
        )
    return snapshots
