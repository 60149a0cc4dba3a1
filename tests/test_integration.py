"""End-to-end integration tests across the full stack.

These exercise the complete chain -- topology generation, control-plane
convergence, probing, fingerprinting, detection, analysis -- the way the
benchmark harness does, and assert the paper's qualitative results.
"""

import pytest

from repro.analysis.validation import validate_against_truth
from repro.campaign import CampaignRunner, TraceDataset
from repro.core.flags import Flag
from repro.core.interworking import InterworkingMode
from repro.core.pipeline import ArestPipeline
from repro.probing.tunnels import TunnelType
from repro.topogen.bdrmapit import BdrmapIt
from repro.topogen.internet import build_measurement_network
from repro.topogen.portfolio import default_portfolio


class TestDatasetRoundtripThroughPipeline:
    def test_serialized_dataset_reanalyzes_identically(
        self, tmp_path, esnet_result
    ):
        """Detection results must survive a dump/load cycle: the paper
        publishes traces for exactly this workflow."""
        path = tmp_path / "esnet.jsonl"
        esnet_result.dataset.dump_jsonl(path)
        loaded = TraceDataset.load_jsonl(path)
        pipeline = ArestPipeline()
        analysis = pipeline.analyze_as(
            esnet_result.spec.asn, loaded.traces, esnet_result.fingerprints
        )
        assert analysis.flag_counts() == (
            esnet_result.analysis.flag_counts()
        )
        assert analysis.sr_addresses == esnet_result.analysis.sr_addresses


class TestBdrmapitIntegration:
    def test_truth_annotator_equals_perfect_bdrmapit(self, esnet_result):
        spec = esnet_result.spec
        net = build_measurement_network(
            spec,
            esnet_result.dataset.metadata["vps"].split(","),
            seed=1,
        )
        bdrmap = BdrmapIt(net.network, error_rate=0.0)
        pipeline = ArestPipeline()
        via_bdrmap = pipeline.analyze_as(
            spec.asn,
            esnet_result.dataset.traces,
            esnet_result.fingerprints,
            asn_of=bdrmap.asn_of_hop,
        )
        via_truth = pipeline.analyze_as(
            spec.asn,
            esnet_result.dataset.traces,
            esnet_result.fingerprints,
        )
        assert via_bdrmap.flag_counts() == via_truth.flag_counts()

    def test_bdrmap_errors_shrink_coverage(self, esnet_result):
        spec = esnet_result.spec
        net = build_measurement_network(
            spec,
            esnet_result.dataset.metadata["vps"].split(","),
            seed=1,
        )
        noisy = BdrmapIt(net.network, error_rate=0.5, seed=9)
        pipeline = ArestPipeline()
        analysis = pipeline.analyze_as(
            spec.asn,
            esnet_result.dataset.traces,
            esnet_result.fingerprints,
            asn_of=noisy.asn_of_hop,
        )
        full = esnet_result.analysis
        assert len(analysis.sr_addresses) <= len(full.sr_addresses)


class TestCrossScenarioShapes:
    """The paper's comparative claims across deployment styles."""

    def test_sr_detection_requires_visibility(self):
        runner = CampaignRunner(seed=2, vps_per_as=2, targets_per_as=10)
        visible = runner.run_as(15)  # Microsoft: explicit
        hidden = runner.run_as(3)  # NTT Docomo: invisible tunnels
        assert visible.analysis.has_sr_evidence(strong_only=False)
        assert not hidden.analysis.has_sr_evidence(strong_only=False)
        assert hidden.truth.deploys_sr  # ...even though SR runs there

    def test_stub_vs_transit_tunnel_visibility(self):
        runner = CampaignRunner(seed=2, vps_per_as=2, targets_per_as=10)
        stub = runner.run_as(7)  # Proximus
        transit = runner.run_as(28)  # Bell Canada
        assert (
            transit.analysis.explicit_tunnel_share()
            >= stub.analysis.explicit_tunnel_share() * 0.8
        )

    def test_hybrid_as_yields_sr_to_ldp(self):
        runner = CampaignRunner(seed=1, vps_per_as=3, targets_per_as=18)
        result = runner.run_as(17)  # Softbank: hybrid confirmed AS
        modes = result.analysis.interworking_modes
        interworking = {
            m: c
            for m, c in modes.items()
            if m
            not in (InterworkingMode.FULL_SR, InterworkingMode.FULL_LDP)
            and c
        }
        if interworking:  # hybrid islands on the probed paths
            assert (
                modes.get(InterworkingMode.SR_TO_LDP, 0)
                >= max(interworking.values()) * 0.5
            )

    def test_interworking_validation_has_no_segment_fps(self):
        runner = CampaignRunner(seed=1, vps_per_as=3, targets_per_as=18)
        result = runner.run_as(17)
        report = validate_against_truth(result)
        for flag in (Flag.CVR, Flag.CO):
            assert report.per_flag[flag].false_positives == 0


class TestPrecisionGuarantee:
    def test_zero_strong_flag_false_positives(
        self, small_portfolio_results
    ):
        """The paper's central precision claim: across every scenario
        flavour, no strong-flag segment is traditional MPLS."""
        from repro.analysis.validation import validate_against_truth
        from repro.core.flags import STRONG_FLAGS

        for as_id, result in small_portfolio_results.items():
            report = validate_against_truth(result)
            for flag in STRONG_FLAGS:
                assert report.per_flag[flag].false_positives == 0, (
                    as_id,
                    flag,
                )


class TestExcludedAses:
    def test_excluded_ases_discover_too_little(self):
        """The 19 excluded Table 5 ASes have tiny simulated footprints."""
        portfolio = default_portfolio()
        runner = CampaignRunner(seed=2, vps_per_as=2, targets_per_as=8)
        result = runner.run_as(45)  # CFU-NET: excluded (72 addresses)
        analyzed = runner.run_as(46)
        excluded_ifaces = (
            len(result.analysis.sr_addresses)
            + len(result.analysis.mpls_addresses)
            + len(result.analysis.ip_addresses)
        )
        analyzed_ifaces = (
            len(analyzed.analysis.sr_addresses)
            + len(analyzed.analysis.mpls_addresses)
            + len(analyzed.analysis.ip_addresses)
        )
        assert excluded_ifaces < analyzed_ifaces


class TestOpaqueEligibility:
    def test_opaque_tunnels_raise_only_stack_flags(self):
        """Sec. 6.2: opaque tunnels expose one LSE, so only LSVR / LVR /
        LSO can fire -- never the consecutive flags."""
        runner = CampaignRunner(seed=2, vps_per_as=3, targets_per_as=12)
        result = runner.run_as(29)  # China Telecom: pipe-mode tunnels
        tunnel_types = result.analysis.tunnel_types
        assert tunnel_types.get(TunnelType.EXPLICIT, 0) <= (
            tunnel_types.get(TunnelType.OPAQUE, 0)
            + tunnel_types.get(TunnelType.INVISIBLE, 0)
        )
        counts = result.analysis.flag_counts()
        assert counts[Flag.CVR] + counts[Flag.CO] == 0


class TestQuarantineAccounting:
    """Quarantined traces are counted everywhere, never silently lost."""

    def test_reconciliation_invariant_clean(self, small_portfolio_results):
        for as_id, result in small_portfolio_results.items():
            analysis = result.analysis
            assert (
                analysis.traces_analyzed + analysis.traces_quarantined
                == analysis.traces_total
            ), as_id
            assert analysis.traces_quarantined == 0, as_id

    def test_reconciliation_invariant_under_corruption(self):
        from repro.analysis.markdown_report import render_markdown_report
        from repro.netsim.faults import FaultPlan

        runner = CampaignRunner(
            seed=1,
            vps_per_as=2,
            targets_per_as=10,
            fault_plan=FaultPlan.corruption(0.25, seed=1),
        )
        report = runner.run_portfolio(as_ids=[15, 46])
        total = analyzed = quarantined = 0
        for as_id in report:
            analysis = report[as_id].analysis
            assert (
                analysis.traces_analyzed + analysis.traces_quarantined
                == analysis.traces_total
            ), as_id
            assert analysis.traces_total == len(report[as_id].dataset.traces)
            total += analysis.traces_total
            analyzed += analysis.traces_analyzed
            quarantined += analysis.traces_quarantined
        assert analyzed + quarantined == total
        # corruption at 25% must actually exercise the sanitizer
        anomalies = sum(len(report[i].analysis.anomalies) for i in report)
        assert anomalies > 0
        # ...and the accounting surfaces in the campaign-level report
        assert report.traces_quarantined == quarantined
        assert sum(report.anomaly_counts.values()) == anomalies
        if quarantined:
            assert f"{quarantined} trace(s) quarantined" in report.summary()
        markdown = render_markdown_report(report.results)
        assert "Data quality" in markdown

    def test_clean_report_has_no_data_quality_section(
        self, small_portfolio_results
    ):
        from repro.analysis.markdown_report import render_markdown_report

        markdown = render_markdown_report(small_portfolio_results.results)
        assert "Data quality" not in markdown


@pytest.mark.slow
class TestFullSixtyAsSweep:
    def test_all_sixty_ases_run(self):
        """Even the 19 excluded Table 5 ASes build, probe and analyze
        without error -- their footprints are just too small to matter
        (which is why the paper excludes them)."""
        runner = CampaignRunner(seed=3, vps_per_as=2, targets_per_as=6)
        portfolio = default_portfolio()
        results = runner.run_portfolio(
            as_ids=[spec.as_id for spec in portfolio]
        )
        assert len(results) == 60
        excluded = {s.as_id for s in portfolio.excluded()}
        excluded_footprints = [
            len(results[i].dataset.distinct_addresses()) for i in excluded
        ]
        analyzed_footprints = [
            len(results[i].dataset.distinct_addresses())
            for i in results
            if i not in excluded
        ]
        assert (
            sum(excluded_footprints) / len(excluded_footprints)
            < sum(analyzed_footprints) / len(analyzed_footprints)
        )
