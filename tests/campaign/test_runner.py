"""Integration tests for the campaign runner."""

import pytest

from repro.campaign import CampaignRunner
from repro.core.flags import Flag


class TestEsnetCampaign(object):
    """The ground-truth AS: the paper's Table 3 story must hold."""

    def test_every_trace_crosses_the_as(self, esnet_result):
        analysis = esnet_result.analysis
        assert analysis.traces_in_as == analysis.traces_total > 0

    def test_co_dominates(self, esnet_result):
        counts = esnet_result.analysis.flag_counts()
        total = sum(counts.values())
        assert counts[Flag.CO] / total >= 0.8
        assert counts[Flag.CVR] == 0  # nothing fingerprintable
        assert counts[Flag.LSVR] == 0
        assert counts[Flag.LVR] == 0

    def test_truth_marks_sr_interfaces(self, esnet_result):
        assert esnet_result.truth.deploys_sr
        assert esnet_result.truth.sr_addresses
        assert not esnet_result.truth.ldp_addresses

    def test_detected_sr_subset_of_truth(self, esnet_result):
        detected = esnet_result.analysis.sr_addresses
        assert detected
        assert detected <= esnet_result.truth.sr_addresses

    def test_no_in_as_fingerprints_identified(self, esnet_result):
        # ESnet boxes answer neither SNMPv3 nor ping; only transit-side
        # or destination addresses may fingerprint.
        analysis = esnet_result.analysis
        in_as = (
            analysis.sr_addresses
            | analysis.mpls_addresses
            | analysis.ip_addresses
        )
        for address in in_as:
            fp = esnet_result.fingerprints.get(address)
            assert fp is None or not fp.identified

    def test_trace_segments_collected(self, esnet_result):
        assert esnet_result.trace_segments
        assert all(
            isinstance(segments, list)
            for _trace, segments in esnet_result.trace_segments
        )


class TestRunnerMechanics:
    def test_deterministic_runs(self):
        a = CampaignRunner(seed=11, vps_per_as=2, targets_per_as=6).run_as(27)
        b = CampaignRunner(seed=11, vps_per_as=2, targets_per_as=6).run_as(27)
        assert a.dataset.traces == b.dataset.traces
        assert a.analysis.flag_counts() == b.analysis.flag_counts()

    def test_seed_changes_results(self):
        a = CampaignRunner(seed=11, vps_per_as=2, targets_per_as=6).run_as(27)
        b = CampaignRunner(seed=12, vps_per_as=2, targets_per_as=6).run_as(27)
        assert a.dataset.traces != b.dataset.traces

    def test_each_vp_probes_all_targets(self):
        runner = CampaignRunner(seed=3, vps_per_as=3, targets_per_as=8)
        result = runner.run_as(27)
        by_vp = {
            vp: len(result.dataset.traces_from_vp(vp))
            for vp in result.dataset.vantage_points()
        }
        assert len(by_vp) == 3
        assert len(set(by_vp.values())) == 1  # same target count per VP

    def test_vp_shuffling_differs(self):
        runner = CampaignRunner(seed=3, vps_per_as=2, targets_per_as=8)
        result = runner.run_as(27)
        vps = result.dataset.vantage_points()
        order_a = [
            t.destination for t in result.dataset.traces_from_vp(vps[0])
        ]
        order_b = [
            t.destination for t in result.dataset.traces_from_vp(vps[1])
        ]
        assert sorted(order_a, key=int) == sorted(order_b, key=int)
        assert order_a != order_b

    def test_run_portfolio_subset(self):
        runner = CampaignRunner(seed=3, vps_per_as=2, targets_per_as=6)
        results = runner.run_portfolio(as_ids=[46, 7])
        assert set(results) == {46, 7}

    def test_invalid_vps_per_as(self):
        with pytest.raises(ValueError):
            CampaignRunner(vps_per_as=0)

    def test_whole_as_task_renews_its_lease_per_vp(self):
        # each VP re-sends the current stage as a heartbeat, so a long
        # probe stage keeps its lease without a stage name of its own
        from repro.campaign.scale import _scale_task
        from repro.campaign.shardexec import WorkerControl

        runner = CampaignRunner(seed=1, vps_per_as=3, targets_per_as=4)
        ctl = WorkerControl()
        # (runner class, kwargs, AS, spill dir, keep, RSS budget, trace)
        payload = (CampaignRunner, runner._spawn_config(), 46, None,
                   False, None, None)
        message = _scale_task(("as", payload), ctl)
        assert message["status"] == "ok"
        assert set(ctl.stages) == {
            "setup", "topology", "probe", "fingerprint", "analysis", "done"
        }
        assert ctl.stages.count("probe") == 1 + runner.vps_per_as

    def test_metadata_recorded(self):
        runner = CampaignRunner(seed=3, vps_per_as=2, targets_per_as=6)
        result = runner.run_as(27)
        assert result.dataset.metadata["as_id"] == "27"
        assert result.dataset.metadata["seed"] == "3"
        assert len(result.dataset.metadata["vps"].split(",")) == 2


class TestPortfolioShapes:
    def test_proximus_is_lso_only(self, small_portfolio_results):
        counts = small_portfolio_results[7].analysis.flag_counts()
        assert counts[Flag.LSO] > 0
        assert all(
            counts[f] == 0 for f in Flag if f is not Flag.LSO
        )

    def test_microsoft_has_strong_flags(self, small_portfolio_results):
        counts = small_portfolio_results[15].analysis.flag_counts()
        assert counts[Flag.CVR] + counts[Flag.CO] > 0

    def test_kddi_fingerprint_rich(self, small_portfolio_results):
        # AS#31 overrides give high SNMP coverage -> CVR dominates
        counts = small_portfolio_results[31].analysis.flag_counts()
        assert counts[Flag.CVR] > 0

    def test_truth_consistency(self, small_portfolio_results):
        for result in small_portfolio_results.values():
            if not result.spec.scenario.deploys_sr:
                assert not result.truth.sr_addresses


class TestAliasIntegration:
    def test_alias_sets_cover_known_addresses(self, esnet_result):
        covered = {
            address
            for alias_set in esnet_result.alias_sets
            for address in alias_set.addresses
        }
        # every covered address was observed; near-total coverage
        observed = esnet_result.dataset.distinct_addresses()
        assert covered <= observed
        assert len(covered) >= len(observed) - 2

    def test_router_view_smaller_than_interface_view(self, esnet_result):
        assert esnet_result.router_count() <= len(
            esnet_result.dataset.distinct_addresses()
        )
        assert esnet_result.router_count() > 0

    def test_sr_router_count_bounded(self, esnet_result):
        assert 0 < esnet_result.sr_router_count() <= (
            esnet_result.router_count()
        )


class TestVpClamp:
    def test_clamp_warns_and_records_metadata(self, caplog):
        from repro.campaign.vantage_points import default_vantage_points

        pool = tuple(default_vantage_points()[:3])
        with caplog.at_level("WARNING", logger="repro.campaign.runner"):
            runner = CampaignRunner(
                vantage_points=pool, seed=3, vps_per_as=5, targets_per_as=6
            )
        assert runner.vps_requested == 5
        assert runner.vps_per_as == 3
        assert any(
            "clamping" in record.getMessage() for record in caplog.records
        )
        metadata = runner.run_as(27).dataset.metadata
        assert metadata["vps_requested"] == "5"
        assert metadata["vps_effective"] == "3"

    def test_no_clamp_leaves_metadata_untouched(self):
        runner = CampaignRunner(seed=3, vps_per_as=2, targets_per_as=6)
        metadata = runner.run_as(27).dataset.metadata
        assert "vps_requested" not in metadata
        assert "vps_effective" not in metadata


class TestFingerprintDedupe:
    def test_lookups_hit_each_key_once(self, monkeypatch):
        from repro.fingerprint.combined import CombinedFingerprinter

        calls = []
        original = CombinedFingerprinter.fingerprint

        def counting(self, address, reply_ttl, vp_router_id):
            calls.append((address, reply_ttl, vp_router_id))
            return original(self, address, reply_ttl, vp_router_id)

        monkeypatch.setattr(CombinedFingerprinter, "fingerprint", counting)
        runner = CampaignRunner(seed=3, vps_per_as=2, targets_per_as=8)
        result = runner.run_as(27)
        # every (address, reply TTL, VP) key is probed at most once...
        assert len(calls) == len(set(calls))
        # ...which is strictly cheaper than probing every hop occurrence
        occurrences = sum(
            1
            for trace in result.dataset
            for hop in trace.hops
            if hop.address is not None
        )
        assert 0 < len(calls) < occurrences

    def test_dedupe_preserves_results(self):
        # Two identical runs (the dedupe is always on) stay deterministic
        # and identified addresses keep their fingerprints.
        a = CampaignRunner(seed=3, vps_per_as=2, targets_per_as=8).run_as(31)
        b = CampaignRunner(seed=3, vps_per_as=2, targets_per_as=8).run_as(31)
        assert a.fingerprints == b.fingerprints
        assert any(fp.identified for fp in a.fingerprints.values())


class TestAnonymizedDump:
    def test_cli_anonymized_dump(self, tmp_path, capsys):
        from repro.campaign import TraceDataset
        from repro.cli import main

        path = tmp_path / "release.jsonl"
        assert main(
            [
                "run-as", "46", "--targets", "8", "--vps", "2",
                "--dump", str(path), "--anonymize", "release-key",
            ]
        ) == 0
        released = TraceDataset.load_jsonl(path)
        assert released.metadata["anonymized"] == "prefix-preserving"
        for trace in released:
            for hop in trace.hops:
                assert hop.truth_asn is None
