"""Tests for the ``arest`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "arest" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestRunAs:
    def test_esnet(self, capsys):
        assert main(["run-as", "46", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ESnet" in out
        assert "CO=" in out

    def test_no_evidence_as(self, capsys):
        assert main(
            ["run-as", "3", "--seed", "1", "--targets", "12", "--vps", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "no SR-MPLS evidence" in out

    def test_dump(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        assert main(
            [
                "run-as",
                "46",
                "--targets",
                "8",
                "--vps",
                "2",
                "--dump",
                str(path),
            ]
        ) == 0
        assert path.exists()
        from repro.campaign import TraceDataset

        dataset = TraceDataset.load_jsonl(path)
        assert len(dataset) == 16  # 8 targets x 2 VPs


class TestDetect:
    def test_offline_detection(self, tmp_path, capsys):
        path = tmp_path / "traces.jsonl"
        main(
            ["run-as", "28", "--targets", "8", "--vps", "2",
             "--dump", str(path)]
        )
        capsys.readouterr()
        assert main(["detect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "distinct segments" in out
        assert "CO" in out

    def test_summary_matches_reference_detector(self, tmp_path, capsys):
        from collections import Counter

        from repro.campaign import TraceDataset
        from repro.core.detector import ArestDetector

        path = tmp_path / "traces.jsonl"
        main(
            ["run-as", "28", "--targets", "8", "--vps", "2",
             "--dump", str(path)]
        )
        capsys.readouterr()
        assert main(["detect", str(path)]) == 0
        out = capsys.readouterr().out

        # the same summary, built by the paper-spec oracle
        reference = ArestDetector()
        counts: Counter = Counter()
        seen = set()
        total = 0
        for trace in TraceDataset.iter_jsonl(path):
            total += 1
            for segment in reference.detect(trace, {}):
                if segment.key() not in seen:
                    seen.add(segment.key())
                    counts[segment.flag] += 1
        asn = TraceDataset.read_header(path).target_asn
        expected = [
            f"{total} traces toward AS{asn}, {len(seen)} distinct segments"
        ]
        expected += [
            f"  {flag.name:<4} {count}" for flag, count in counts.most_common()
        ]
        assert counts  # AS 28 shows SR evidence: the table is compared
        assert out == "\n".join(expected) + "\n"

    def test_vendor_breakdown_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "traces.jsonl"
        main(
            ["run-as", "28", "--targets", "8", "--vps", "2",
             "--dump", str(path)]
        )
        capsys.readouterr()
        assert main(["detect", str(path), "--vendor-breakdown"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "target_asn", "traces", "segment_occurrences",
            "distinct_segments", "vendors",
        }
        assert doc["traces"] == 16
        total = sum(
            entry["distinct_segments"] for entry in doc["vendors"].values()
        )
        assert total == doc["distinct_segments"]


class TestValidate:
    def test_table3(self, capsys):
        assert main(["validate", "46", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "precision=1.000" in out


class TestSurvey:
    def test_fig5(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "Cisco" in out
        assert "SRGB: 70%" in out


class TestPortfolioTable:
    def test_table5(self, capsys):
        assert main(["portfolio-table"]) == 0
        out = capsys.readouterr().out
        assert "AS#46" in out and "ESnet" in out
        assert out.count("AS#") == 60


class TestErrorPaths:
    def test_detect_missing_file(self):
        with pytest.raises(FileNotFoundError):
            main(["detect", "/nonexistent/traces.jsonl"])

    def test_run_as_unknown_id(self):
        with pytest.raises(KeyError):
            main(["run-as", "99"])

    def test_validate_unknown_id(self):
        with pytest.raises(KeyError):
            main(["validate", "99"])


class TestTestbedCommand:
    def test_all_pass(self, capsys):
        assert main(["testbed"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5
        assert "all five flags isolated" in out


class TestDegradationCommand:
    ARGS = ["degradation", "--vps", "1", "--targets", "4", "--seed", "3"]

    def test_loss_sweep(self, capsys):
        assert main(self.ARGS + ["--loss-levels", "0,0.1"]) == 0
        out = capsys.readouterr().out
        assert "Degradation curves" in out
        assert "probe loss" in out
        assert "Loss" in out and "CVR R/P" in out
        assert "0%" in out and "10%" in out

    def test_corruption_sweep(self, capsys):
        assert main(self.ARGS + ["--corruption", "0,0.1"]) == 0
        out = capsys.readouterr().out
        assert "Degradation curves" in out
        assert "vs. corruption" in out
        assert "Corruption" in out and "Quarantined" in out
        assert "0%" in out and "10%" in out

    def test_corruption_sweep_with_stale_replay(self, capsys):
        assert main(
            self.ARGS + ["--corruption", "0.1", "--stale-replay", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "vs. corruption" in out


class TestPortfolioCommand:
    def test_small_portfolio_summary(self, capsys):
        assert main(
            ["portfolio", "--targets", "6", "--vps", "2", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out
        assert "confirmed ASes detected" in out


class TestLoggingOptions:
    def test_log_flags_are_accepted(self, capsys):
        assert main(
            [
                "--log-level",
                "debug",
                "--log-format",
                "json",
                "run-as",
                "46",
                "--targets",
                "4",
                "--vps",
                "1",
            ]
        ) == 0
        assert "ESnet" in capsys.readouterr().out

    def test_rejects_unknown_level_and_format(self):
        with pytest.raises(SystemExit):
            main(["--log-level", "chatty", "portfolio-table"])
        with pytest.raises(SystemExit):
            main(["--log-format", "xml", "portfolio-table"])


class TestTelemetryCommand:
    def _collect(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        assert main(
            [
                "run-as",
                "46",
                "--targets",
                "4",
                "--vps",
                "1",
                "--telemetry-dir",
                str(telemetry_dir),
            ]
        ) == 0
        return telemetry_dir

    def test_text_report(self, tmp_path, capsys):
        telemetry_dir = self._collect(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", str(telemetry_dir)]) == 0
        out = capsys.readouterr().out
        assert "exit=ok" in out
        assert "Per-stage wall-clock seconds" in out
        assert "Per-AS counters" in out
        assert "AS#46" in out

    def test_prometheus_output(self, tmp_path, capsys):
        telemetry_dir = self._collect(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", str(telemetry_dir), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "arest_run_info{" in out
        assert 'exit_status="ok"' in out

    def test_missing_directory_fails(self, tmp_path, capsys):
        assert main(["telemetry", str(tmp_path / "nowhere")]) == 1
        assert "no telemetry found" in capsys.readouterr().err

    def test_json_report(self, tmp_path, capsys):
        import json

        telemetry_dir = self._collect(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", str(telemetry_dir), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["manifest"]["exit_status"] == "ok"
        assert "stages" in report
        assert "46" in report["counters"]


class TestTimelineCommand:
    def _collect(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        assert main(
            [
                "run-as",
                "46",
                "--targets",
                "4",
                "--vps",
                "1",
                "--telemetry-dir",
                str(telemetry_dir),
            ]
        ) == 0
        return telemetry_dir

    def test_text_timeline(self, tmp_path, capsys):
        telemetry_dir = self._collect(tmp_path)
        capsys.readouterr()
        assert main(["timeline", str(telemetry_dir)]) == 0
        out = capsys.readouterr().out
        assert "trace" in out
        assert "Critical path" in out

    def test_json_timeline(self, tmp_path, capsys):
        import json

        telemetry_dir = self._collect(tmp_path)
        capsys.readouterr()
        assert main(["timeline", str(telemetry_dir), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace_id"]
        assert report["spans"] > 0
        assert 0.0 < report["critical_path_share"] <= 1.0

    def test_trace_json_artifact(self, tmp_path, capsys):
        import json

        telemetry_dir = self._collect(tmp_path)
        artifact = tmp_path / "trace-events.json"
        capsys.readouterr()
        assert main(
            ["timeline", str(telemetry_dir), "--trace-json", str(artifact)]
        ) == 0
        assert "trace events written" in capsys.readouterr().out
        doc = json.loads(artifact.read_text())
        assert doc["traceEvents"]
        assert all(e["ph"] in ("X", "M") for e in doc["traceEvents"])

    def test_missing_directory_fails(self, tmp_path, capsys):
        assert main(["timeline", str(tmp_path / "nowhere")]) == 1
        assert "no traced spans" in capsys.readouterr().err
