"""Tests for the trace dataset container and JSONL round-trips."""

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign.dataset import TraceDataset, trace_to_json
from repro.netsim.addressing import IPv4Address
from repro.probing.records import QuotedLse, Trace, TraceHop

from tests.conftest import make_hop, make_trace


def sample_dataset() -> TraceDataset:
    dataset = TraceDataset(target_asn=293, metadata={"seed": "1"})
    dataset.add(
        make_trace(
            [
                make_hop(1, "10.0.0.1"),
                make_hop(2, None),
                make_hop(
                    3,
                    "10.0.0.3",
                    labels=(16_005, 15_101),
                    truth_planes=("sr", "service"),
                ),
                make_hop(4, "10.0.0.4", destination_reply=True),
            ]
        )
    )
    return dataset


class TestContainer:
    def test_views(self):
        dataset = sample_dataset()
        assert len(dataset) == 1
        assert len(dataset.distinct_addresses()) == 3
        assert dataset.vantage_points() == ["test-vp"]
        assert len(dataset.traces_from_vp("test-vp")) == 1
        assert dataset.traces_from_vp("nope") == []

    def test_extend(self):
        dataset = sample_dataset()
        dataset.extend(sample_dataset().traces)
        assert len(dataset) == 2


class TestJsonlRoundtrip:
    def test_roundtrip_exact(self, tmp_path):
        dataset = sample_dataset()
        path = tmp_path / "traces.jsonl"
        dataset.dump_jsonl(path)
        loaded = TraceDataset.load_jsonl(path)
        assert loaded.target_asn == dataset.target_asn
        assert loaded.metadata == dataset.metadata
        assert loaded.traces == dataset.traces

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "trace"}\n')
        with pytest.raises(ValueError):
            TraceDataset.load_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            TraceDataset.load_jsonl(path)

    def test_malformed_trace_line_names_file_and_line(self, tmp_path):
        dataset = sample_dataset()
        path = tmp_path / "traces.jsonl"
        dataset.dump_jsonl(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10] + "<<GARBAGE>>"  # first trace, line 2
        path.write_text("\n".join(lines) + "\n")

        with pytest.raises(ValueError) as excinfo:
            TraceDataset.load_jsonl(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "line 2" in message
        assert isinstance(excinfo.value.__cause__, json.JSONDecodeError)

        # well-formed JSON that is not a well-formed trace, too
        def missing_key(record):
            del record["vp_rid"]

        def label_out_of_range(record):
            record["hops"][2]["lses"][0][0] = 2**21

        def hops_not_a_list(record):
            record["hops"] = 7

        for damage, cause in [
            (missing_key, KeyError),
            (label_out_of_range, ValueError),
            (hops_not_a_list, TypeError),
        ]:
            record = trace_to_json(dataset.traces[0])
            damage(record)
            lines[1] = json.dumps(record)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError) as excinfo:
                TraceDataset.load_jsonl(path)
            message = str(excinfo.value)
            assert str(path) in message, damage
            assert "line 2" in message, damage
            assert type(excinfo.value.__cause__) is cause, damage

    def test_malformed_header_names_file_and_line_one(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError) as excinfo:
            TraceDataset.load_jsonl(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "line 1" in message

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ttl=st.integers(min_value=1, max_value=40),
        label=st.integers(min_value=0, max_value=2**20 - 1),
        lse_ttl=st.integers(min_value=0, max_value=255),
        revealed=st.booleans(),
        pipe=st.booleans(),
    )
    def test_hop_roundtrip_property(
        self, tmp_path, ttl, label, lse_ttl, revealed, pipe
    ):
        hop = TraceHop(
            probe_ttl=ttl,
            address=IPv4Address.from_string("192.0.2.9"),
            rtt_ms=1.25,
            reply_ip_ttl=200,
            lses=(
                QuotedLse(
                    label=label, tc=0, bottom_of_stack=True, ttl=lse_ttl
                ),
            ),
            tnt_revealed=revealed,
            truth_router_id=17,
            truth_asn=293,
            truth_planes=("sr",),
            truth_uniform=not pipe,
        )
        trace = Trace(
            vp="v",
            vp_router_id=0,
            destination=IPv4Address.from_string("192.0.2.1"),
            flow_id=1,
            hops=(hop,),
            reached=False,
        )
        dataset = TraceDataset(target_asn=293, traces=[trace])
        path = tmp_path / "prop.jsonl"
        dataset.dump_jsonl(path)
        assert TraceDataset.load_jsonl(path).traces[0] == trace
