"""Wire codec: total decoding, header skipping, canonical JSON."""

from __future__ import annotations

import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.campaign.dataset import TraceDataset
from repro.service.wire import (
    REASON_BAD_JSON,
    REASON_BAD_TRACE,
    REASON_NOT_A_TRACE,
    WireRejection,
    canonical_json,
    decode_body,
    decode_trace_line,
    trace_to_json,
)
from tests.conftest import scaled_examples
from tests.service.conftest import corpus


def _line(trace) -> str:
    return json.dumps(trace_to_json(trace))


class TestDecodeTraceLine:
    def test_round_trip(self):
        for trace in corpus():
            assert decode_trace_line(_line(trace)) == trace

    def test_header_lines_are_skipped_not_rejected(self):
        line = json.dumps({"kind": "header", "target_asn": 65001})
        assert decode_trace_line(line) is None

    def test_bad_json(self):
        outcome = decode_trace_line("{not json", lineno=7)
        assert isinstance(outcome, WireRejection)
        assert outcome.reason == REASON_BAD_JSON
        assert outcome.lineno == 7

    def test_non_object(self):
        outcome = decode_trace_line("[1, 2, 3]")
        assert isinstance(outcome, WireRejection)
        assert outcome.reason == REASON_NOT_A_TRACE

    def test_wrong_kind(self):
        outcome = decode_trace_line(json.dumps({"kind": "checkpoint"}))
        assert isinstance(outcome, WireRejection)
        assert outcome.reason == REASON_NOT_A_TRACE

    def test_trace_kind_with_broken_fields(self):
        outcome = decode_trace_line(json.dumps({"kind": "trace"}))
        assert isinstance(outcome, WireRejection)
        assert outcome.reason == REASON_BAD_TRACE

    @settings(max_examples=scaled_examples(50))
    @given(st.text(max_size=80))
    def test_decoding_is_total(self, text):
        # any input lands in a bucket; nothing raises
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                decode_trace_line(line, lineno)
        decode_body(text)


class TestDecodeBody:
    def test_batch_with_every_bucket(self):
        traces = corpus(3)
        body = "\n".join(
            [
                json.dumps({"kind": "header", "target_asn": 65001}),
                _line(traces[0]),
                "",
                "garbage",
                _line(traces[1]),
                json.dumps({"kind": "trace"}),
                _line(traces[2]),
            ]
        )
        decoded = decode_body(body)
        assert decoded.traces == traces
        assert decoded.skipped_headers == 1
        assert [r.reason for r in decoded.rejections] == [
            REASON_BAD_JSON,
            REASON_BAD_TRACE,
        ]
        # linenos point at the offending body lines
        assert [r.lineno for r in decoded.rejections] == [4, 6]

    def test_single_object_is_a_one_line_batch(self):
        trace = corpus(1)[0]
        decoded = decode_body(_line(trace))
        assert decoded.traces == [trace]
        assert decoded.texts == [_line(trace)]
        assert not decoded.rejections

    def test_only_newline_splits_lines(self, tmp_path):
        # U+2028, U+2029 and U+0085 are line boundaries to
        # str.splitlines() but plain characters to JSON and to a dataset
        # file read line by line
        vp = "vp\u2028\u2029\u0085\u00e9"
        traces = [replace(t, vp=vp) for t in corpus(2)]
        lines = [
            json.dumps(trace_to_json(t), ensure_ascii=False) for t in traces
        ]
        decoded = decode_body(
            f"{lines[0]}\r\n  garbage\r\n\t{lines[1]} \r\n"
        )
        assert decoded.traces == traces
        assert decoded.texts == lines
        assert [(r.lineno, r.reason) for r in decoded.rejections] == [
            (2, REASON_BAD_JSON)
        ]
        dataset = tmp_path / "traces.jsonl"
        TraceDataset(target_asn=65001, traces=traces).dump_jsonl(dataset)
        with dataset.open("a", encoding="utf-8") as fh:
            fh.write(lines[0] + "\n")
        assert list(TraceDataset.iter_jsonl(dataset)) == [*traces, traces[0]]


class TestCanonicalJson:
    def test_sorted_tight_newline_terminated(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}\n'

    def test_key_order_never_leaks(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json(
            {"y": 2, "x": 1}
        )
