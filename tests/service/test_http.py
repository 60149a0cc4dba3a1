"""End-to-end HTTP tests against an in-process service instance.

Real sockets, real request bytes: each test boots an
:class:`~repro.service.server.ArestService` on an ephemeral port,
talks to it with a tiny asyncio HTTP client, and drives the lifecycle
explicitly (no signals -- the subprocess tests cover those).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import replace

import pytest

from repro.probing.sanitize import TraceSanitizer
from repro.service.server import ArestService, ServiceConfig
from repro.service.state import (
    MAX_BATCH,
    SegmentAggregate,
    ServiceState,
    batch_aggregate,
)
from repro.service.wire import trace_to_json
from tests.service.conftest import corpus


def _lines(traces) -> str:
    return "\n".join(json.dumps(trace_to_json(t)) for t in traces)


async def _request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: str = "",
    headers: dict | None = None,
):
    """One HTTP/1.1 exchange; returns (status, headers, body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = body.encode("utf-8")
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}",
        f"Content-Length: {len(payload)}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, data = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    status = int(status_line.split(" ")[1])
    parsed = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        parsed[name.strip().lower()] = value.strip()
    return status, parsed, data


class _Service:
    """Async context manager: a running service on an ephemeral port."""

    def __init__(self, tmp_path, **overrides):
        defaults = dict(
            state_dir=tmp_path / "state", port=0, detect_timeout=None
        )
        defaults.update(overrides)
        self.config = ServiceConfig(**defaults)
        self.service = ArestService(self.config)

    async def __aenter__(self):
        self.host, self.port = await self.service.start()
        return self

    async def __aexit__(self, *exc):
        if not self.service._stop.is_set():
            self.service.request_drain()
        await self.service.serve_until_shutdown()

    async def request(self, method, path, body="", headers=None):
        return await _request(
            self.host, self.port, method, path, body, headers
        )


class TestRoutes:
    def test_segments_match_the_batch_pipeline(self, tmp_path):
        traces = corpus(6)

        async def run():
            async with _Service(tmp_path) as svc:
                status, _, body = await svc.request(
                    "POST", "/trace", _lines(traces)
                )
                assert status == 202
                acked = json.loads(body)
                assert acked["accepted"] == len(traces)
                await svc.service.queue.join()
                # one posted request, one dequeued batch, one analysis
                # call; the detect histogram still counts traces
                _, _, report = await svc.request("GET", "/report")
                workers = json.loads(report)["service"]["workers"]
                assert workers["batches"] == 1
                _, _, metrics = await svc.request("GET", "/metrics")
                assert (
                    'arest_stage_latency_seconds_count{stage="detect"} '
                    f"{len(traces)}" in metrics.decode()
                )
                status, headers, body = await svc.request(
                    "GET", "/segments"
                )
                assert status == 200
                assert headers["content-type"] == "application/json"
                return body

        served = asyncio.run(run())
        assert served == batch_aggregate(traces).segments_json()

    def test_zero_depth_means_every_trace_is_folded(
        self, tmp_path, monkeypatch
    ):
        """Clients poll ``/healthz`` until ``queue_depth`` is 0: a batch
        a worker dequeued still counts until it is folded in."""
        traces = corpus(8)
        # the last trace holds its batch in analysis for a while
        traces[-1] = replace(traces[-1], flow_id=777)
        real = TraceSanitizer.sanitize

        def stall(self, trace):
            if trace.flow_id == 777:
                time.sleep(0.3)
            return real(self, trace)

        monkeypatch.setattr(TraceSanitizer, "sanitize", stall)

        async def run():
            async with _Service(tmp_path, detect_timeout=30.0) as svc:
                status, _, _ = await svc.request(
                    "POST", "/trace", _lines(traces)
                )
                assert status == 202
                deadline = time.monotonic() + 60
                while True:
                    _, _, body = await svc.request("GET", "/healthz")
                    if json.loads(body)["queue_depth"] == 0:
                        break
                    assert time.monotonic() < deadline, "never drained"
                    await asyncio.sleep(0.001)
                _, _, body = await svc.request("GET", "/segments")
                return body

        served = asyncio.run(run())
        assert served == batch_aggregate(traces).segments_json()

    def test_single_object_body(self, tmp_path):
        trace = corpus(1)[0]

        async def run():
            async with _Service(tmp_path) as svc:
                status, _, body = await svc.request(
                    "POST", "/trace", json.dumps(trace_to_json(trace))
                )
                assert status == 202
                assert json.loads(body)["accepted"] == 1

        asyncio.run(run())

    def test_malformed_only_body_is_a_400(self, tmp_path):
        async def run():
            async with _Service(tmp_path) as svc:
                status, _, body = await svc.request(
                    "POST", "/trace", "not json\n[]\n"
                )
                assert status == 400
                doc = json.loads(body)
                assert len(doc["rejected"]) == 2
                # the refusals are visible on /metrics
                _, _, metrics = await svc.request("GET", "/metrics")
                text = metrics.decode()
                assert (
                    'arest_ingest_rejected_total{reason="bad-json"} 1'
                    in text
                )
                assert (
                    'arest_ingest_rejected_total{reason="not-a-trace"} 1'
                    in text
                )

        asyncio.run(run())

    def test_mixed_body_accepts_the_good_lines(self, tmp_path):
        traces = corpus(2)
        body = f"{_lines(traces[:1])}\ngarbage\n{_lines(traces[1:])}"

        async def run():
            async with _Service(tmp_path) as svc:
                status, _, payload = await svc.request(
                    "POST", "/trace", body
                )
                assert status == 202
                doc = json.loads(payload)
                assert doc["accepted"] == 2
                assert len(doc["rejected"]) == 1

        asyncio.run(run())

    def test_report_and_healthz_and_unknowns(self, tmp_path):
        async def run():
            async with _Service(tmp_path) as svc:
                status, _, body = await svc.request("GET", "/healthz")
                assert status == 200
                assert json.loads(body)["status"] == "ok"
                status, _, body = await svc.request("GET", "/report")
                assert status == 200
                doc = json.loads(body)
                assert doc["kind"] == "arest-report"
                assert doc["service"]["queue"]["capacity"] == 1024
                status, _, _ = await svc.request("GET", "/nope")
                assert status == 404
                status, _, _ = await svc.request("PUT", "/segments")
                assert status == 405
                status, _, _ = await svc.request("GET", "/trace")
                assert status == 405

        asyncio.run(run())


class TestWorkers:
    def test_two_workers_fold_to_the_batch_bytes(
        self, tmp_path, monkeypatch
    ):
        """Batches analyzed on two workers fold out of order; the bytes,
        the watermark and the drained journal must not notice."""
        traces = corpus(3 * MAX_BATCH + 8)
        # the first trace stalls the first batch, so the other worker's
        # batches fold ahead of it
        traces[0] = replace(traces[0], flow_id=777)
        real = TraceSanitizer.sanitize

        def stall(self, trace):
            if trace.flow_id == 777:
                time.sleep(0.5)
            return real(self, trace)

        monkeypatch.setattr(TraceSanitizer, "sanitize", stall)
        folded: list[int] = []
        real_ingest = ServiceState.ingest

        def ingest(self, seqs, delta):
            folded.append(min(seqs))
            real_ingest(self, seqs, delta)

        monkeypatch.setattr(ServiceState, "ingest", ingest)
        posts = [traces[i : i + 40] for i in range(0, len(traces), 40)]

        async def run():
            async with _Service(
                tmp_path, workers=2, detect_timeout=30.0, snapshot_every=50
            ) as svc:
                replies = await asyncio.gather(
                    *(
                        svc.request("POST", "/trace", _lines(post))
                        for post in posts
                    )
                )
                assert [status for status, _, _ in replies] == (
                    [202] * len(posts)
                )
                await asyncio.wait_for(svc.service.queue.join(), timeout=60)
                _, _, report = await svc.request("GET", "/report")
                service = json.loads(report)["service"]
                assert service["queue"]["accepted_total"] == len(traces)
                assert service["fed_watermark"] == len(traces)
                assert service["workers"]["poisoned"] == 0
                _, _, body = await svc.request("GET", "/segments")
                return body

        served = asyncio.run(run())
        assert folded != sorted(folded)
        assert served == batch_aggregate(traces).segments_json()
        journal = (tmp_path / "state" / "ingest.jsonl").read_text()
        assert len(journal.splitlines()) == 1


class TestBackpressure:
    def test_bound_holds_and_every_202_trace_lands(self, tmp_path):
        """The backpressure satellite: 429s + Retry-After, no loss."""
        traces = corpus(12)

        async def run():
            async with _Service(
                tmp_path,
                queue_capacity=4,
                low_watermark=0,
                fair_share=4,
            ) as svc:
                # freeze consumption so depth actually builds
                await svc.service.pool.stop()
                accepted: list = []
                saw_429 = False
                for i in range(0, len(traces), 2):
                    batch = traces[i : i + 2]
                    status, headers, _ = await svc.request(
                        "POST", "/trace", _lines(batch)
                    )
                    if status == 202:
                        accepted.extend(batch)
                    else:
                        saw_429 = True
                        assert status == 429
                        assert int(headers["retry-after"]) >= 1
                    assert svc.service.queue.depth <= 4
                assert saw_429
                assert svc.service.queue.peak_depth <= 4

                # resume workers: every acknowledged trace must land
                svc.service.pool.start()
                await svc.service.queue.join()
                _, _, body = await svc.request("GET", "/segments")
                return accepted, body

        accepted, body = asyncio.run(run())
        assert 0 < len(accepted) < len(traces)
        assert body == batch_aggregate(accepted).segments_json()

    def test_submitter_quota_is_per_submitter(self, tmp_path):
        traces = corpus(6)

        async def run():
            async with _Service(
                tmp_path,
                queue_capacity=8,
                low_watermark=0,
                fair_share=2,
            ) as svc:
                await svc.service.pool.stop()
                status, _, _ = await svc.request(
                    "POST",
                    "/trace",
                    _lines(traces[:2]),
                    headers={"X-AReST-Submitter": "firehose"},
                )
                assert status == 202
                status, _, body = await svc.request(
                    "POST",
                    "/trace",
                    _lines(traces[2:4]),
                    headers={"X-AReST-Submitter": "firehose"},
                )
                assert status == 429
                assert (
                    json.loads(body)["reason"] == "submitter-quota"
                )
                status, _, _ = await svc.request(
                    "POST",
                    "/trace",
                    _lines(traces[4:6]),
                    headers={"X-AReST-Submitter": "polite"},
                )
                assert status == 202
                svc.service.pool.start()
                await svc.service.queue.join()

        asyncio.run(run())


class TestPoisonContainment:
    """Poison injected into the sanitizer, which every analysis runs:
    the batched call and the trace-by-trace retry alike."""

    def test_poison_exception_never_kills_a_worker(
        self, tmp_path, monkeypatch
    ):
        traces = corpus(4)
        real = TraceSanitizer.sanitize

        def explosive(self, trace):
            if trace.flow_id == 666:
                raise RuntimeError("crafted poison")
            return real(self, trace)

        monkeypatch.setattr(TraceSanitizer, "sanitize", explosive)
        poison = replace(traces[1], flow_id=666)
        stream = [traces[0], poison, traces[2], traces[3]]

        async def run():
            async with _Service(tmp_path) as svc:
                status, _, _ = await svc.request(
                    "POST", "/trace", _lines(stream)
                )
                assert status == 202
                await svc.service.queue.join()
                assert svc.service.pool.poisoned == 1
                _, _, body = await svc.request("GET", "/segments")
                return body

        body = asyncio.run(run())
        doc = json.loads(body)
        assert doc["traces"]["collected"] == 4
        assert doc["traces"]["quarantined"] >= 1
        assert doc["anomalies"]["poison-trace"] == 1
        assert (
            doc["traces"]["analyzed"] + doc["traces"]["quarantined"]
            == doc["traces"]["collected"]
        )

    def test_hung_analysis_hits_the_deadline(
        self, tmp_path, monkeypatch
    ):
        traces = corpus(2)
        real = TraceSanitizer.sanitize

        def hang(self, trace):
            if trace.flow_id == 666:
                time.sleep(5)
            return real(self, trace)

        monkeypatch.setattr(TraceSanitizer, "sanitize", hang)
        stream = [replace(traces[0], flow_id=666), traces[1]]

        async def run():
            async with _Service(
                tmp_path, detect_timeout=0.2
            ) as svc:
                status, _, _ = await svc.request(
                    "POST", "/trace", _lines(stream)
                )
                assert status == 202
                await asyncio.wait_for(
                    svc.service.queue.join(), timeout=10
                )
                assert svc.service.pool.timeouts == 1
                # the worker survived: the good trace was analyzed
                _, _, body = await svc.request("GET", "/segments")
                doc = json.loads(body)
                assert doc["traces"]["collected"] == 2
                assert doc["anomalies"]["poison-trace"] == 1

        asyncio.run(run())

    def test_poison_mid_batch_quarantines_only_that_trace(
        self, tmp_path, monkeypatch
    ):
        traces = corpus(9)
        real = TraceSanitizer.sanitize

        def explosive(self, trace):
            if trace.flow_id == 666:
                raise RuntimeError("crafted poison")
            return real(self, trace)

        monkeypatch.setattr(TraceSanitizer, "sanitize", explosive)
        stream = [*traces[:4], replace(traces[4], flow_id=666), *traces[5:]]

        async def run():
            async with _Service(tmp_path) as svc:
                status, _, _ = await svc.request(
                    "POST", "/trace", _lines(stream)
                )
                assert status == 202
                await asyncio.wait_for(svc.service.queue.join(), timeout=60)
                pool = svc.service.pool
                assert (pool.poisoned, pool.timeouts) == (1, 0)
                # one failed batch call, then one call per trace
                assert pool.batches == 1 + len(stream)
                _, _, body = await svc.request("GET", "/segments")
                return body

        served = asyncio.run(run())
        expected = batch_aggregate([*traces[:4], *traces[5:]])
        expected.merge(SegmentAggregate.poison())
        assert served == expected.segments_json()


class TestDrain:
    def test_draining_refuses_with_503_and_checkpoints(self, tmp_path):
        traces = corpus(3)

        async def run():
            async with _Service(tmp_path) as svc:
                status, _, _ = await svc.request(
                    "POST", "/trace", _lines(traces)
                )
                assert status == 202
                svc.service.queue.start_draining()
                status, _, body = await svc.request(
                    "POST", "/trace", _lines(traces)
                )
                assert status == 503
                assert json.loads(body)["reason"] == "draining"
                status, _, _ = await svc.request("GET", "/healthz")
                assert status == 503
                svc.service.request_drain()
                outcome = await svc.service.serve_until_shutdown()
                assert outcome == "ok"
                # exiting the context manager double-drains: fine
                svc.service._stop.set()

        asyncio.run(run())
        # the final checkpoint covered everything: snapshot on disk,
        # journal reduced to its header
        snapshot = json.loads(
            (tmp_path / "state" / "snapshot.json").read_text()
        )
        assert snapshot["seq"] == 3
        journal = (tmp_path / "state" / "ingest.jsonl").read_text()
        assert len(journal.splitlines()) == 1

    def test_drain_span_lands_in_metrics_before_shutdown(self, tmp_path):
        async def run():
            async with _Service(tmp_path) as svc:
                _, _, metrics = await svc.request("GET", "/metrics")
                text = metrics.decode()
                assert "arest_queue_capacity 1024" in text
                assert (
                    'arest_stage_seconds_total{scope="service",'
                    'stage="recover"}' in text
                )

        asyncio.run(run())


class TestTelemetrySession:
    def test_session_records_counters_spans_and_status(self, tmp_path):
        traces = corpus(4)
        telemetry_dir = tmp_path / "telem"

        async def run():
            async with _Service(
                tmp_path, telemetry_dir=telemetry_dir
            ) as svc:
                await svc.request("POST", "/trace", _lines(traces))
                await svc.request("POST", "/trace", "garbage")
                await svc.service.queue.join()

        asyncio.run(run())
        manifest = json.loads(
            (telemetry_dir / "manifest.json").read_text()
        )
        assert manifest["exit_status"] == "ok"
        assert manifest["command"] == "serve"
        events = [
            json.loads(line)
            for line in (telemetry_dir / "telemetry.jsonl")
            .read_text()
            .splitlines()
        ]
        service_events = [
            e for e in events if e.get("scope") == "service"
        ]
        assert service_events
        stages = {
            e["stage"] for e in service_events if e["kind"] == "span"
        }
        assert "drain" in stages
        counters = {
            e["name"]: e["value"]
            for e in service_events
            if e["kind"] == "counter"
        }
        assert counters["ingest_accepted"] == 4
        assert counters["ingest_rejected_bad-json"] == 1
        metrics = (telemetry_dir / "metrics.prom").read_text()
        assert 'stage="drain"' in metrics

    def test_results_identical_with_and_without_telemetry(self, tmp_path):
        traces = corpus(5)

        async def run(telemetry_dir):
            async with _Service(
                tmp_path / ("with" if telemetry_dir else "without"),
                telemetry_dir=telemetry_dir,
            ) as svc:
                await svc.request("POST", "/trace", _lines(traces))
                await svc.service.queue.join()
                _, _, body = await svc.request("GET", "/segments")
                return body

        with_telemetry = asyncio.run(run(tmp_path / "telem"))
        without = asyncio.run(run(None))
        assert with_telemetry == without


class TestDiskFull:
    """A full journal volume refuses (503 + reason), never acknowledges."""

    def test_full_journal_volume_refuses_with_503(
        self, tmp_path, monkeypatch
    ):
        import errno

        from repro.util.atomicio import DiskFullError

        traces = corpus(2)

        async def run():
            async with _Service(tmp_path) as svc:
                status, _, _ = await svc.request(
                    "POST", "/trace", _lines(traces)
                )
                assert status == 202

                def torn(path, text, encoding="utf-8"):
                    # the volume fills part-way through the batch
                    with open(path, "a", encoding=encoding) as fh:
                        fh.write(text[:7])
                    raise DiskFullError(
                        path,
                        OSError(errno.ENOSPC, "No space left on device"),
                    )

                monkeypatch.setattr(
                    "repro.service.state.durable_append", torn
                )
                status, headers, body = await svc.request(
                    "POST", "/trace", _lines(traces)
                )
                assert status == 503
                doc = json.loads(body)
                assert doc["reason"] == "disk-full"
                assert "no space left" in doc["detail"].lower()
                assert "retry-after" in headers
                monkeypatch.undo()
                # space freed up: the retried batch is accepted whole
                status, _, _ = await svc.request(
                    "POST", "/trace", _lines(traces)
                )
                assert status == 202
                _, _, metrics = await svc.request("GET", "/metrics")
                assert (
                    'arest_ingest_rejected_total{reason="disk-full"} 2'
                    in metrics.decode()
                )
                # the refusal used no seq: every acknowledged trace folds
                # in behind a watermark that reaches the accepted total
                await svc.service.queue.join()
                _, _, body = await svc.request("GET", "/report")
                service = json.loads(body)["service"]
                assert service["fed_watermark"] == 4
                assert service["queue"]["accepted_total"] == 4
                _, _, segments = await svc.request("GET", "/segments")
                return segments

        served = asyncio.run(run())
        assert served == batch_aggregate(traces * 2).segments_json()
