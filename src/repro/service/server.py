"""The always-on detection service: HTTP front-end + lifecycle.

A deliberately small HTTP/1.1 server on :mod:`asyncio` streams (the
toolchain constraint is stdlib-only), wired around the three robustness
pieces the other modules provide:

- :class:`~repro.service.ingest.IngestQueue` -- the bounded buffer and
  backpressure policy (202 vs 429 + ``Retry-After`` vs 503);
- :class:`~repro.service.state.ServiceState` -- the crash-safe journal
  + snapshot store (a trace is 202'd only *after* its journal line is
  fsynced);
- :class:`~repro.service.workers.WorkerPool` -- queue consumers with
  per-request deadlines and poison containment.

Routes::

    POST /trace     one trace object, or a JSONL batch (dataset lines)
    GET  /segments  canonical aggregate -- byte-identical to the batch
                    pipeline over the same traces, in any order
    GET  /report    /segments plus area/tunnel aggregates and
                    operational state (queue, recovery, workers)
    GET  /healthz   liveness (503 once draining, for load balancers)
    GET  /metrics   Prometheus exposition (live ingest families + the
                    recorder's stage seconds)

Shutdown mirrors the campaigns' two-strike contract
(:class:`~repro.campaign.shardexec.GracefulShutdown`): the first
SIGINT/SIGTERM stops intake and drains (flush queue, final checkpoint,
manifest ``ok``, exit 0); a second strike abandons the drain (queued
traces stay journaled for the next start, manifest ``interrupted``,
exit 130).  A bind failure exits 2 before the first stdout line.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
from dataclasses import dataclass
from pathlib import Path

from repro.obs.prometheus import (
    escape_label_value,
    render_ingest_metrics,
    render_latency_histograms,
)
from repro.obs.telemetry import Telemetry
from repro.obs.trace import TraceContext
from repro.service.ingest import (
    REASON_DISK_FULL,
    REASON_DRAINING,
    IngestQueue,
)
from repro.service.state import RecoveryInfo, ServiceState
from repro.service.wire import canonical_json, decode_body
from repro.service.workers import WorkerPool
from repro.util.atomicio import DiskFullError

logger = logging.getLogger(__name__)

#: manifest exit statuses a service run can settle on
STATUS_OK = "ok"
STATUS_INTERRUPTED = "interrupted"

#: process exit codes ``arest serve`` maps outcomes to
EXIT_OK = 0
EXIT_BIND_FAILURE = 2
EXIT_INTERRUPTED = 130

#: request-line + headers must fit the stream buffer
_HEADER_LIMIT = 64 * 1024
#: refuse bodies past this (the queue bound is the real memory story;
#: this only stops one request from ballooning the parser)
_MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(slots=True)
class ServiceConfig:
    """Everything one service instance needs to run."""

    state_dir: str | Path
    host: str = "127.0.0.1"
    port: int = 0
    asn: int | None = None
    queue_capacity: int = 1024
    low_watermark: int | None = None
    fair_share: int | None = None
    workers: int = 1
    detect_timeout: float | None = 5.0
    snapshot_every: int = 256
    retry_after: float = 1.0
    read_timeout: float = 10.0
    telemetry_dir: str | Path | None = None

    def as_manifest_config(self) -> dict:
        return {
            "state_dir": str(self.state_dir),
            "asn": self.asn,
            "queue_capacity": self.queue_capacity,
            "workers": self.workers,
            "detect_timeout": self.detect_timeout,
            "snapshot_every": self.snapshot_every,
        }


@dataclass(slots=True)
class _Request:
    method: str
    path: str
    headers: dict
    body: bytes


class ArestService:
    """One streaming detection service instance, start to drain."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.state = ServiceState(
            config.state_dir,
            asn=config.asn,
            snapshot_every=config.snapshot_every,
        )
        self.queue = IngestQueue(
            config.queue_capacity,
            low_watermark=config.low_watermark,
            fair_share=config.fair_share,
            retry_after=config.retry_after,
        )
        #: always-on in-memory recorder (feeds /metrics; results are
        #: byte-identical whether or not a telemetry dir persists it).
        #: Trace-context-carrying from birth: the service is one
        #: long-lived trace, and the session (when a telemetry dir is
        #: configured) adopts this same context so worker spans parent
        #: under the run's root span.
        self.recorder = Telemetry(trace=TraceContext.new())
        self.pool = WorkerPool(
            self.queue,
            self.state,
            workers=config.workers,
            detect_timeout=config.detect_timeout,
            telemetry=self.recorder,
        )
        self.recovery = RecoveryInfo()
        self.session = None
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._abort = asyncio.Event()
        self._strikes = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Recover state, bind, spawn workers; returns the bound address.

        A bind failure (``OSError``) propagates *before* any worker or
        session side effect, so ``arest serve`` can exit 2 cleanly.
        """
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=_HEADER_LIMIT,
        )
        with self.recorder.span("recover"):
            self.recovery = self.state.recover()
        if self.recovery.replayed or self.recovery.snapshot_seq:
            logger.info(
                "recovered state: snapshot seq=%d, %d trace(s) replayed, "
                "%d damaged line(s) discarded",
                self.recovery.snapshot_seq,
                self.recovery.replayed,
                self.recovery.damaged_lines,
            )
        if self.config.telemetry_dir is not None:
            from repro.obs.session import TelemetrySession

            self.session = TelemetrySession(
                self.config.telemetry_dir,
                config=self.config.as_manifest_config(),
                seed=0,
                command="serve",
                jobs=self.config.workers,
                trace=self.recorder.trace,
            )
        self.pool.start()
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def handle_signal(self, sig: int) -> None:
        """The two-strike contract (mirrors ``GracefulShutdown``)."""
        self._strikes += 1
        name = signal.Signals(sig).name
        if self._strikes == 1:
            logger.info(
                "received %s: draining (signal again to abort)", name
            )
            self.request_drain()
        else:
            logger.warning("received second %s: aborting drain", name)
            self.request_abort()

    def request_drain(self) -> None:
        """Stop accepting; flush the queue; then shut down cleanly."""
        self.queue.start_draining()
        self._stop.set()

    def request_abort(self) -> None:
        """Abandon the drain (queued traces stay journaled on disk)."""
        self.queue.start_draining()
        self._abort.set()
        self._stop.set()

    async def serve_until_shutdown(self) -> str:
        """Serve until a drain or abort completes; returns the status."""
        await self._stop.wait()
        try:
            status = await self._shutdown()
        finally:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
        self._finalize_telemetry(status)
        return status

    async def _shutdown(self) -> str:
        drain = asyncio.create_task(self._drain(), name="arest-drain")
        abort = asyncio.create_task(self._abort.wait(), name="arest-abort")
        done, _ = await asyncio.wait(
            {drain, abort}, return_when=asyncio.FIRST_COMPLETED
        )
        if drain in done:
            abort.cancel()
            drain.result()
            return STATUS_OK
        drain.cancel()
        logger.debug("abort: waiting for the drain task to unwind")
        await asyncio.gather(drain, return_exceptions=True)
        dropped = self.queue.drain_now()
        logger.debug("abort: stopping workers")
        await self.pool.stop()
        logger.debug("abort: final checkpoint")
        self.state.final_checkpoint()
        logger.warning(
            "drain aborted: %d queued trace(s) left journaled for the "
            "next start",
            dropped,
        )
        return STATUS_INTERRUPTED

    async def _drain(self) -> None:
        """First-strike shutdown: flush everything already accepted."""
        with self.recorder.span("drain"):
            await self.queue.join()
            await self.pool.stop()
            self.state.final_checkpoint()

    def _finalize_telemetry(self, status: str) -> None:
        if self.session is None:
            return
        export = self.recorder.export()
        counters = dict(export["counters"])
        counters["ingest_accepted"] = self.queue.accepted_total
        for reason, n in sorted(self.queue.rejected.items()):
            counters[f"ingest_rejected_{reason}"] = n
        counters["traces_quarantined"] = (
            self.state.aggregate.traces_quarantined
        )
        gauges = dict(export["gauges"])
        gauges["queue_peak_depth"] = float(self.queue.peak_depth)
        gauges["replayed_at_recovery"] = float(self.recovery.replayed)
        self.session.record_scope(
            "service",
            spans=export["spans"],
            counters=counters,
            gauges=gauges,
            anchor=export.get("anchor"),
            histograms=export.get("histograms"),
        )
        self.session.finalize(status)

    # -- HTTP ----------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except asyncio.TimeoutError:
                self._respond(writer, 408, {"error": "request timed out"})
                return
            except asyncio.LimitOverrunError:
                self._respond(writer, 431, {"error": "headers too large"})
                return
            except _BodyTooLarge:
                self._respond(writer, 413, {"error": "body too large"})
                return
            except (
                asyncio.IncompleteReadError,
                ConnectionError,
                ValueError,
            ):
                # client went away or sent garbage before the routes
                return
            try:
                self._route(request, writer)
            except Exception:
                logger.exception(
                    "unhandled error serving %s %s",
                    request.method,
                    request.path,
                )
                self._respond(writer, 500, {"error": "internal error"})
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.TimeoutError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request:
        timeout = self.config.read_timeout
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout
        )
        request_line, *header_lines = head.decode(
            "latin-1"
        ).rstrip("\r\n").split("\r\n")
        method, target, _version = request_line.split(" ", 2)
        headers: dict = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise _BodyTooLarge()
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout
            )
        path = target.split("?", 1)[0]
        return _Request(
            method=method.upper(), path=path, headers=headers, body=body
        )

    def _route(self, request: _Request, writer) -> None:
        if request.path == "/trace":
            if request.method != "POST":
                self._respond(writer, 405, {"error": "POST /trace"})
                return
            self._post_trace(request, writer)
        elif request.method != "GET":
            self._respond(writer, 405, {"error": "GET only"})
        elif request.path == "/segments":
            self._respond_raw(
                writer,
                200,
                self.state.aggregate.segments_json(self.state.asn),
                "application/json",
            )
        elif request.path == "/report":
            self._respond(writer, 200, self._report())
        elif request.path == "/healthz":
            if self.queue.draining:
                self._respond(writer, 503, {"status": "draining"})
            else:
                self._respond(
                    writer,
                    200,
                    {"status": "ok", "queue_depth": self.queue.depth},
                )
        elif request.path == "/metrics":
            self._respond_raw(
                writer,
                200,
                self._metrics_text().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._respond(writer, 404, {"error": f"no route {request.path}"})

    def _post_trace(self, request: _Request, writer) -> None:
        decoded = decode_body(request.body.decode("utf-8", "replace"))
        for rejection in decoded.rejections:
            self.queue.count_rejected(rejection.reason)
        rejected = [r.as_dict() for r in decoded.rejections]
        if not decoded.traces:
            self._respond(
                writer,
                400,
                {
                    "error": "no decodable trace in request body",
                    "rejected": rejected,
                    "skipped_headers": decoded.skipped_headers,
                },
            )
            return
        submitter = request.headers.get("x-arest-submitter")
        if not submitter:
            peer = writer.get_extra_info("peername")
            submitter = str(peer[0]) if peer else "unknown"
        admission = self.queue.admit(len(decoded.traces), submitter)
        if not admission.accepted:
            status = 503 if admission.reason == REASON_DRAINING else 429
            self._respond(
                writer,
                status,
                {
                    "error": "not admitted",
                    "reason": admission.reason,
                    "retry_after": admission.retry_after,
                },
                extra_headers=(
                    ("Retry-After", _format_retry(admission.retry_after)),
                ),
            )
            return
        # journal durably (write+flush+fsync) BEFORE enqueue + 202: the
        # acknowledgement is the crash-safety promise
        try:
            tick = self.recorder.clock()
            seqs = self.state.accept(decoded.traces)
            self.recorder.observe("bank", self.recorder.clock() - tick)
        except DiskFullError as exc:
            # ENOSPC/EDQUOT is environmental, not terminal: the batch
            # was NOT acknowledged (nothing enqueued), the journal is
            # intact, and the client should retry once space frees up.
            self.queue.count_rejected(
                REASON_DISK_FULL, len(decoded.traces)
            )
            self._respond(
                writer,
                503,
                {
                    "error": "journal volume out of space",
                    "reason": REASON_DISK_FULL,
                    "detail": str(exc),
                    "retry_after": self.queue.retry_after,
                },
                extra_headers=(
                    ("Retry-After", _format_retry(self.queue.retry_after)),
                ),
            )
            return
        self.queue.enqueue(
            list(zip(seqs, decoded.traces)), submitter
        )
        self._respond(
            writer,
            202,
            {
                "status": "accepted",
                "accepted": len(seqs),
                "seq_first": seqs[0],
                "seq_last": seqs[-1],
                "rejected": rejected,
                "skipped_headers": decoded.skipped_headers,
            },
        )

    def _report(self) -> dict:
        report = self.state.aggregate.report_dict(self.state.asn)
        report["service"] = {
            "queue": {
                "depth": self.queue.depth,
                "capacity": self.queue.capacity,
                "peak_depth": self.queue.peak_depth,
                "accepted_total": self.queue.accepted_total,
                "rejected": dict(sorted(self.queue.rejected.items())),
                "saturated": self.queue.saturated,
                "draining": self.queue.draining,
            },
            "recovery": self.recovery.as_dict(),
            "workers": {
                "count": self.pool.workers,
                "poisoned": self.pool.poisoned,
                "timeouts": self.pool.timeouts,
            },
            "fed_watermark": self.state.fed_watermark,
        }
        return report

    def _metrics_text(self) -> str:
        text = render_ingest_metrics(
            accepted_total=self.queue.accepted_total,
            rejected=dict(self.queue.rejected),
            queue_depth=self.queue.depth,
            queue_capacity=self.queue.capacity,
            traces_quarantined=self.state.aggregate.traces_quarantined,
            draining=self.queue.draining,
        )
        totals: dict = {}
        for span in self.recorder.spans:
            stage = str(span.get("stage"))
            totals[stage] = totals.get(stage, 0.0) + float(
                span.get("seconds", 0.0)
            )
        if totals:
            lines = [
                "# HELP arest_stage_seconds_total Wall-clock seconds per "
                "scope and stage.",
                "# TYPE arest_stage_seconds_total counter",
            ]
            for stage, seconds in sorted(totals.items()):
                lines.append(
                    f'arest_stage_seconds_total{{scope="service",'
                    f'stage="{escape_label_value(stage)}"}} {seconds:.6f}'
                )
            text += "\n".join(lines) + "\n"
        if self.recorder.histograms:
            text += render_latency_histograms(
                {
                    stage: hist.as_dict()
                    for stage, hist in self.recorder.histograms.items()
                }
            )
        return text

    # -- response plumbing ---------------------------------------------------

    def _respond(
        self,
        writer,
        status: int,
        obj: dict,
        *,
        extra_headers: tuple = (),
    ) -> None:
        self._respond_raw(
            writer,
            status,
            canonical_json(obj),
            "application/json",
            extra_headers=extra_headers,
        )

    def _respond_raw(
        self,
        writer,
        status: int,
        body: bytes,
        content_type: str,
        *,
        extra_headers: tuple = (),
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines += [f"{name}: {value}" for name, value in extra_headers]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)


class _BodyTooLarge(Exception):
    pass


def _format_retry(retry_after: float | None) -> str:
    if retry_after is None:
        return "1"
    return str(max(1, int(round(retry_after))))


async def run_service(config: ServiceConfig, *, ready=None) -> str:
    """Run one service to completion; returns its manifest status.

    ``ready(host, port)`` fires after the bind succeeds (``arest
    serve`` prints the machine-parseable address line from it).  A bind
    failure raises ``OSError`` before ``ready``.
    """
    service = ArestService(config)
    host, port = await service.start()
    if ready is not None:
        ready(host, port)
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, service.handle_signal, sig)
        except (NotImplementedError, RuntimeError):
            continue
        installed.append(sig)
    try:
        return await service.serve_until_shutdown()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)


def exit_code_for(status: str) -> int:
    """Map a manifest status to the documented process exit code."""
    return EXIT_OK if status == STATUS_OK else EXIT_INTERRUPTED
