"""Wire schemas for the streaming detection service.

``POST /trace`` bodies are the same line-oriented JSON the on-disk
:class:`~repro.campaign.dataset.TraceDataset` uses -- one trace object
per line (a single bare object is a one-line batch).  Reusing the
dataset codec means a recorded campaign can be replayed into the
service with ``cat dataset.jsonl`` semantics, dataset header lines
included: ``{"kind": "header", ...}`` lines are recognized and skipped
rather than rejected.

Decoding is *total*: :func:`decode_body` never raises on user input.
A body splits into lines on ``\n`` only (a trailing ``\r`` is dropped),
so a raw U+2028 inside a JSON string stays in its line, as it does when
:meth:`~repro.campaign.dataset.TraceDataset.iter_jsonl` reads a file.
Every line lands in exactly one bucket -- a decoded
:class:`~repro.probing.records.Trace` together with its text, a
skipped dataset header, or a :class:`WireRejection` carrying a
machine-readable reason (the label on
``arest_ingest_rejected_total{reason=...}``).  A malformed line must
never take down the request that carried well-formed neighbours.  One
:class:`~repro.campaign.dataset.TraceDecoder` decodes the whole body.

The text of an accepted line is kept as received, minus the JSON
whitespace around it: it is what
:meth:`~repro.service.state.ServiceState.accept` journals, so an
accepted trace is never encoded again on its way to the disk.

Canonical JSON rendering lives here too: :func:`canonical_json` is the
single serializer behind ``GET /segments``, the batch comparison path
(``arest detect --segments-json``) and the equivalence tests, so
"byte-identical" is enforced by construction -- sorted keys, tight
separators, one trailing newline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.campaign.dataset import TraceDecoder, trace_to_json
from repro.probing.records import Trace

__all__ = [
    "WireRejection",
    "DecodedBody",
    "canonical_json",
    "decode_body",
    "decode_trace_line",
    "trace_to_json",
]

#: rejection reason labels (stable: they are Prometheus label values)
REASON_BAD_JSON = "bad-json"
REASON_NOT_A_TRACE = "not-a-trace"
REASON_BAD_TRACE = "bad-trace"

#: JSON's insignificant whitespace (RFC 8259, section 2)
_JSON_WHITESPACE = " \t\n\r"


@dataclass(frozen=True, slots=True)
class WireRejection:
    """One undecodable input line and why it was refused."""

    lineno: int
    reason: str
    detail: str

    def as_dict(self) -> dict:
        return {
            "line": self.lineno,
            "reason": self.reason,
            "detail": self.detail,
        }


@dataclass(slots=True)
class DecodedBody:
    """Outcome of decoding one request body.

    ``texts[i]`` is the line ``traces[i]`` was decoded from, stripped
    of surrounding JSON whitespace: one JSON object, no newline.
    """

    traces: list[Trace]
    texts: list[str]
    rejections: list[WireRejection]
    skipped_headers: int = 0


def decode_trace_line(
    line: str, lineno: int = 1, decoder: TraceDecoder | None = None
) -> Trace | WireRejection | None:
    """Decode one body line; ``None`` means a skipped dataset header.

    ``decoder`` is the body's stream decoder (a fresh one by default).
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return WireRejection(
            lineno=lineno,
            reason=REASON_BAD_JSON,
            detail=f"{exc.msg} at column {exc.colno}",
        )
    if not isinstance(record, dict):
        return WireRejection(
            lineno=lineno,
            reason=REASON_NOT_A_TRACE,
            detail=f"expected a JSON object, got {type(record).__name__}",
        )
    kind = record.get("kind")
    if kind == "header":
        return None
    if kind != "trace":
        return WireRejection(
            lineno=lineno,
            reason=REASON_NOT_A_TRACE,
            detail=f"kind={kind!r} is not a trace record",
        )
    if decoder is None:
        decoder = TraceDecoder()
    try:
        return decoder.decode(record)
    except Exception as exc:
        return WireRejection(
            lineno=lineno,
            reason=REASON_BAD_TRACE,
            detail=f"{type(exc).__name__}: {exc}",
        )


def decode_body(body: str) -> DecodedBody:
    """Decode a ``POST /trace`` body (single object or JSONL batch)."""
    decoded = DecodedBody(traces=[], texts=[], rejections=[])
    decoder = TraceDecoder()
    for lineno, line in enumerate(body.split("\n"), start=1):
        if not line.strip():
            continue
        outcome = decode_trace_line(line, lineno, decoder)
        if outcome is None:
            decoded.skipped_headers += 1
        elif isinstance(outcome, WireRejection):
            decoded.rejections.append(outcome)
        else:
            decoded.traces.append(outcome)
            decoded.texts.append(line.strip(_JSON_WHITESPACE))
    return decoded


def canonical_json(obj: object) -> bytes:
    """The one byte-stable JSON serialization (see module docstring)."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")
