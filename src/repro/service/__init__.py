"""Always-on streaming detection service.

The batch pipeline answers "what does this dataset contain"; this
package answers the same question *continuously*: traces stream in over
HTTP, a bounded queue applies backpressure, workers fold the queued
traces in batches through the one sanitize → detect fold the batch path
uses (:func:`~repro.service.state.batch_aggregate`), and a crash-safe
journal + snapshot store makes every acknowledged trace durable.
``GET /segments`` is byte-identical to ``arest detect --segments-json``
over the same traces, in any arrival order or batching.

Modules:

- :mod:`~repro.service.wire` -- request/response schemas + the one
  canonical JSON serializer;
- :mod:`~repro.service.state` -- order-independent aggregate and the
  durable journal/snapshot store;
- :mod:`~repro.service.ingest` -- bounded queue, watermark hysteresis,
  per-submitter fairness;
- :mod:`~repro.service.workers` -- batching queue consumers with a
  deadline per analysis call and poison containment;
- :mod:`~repro.service.server` -- the asyncio HTTP front-end and the
  two-strike drain lifecycle.
"""

from repro.service.ingest import Admission, IngestQueue
from repro.service.server import (
    EXIT_BIND_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    ArestService,
    ServiceConfig,
    exit_code_for,
    run_service,
)
from repro.service.state import (
    RecoveryInfo,
    SegmentAggregate,
    ServiceState,
    StateMismatchError,
    analyze_trace,
    batch_aggregate,
)
from repro.service.wire import (
    DecodedBody,
    WireRejection,
    canonical_json,
    decode_body,
    decode_trace_line,
)
from repro.service.workers import WorkerPool

__all__ = [
    "Admission",
    "ArestService",
    "DecodedBody",
    "EXIT_BIND_FAILURE",
    "EXIT_INTERRUPTED",
    "EXIT_OK",
    "IngestQueue",
    "RecoveryInfo",
    "SegmentAggregate",
    "ServiceConfig",
    "ServiceState",
    "StateMismatchError",
    "WireRejection",
    "WorkerPool",
    "analyze_trace",
    "batch_aggregate",
    "canonical_json",
    "decode_body",
    "decode_trace_line",
    "exit_code_for",
    "run_service",
]
