"""Trace dataset container with JSONL (de)serialization.

The paper publishes its collected traces; this container plays that
role for the simulated campaign.  Serialization is line-oriented JSON
(one trace per line) so datasets stream without loading whole files.

:class:`TraceDecoder` is the one route from a JSON trace record to a
:class:`~repro.probing.records.Trace`: dataset files (campaign spills
included), the service's request bodies and its journal replay all
decode through it.
A decoder serves one stream (a file, a journal replay or a request
body); campaigns revisit the same interfaces on every trace, so it
parses each distinct dotted address once and reuses the result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.netsim.addressing import IPv4Address
from repro.probing.records import QuotedLse, Trace, TraceHop
from repro.util.atomicio import atomic_writer

#: what decoding a parsed record that is not a well-formed trace raises
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)

#: most distinct dotted addresses one decoder keeps parsed; a full
#: table is cleared.  Larger tables made input without repeated
#: addresses slower to decode than parsing every address afresh
#: (8,192 entries cost 17% more per trace; 4,096 cost nothing extra)
ADDRESS_TABLE_CAP = 4096


@dataclass(slots=True)
class TraceDataset:
    """A batch of traces collected toward one AS of interest."""

    target_asn: int
    traces: list[Trace] = field(default_factory=list)
    #: free-form campaign metadata (seed, VP list, dates, ...)
    metadata: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def add(self, trace: Trace) -> None:
        """Append one trace."""
        self.traces.append(trace)

    def extend(self, traces: Iterable[Trace]) -> None:
        """Append many traces."""
        self.traces.extend(traces)

    # -- aggregate views -----------------------------------------------------

    def distinct_addresses(self) -> set[IPv4Address]:
        """Every responding address across all traces."""
        addresses: set[IPv4Address] = set()
        for trace in self.traces:
            addresses.update(trace.addresses())
        return addresses

    def traces_from_vp(self, vp: str) -> list[Trace]:
        """The traces one vantage point collected."""
        return [t for t in self.traces if t.vp == vp]

    def vantage_points(self) -> list[str]:
        """Sorted names of the contributing VPs."""
        return sorted({t.vp for t in self.traces})

    # -- serialization ----------------------------------------------------------

    def dump_jsonl(self, path: str | Path) -> None:
        """Write the dataset as line-oriented JSON.

        The write is atomic (tmp file + fsync + rename): a crash at any
        instant leaves either the previous file or the complete new
        one, never a torn dataset.
        """
        with atomic_writer(path) as fh:
            header = {
                "kind": "header",
                "target_asn": self.target_asn,
                "metadata": self.metadata,
            }
            fh.write(json.dumps(header) + "\n")
            for trace in self.traces:
                fh.write(json.dumps(trace_to_json(trace)) + "\n")

    @classmethod
    def read_header(cls, path: str | Path) -> "TraceDataset":
        """Read only the header line: an *empty* dataset shell.

        Constant-cost access to ``target_asn`` and ``metadata`` --
        what `arest detect`-style consumers need before deciding how to
        stream the body.
        """
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            header_line = fh.readline()
        if not header_line:
            raise ValueError(f"empty dataset file: {path}")
        header = _parse_dataset_line(header_line, path, lineno=1)
        if header.get("kind") != "header":
            raise ValueError(f"missing dataset header in {path}")
        return cls(
            target_asn=int(header["target_asn"]),
            metadata=dict(header.get("metadata", {})),
        )

    @classmethod
    def iter_jsonl(cls, path: str | Path) -> Iterator[Trace]:
        """Stream traces from a :meth:`dump_jsonl` file, one at a time.

        Constant memory: each line is decoded, yielded and dropped, so
        paper-scale datasets never need to fit in RAM.  The header is
        validated (use :meth:`read_header` to read it); a malformed
        body line -- bad JSON or a record that is not a well-formed
        trace -- raises :class:`ValueError` naming the file and the
        1-based line number, exactly like the eager loader.  One
        :class:`TraceDecoder` serves the whole file.
        """
        path = Path(path)
        decoder = TraceDecoder()
        with path.open("r", encoding="utf-8") as fh:
            header_line = fh.readline()
            if not header_line:
                raise ValueError(f"empty dataset file: {path}")
            header = _parse_dataset_line(header_line, path, lineno=1)
            if header.get("kind") != "header":
                raise ValueError(f"missing dataset header in {path}")
            for lineno, line in enumerate(fh, start=2):
                if line.strip():
                    record = _parse_dataset_line(line, path, lineno)
                    try:
                        trace = decoder.decode(record)
                    except _MALFORMED as exc:
                        raise ValueError(
                            f"{path}: line {lineno}: malformed trace "
                            f"({type(exc).__name__}: {exc})"
                        ) from exc
                    yield trace

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "TraceDataset":
        """Read a whole dataset eagerly (thin wrapper over streaming).

        A malformed line raises a :class:`ValueError` naming the file
        and the 1-based line number, so quarantine and salvage logs
        point straight at the damage.  Prefer :meth:`iter_jsonl` when
        the dataset may not fit in memory.
        """
        dataset = cls.read_header(path)
        for trace in cls.iter_jsonl(path):
            dataset.add(trace)
        return dataset


def trace_from_json(record: dict) -> Trace:
    """Inverse of :func:`trace_to_json` for a single record.

    Raises (``ValueError``, ``KeyError``, ``TypeError``, ...) on records
    that are not well-formed trace objects.  Streams decode through one
    :class:`TraceDecoder` instead.
    """
    return TraceDecoder().decode(record)


def _parse_dataset_line(line: str, path: Path, lineno: int) -> dict:
    """Parse one JSONL line, contextualizing any decode error."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {lineno}: malformed JSON ({exc.msg} at "
            f"column {exc.colno})"
        ) from exc


class TraceDecoder:
    """Decodes the trace records of one stream into :class:`Trace` objects.

    A stream is one dataset file, one journal replay or one request
    body.  Each distinct dotted address is parsed once, through the
    unchanged :meth:`IPv4Address.from_string`, and the immutable result
    is shared by every hop that names it; the table holds at most
    :data:`ADDRESS_TABLE_CAP` entries and is cleared when full.  Only
    successful parses are kept, so whether a record decodes never
    depends on what the decoder saw before.  Every other field is read
    exactly as :func:`trace_to_json` wrote it; hops are built
    positionally.
    """

    __slots__ = ("_addresses",)

    def __init__(self) -> None:
        self._addresses: dict[str, IPv4Address] = {}

    def _address(self, dotted: str) -> IPv4Address:
        """``IPv4Address.from_string(dotted)``, parsed once per stream."""
        addresses = self._addresses
        address = addresses.get(dotted)
        if address is None:
            address = IPv4Address.from_string(dotted)
            if len(addresses) >= ADDRESS_TABLE_CAP:
                addresses.clear()
            addresses[dotted] = address
        return address

    def decode(self, record: dict) -> Trace:
        """One trace record (a parsed :func:`trace_to_json` dict)."""
        if record.get("kind") != "trace":
            raise ValueError(f"not a trace record: {record.get('kind')!r}")
        epochs = record.get("epochs")
        hop = self._hop
        return Trace(
            record["vp"],
            record["vp_rid"],
            self._address(record["dst"]),
            record["flow"],
            tuple([hop(h) for h in record["hops"]]),
            record["reached"],
            (epochs[0], epochs[1]) if epochs is not None else None,
        )

    def _hop(self, record: dict) -> TraceHop:
        get = record.get
        lses = None
        if "lses" in record:
            lses = tuple(
                [
                    QuotedLse(label, tc, bool(bottom), ttl)
                    for label, tc, bottom, ttl in record["lses"]
                ]
            )
        return TraceHop(
            record["ttl"],
            self._address(record["addr"]) if "addr" in record else None,
            get("rtt"),
            get("rttl"),
            lses,
            get("tnt", False),
            get("dst", False),
            get("t_rid"),
            get("t_asn"),
            tuple(get("t_planes", ())),
            not get("t_pipe", False),
        )


def _hop_to_json(hop: TraceHop) -> dict:
    record: dict = {"ttl": hop.probe_ttl}
    if hop.address is not None:
        record["addr"] = str(hop.address)
    if hop.rtt_ms is not None:
        record["rtt"] = hop.rtt_ms
    if hop.reply_ip_ttl is not None:
        record["rttl"] = hop.reply_ip_ttl
    if hop.lses:
        record["lses"] = [
            [e.label, e.tc, int(e.bottom_of_stack), e.ttl] for e in hop.lses
        ]
    if hop.tnt_revealed:
        record["tnt"] = True
    if hop.destination_reply:
        record["dst"] = True
    if hop.truth_router_id is not None:
        record["t_rid"] = hop.truth_router_id
    if hop.truth_asn is not None:
        record["t_asn"] = hop.truth_asn
    if hop.truth_planes:
        record["t_planes"] = list(hop.truth_planes)
    if not hop.truth_uniform:
        record["t_pipe"] = True
    return record


def trace_to_json(trace: Trace) -> dict:
    """Public wire codec: one trace as a JSON-able dict.

    This is the exact per-line schema :meth:`TraceDataset.dump_jsonl`
    writes, shared with wire surfaces (the streaming service's ``POST
    /trace`` body) so datasets on disk and traces on the wire can never
    drift apart.
    """
    record = {
        "kind": "trace",
        "vp": trace.vp,
        "vp_rid": trace.vp_router_id,
        "dst": str(trace.destination),
        "flow": trace.flow_id,
        "reached": trace.reached,
        "hops": [_hop_to_json(h) for h in trace.hops],
    }
    if trace.epoch_span is not None:
        # only churned campaigns carry the key: static datasets (and
        # their checkpoints) stay byte-identical to the pre-churn format
        record["epochs"] = list(trace.epoch_span)
    return record
