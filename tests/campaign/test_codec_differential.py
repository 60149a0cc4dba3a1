"""Differential suite: the stream decoder ≡ the decoder it replaced.

:class:`~repro.campaign.dataset.TraceDecoder` parses each distinct
address once per stream and builds hops positionally.  The decoder it
replaced, which parsed every field of every record afresh, is kept
below unchanged as the oracle (:func:`oracle_trace_from_json`).  Over
records our encoder wrote and over mutated ones -- null or missing
keys, float or bool labels, LSE entries of the wrong width, epochs of
the wrong length, non-string addresses -- the stream decoder must raise
exactly when the oracle raises, and otherwise re-encode to the oracle's
bytes.  Bytes, not ``==``: ``16005.0 == 16005`` and ``True == 1``, so
equality would hide a label that changed type.
"""

from __future__ import annotations

import copy
import json

from hypothesis import example, given, settings, strategies as st

from repro.campaign.dataset import (
    ADDRESS_TABLE_CAP,
    TraceDecoder,
    trace_from_json,
    trace_to_json,
)
from repro.netsim.addressing import IPv4Address
from repro.probing.records import QuotedLse, Trace, TraceHop

from tests.conftest import make_hop, make_trace, scaled_examples


# -- the oracle --------------------------------------------------------------


def _oracle_hop_from_json(record: dict) -> TraceHop:
    lses = None
    if "lses" in record:
        lses = tuple(
            QuotedLse(label=l, tc=tc, bottom_of_stack=bool(s), ttl=ttl)
            for l, tc, s, ttl in record["lses"]
        )
    return TraceHop(
        probe_ttl=record["ttl"],
        address=(
            IPv4Address.from_string(record["addr"])
            if "addr" in record
            else None
        ),
        rtt_ms=record.get("rtt"),
        reply_ip_ttl=record.get("rttl"),
        lses=lses,
        tnt_revealed=record.get("tnt", False),
        destination_reply=record.get("dst", False),
        truth_router_id=record.get("t_rid"),
        truth_asn=record.get("t_asn"),
        truth_planes=tuple(record.get("t_planes", ())),
        truth_uniform=not record.get("t_pipe", False),
    )


def oracle_trace_from_json(record: dict) -> Trace:
    """The per-record decoder :class:`TraceDecoder` replaced."""
    if record.get("kind") != "trace":
        raise ValueError(f"not a trace record: {record.get('kind')!r}")
    epochs = record.get("epochs")
    return Trace(
        vp=record["vp"],
        vp_router_id=record["vp_rid"],
        destination=IPv4Address.from_string(record["dst"]),
        flow_id=record["flow"],
        hops=tuple(_oracle_hop_from_json(h) for h in record["hops"]),
        reached=record["reached"],
        epoch_span=(epochs[0], epochs[1]) if epochs is not None else None,
    )


# -- records -----------------------------------------------------------------

#: a narrow pool, so the traces of one stream share addresses
ADDRESS_POOL = tuple(f"10.0.{i // 4}.{i % 4 + 1}" for i in range(12))


@st.composite
def hop_st(draw) -> TraceHop:
    """Any hop our prober records, truth annotations included."""
    address = draw(st.one_of(st.none(), st.sampled_from(ADDRESS_POOL)))
    labels = draw(
        st.lists(st.sampled_from([0, 3, 16005, 24000, 2**20 - 1]), max_size=3)
    )
    lse_ttl = draw(st.sampled_from([0, 1, 255]))
    return TraceHop(
        probe_ttl=draw(st.integers(min_value=1, max_value=40)),
        address=IPv4Address.from_string(address) if address else None,
        rtt_ms=draw(st.sampled_from([None, 0.5, 12.25, 301.0])),
        reply_ip_ttl=draw(st.sampled_from([None, 1, 250])),
        lses=tuple(
            QuotedLse(label, 0, i == len(labels) - 1, lse_ttl)
            for i, label in enumerate(labels)
        )
        or None,
        tnt_revealed=draw(st.booleans()),
        destination_reply=draw(st.booleans()),
        truth_router_id=draw(st.sampled_from([None, 0, 17])),
        truth_asn=draw(st.sampled_from([None, 65001])),
        truth_planes=draw(st.sampled_from([(), ("sr",), ("sr", "service")])),
        truth_uniform=draw(st.booleans()),
    )


@st.composite
def written_record(draw) -> dict:
    """A record exactly as our encoder writes it, parsed back from JSON."""
    trace = make_trace(
        draw(st.lists(hop_st(), max_size=6)),
        reached=draw(st.booleans()),
        epoch_span=draw(
            st.one_of(
                st.none(),
                st.tuples(
                    st.integers(min_value=0, max_value=3),
                    st.integers(min_value=0, max_value=3),
                ),
            )
        ),
    )
    return json.loads(json.dumps(trace_to_json(trace)))


#: values a field can be mutated to, including every type JSON has
ODD_VALUES = (None, True, 0, 16005.0, "10.0.0.1", "1", [], [1, 2], {})

TRACE_KEYS = ("kind", "vp", "vp_rid", "dst", "flow", "hops", "reached")
HOP_KEYS = (
    "ttl", "addr", "rtt", "rttl", "lses", "tnt", "dst",
    "t_rid", "t_asn", "t_planes", "t_pipe",
)


@st.composite
def mutated_record(draw) -> dict:
    """A written record with one to three targeted mutations."""
    record = copy.deepcopy(draw(written_record()))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        hops = record.get("hops")
        hop = (
            draw(st.sampled_from(hops))
            if isinstance(hops, list) and hops
            and all(isinstance(h, dict) for h in hops)
            else None
        )
        kind = draw(
            st.sampled_from(
                [
                    "drop-trace-key", "odd-trace-value", "epochs",
                    "drop-hop-key", "odd-hop-value", "null-addr",
                    "null-lses", "odd-addr", "odd-label", "lse-width",
                ]
            )
        )
        if kind == "drop-trace-key":
            record.pop(draw(st.sampled_from(TRACE_KEYS)), None)
        elif kind == "odd-trace-value":
            key = draw(st.sampled_from((*TRACE_KEYS, "epochs")))
            record[key] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "epochs":
            record["epochs"] = draw(
                st.lists(
                    st.integers(min_value=0, max_value=3),
                    min_size=1,
                    max_size=3,
                )
            )
        elif hop is None:
            continue
        elif kind == "drop-hop-key":
            hop.pop(draw(st.sampled_from(HOP_KEYS)), None)
        elif kind == "odd-hop-value":
            hop[draw(st.sampled_from(HOP_KEYS))] = draw(
                st.sampled_from(ODD_VALUES)
            )
        elif kind == "null-addr":
            hop["addr"] = None
        elif kind == "null-lses":
            hop["lses"] = None
        elif kind == "odd-addr":
            hop["addr"] = draw(
                st.sampled_from(
                    (167772161, 1.5, True, ["10.0.0.1"], {"a": 1},
                     "10.0.0", "10.0.0.256", " 10.0.0.1", "10.0.0.1_0")
                )
            )
        elif kind in ("odd-label", "lse-width"):
            # an odd hop value can leave ``lses`` a list of non-lists
            # (``[1, 2]``); only list entries can be mutated further
            lses = hop.get("lses")
            entries = (
                [e for e in lses if isinstance(e, list)]
                if isinstance(lses, list)
                else []
            )
            if not entries:
                continue
            entry = draw(st.sampled_from(entries))
            if kind == "odd-label":
                entry[0] = draw(
                    st.sampled_from(
                        (16005.0, True, False, -1, 2**20, "16005", None)
                    )
                )
            elif draw(st.booleans()):
                entry.pop()
            else:
                entry.append(0)
    return record


def _record_with_int_lses() -> dict:
    """A written record whose one hop quotes ``"lses": [1, 2]``."""
    record = json.loads(
        json.dumps(
            trace_to_json(
                make_trace([make_hop(1, "10.0.0.1", labels=(16005,))])
            )
        )
    )
    record["hops"][0]["lses"] = [1, 2]
    return record


def _outcome(decode, record: dict) -> bytes | None:
    """The re-encoded bytes of ``decode(record)``; None if it raised."""
    try:
        trace = decode(copy.deepcopy(record))
    except Exception:
        return None
    return json.dumps(trace_to_json(trace)).encode("utf-8")


def _assert_stream_matches_oracle(records: list[dict]) -> None:
    """One decoder over the whole stream, each record against the oracle."""
    decoder = TraceDecoder()
    for record in records:
        expected = _outcome(oracle_trace_from_json, record)
        assert _outcome(decoder.decode, record) == expected, record
        # a fresh decoder agrees too: the table never decides
        assert _outcome(trace_from_json, record) == expected, record


class TestDecoderAgainstOracle:
    @settings(max_examples=scaled_examples(60), deadline=None)
    @given(st.lists(written_record(), min_size=1, max_size=8))
    def test_written_records(self, records):
        _assert_stream_matches_oracle(records)
        decoder = TraceDecoder()
        for record in records:
            assert decoder.decode(record) == oracle_trace_from_json(record)

    @settings(max_examples=scaled_examples(200), deadline=None)
    @given(
        st.lists(
            st.one_of(written_record(), mutated_record()),
            min_size=1,
            max_size=8,
        )
    )
    @example([_record_with_int_lses()])
    def test_mutated_records(self, records):
        _assert_stream_matches_oracle(records)

    def test_float_and_bool_labels_keep_their_type(self):
        record = json.loads(
            json.dumps(
                trace_to_json(
                    make_trace([make_hop(1, "10.0.0.1", labels=(16005,))])
                )
            )
        )
        for label in (16005.0, True):
            record["hops"][0]["lses"][0][0] = label
            written = _outcome(TraceDecoder().decode, record)
            assert written == _outcome(oracle_trace_from_json, record)
            assert f"[{json.dumps(label)}, 0, 1," in written.decode()

    def test_more_addresses_than_the_table_holds(self):
        decoder = TraceDecoder()
        hops_per_trace = 64
        traces = ADDRESS_TABLE_CAP // hops_per_trace + 8
        for index in range(traces):
            base = index * hops_per_trace
            record = json.loads(
                json.dumps(
                    trace_to_json(
                        make_trace(
                            [
                                make_hop(
                                    ttl + 1,
                                    str(IPv4Address(0x0A000000 + base + ttl)),
                                )
                                for ttl in range(hops_per_trace)
                            ]
                        )
                    )
                )
            )
            assert decoder.decode(record) == oracle_trace_from_json(record)
            assert len(decoder._addresses) <= ADDRESS_TABLE_CAP
        # the table was cleared on the way, and still decodes correctly
        assert len(decoder._addresses) < traces * hops_per_trace
