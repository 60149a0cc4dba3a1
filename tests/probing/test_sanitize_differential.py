"""Differential suite: the production sanitizer ≡ its pre-loop oracle.

:class:`~repro.probing.sanitize.TraceSanitizer` runs each check as one
plain scan and copies the hops only to repair them.  The sanitizer it
replaced is kept verbatim in ``sanitize_oracle.py``.  On every drawn
trace both must return the same trace -- the very input object exactly
when the oracle returns it -- and equal anomaly lists.  The draws reach
every check: martian sources at each range edge, probe TTLs of 0 and
below, repeated and conflicting TTLs, TNT-revealed hops sharing their
anchor's TTL, destination replies mid-trace, impossible reply TTLs,
wrong bottom-of-stack bits, out-of-range LSE fields (set behind the
constructor's back), ``reached`` flags the hops contradict and traces
spanning topology epochs.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.netsim.addressing import IPv4Address
from repro.probing.records import QuotedLse, Trace, TraceHop
from repro.probing.sanitize import AnomalyKind, TraceSanitizer, is_martian

from tests.conftest import make_hop, make_trace, scaled_examples
from tests.probing import sanitize_oracle
from tests.probing.sanitize_oracle import OracleTraceSanitizer

#: both sides of every martian range boundary (0/8, 127/8, 224/4, 240/4)
EDGE_ADDRESSES = tuple(
    IPv4Address.from_string(dotted)
    for dotted in (
        "0.0.0.0",
        "0.255.255.255",
        "1.0.0.0",
        "126.255.255.255",
        "127.0.0.0",
        "127.255.255.255",
        "128.0.0.0",
        "223.255.255.255",
        "224.0.0.0",
        "239.255.255.255",
        "240.0.0.0",
        "255.255.255.255",
    )
)

#: a few ordinary routers, so repeated hops often answer identically
ORDINARY = tuple(
    IPv4Address.from_string(f"10.0.0.{i}") for i in range(1, 5)
)

_addresses = st.one_of(
    st.sampled_from(ORDINARY),
    st.none(),
    st.sampled_from(EDGE_ADDRESSES),
    st.integers(0, 2**32 - 1).map(IPv4Address),
)

_reply_ttls = st.one_of(
    st.sampled_from((None, 1, 255, 0, 256)),
    st.integers(-2, 300),
)

_labels = st.one_of(
    st.sampled_from((0, 3, 7, 15, 16, 16_005, 24_000, 2**20 - 1)),
    st.integers(0, 2**20 - 1),
)

#: a field value the constructor would refuse
_OUT_OF_RANGE = (
    ("label", 2**20),
    ("label", -1),
    ("tc", 8),
    ("tc", -1),
    ("ttl", 256),
    ("ttl", -1),
)


@st.composite
def _stacks(draw, dirty: bool) -> tuple[QuotedLse, ...]:
    size = draw(st.integers(1, 4))
    wrong_bits = dirty and draw(st.booleans())
    entries = []
    for i in range(size):
        bottom = draw(st.booleans()) if wrong_bits else i == size - 1
        entries.append(
            QuotedLse(
                draw(_labels),
                draw(st.integers(0, 7)),
                bottom,
                draw(st.sampled_from((0, 1, 2, 254, 255))),
            )
        )
    if dirty and draw(st.booleans()):
        entry = entries[draw(st.integers(0, size - 1))]
        name, value = draw(st.sampled_from(_OUT_OF_RANGE))
        object.__setattr__(entry, name, value)
    return tuple(entries)


@st.composite
def _hop(
    draw, probe_ttl: int, dirt: int, tnt_revealed: bool = False
) -> TraceHop:
    """A well-formed hop, or (``dirt`` times in four) one drawn from
    the values a sanitizer check exists for."""
    if draw(st.integers(0, 3)) >= dirt:
        address = draw(st.one_of(st.sampled_from(ORDINARY), st.none()))
        reply_ttl = draw(st.sampled_from((None, 1, 64, 250, 255)))
        lses = draw(st.one_of(st.none(), _stacks(False)))
        destination_reply = False
    else:
        address = draw(_addresses)
        reply_ttl = draw(_reply_ttls)
        lses = draw(st.one_of(st.none(), st.just(()), _stacks(True)))
        destination_reply = draw(st.booleans())
    return TraceHop(
        probe_ttl,
        address,
        draw(st.sampled_from((None, 0.5, 12.25))),
        reply_ttl,
        lses,
        tnt_revealed,
        destination_reply,
        None,
        None,
        (),
        True,
    )


@st.composite
def _traces(draw) -> Trace:
    """Mostly ordered hops; each step may repeat, conflict, reveal or
    step back."""
    ttl = draw(st.one_of(st.integers(-3, 3), st.integers()))
    dirt = draw(st.sampled_from((0, 1, 4)))
    hops: list[TraceHop] = []
    for _ in range(draw(st.integers(0, 10))):
        step = draw(
            st.sampled_from(
                ("next",) * 8 + ("repeat", "conflict", "tnt", "back")
            )
        )
        if step == "repeat" and hops:
            # the same record again: as the same object or an equal copy
            last = hops[-1]
            hops.append(last if draw(st.booleans()) else last.with_annotation())
        elif step == "conflict" and hops:
            hops.append(draw(_hop(hops[-1].probe_ttl, dirt)))
        elif step == "tnt":
            # TNT reveals hops at the TTL of the anchor that follows
            hops.append(draw(_hop(ttl + 1, dirt, tnt_revealed=True)))
        else:
            ttl += -draw(st.integers(1, 3)) if step == "back" else 1
            hops.append(draw(_hop(ttl, dirt)))
    if hops and draw(st.booleans()):
        # the last hop answers as the destination
        hops[-1] = hops[-1].with_annotation(destination_reply=True, lses=None)
    epoch_span = draw(
        st.one_of(
            st.none(),
            st.none(),
            st.integers(0, 3).map(lambda e: (e, e)),
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
        )
    )
    return Trace(
        "vp-0",
        7,
        IPv4Address.from_string("203.0.113.9"),
        42,
        tuple(hops),
        draw(st.booleans()),
        epoch_span,
    )


def assert_same_outcome(trace: Trace) -> None:
    """The production sanitizer's result is the oracle's, object for
    object where the oracle passes its input through."""
    expected = OracleTraceSanitizer().sanitize(trace)
    actual = TraceSanitizer().sanitize(trace)
    assert actual.anomalies == expected.anomalies
    assert actual.trace == expected.trace
    # repr also tells apart values that compare equal (True == 1)
    assert repr(actual.trace) == repr(expected.trace)
    assert (actual.trace is trace) == (expected.trace is trace)


@pytest.mark.parametrize("address", EDGE_ADDRESSES + ORDINARY, ids=str)
def test_is_martian_matches_the_range_table(address):
    assert is_martian(address) == sanitize_oracle.is_martian(address)


@settings(max_examples=scaled_examples(300), deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_is_martian_matches_everywhere(value):
    address = IPv4Address(value)
    assert is_martian(address) == sanitize_oracle.is_martian(address)


def _ordered(*ttls: int, reached: bool = False) -> Trace:
    return make_trace(
        [make_hop(t, f"10.0.0.{i + 1}") for i, t in enumerate(ttls)],
        reached=reached,
    )


@settings(max_examples=scaled_examples(300), deadline=None)
@given(_traces())
@example(_ordered(0, 1, 2))
@example(_ordered(-5, -4, 0))
@example(_ordered(-(2**40), 1))
@example(_ordered(1, 1))
@example(_ordered(3, 2, 4))
def test_sanitizer_matches_oracle(trace):
    assert_same_outcome(trace)


def _out_of_range_lse() -> Trace:
    hop = make_hop(2, "10.0.0.2", labels=(16_005, 3))
    assert hop.lses is not None
    object.__setattr__(hop.lses[1], "tc", 8)
    return make_trace([make_hop(1, "10.0.0.1"), hop], reached=False)


def _bad_bottom_of_stack() -> Trace:
    lses = (QuotedLse(16_005, 0, True, 1), QuotedLse(24_001, 0, False, 1))
    hop = make_hop(2, "10.0.0.2").with_annotation(lses=lses)
    return make_trace([make_hop(1, "10.0.0.1"), hop], reached=False)


#: one hand-built trace per anomaly kind the sanitizer can find
ONE_PER_KIND = {
    AnomalyKind.LSE_FIELD_RANGE: _out_of_range_lse,
    AnomalyKind.REPLY_TTL_RANGE: lambda: make_trace(
        [make_hop(1, "10.0.0.1", reply_ip_ttl=256)], reached=False
    ),
    AnomalyKind.BAD_BOTTOM_OF_STACK: _bad_bottom_of_stack,
    AnomalyKind.MARTIAN_SOURCE: lambda: make_trace(
        [make_hop(1, "10.0.0.1"), make_hop(2, "240.0.0.0")], reached=False
    ),
    AnomalyKind.DESTINATION_QUOTED_STACK: lambda: make_trace(
        [make_hop(1, "10.0.0.3", labels=(16_005,), destination_reply=True)]
    ),
    AnomalyKind.NON_MONOTONIC_TTL: lambda: _ordered(0, -1),
    AnomalyKind.DUPLICATE_HOP: lambda: make_trace(
        [make_hop(1, "10.0.0.1"), make_hop(1, "10.0.0.1")], reached=False
    ),
    AnomalyKind.CONFLICTING_HOPS: lambda: _ordered(1, 1),
    AnomalyKind.TRAILING_HOPS: lambda: make_trace(
        [
            make_hop(1, "10.0.0.9", destination_reply=True),
            make_hop(2, "10.0.0.2"),
        ]
    ),
    AnomalyKind.REACHED_MISMATCH: lambda: _ordered(1, 2, reached=True),
    AnomalyKind.REPAIR_BUDGET_EXCEEDED: lambda: make_trace(
        [make_hop(t, "10.0.0.1", reply_ip_ttl=0) for t in range(9)],
        reached=False,
    ),
    AnomalyKind.CROSS_EPOCH: lambda: make_trace(
        [make_hop(1, "10.0.0.9", destination_reply=True)], epoch_span=(1, 2)
    ),
    AnomalyKind.VANISHED_RESPONDER: lambda: make_trace(
        [make_hop(1, "10.0.0.1"), make_hop(2, None), make_hop(3, None)],
        reached=False,
        epoch_span=(0, 1),
    ),
}


def test_one_trace_per_kind_covers_every_check():
    # a detection failure is recorded about a trace, never found in one
    assert set(ONE_PER_KIND) == set(AnomalyKind) - {AnomalyKind.POISON_TRACE}


@pytest.mark.parametrize("kind", list(ONE_PER_KIND), ids=str)
def test_each_check_matches_oracle(kind):
    trace = ONE_PER_KIND[kind]()
    expected = OracleTraceSanitizer().sanitize(trace)
    assert kind in {a.kind for a in expected.anomalies}
    assert_same_outcome(trace)
