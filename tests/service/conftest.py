"""Builders shared by the streaming-service tests."""

from __future__ import annotations

import json

from hypothesis import strategies as st

from repro.campaign.dataset import trace_to_json
from repro.probing.records import Trace
from tests.conftest import make_hop, make_trace


def texts(traces) -> list[str]:
    """The traces as a client posts them: the texts ``accept`` journals."""
    return [json.dumps(trace_to_json(trace)) for trace in traces]


def corpus(n: int = 6) -> list[Trace]:
    """A deterministic mixed corpus: labeled, plain-IP, and odd traces.

    Cycles through shapes that exercise distinct-segment keys, plain IP
    hops, missing replies and (depending on the sanitizer's mood) the
    quarantine path -- the aggregate invariant must hold either way.
    """
    shapes = [
        lambda i: make_trace(
            [
                make_hop(1, f"10.0.{i}.1", labels=(16001 + i, 24000)),
                make_hop(2, f"10.0.{i}.2", labels=(16001 + i,)),
                make_hop(3, "203.0.113.1", destination_reply=True),
            ]
        ),
        lambda i: make_trace(
            [
                make_hop(1, f"10.1.{i}.1"),
                make_hop(2, None),
                make_hop(3, "203.0.113.1", destination_reply=True),
            ]
        ),
        lambda i: make_trace(
            [
                make_hop(1, f"10.2.{i}.1", labels=(24001,), lse_ttl=255),
                make_hop(2, "203.0.113.1", destination_reply=True),
            ]
        ),
        lambda i: make_trace(
            [make_hop(1, f"10.3.{i}.1")], reached=False
        ),
    ]
    return [shapes[i % len(shapes)](i) for i in range(n)]


@st.composite
def trace_strategy(draw) -> Trace:
    """Small synthetic traces over a tiny address/label pool.

    The pool is deliberately narrow so different traces collide on
    distinct-segment keys -- the interesting case for order
    independence (set-union dedup must not care who arrived first).
    """
    length = draw(st.integers(min_value=1, max_value=4))
    hops = []
    for ttl in range(1, length + 1):
        octet = draw(st.integers(min_value=0, max_value=3))
        has_address = draw(st.booleans())
        labels = tuple(
            draw(
                st.lists(
                    st.sampled_from([16001, 16002, 24000, 24001]),
                    max_size=2,
                )
            )
        )
        hops.append(
            make_hop(
                ttl,
                f"10.9.{octet}.{ttl}" if has_address else None,
                labels=labels if has_address else (),
                lse_ttl=draw(st.sampled_from([1, 255])),
            )
        )
    hops.append(
        make_hop(length + 1, "203.0.113.1", destination_reply=True)
    )
    return make_trace(hops, reached=draw(st.booleans()))


trace_lists = st.lists(trace_strategy(), max_size=6)
