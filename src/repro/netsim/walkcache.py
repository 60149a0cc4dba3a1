"""Single-walk trace synthesis: the forwarding fast path.

A Paris traceroute fires one probe per TTL toward the same
``(vp, destination, flow)`` tuple, and every probe re-walks the same
forward path -- a depth-*h* trace costs O(h^2) hop-processing steps on
the reference walker.  But the path a probe takes is independent of its
TTL: forwarding decisions (IGP next hops, label operations, policy
splices) never read the TTL; the TTL only selects *where the probe
expires*.  So one instrumented walk can record, per expiry checkpoint,
everything needed to synthesize the reply for **every** probe TTL, and
the TNT prober's fused loop (:meth:`repro.probing.tnt.TntProber.trace`)
answers each probe in O(1) from the recording.

Symbolic TTLs
-------------

The recording walk runs the *unmodified* reference engine once with the
initial IP TTL replaced by a :class:`SymTtl` -- an ``int`` subclass that
remembers whether a value derives from the probe's initial TTL
(``probe=True``, propagated through decrements, pushes and pops) or is a
pipe-mode constant (the 255 a non-propagating ingress writes into its
LSEs).  At each of the engine's four TTL-expiry checkpoints the recorder
observes the symbolic value under test:

- probe-derived ``255 - d``: a probe sent with TTL ``d + 1`` expires
  exactly here.  The probe-derived chain is decremented only at
  checkpoints, so the offsets ``d`` are consecutive (0, 1, 2, ...) and
  the TTL -> checkpoint map is a plain dict.
- constant ``255 - k``: no probe (with sane TTL) ever expires here --
  the hop sits inside a pipe-mode tunnel and is invisible.

Each checkpoint precomputes the TTL-independent reply ingredients once
(responder, ICMP-silent flag, the per-flow response-rate draw, source
address, reply IP TTL) plus a *quote template* whose per-entry LSE-TTLs
are materialized per probe TTL -- that is how a probe expiring two hops
into a uniform tunnel quotes ``LSE-TTL 1`` while the next probe quotes
``2``, from one recording.

Faults stay per-probe
---------------------

The recording itself is fault-free and advances no fault clock.  Every
per-probe draw -- loss, blackout windows along the visited prefix, the
ICMP token bucket at the responder -- is made by the fused loop, per
attempt, in exactly the reference call order, so fault schedules,
counters and retry semantics are bit-identical.

Fallback
--------

Whenever exactness cannot be guaranteed -- the recording walk itself
expired (a path deeper than the recording TTL), checkpoint offsets came
out non-contiguous, or the walk raised outside the modelled drop
reasons -- the recording is marked not-:attr:`~RecordedWalk.ok` and
every probe of that flow is walked live
(:meth:`~repro.netsim.forwarding.ForwardingEngine.walk_probe`).  So is
a probe TTL beyond the recording base, a probe sent after a topology
mutation made the recording stale, and a probe sent while a churn
scheduler is mid-reconvergence.

Reuse across destinations
-------------------------

A recording depends on the destination only through its router
(``network.owner_of(dest)``), and on the flow only through the
multi-path ECMP choices the walk made: every other forwarding decision
reads the vantage point, the destination router and the topology
epoch.  The recorder logs each multi-path choice in walk order as
``(node, target, next_hops, chosen)`` (:attr:`RecordedWalk.decisions`).
A flow whose ECMP bucket picks ``chosen`` at every logged decision
walks the same path, so its recording shares the stored one's expiry
events, visits and truth; :meth:`RecordedWalk.reused_for` redoes only
what reads the destination or the flow: the delivery reply's source
address (the destination itself) and the per-flow ICMP response-rate
draw at each router answering below rate 1
(:attr:`RecordedWalk.rated`).

The TNT prober keeps the walks it recorded, one list per destination
router, and reuses one before it records a new flow.  The store is per
prober, that is per vantage point: it is bounded by one VP's
destination routers, a VP's traces stay a function of that VP's probe
sequence alone, and it is dropped when the topology epoch moves on.
Flow ids are 16-bit hashes (``derive_flow_id``), so two destinations
can share one; nothing here is keyed by flow id.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.netsim.addressing import IPv4Address
from repro.netsim.mpls import LabelStack
from repro.util.determinism import unit_hash

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.netsim.forwarding import ForwardingEngine, ProbeReply, TruthHop

#: Initial TTL of the recording walk.  Mirrors ``truth_walk``'s 255 --
#: the largest value that survives a uniform-mode push into an 8-bit
#: LSE-TTL.  Probes with a TTL above this base cannot be synthesized
#: exactly and are walked live.
RECORD_TTL = 255


class SymTtl(int):
    """An int TTL that remembers whether it derives from the probe TTL.

    Subtraction (the only arithmetic the forwarding plane performs on
    TTLs) preserves the provenance flag; comparisons and range checks
    behave like the plain int they wrap, so the reference engine runs
    unchanged over symbolic values.
    """

    probe: bool

    def __new__(cls, value: int, probe: bool = False) -> "SymTtl":
        self = super().__new__(cls, value)
        self.probe = probe
        return self

    def __sub__(self, other: int) -> "SymTtl":
        value = int(self) - int(other)
        if self.probe and 0 <= value < 256:
            # decrements dominate; probe-chain values are pooled (the
            # instances are immutable, so sharing across walks is safe)
            return _PROBE_TTL_POOL[value]
        return SymTtl(value, self.probe)

    def __add__(self, other: int) -> "SymTtl":
        return SymTtl(int(self) + int(other), self.probe)


_PROBE_TTL_POOL = tuple(SymTtl(value, True) for value in range(256))


#: One LSE of a quote template: ``(label, tc, bottom_of_stack,
#: probe_relative, ttl_value)``.  ``ttl_value`` is the concrete LSE-TTL,
#: or -- when ``probe_relative`` -- the delta added to the probe TTL.
#: Plain tuples, not dataclasses: one is built per LSE per recorded
#: checkpoint, squarely on the recording hot path.
QuoteTemplate = tuple[tuple[int, int, bool, bool, int], ...]

#: One multi-path next-hop choice of a walk: ``(node, target,
#: next_hops, chosen)``.  A flow whose ECMP bucket picks ``chosen`` among
#: ``next_hops`` at every logged choice walks the same path.
EcmpDecision = tuple[int, int, list[int], int]


@dataclass(frozen=True, slots=True)
class WalkEvent:
    """One TTL-expiry checkpoint of the recorded walk.

    Everything TTL-independent about the would-be ICMP reply is
    precomputed here; only the quoted LSE-TTLs (and the per-probe fault
    draws, which live outside) vary per probe.
    """

    #: router at which the probe expires
    node: int
    #: how many blackout checkpoints the probe passes, this node included
    visit_index: int
    #: the responder never answers (``icmp_silent`` configuration)
    silent: bool
    #: the per-(node, flow, destination) response-rate draw passed
    rate_passed: bool
    source_ip: IPv4Address
    reply_ip_ttl: int
    return_hops: int
    #: RFC 4950 quote template, or None when the responder does not quote
    quote: QuoteTemplate | None


@dataclass(slots=True)
class WalkStats:
    """Fast-path tallies (observational; telemetry gauges)."""

    #: usable recordings handed to the prober, reused ones included
    walks_recorded: int = 0
    #: recording attempts discarded (equivalence not guaranteed)
    walks_fallback: int = 0
    #: recordings reused from a stored walk of the same destination
    #: router rather than walked afresh
    walks_reused: int = 0
    #: probes answered from a recorded walk in O(1)
    probes_synthesized: int = 0
    #: probes answered by a full reference walk
    probes_walked: int = 0
    #: per-node processing steps executed by reference walks
    nodes_processed: int = 0
    #: topology epochs the engine has moved through (cache invalidations)
    epoch_transitions: int = 0
    #: synthesis requests refused because the recording's epoch was stale
    stale_walk_fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-friendly view (benchmarks, telemetry gauges)."""
        return {
            "walks_recorded": self.walks_recorded,
            "walks_fallback": self.walks_fallback,
            "walks_reused": self.walks_reused,
            "probes_synthesized": self.probes_synthesized,
            "probes_walked": self.probes_walked,
            "nodes_processed": self.nodes_processed,
            "epoch_transitions": self.epoch_transitions,
            "stale_walk_fallbacks": self.stale_walk_fallbacks,
        }


@dataclass(slots=True)
class RecordedWalk:
    """One recorded ``(src, destination, flow)`` walk, ready to answer
    any probe TTL.

    ``ok`` is the exactness guarantee: when False, every probe of the
    flow must be (and is) walked live.
    """

    src: int
    dest: IPv4Address
    flow_id: int
    ok: bool = False
    #: engine topology epoch the recording was taken under; a recording
    #: whose epoch trails the engine's is *stale* and must never be used
    #: to synthesize a reply (the probe is walked live instead)
    epoch: int = 0
    #: probe TTL -> expiry checkpoint; keys are exactly 1..len(events)
    expiry_by_ttl: dict[int, WalkEvent] = field(default_factory=dict)
    #: routers visited (blackout checkpoints), in walk order
    visits: tuple[int, ...] = ()
    #: the TTL-independent delivery reply, or None when the walk dropped
    terminal_reply: "ProbeReply | None" = None
    #: ground-truth hops recorded alongside (reused by the TNT prober)
    truth: "list[TruthHop]" = field(default_factory=list)
    #: the multi-path next-hop choices the walk made, in walk order
    decisions: list[EcmpDecision] = field(default_factory=list)
    #: ``(probe TTL, response rate)`` of each checkpoint whose responder
    #: answers a flow with probability below 1: its ``rate_passed`` is a
    #: per-(flow, destination) draw
    rated: list[tuple[int, float]] = field(default_factory=list)

    def reused_for(self, dest: IPv4Address, flow_id: int) -> "RecordedWalk":
        """This walk as :meth:`ForwardingEngine.record_walk` would
        record it toward ``dest`` with ``flow_id``.

        The caller guarantees that ``dest`` sits behind this walk's
        destination router and that ``flow_id`` makes the same choice at
        every one of its :attr:`decisions`, under the same epoch.  Only
        the delivery reply's source and the per-flow response-rate draws
        are redone; events without such a draw, the visits and the truth
        are shared.
        """
        expiry_by_ttl = self.expiry_by_ttl
        if self.rated:
            expiry_by_ttl = dict(expiry_by_ttl)
            key = dest.value
            for ttl, rate in self.rated:
                event = expiry_by_ttl[ttl]
                draw = unit_hash("icmp-drop", event.node, flow_id, key)
                passed = draw < rate
                if passed != event.rate_passed:
                    expiry_by_ttl[ttl] = replace(event, rate_passed=passed)
        terminal = self.terminal_reply
        if terminal is not None:
            # a delivery reply comes from the destination itself
            terminal = replace(terminal, source_ip=dest)
        return RecordedWalk(
            self.src,
            dest,
            flow_id,
            self.ok,
            self.epoch,
            expiry_by_ttl,
            self.visits,
            terminal,
            self.truth,
            self.decisions,
            self.rated,
        )


class WalkRecorder:
    """Observer threaded through one instrumented reference walk.

    The engine calls :meth:`on_visit` at every blackout checkpoint and
    :meth:`on_check` at every TTL-expiry checkpoint; the recorder builds
    the :class:`RecordedWalk` and flags anything it cannot model.
    """

    def __init__(
        self, engine: "ForwardingEngine", src: int, dest: IPv4Address, flow_id: int
    ) -> None:
        self._engine = engine
        self._src = src
        self._dest = dest
        self._flow = flow_id
        self._visits: list[int] = []
        self._events: list[WalkEvent] = []
        self._expiry_by_ttl: dict[int, WalkEvent] = {}
        self._rated: list[tuple[int, float]] = []
        #: the engine appends each multi-path next-hop choice here
        self.decisions: list[EcmpDecision] = []
        #: engine-wide (node, prev, vp) -> reply-skeleton cache; flows
        #: and destinations share paths, so skeletons recur heavily
        self._skeletons = engine._reply_skeletons
        self.inexact = False
        # bound-method shortcut: on_visit fires once per visited router
        self.on_visit = self._visits.append

    def on_check(
        self,
        node: int,
        prev: int | None,
        value: int,
        quoted: LabelStack | None,
    ) -> None:
        """The walk passed one TTL-expiry checkpoint testing ``value``.

        ``quoted`` is what the responder would quote (already None when
        it does not implement RFC 4950).
        """
        concrete = int(value)
        if concrete <= 1:
            # The recording walk itself is about to expire: the path is
            # deeper than the recording TTL (or a pathological pipe
            # tunnel ran its 255 down).  Exactness is gone.
            self.inexact = True
            return
        if type(value) is not SymTtl or not value.probe:
            # A pipe-mode constant: no probe expires here, the hop is
            # invisible.  Nothing to record.
            return
        expiry_ttl = RECORD_TTL - concrete + 1
        expiry_by_ttl = self._expiry_by_ttl
        if expiry_ttl in expiry_by_ttl:  # pragma: no cover - defensive
            self.inexact = True
            return
        key = (node, prev, self._src)
        skeleton = self._skeletons.get(key)
        if skeleton is None:
            skeleton = self._build_skeleton(node, prev)
            self._skeletons[key] = skeleton
        silent, rate, source, reply_ip_ttl, return_hops = skeleton
        rate_passed = True
        if rate < 1.0:
            self._rated.append((expiry_ttl, rate))
            rate_passed = (
                unit_hash("icmp-drop", node, self._flow, self._dest.value)
                < rate
            )
        template: QuoteTemplate | None = None
        if quoted is not None:
            template = tuple(
                (
                    entry.label,
                    entry.tc,
                    entry.bottom_of_stack,
                    True,
                    int(entry.ttl) - RECORD_TTL,
                )
                if (isinstance(entry.ttl, SymTtl) and entry.ttl.probe)
                else (
                    entry.label,
                    entry.tc,
                    entry.bottom_of_stack,
                    False,
                    int(entry.ttl),
                )
                for entry in quoted
            )
        event = WalkEvent(
            node,
            len(self._visits),
            silent,
            rate_passed,
            source,
            reply_ip_ttl,
            return_hops,
            template,
        )
        self._events.append(event)
        expiry_by_ttl[expiry_ttl] = event

    def _build_skeleton(
        self, node: int, prev: int | None
    ) -> tuple[bool, float, IPv4Address, int, int]:
        """The TTL- and flow-independent reply ingredients of one
        responder, mirroring :meth:`ForwardingEngine._time_exceeded`
        decision order."""
        engine = self._engine
        router = engine.network.router(node)
        source = (
            router.interfaces.get(prev) if prev is not None else router.loopback
        )
        if source is None:  # pragma: no cover - defensive, as in the engine
            source = router.loopback
            assert source is not None
        reply_ip_ttl, return_hops = engine._reply_meta(node, self._src, echo=False)
        return (
            router.icmp_silent,
            router.icmp_response_rate,
            source,
            reply_ip_ttl,
            return_hops,
        )

    def finalize(
        self,
        terminal_reply: "ProbeReply | None",
        dropped: bool,
        truth: "list[TruthHop]",
    ) -> RecordedWalk:
        """Seal the recording into a :class:`RecordedWalk`.

        ``terminal_reply`` is the delivery reply the walk returned (or
        None); ``dropped`` marks a silent :class:`PacketDropped` death.
        A walk that neither delivered nor dropped expired mid-recording
        and is inexact by definition.
        """
        if not dropped and terminal_reply is None:
            self.inexact = True
        # The probe-TTL chain is decremented exactly once per checkpoint,
        # so offsets must come out contiguous from 1; anything else means
        # the symbolic model missed a mutation -- refuse to synthesize.
        # Dict keys are distinct, so len + bounds imply exactly {1..n}.
        expiry = self._expiry_by_ttl
        if len(expiry) != len(self._events) or (
            expiry and (min(expiry) != 1 or max(expiry) != len(expiry))
        ):
            self.inexact = True
        return RecordedWalk(
            src=self._src,
            dest=self._dest,
            flow_id=self._flow,
            ok=not self.inexact,
            expiry_by_ttl=self._expiry_by_ttl,
            visits=tuple(self._visits),
            terminal_reply=None if dropped else terminal_reply,
            truth=truth,
            decisions=self.decisions,
            rated=self._rated,
        )
