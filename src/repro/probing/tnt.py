"""TNT: Trace the Naughty Tunnels (Vanaubel/Luttringer et al.).

TNT extends Paris traceroute with (i) MPLS-aware annotation of the
collected hops and (ii) active *revelation* of tunnels hidden from plain
traceroute.  The real tool fires extra probes (DPR, BRPR, buddy bits);
here revelation is modelled as a per-tunnel success draw against the
simulator's ground truth, preserving TNT's observable contract: hidden
hops, when revealed, surface **addresses only, never LSEs** (Sec. 2.2 of
the paper -- "TNT is able to reveal the content of invisible tunnels but
without the LSE").

The prober also carries the per-hop ground-truth annotations
(``truth_asn``, ``truth_planes``) from the forwarding engine onto the
trace records, which the evaluation harness uses for scoring.
"""

from __future__ import annotations

from hashlib import sha256

from repro.netsim.forwarding import (
    ForwardingEngine,
    ReplyKind,
    TruthHop,
    _ecmp_bucket,
)
from repro.netsim.addressing import IPv4Address
from repro.netsim.walkcache import RECORD_TTL, RecordedWalk
from repro.probing.records import Trace, TraceHop
from repro.probing.traceroute import (
    _HOP_LATENCY_MS,
    _MAX_CONSECUTIVE_STARS,
    ParisTraceroute,
    _quote_entries,
    corrupt_order,
    corrupt_reply,
    derive_flow_id,
    quote_records,
)
from repro.util.determinism import unit_hash
from repro.util.retry import RetryAccounting, RetryPolicy


class TntProber:
    """Paris traceroute + tunnel revelation + ground-truth annotation.

    Traces come from one fused loop (:meth:`trace`) that answers each
    probe from a recorded walk of its flow.  The prober keeps the walks
    it recorded, one list per (VP, destination router), and reuses one
    for a new flow that makes the same ECMP choices under the same
    topology epoch (see :mod:`repro.netsim.walkcache`).
    ``fast_path=False`` probes through the plain per-probe walker of
    :class:`ParisTraceroute` instead: the reference the fused loop is
    tested against.
    """

    def __init__(
        self,
        engine: ForwardingEngine,
        max_ttl: int = 40,
        reveal_success_rate: float = 0.85,
        seed: int = 0,
        retry: RetryPolicy | None = None,
        fast_path: bool = True,
    ) -> None:
        if not 0.0 <= reveal_success_rate <= 1.0:
            raise ValueError("reveal_success_rate must be within [0, 1]")
        self._engine = engine
        self._retry = retry or RetryPolicy.none()
        self._traceroute = ParisTraceroute(
            engine, max_ttl=max_ttl, seed=seed, retry=self._retry
        )
        self._fast_path = fast_path
        self._reveal_rate = reveal_success_rate
        self._seed = seed
        #: (VP router, destination router) -> the usable walks recorded
        #: toward it under ``_walks_epoch``
        self._walks: dict[tuple[int, int | None], list[RecordedWalk]] = {}
        self._walks_epoch = engine.epoch

    @property
    def accounting(self) -> RetryAccounting:
        """Retry accounting of the underlying traceroute client."""
        return self._traceroute.accounting

    def trace(
        self,
        vp_router_id: int,
        destination: IPv4Address,
        vp_name: str = "",
    ) -> Trace:
        """Run one TNT traceroute: probe, annotate, reveal."""
        if self._fast_path:
            return self._fused_trace(vp_router_id, destination, vp_name)
        trace = self._traceroute.trace(vp_router_id, destination, vp_name)
        truth = self._engine.truth_walk(
            vp_router_id, destination, trace.flow_id
        )
        return self._reveal_hidden(self._annotate_truth(trace, truth), truth)

    def _fused_trace(
        self, vp_router_id: int, destination: IPv4Address, vp_name: str
    ) -> Trace:
        """Synthesize the fully annotated trace in one pass.

        Bit-equivalent to the reference (``fast_path=False``): per
        probe attempt it makes the churn and fault clock ticks, the
        loss draw, the blackout checks along the visited prefix and
        the ICMP policing at the responder in the reference call
        order, and answers from the recorded walk of the probe's flow
        (:meth:`_walk_for`: reused from a stored walk toward the same
        router or recorded, and again once a topology mutation made it
        stale).  A probe the recording cannot answer exactly -- sent
        on a stale recording or mid-reconvergence, on an inexact walk,
        or beyond the recording TTL -- is walked live.  Each
        :class:`TraceHop` is built once, truth annotations included,
        after any corruption of its reply; revelation runs on top.
        """
        engine = self._engine
        prober = self._traceroute
        faults = engine.faults
        dynamics = engine.dynamics
        stats = engine.stats
        accounting = prober.accounting
        retry = self._retry
        flow_id = derive_flow_id(vp_router_id, destination)
        corrupting = faults is not None and faults.corrupting
        # at blackout_rate 0 every blacked_out() call is a no-op False,
        # and without a rate limit every allow_icmp() call a no-op True
        blackouts = faults is not None and faults.blackouts
        policing = faults is not None and faults.policing
        reroute = (
            faults.rerouted_flow(flow_id, destination, prober.max_ttl)
            if faults is not None and faults.rerouting
            else None
        )
        # recording is fault-free and consumes no injector state, so a
        # flow gets its walk when first probed, and again once a
        # topology mutation made it stale; ``primary`` is the trace
        # flow's latest walk
        walk_for = self._walk_for
        walk = primary = walk_for(vp_router_id, destination, flow_id)
        # Epochs are stamped relative to the trace's start (as the
        # reference stamps them); only a churn scheduler moves them.
        epoch_base = engine.epoch if dynamics is not None else 0
        epoch_lo: int | None = None
        epoch_hi: int | None = None

        def answer(walk: RecordedWalk, ttl: int, attempt: int):
            """One attempt: the reply as ``(address, return hops, reply
            IP TTL, quoted records, destination reply, responder)``, or
            None for silence."""
            if dynamics is not None:
                dynamics.on_probe()
            if faults is not None:
                faults.on_probe()
                if faults.probe_lost(walk.flow_id, destination, ttl, attempt):
                    return None
            if walk.ok and ttl <= RECORD_TTL and (
                dynamics is None
                # never answer from a pre-mutation recording, nor while
                # transient blackholes and micro-loops reshape the live
                # data plane
                or (
                    walk.epoch == engine.epoch
                    and not dynamics.in_transient()
                )
            ):
                event = walk.expiry_by_ttl.get(ttl)
                if blackouts:
                    # the blackout checks the reference walk makes: one
                    # per router reached, the expiry node included,
                    # stopping at the first dark one
                    upto = (
                        len(walk.visits) if event is None
                        else event.visit_index
                    )
                    for node in walk.visits[:upto]:
                        if faults.blacked_out(node):
                            return None
                stats.probes_synthesized += 1
                if event is None:
                    # past every expiry checkpoint: the walk's terminal
                    # fate (delivery, or a silent drop)
                    reply = walk.terminal_reply
                elif event.silent or not event.rate_passed or (
                    policing and not faults.allow_icmp(event.node)
                ):
                    return None
                else:
                    quote = event.quote
                    return (
                        event.source_ip,
                        event.return_hops,
                        event.reply_ip_ttl,
                        None if quote is None else quote_records(quote, ttl),
                        False,
                        event.node,
                    )
            else:
                if dynamics is not None and walk.epoch != engine.epoch:
                    stats.stale_walk_fallbacks += 1
                stats.probes_walked += 1
                reply = engine.walk_probe(
                    vp_router_id, destination, ttl, walk.flow_id
                )
            if reply is None:
                return None
            stack = reply.quoted_stack
            return (
                reply.source_ip,
                reply.truth_forward_hops,
                reply.reply_ip_ttl,
                None if stack is None else _quote_entries(stack),
                reply.kind is not ReplyKind.TIME_EXCEEDED,
                reply.truth_router_id,
            )

        def current_truth() -> list[TruthHop]:
            """The ground truth as the reference takes it after the last
            probe: the primary flow's recording walked the full path
            with an effectively infinite TTL, so its truth equals
            truth_walk's unless the topology moved on since."""
            if primary.ok and primary.epoch == engine.epoch:
                return primary.truth
            return engine.truth_walk(vp_router_id, destination, flow_id)

        # Without churn the topology cannot move during the trace, so
        # the truth is known up front and each hop is annotated as it is
        # built; under churn the hops are annotated once the trace ends.
        truth = current_truth() if dynamics is None else []
        by_router: dict[int, list[TruthHop]] = {}
        for t in truth:
            by_router.setdefault(t.router_id, []).append(t)
        candidates_for = by_router.get
        match = self._match_candidates
        # jitter keys never repeat within a trace, so hash the prebuilt
        # key text directly: the memoized unit_hash pays more building
        # its key string than the raw SHA-256 costs (bit-identical)
        jitter_prefix = f"{prober.seed}\x1frtt\x1f{flow_id}\x1f"
        digest64 = sha256
        from_bytes = int.from_bytes
        attempts = retry.max_attempts
        # hot-loop locals; TraceHop built positionally, field order as in
        # records.py: (probe_ttl, address, rtt_ms, reply_ip_ttl, lses,
        # tnt_revealed, destination_reply, truth_router_id, truth_asn,
        # truth_planes, truth_uniform)
        hop = TraceHop
        hops: list[TraceHop] = []
        append = hops.append
        reached = False
        stars = 0
        probes = 0
        for ttl in range(1, prober.max_ttl + 1):
            if reroute is not None and ttl == reroute[0]:
                # from the pivot on, the trace's probes take a new flow
                walk = walk_for(vp_router_id, destination, reroute[1])
            elif dynamics is not None and walk.epoch != engine.epoch:
                walk = walk_for(vp_router_id, destination, walk.flow_id)
                if walk.flow_id == flow_id:
                    primary = walk
            probes += 1
            reply = answer(walk, ttl, 0)
            attempt = 1
            while reply is None and attempt < attempts:
                accounting.retries += 1
                accounting.backoff_ms += retry.backoff_ms(attempt)
                reply = answer(walk, ttl, attempt)
                attempt += 1
            if dynamics is not None:
                # the epoch the probe was forwarded under (read after
                # the send: its own tick may have fired the mutation)
                observed = engine.epoch - epoch_base
                if epoch_lo is None:
                    epoch_lo = observed
                epoch_hi = observed
            if reply is None:
                if attempts > 1:
                    accounting.exhausted += 1
                append(hop(ttl, None))
                stars += 1
                if stars >= _MAX_CONSECUTIVE_STARS:
                    break
                continue
            stars = 0
            address, return_hops, reply_ip_ttl, lses, is_destination, node = (
                reply
            )
            digest = digest64((jitter_prefix + str(ttl)).encode()).digest()
            rtt = round(
                (ttl + return_hops) * _HOP_LATENCY_MS
                + (from_bytes(digest[:8], "big") / 2**64) * 0.3,
                3,
            )
            if corrupting:
                address, reply_ip_ttl, lses, node = corrupt_reply(
                    faults, flow_id, destination, ttl,
                    address, reply_ip_ttl, lses, node,
                    hops[-1].lses if hops else None,
                )
            info = match(candidates_for(node), lses)
            if info is None:
                append(hop(
                    ttl, address, rtt, reply_ip_ttl, lses, False,
                    is_destination, node,
                ))
            else:
                append(hop(
                    ttl, address, rtt, reply_ip_ttl, lses, False,
                    is_destination, node, info.asn,
                    # a destination reply is not forwarding evidence
                    # (see _annotate_truth)
                    () if is_destination else info.received_planes,
                    info.uniform,
                ))
            if is_destination:
                reached = True
                break
        accounting.probes += probes
        if corrupting:
            hops = corrupt_order(hops, faults, flow_id, destination)
        trace = Trace(
            vp=vp_name or f"vp{vp_router_id}",
            vp_router_id=vp_router_id,
            destination=destination,
            flow_id=flow_id,
            hops=tuple(hops),
            reached=reached,
            epoch_span=(
                (epoch_lo, epoch_hi) if epoch_lo is not None else None
            ),
        )
        if dynamics is not None:
            truth = current_truth()
            trace = self._annotate_truth(trace, truth)
        return self._reveal_hidden(trace, truth)

    def _walk_for(
        self, vp_router_id: int, destination: IPv4Address, flow_id: int
    ) -> RecordedWalk:
        """The recorded walk of one flow, as ``engine.record_walk``
        returns it: a stored walk toward the same destination router
        whose every multi-path choice the flow makes alike, redone for
        this destination and flow, or else a fresh recording (stored
        when usable)."""
        engine = self._engine
        if self._walks_epoch != engine.epoch:
            # a topology mutation made every stored walk stale
            self._walks.clear()
            self._walks_epoch = engine.epoch
        key = (vp_router_id, engine.network.owner_of(destination))
        stored = self._walks.setdefault(key, [])
        for walk in stored:
            for node, target, hops, chosen in walk.decisions:
                bucket = _ecmp_bucket(flow_id, node, target)
                if hops[bucket % len(hops)] != chosen:
                    break
            else:
                stats = engine.stats
                stats.walks_recorded += 1
                stats.walks_reused += 1
                return walk.reused_for(destination, flow_id)
        walk = engine.record_walk(vp_router_id, destination, flow_id)
        if walk.ok:
            stored.append(walk)
        return walk

    # -- annotation ------------------------------------------------------------

    def _annotate_truth(self, trace: Trace, truth: list[TruthHop]) -> Trace:
        by_router: dict[int, list[TruthHop]] = {}
        for t in truth:
            by_router.setdefault(t.router_id, []).append(t)
        hops = []
        for hop in trace.hops:
            info = self._matching_truth(hop, by_router)
            if info is None:
                hops.append(hop)
                continue
            hops.append(
                hop.with_annotation(
                    truth_asn=info.asn,
                    # A destination reply is not forwarding evidence: the
                    # PE answers on the target's behalf, so the labels it
                    # happened to carry for *other* packets do not apply.
                    truth_planes=(
                        () if hop.destination_reply else info.received_planes
                    ),
                    truth_uniform=info.uniform,
                )
            )
        return trace.with_hops(tuple(hops))

    @staticmethod
    def _matching_truth(
        hop: TraceHop, by_router: dict[int, list[TruthHop]]
    ) -> TruthHop | None:
        """The truth record for a hop's responding router.

        TE waypoints and policy splices can revisit a router, giving it
        several truth records; pick the visit whose received stack
        matches what the hop actually quoted.
        """
        if hop.truth_router_id is None:
            return None
        return TntProber._match_candidates(
            by_router.get(hop.truth_router_id), hop.lses
        )

    @staticmethod
    def _match_candidates(candidates, lses) -> TruthHop | None:
        """Pick the truth visit whose received stack matches the quote."""
        if not candidates:
            return None
        if len(candidates) == 1:
            # every fall-through below lands on candidates[0] anyway
            return candidates[0]
        if lses:
            quoted = tuple(e.label for e in lses)
            for candidate in candidates:
                if candidate.received_labels == quoted:
                    return candidate
        else:
            for candidate in candidates:
                if not candidate.received_labels:
                    return candidate
        return candidates[0]

    # -- revelation -------------------------------------------------------------

    def _reveal_hidden(self, trace: Trace, truth: list[TruthHop]) -> Trace:
        """Insert hidden MPLS hops (addresses only) behind their ending hop.

        A router is *hidden* when the truth walk shows it carried labels
        but it never answered a probe (pipe-mode tunnels: the LSE-TTL of
        255 shields it).  Each maximal hidden run is revealed atomically
        with probability ``reveal_success_rate``, mirroring TNT's
        trial-and-error revelation.
        """
        seen_routers = {
            h.truth_router_id for h in trace.hops if h.truth_router_id is not None
        }
        runs = self._hidden_runs(truth, seen_routers)
        if not runs:
            return trace
        network = self._engine.network
        hops = list(trace.hops)
        for run in reversed(runs):  # insert back-to-front to keep indices valid
            key = tuple(t.router_id for t in run)
            if not self._reveal_succeeds(trace.flow_id, key):
                continue
            anchor = self._anchor_index(hops, truth, run)
            if anchor is None:
                continue
            revealed = []
            prev_router = self._predecessor(truth, run[0].router_id)
            for t in run:
                router = network.router(t.router_id)
                address = (
                    router.interfaces.get(prev_router)
                    if prev_router is not None
                    else router.loopback
                )
                if address is None:
                    address = router.loopback
                revealed.append(
                    TraceHop(
                        probe_ttl=hops[anchor].probe_ttl,
                        address=address,
                        tnt_revealed=True,
                        truth_router_id=t.router_id,
                        truth_asn=t.asn,
                        truth_planes=t.received_planes,
                        truth_uniform=t.uniform,
                    )
                )
                prev_router = t.router_id
            hops[anchor:anchor] = revealed
        return trace.with_hops(tuple(hops))

    def _reveal_succeeds(self, flow_id: int, key: tuple[int, ...]) -> bool:
        """One revelation attempt per retry budget slot.

        Attempt 0 reuses the legacy draw key so fault-free campaigns
        reproduce the seed bit-for-bit -- with or without a retry
        policy.  Retries exist to recover *lost* revelation probes
        (injected loss), never to re-roll the technique's own verdict: a
        clean failure (DPR/BRPR simply cannot reveal this tunnel) is
        final, so only a loss draw advances to the next attempt, which
        then redraws independently.
        """
        faults = self._engine.faults
        for attempt in range(max(1, self._retry.max_attempts)):
            if attempt == 0:
                draw = unit_hash(self._seed, "reveal", flow_id, key)
            else:
                draw = unit_hash(
                    self._seed, "reveal", flow_id, key, attempt
                )
            if faults is not None and faults.reveal_lost(
                flow_id, key, attempt
            ):
                continue
            return draw < self._reveal_rate
        return False

    @staticmethod
    def _hidden_runs(
        truth: list[TruthHop], seen: set[int | None]
    ) -> list[list[TruthHop]]:
        runs: list[list[TruthHop]] = []
        current: list[TruthHop] = []
        for t in truth:
            if t.received_labels and t.router_id not in seen:
                current.append(t)
            else:
                if current:
                    runs.append(current)
                current = []
        if current:
            runs.append(current)
        return runs

    @staticmethod
    def _anchor_index(
        hops: list[TraceHop], truth: list[TruthHop], run: list[TruthHop]
    ) -> int | None:
        """Index in ``hops`` before which the revealed run is inserted:
        the first observed hop at or after the run's end on the truth path."""
        order = {t.router_id: i for i, t in enumerate(truth)}
        run_end = order[run[-1].router_id]
        best: tuple[int, int] | None = None
        for i, hop in enumerate(hops):
            rid = hop.truth_router_id
            if rid is None or rid not in order:
                continue
            pos = order[rid]
            if pos > run_end and (best is None or pos < best[0]):
                best = (pos, i)
        return best[1] if best else None

    @staticmethod
    def _predecessor(truth: list[TruthHop], router_id: int) -> int | None:
        for i, t in enumerate(truth):
            if t.router_id == router_id:
                return truth[i - 1].router_id if i > 0 else None
        return None
