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

from repro.netsim.forwarding import ForwardingEngine, ReplyKind, TruthHop
from repro.netsim.addressing import IPv4Address
from repro.netsim.walkcache import RECORD_TTL, RecordedWalk
from repro.probing.records import Trace, TraceHop
from repro.probing.traceroute import (
    _HOP_LATENCY_MS,
    _MAX_CONSECUTIVE_STARS,
    ParisTraceroute,
    derive_flow_id,
    quote_records,
)
from repro.util.determinism import unit_hash
from repro.util.retry import RetryAccounting, RetryPolicy


class TntProber:
    """Paris traceroute + tunnel revelation + ground-truth annotation."""

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
            engine,
            max_ttl=max_ttl,
            seed=seed,
            retry=self._retry,
            fast_path=fast_path,
        )
        self._reveal_rate = reveal_success_rate
        self._seed = seed

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
        prober = self._traceroute
        walk: RecordedWalk | None = None
        if (
            prober.fast_path
            and self._engine.faults is None
            and self._engine.dynamics is None
            and not self._retry.enabled
        ):
            flow_id = derive_flow_id(vp_router_id, destination)
            walk = self._engine.record_walk(
                vp_router_id, destination, flow_id
            )
            if (
                walk.ok
                and len(walk.expiry_by_ttl) + _MAX_CONSECUTIVE_STARS
                <= RECORD_TTL
            ):
                return self._fused_trace(
                    vp_router_id, destination, vp_name, flow_id, walk
                )
        trace, walk = prober.trace_recorded(
            vp_router_id, destination, vp_name, prerecorded=walk
        )
        if (
            walk is not None
            and walk.ok
            and walk.epoch == self._engine.epoch
        ):
            # The recording already walked the full path with an
            # effectively infinite TTL; its truth equals truth_walk's.
            # A stale recording (the topology churned mid-trace) is
            # never trusted -- truth is re-walked live instead.
            truth = walk.truth
        else:
            truth = self._engine.truth_walk(
                vp_router_id, destination, trace.flow_id
            )
        trace = self._annotate_truth(trace, truth)
        trace = self._reveal_hidden(trace, truth)
        return trace

    def _fused_trace(
        self,
        vp_router_id: int,
        destination: IPv4Address,
        vp_name: str,
        flow_id: int,
        walk: RecordedWalk,
    ) -> Trace:
        """Synthesize the fully annotated trace in one pass.

        Bit-equivalent to ``trace_recorded`` + ``_annotate_truth`` over a
        pristine data plane (no faults, no retries): probe outcomes come
        from the recorded walk exactly as ``forward_probe_cached`` would
        synthesize them, and each :class:`TraceHop` is constructed once,
        truth annotations included, instead of probe-reply -> bare hop ->
        annotated copy.  Revelation runs unchanged on top.
        """
        prober = self._traceroute
        truth = walk.truth
        by_router: dict[int, list[TruthHop]] = {}
        for t in truth:
            by_router.setdefault(t.router_id, []).append(t)
        # jitter keys never repeat within a trace, so hash the prebuilt
        # key text directly: the memoized unit_hash pays more building
        # its key string than the raw SHA-256 costs (bit-identical)
        jitter_prefix = f"{prober.seed}\x1frtt\x1f{flow_id}\x1f"
        events_get = walk.expiry_by_ttl.get
        candidates_for = by_router.get
        match = self._match_candidates
        # hot-loop locals; TraceHop built positionally, field order as in
        # records.py: (probe_ttl, address, rtt_ms, reply_ip_ttl, lses,
        # tnt_revealed, destination_reply, truth_router_id, truth_asn,
        # truth_planes, truth_uniform)
        hop = TraceHop
        digest64 = sha256
        from_bytes = int.from_bytes
        hops: list[TraceHop] = []
        append = hops.append
        reached = False
        stars = 0
        probes = 0
        for ttl in range(1, prober.max_ttl + 1):
            probes += 1
            event = events_get(ttl)
            terminal = None
            if event is None:
                terminal = walk.terminal_reply
                if terminal is None:
                    # the walk died silently past its last checkpoint
                    append(hop(ttl, None))
                    stars += 1
                    if stars >= _MAX_CONSECUTIVE_STARS:
                        break
                    continue
            elif event.silent or not event.rate_passed:
                append(hop(ttl, None))
                stars += 1
                if stars >= _MAX_CONSECUTIVE_STARS:
                    break
                continue
            stars = 0
            digest = digest64(
                (jitter_prefix + str(ttl)).encode("utf-8")
            ).digest()
            jitter = (from_bytes(digest[:8], "big") / 2**64) * 0.3
            if terminal is None:
                quote = event.quote
                lses = (
                    quote_records(quote, ttl) if quote is not None else None
                )
                info = match(candidates_for(event.node), lses)
                if info is None:
                    append(hop(
                        ttl,
                        event.source_ip,
                        round(
                            (ttl + event.return_hops) * _HOP_LATENCY_MS
                            + jitter,
                            3,
                        ),
                        event.reply_ip_ttl,
                        lses,
                        False,
                        False,
                        event.node,
                    ))
                else:
                    append(hop(
                        ttl,
                        event.source_ip,
                        round(
                            (ttl + event.return_hops) * _HOP_LATENCY_MS
                            + jitter,
                            3,
                        ),
                        event.reply_ip_ttl,
                        lses,
                        False,
                        False,
                        event.node,
                        info.asn,
                        info.received_planes,
                        info.uniform,
                    ))
                continue
            is_destination = terminal.kind is not ReplyKind.TIME_EXCEEDED
            info = match(candidates_for(terminal.truth_router_id), None)
            append(hop(
                ttl,
                terminal.source_ip,
                round(
                    (ttl + terminal.truth_forward_hops) * _HOP_LATENCY_MS
                    + jitter,
                    3,
                ),
                terminal.reply_ip_ttl,
                None,
                False,
                is_destination,
                terminal.truth_router_id,
                info.asn if info is not None else None,
                # a destination reply is not forwarding evidence
                # (see _annotate_truth)
                (
                    () if is_destination or info is None
                    else info.received_planes
                ),
                info.uniform if info is not None else True,
            ))
            if is_destination:
                reached = True
                break
        prober.accounting.probes += probes
        self._engine.stats.probes_synthesized += probes
        trace = Trace(
            vp=vp_name or f"vp{vp_router_id}",
            vp_router_id=vp_router_id,
            destination=destination,
            flow_id=flow_id,
            hops=tuple(hops),
            reached=reached,
        )
        return self._reveal_hidden(trace, truth)

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
