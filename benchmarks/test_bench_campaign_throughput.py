"""Performance -- end-to-end trace-collection throughput.

The paper's campaign collected 7.7M TNT-style traceroutes; trace
collection is the ROADMAP's "fast as the hardware allows" hot path.
This benchmark runs the same probing workload twice over identical
topologies:

- **fast** (the shipped default): single-walk trace synthesis -- one
  instrumented walk per flow answers every probe TTL of the trace;
- **reference**: ``TntProber(fast_path=False)``, the per-probe walker
  the fast path falls back to and the differential suite compares it
  with.  Every probe walks its path hop by hop (O(h^2) steps per
  trace) over the same forwarding engine and routing primitives.

Both legs are measured warm: one un-timed pass per leg pays the
one-off SPF / tunnel-programming / import costs, because at campaign
scale (millions of traces per engine) those amortize to nothing and
timing them would just add equal constants to both legs.  Each round
times both legs back to back and takes the ratio of their trimmed
mean per-trace latencies; the reported speedup is the median of the
round ratios.  Pairing makes the ratio invariant to the slow clock
drift of shared runners (it multiplies both legs of a round equally),
and the trim rejects the scheduler steal bursts that poison a handful
of traces per round.  Traces must come out byte-identical; the fast
leg must win by at least ``MIN_FAST_PATH_SPEEDUP``.  The run drops
``BENCH_campaign.json`` (traces/sec, per-trace latency percentiles,
walk-steps saved, and where it was measured) for CI to archive and
regression-gate.
"""

import gc
import json
import time
from pathlib import Path

from repro.campaign.vantage_points import default_vantage_points
from repro.probing.tnt import TntProber
from repro.topogen.anaximander import build_target_list
from repro.topogen.internet import build_measurement_network
from repro.topogen.portfolio import default_portfolio
from repro.util.atomicio import atomic_write_text

from benchmarks.conftest import emit
from benchmarks.e2e.measure import provenance

BENCH_FILENAME = "BENCH_campaign.json"
_ROOT = Path(__file__).resolve().parent.parent

#: CI regression gate on the paired median fast/reference speedup.  It
#: keeps the margin the earlier 5.0x gate had over its committed 5.43x:
#: the measured speedup (median 2.58x over 17 runs on a 2-vCPU x86-64
#: host, range 2.36-2.72x) times 5.0 / 5.43 is 2.38x, rounded down to
#: one decimal.
MIN_FAST_PATH_SPEEDUP = 2.3

#: portfolio ASes probed by the smoke workload (mixed TTL models,
#: vendors and tunnel shapes; 46 is the ESnet-style anchor)
_AS_IDS = (46, 27, 31)
_SEED = 1
_VPS = 2
_TARGETS = 24
#: paired measurement rounds; the speedup is the median round ratio
_ROUNDS = 9


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    index = round(q * (len(sorted_values) - 1))
    return sorted_values[index]


def _trimmed_mean(sorted_values: list[float]) -> float:
    """Mean of an already-sorted sample with 5% shaved off each end."""
    trim = max(1, len(sorted_values) // 20)
    kept = sorted_values[trim:-trim]
    return sum(kept) / len(kept)


def _build_workload():
    """(engine, vp ids, shuffled targets) per AS -- the probe stage of
    the smoke campaign, minus analysis."""
    portfolio = default_portfolio()
    vps = default_vantage_points()[:_VPS]
    workload = []
    for as_id in _AS_IDS:
        spec = portfolio.spec(as_id)
        net = build_measurement_network(
            spec, [vp.vp_id for vp in vps], seed=_SEED
        )
        targets = build_target_list(net, limit=_TARGETS, seed=_SEED)
        workload.append((net, vps, list(targets.addresses)))
    return workload


def _stats_totals(workload) -> dict:
    """Summed engine stats across the workload's networks."""
    totals: dict = {}
    for net, _, _ in workload:
        for name, value in net.engine.stats.as_dict().items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _collect(workload, fast_path: bool):
    """Probe every (vp, target) pair; returns (traces, per-trace µs).

    ``fast_path=False`` probes with the reference walker: no walk is
    recorded and every probe is forwarded hop by hop.
    """
    traces = []
    latencies_us = []
    for net, vps, targets in workload:
        prober = TntProber(net.engine, seed=_SEED, fast_path=fast_path)
        for vp in vps:
            vp_router = net.vantage_points[vp.vp_id]
            for destination in targets:
                tick = time.perf_counter_ns()
                trace = prober.trace(vp_router, destination, vp_name=vp.vp_id)
                latencies_us.append((time.perf_counter_ns() - tick) / 1e3)
                traces.append(trace)
    return traces, latencies_us


def test_bench_campaign_throughput():
    # Sampled before any work so the load average is the host's, not
    # this benchmark's own.
    measured_on = provenance(_ROOT)
    # One workload per leg, reused across rounds: the un-timed warm-up
    # pass pays first-touch costs (SPF fields, tunnel programs, imports)
    # that a real campaign amortizes over millions of traces.  Walks and
    # probes are NOT reused -- every round re-records and re-synthesizes
    # (or re-walks) every trace.
    reference_workload = _build_workload()
    fast_workload = _build_workload()
    _collect(reference_workload, fast_path=False)
    _collect(fast_workload, fast_path=True)

    # Each round times both legs back to back (comparable clocks) and
    # records the ratio of trimmed-mean latencies; each leg's best round
    # is kept for the absolute throughput numbers.  Leg order alternates
    # per round so a monotonic clock drift (shared runners slow down
    # under sustained load) penalizes each leg equally instead of always
    # hitting whichever leg runs second.  GC stays off inside the timed
    # windows.  Trace equality is asserted on every round.
    def _timed(workload, fast_path):
        before = _stats_totals(workload)
        gc.disable()
        traces, latencies = _collect(workload, fast_path=fast_path)
        gc.enable()
        after = _stats_totals(workload)
        latencies.sort()
        delta = {name: after[name] - before[name] for name in after}
        return traces, latencies, delta

    reference_mean = fast_mean = float("inf")
    reference_traces = fast_traces = None
    reference_steps = 0
    fast_stats: dict = {}
    fast_latencies_us: list[float] = []
    round_ratios: list[float] = []
    for round_index in range(_ROUNDS):
        if round_index % 2 == 0:
            round_reference, ref_latencies, ref_delta = _timed(
                reference_workload, fast_path=False
            )
            round_fast, latencies, delta = _timed(
                fast_workload, fast_path=True
            )
        else:
            round_fast, latencies, delta = _timed(
                fast_workload, fast_path=True
            )
            round_reference, ref_latencies, ref_delta = _timed(
                reference_workload, fast_path=False
            )
        if reference_traces is not None:
            assert round_reference == reference_traces
        reference_traces = round_reference
        round_reference_mean = _trimmed_mean(ref_latencies)
        if round_reference_mean < reference_mean:
            reference_mean = round_reference_mean
            reference_steps = ref_delta["nodes_processed"]

        if fast_traces is not None:
            assert round_fast == fast_traces
        fast_traces = round_fast
        round_fast_mean = _trimmed_mean(latencies)
        round_ratios.append(round_reference_mean / round_fast_mean)
        if round_fast_mean < fast_mean:
            fast_mean = round_fast_mean
            fast_latencies_us = latencies
            fast_stats = delta

    # The correctness contract first: the fast path must be a pure
    # performance change -- byte-identical Trace tuples.
    assert fast_traces == reference_traces

    count = len(fast_traces)
    reference_tps = 1e6 / reference_mean
    fast_tps = 1e6 / fast_mean
    round_ratios.sort()
    speedup = round_ratios[len(round_ratios) // 2]
    walk_steps_saved = reference_steps - fast_stats["nodes_processed"]
    fast_latencies_us.sort()
    payload = {
        "benchmark": "campaign_trace_collection",
        "as_ids": list(_AS_IDS),
        "traces": count,
        "reference_traces_per_sec": round(reference_tps, 1),
        "traces_per_sec": round(fast_tps, 1),
        "speedup": round(speedup, 2),
        "p50_us_per_trace": round(_percentile(fast_latencies_us, 0.50), 3),
        "p95_us_per_trace": round(_percentile(fast_latencies_us, 0.95), 3),
        "max_us_per_trace": round(fast_latencies_us[-1], 3),
        "walk_steps_saved": walk_steps_saved,
        "walks_recorded": fast_stats["walks_recorded"],
        "walks_fallback": fast_stats["walks_fallback"],
        "probes_synthesized": fast_stats["probes_synthesized"],
        "probes_walked": fast_stats["probes_walked"],
        "provenance": measured_on,
    }
    atomic_write_text(
        BENCH_FILENAME, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    emit(
        f"collected {count} traces: {fast_tps:,.0f}/s fast vs "
        f"{reference_tps:,.0f}/s reference ({speedup:.1f}x, "
        f"{walk_steps_saved:,} walk steps saved)"
    )
    emit(f"machine-readable stats -> {BENCH_FILENAME}")

    assert count > 0
    assert walk_steps_saved > 0
    # One instrumented walk per flow plus O(1) slicing must keep its
    # lead over the O(h^2) per-probe walker end to end.
    assert speedup >= MIN_FAST_PATH_SPEEDUP, (
        f"fast path speedup {speedup:.2f}x < {MIN_FAST_PATH_SPEEDUP}x"
    )
