"""Performance -- end-to-end trace-collection throughput.

The paper's campaign collected 7.7M TNT-style traceroutes; trace
collection is the ROADMAP's "fast as the hardware allows" hot path.
This benchmark runs the same probing workload twice over identical
topologies:

- **fast** (the shipped default): single-walk trace synthesis -- one
  instrumented walk answers every probe TTL of a trace, and each
  prober reuses it for the other targets behind the same destination
  router whose flows make the same ECMP choices;
- **reference**: ``TntProber(fast_path=False)``, the per-probe walker
  the differential suite compares the fast path with.  Every probe
  walks its path hop by hop (O(h^2) steps per trace) over the same
  forwarding engine and routing primitives.

Each leg runs fault-free and **lossy**: under the ``scale-lossy``
workload's fault plan with three probe attempts, one
``FaultInjector(plan, "vp", as_id, vp_index)`` and one prober per
vantage point, as ``shards.probe_vps`` probes.  The fast path answers
both from the same fused loop, so the lossy leg prices its per-attempt
fault and retry draws.

Both legs are measured warm: one un-timed pass per leg pays the
one-off SPF / tunnel-programming / import costs, because at campaign
scale (millions of traces per engine) those amortize to nothing and
timing them would just add equal constants to both legs.  Each round
times both legs back to back and takes the ratio of their trimmed
mean per-trace latencies; the reported speedup is the median of the
round ratios.  Pairing makes the ratio invariant to the slow clock
drift of shared runners (it multiplies both legs of a round equally),
and the trim rejects the scheduler steal bursts that poison a handful
of traces per round.  Traces (and, lossy, every VP's fault counters
and retry accounting) must come out byte-identical; the fast leg must
win by at least ``MIN_FAST_PATH_SPEEDUP`` fault-free and
``MIN_LOSSY_SPEEDUP`` lossy, and its lossy leg may cost at most
``MAX_LOSSY_COST_RATIO`` times its fault-free leg per trace.  Both of a
round's fast legs see one clock, so host drift cancels in that ratio
too.  The run drops ``BENCH_campaign.json``
(traces/sec, per-trace latency percentiles, walk-steps saved, the lossy
leg's throughput and speedup, the fast path's lossy / fault-free cost
ratio, and where it was measured) for CI to archive and
regression-gate.
"""

import gc
import json
import time
from pathlib import Path

from repro.campaign.vantage_points import default_vantage_points
from repro.netsim.faults import FaultInjector, FaultPlan
from repro.probing.tnt import TntProber
from repro.topogen.anaximander import build_target_list
from repro.topogen.internet import build_measurement_network
from repro.topogen.portfolio import default_portfolio
from repro.util.atomicio import atomic_write_text
from repro.util.retry import RetryPolicy

from benchmarks.conftest import emit
from benchmarks.e2e.measure import provenance

BENCH_FILENAME = "BENCH_campaign.json"
_ROOT = Path(__file__).resolve().parent.parent

#: CI regression gate on the paired median fast/reference speedup: the
#: lowest of 16 runs on a 2-vCPU x86-64 host (Python 3.11), rounded down
#: to one decimal.  Those runs read 3.69-4.03x, median 3.91x, with each
#: prober reusing a VP's walks toward one destination router (73 of the
#: 120 traces).  Six runs without walk reuse read 2.41-2.53x.
MIN_FAST_PATH_SPEEDUP = 3.6

#: CI regression gate on the lossy leg's paired median speedup, derived
#: the same way from 16 later runs on that host: they read 3.04-3.27x,
#: median 3.13x, with every fault draw hashing prebuilt key text and
#: zero-rate fault classes drawing nothing.  Eight runs interleaved with
#: them on the code before that (each draw's key built by ``unit_hash``)
#: read 2.49-2.62x, median 2.53x.
MIN_LOSSY_SPEEDUP = 3.0

#: CI ceiling on the fast path's lossy over fault-free cost per trace
#: (``lossy_cost_ratio``): the highest of the same 16 runs, rounded up
#: to one decimal.  They read 1.53-1.69, median 1.61; the eight
#: interleaved runs of the earlier code read 2.15-2.25, median 2.19.
MAX_LOSSY_COST_RATIO = 1.7

#: the ``scale-lossy`` e2e workload's fault plan and retry policy
#: (benchmarks/e2e/workloads.py), at seed 1
LOSSY_PLAN = FaultPlan(
    probe_loss=0.05,
    snmp_timeout_rate=0.1,
    label_garble_rate=0.02,
    duplicate_hop_rate=0.02,
    seed=1,
)
LOSSY_RETRY = RetryPolicy(max_attempts=3)

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
    """(AS id, network, vps, targets) per AS -- the probe stage of the
    smoke campaign, minus analysis."""
    portfolio = default_portfolio()
    vps = default_vantage_points()[:_VPS]
    workload = []
    for as_id in _AS_IDS:
        spec = portfolio.spec(as_id)
        net = build_measurement_network(
            spec, [vp.vp_id for vp in vps], seed=_SEED
        )
        targets = build_target_list(net, limit=_TARGETS, seed=_SEED)
        workload.append((as_id, net, vps, list(targets.addresses)))
    return workload


def _stats_totals(workload) -> dict:
    """Summed engine stats across the workload's networks."""
    totals: dict = {}
    for _, net, _, _ in workload:
        for name, value in net.engine.stats.as_dict().items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _collect(workload, fast_path: bool, lossy: bool = False):
    """Probe every (vp, target) pair with one prober per VP; returns
    (traces, per-trace µs, per-VP fault counters and retry accounting).

    ``fast_path=False`` probes with the reference walker: no walk is
    recorded and every probe is forwarded hop by hop.  ``lossy`` gives
    each VP its own injector of :data:`LOSSY_PLAN` and retries per
    :data:`LOSSY_RETRY`.
    """
    traces = []
    latencies_us = []
    tallies = []
    for as_id, net, vps, targets in workload:
        for vp_index, vp in enumerate(vps):
            injector = (
                FaultInjector(LOSSY_PLAN, "vp", as_id, vp_index)
                if lossy
                else None
            )
            net.engine.faults = injector
            prober = TntProber(
                net.engine,
                seed=_SEED,
                retry=LOSSY_RETRY if lossy else None,
                fast_path=fast_path,
            )
            vp_router = net.vantage_points[vp.vp_id]
            for destination in targets:
                tick = time.perf_counter_ns()
                trace = prober.trace(vp_router, destination, vp_name=vp.vp_id)
                latencies_us.append((time.perf_counter_ns() - tick) / 1e3)
                traces.append(trace)
            tallies.append((
                injector.counters.as_dict() if lossy else None,
                prober.accounting.as_dict(),
            ))
        net.engine.faults = None
    return traces, latencies_us, tallies


def test_bench_campaign_throughput():
    # Sampled before any work so the load average is the host's, not
    # this benchmark's own.
    measured_on = provenance(_ROOT)
    # One workload per walker, reused across rounds and by its fault-free
    # and lossy legs: the un-timed warm-up pass pays first-touch costs
    # (SPF fields, tunnel programs, imports) that a real campaign
    # amortizes over millions of traces.  A VP's walks are reused
    # within a round, as in a campaign: its prober records one walk per
    # destination router (and ECMP branch) and reuses it for the other
    # targets behind that router.  Nothing carries across rounds: every
    # round builds new probers, so it records its walks afresh and
    # re-synthesizes (or re-walks) every trace.
    workloads = {fast: _build_workload() for fast in (False, True)}
    #: (fast_path, lossy) per leg; a reference leg sits next to its fast
    #: leg in either order, so their round ratio sees one clock
    legs = [(fast, lossy) for lossy in (False, True) for fast in (False, True)]
    for fast, lossy in legs:
        _collect(workloads[fast], fast, lossy)

    # Each round times every leg back to back (comparable clocks) and
    # keeps its trimmed-mean latency; each leg's best round is kept for
    # the absolute throughput numbers.  Leg order reverses every round so
    # a monotonic clock drift (shared runners slow down under sustained
    # load) penalizes each leg equally instead of always hitting
    # whichever leg runs last.  GC stays off inside the timed windows.
    # Output equality is asserted on every round.
    def _timed(fast, lossy):
        workload = workloads[fast]
        before = _stats_totals(workload)
        gc.disable()
        traces, latencies, tallies = _collect(workload, fast, lossy)
        gc.enable()
        after = _stats_totals(workload)
        latencies.sort()
        delta = {name: after[name] - before[name] for name in after}
        return (traces, tallies), latencies, delta

    outputs: dict = {}
    means: dict = {leg: [] for leg in legs}
    best: dict = {}
    for round_index in range(_ROUNDS):
        for leg in legs if round_index % 2 == 0 else legs[::-1]:
            output, latencies, delta = _timed(*leg)
            if leg in outputs:
                assert output == outputs[leg]
            outputs[leg] = output
            mean = _trimmed_mean(latencies)
            means[leg].append(mean)
            if leg not in best or mean < best[leg][0]:
                best[leg] = (mean, latencies, delta)

    # The correctness contract first: the fast path must be a pure
    # performance change -- byte-identical Trace tuples, and under loss
    # the same fault counters and retry accounting per VP.
    assert outputs[(True, False)] == outputs[(False, False)]
    assert outputs[(True, True)] == outputs[(False, True)]

    def _median_ratio(numerator, denominator):
        """Median over rounds of one leg's mean over another's."""
        ratios = sorted(
            a / b for a, b in zip(means[numerator], means[denominator])
        )
        return ratios[len(ratios) // 2]

    reference_mean, _, reference_delta = best[(False, False)]
    fast_mean, fast_latencies_us, fast_stats = best[(True, False)]
    count = len(outputs[(True, False)][0])
    reference_tps = 1e6 / reference_mean
    fast_tps = 1e6 / fast_mean
    lossy_tps = 1e6 / best[(True, True)][0]
    speedup = _median_ratio((False, False), (True, False))
    lossy_speedup = _median_ratio((False, True), (True, True))
    lossy_cost_ratio = _median_ratio((True, True), (True, False))
    walk_steps_saved = (
        reference_delta["nodes_processed"] - fast_stats["nodes_processed"]
    )
    payload = {
        "benchmark": "campaign_trace_collection",
        "as_ids": list(_AS_IDS),
        "traces": count,
        "reference_traces_per_sec": round(reference_tps, 1),
        "traces_per_sec": round(fast_tps, 1),
        "speedup": round(speedup, 2),
        "lossy_traces_per_sec": round(lossy_tps, 1),
        "lossy_speedup": round(lossy_speedup, 2),
        "lossy_cost_ratio": round(lossy_cost_ratio, 2),
        "p50_us_per_trace": round(_percentile(fast_latencies_us, 0.50), 3),
        "p95_us_per_trace": round(_percentile(fast_latencies_us, 0.95), 3),
        "max_us_per_trace": round(fast_latencies_us[-1], 3),
        "walk_steps_saved": walk_steps_saved,
        "walks_recorded": fast_stats["walks_recorded"],
        "walks_fallback": fast_stats["walks_fallback"],
        "walks_reused": fast_stats["walks_reused"],
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
    emit(
        f"lossy: {lossy_tps:,.0f}/s fast ({lossy_speedup:.1f}x the "
        f"reference; {lossy_cost_ratio:.2f}x the fault-free cost per trace)"
    )
    emit(f"machine-readable stats -> {BENCH_FILENAME}")

    assert count > 0
    assert walk_steps_saved > 0
    # One instrumented walk per VP and destination router plus O(1)
    # slicing must keep its lead over the O(h^2) per-probe walker end
    # to end, with and without loss.
    assert speedup >= MIN_FAST_PATH_SPEEDUP, (
        f"fast path speedup {speedup:.2f}x < {MIN_FAST_PATH_SPEEDUP}x"
    )
    assert lossy_speedup >= MIN_LOSSY_SPEEDUP, (
        f"lossy fast path speedup {lossy_speedup:.2f}x "
        f"< {MIN_LOSSY_SPEEDUP}x"
    )
    # Per-draw fault cost: the fault plan's keyed draws hash prebuilt
    # key text, and its zero-rate classes draw nothing.
    assert lossy_cost_ratio <= MAX_LOSSY_COST_RATIO, (
        f"lossy fast path costs {lossy_cost_ratio:.2f}x fault-free "
        f"> {MAX_LOSSY_COST_RATIO}x"
    )
