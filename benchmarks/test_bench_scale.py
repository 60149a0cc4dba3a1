"""Scale -- a paper-scale (>= 1M trace) sharded campaign, measured.

The paper's measurement collected ~7.7M traceroutes from 50 VPs across
60 ASes; the ROADMAP's open item asks for "1M+ trace runs" that survive
crashes without losing work.  This benchmark runs a million-trace
campaign through the work-stealing shard executor end to end -- sharded
synthetic topogen, per-shard JSONL spills, lease supervision, atomic
checkpoints -- and records wall clock and peak RSS to
``BENCH_scale.json`` for CI to archive and regression-gate.

The point of the RSS number: traces stream to spill files instead of
accumulating in RAM, so peak memory is a function of the largest single
AS, not of campaign size.  A regression that starts buffering the
campaign shows up here as an RSS cliff long before it kills a real run.

``AREST_SCALE_BENCH_TRACES`` scales the run down (the CI ``scale-smoke``
job uses ~5000); unset, the target is the full 1M+.
"""

import json
import math
import os
import time

from repro.campaign import ScaleCampaign
from repro.topogen.synthetic import SyntheticPortfolio, synthetic_vantage_points
from repro.util.atomicio import atomic_write_text

from benchmarks.conftest import emit

BENCH_FILENAME = "BENCH_scale.json"

_SEED = 1
_VPS_PER_AS = 10
#: high enough that the per-AS prefix count, not this cap, sets the
#: target list (~10 prefixes x 5 flows at the paper profile)
_TARGETS_PER_AS = 120
_PER_PREFIX = 5
#: two VP buckets per AS: every AS exercises the shard merge path
_VPS_PER_SHARD = 5
_JOBS = 2
#: conservative lower bound on traces per AS at the paper profile
#: (observed ~490 = 10 VPs x ~9.8 prefixes x 5 flows); sizing with the
#: lower bound overshoots the trace target slightly rather than missing
_TRACES_PER_AS_FLOOR = 450


def _target_traces() -> int:
    raw = os.environ.get("AREST_SCALE_BENCH_TRACES", "")
    return int(raw) if raw else 1_000_000


def test_bench_scale_campaign(tmp_path):
    target = _target_traces()
    n_ases = max(1, math.ceil(target / _TRACES_PER_AS_FLOOR))
    campaign = ScaleCampaign(
        portfolio=SyntheticPortfolio(n_ases, seed=_SEED, profile="paper"),
        vantage_points=synthetic_vantage_points(_VPS_PER_AS),
        seed=_SEED,
        vps_per_as=_VPS_PER_AS,
        targets_per_as=_TARGETS_PER_AS,
        per_prefix=_PER_PREFIX,
    )
    out = tmp_path / "run"
    tick = time.perf_counter()
    report = campaign.run(
        out, jobs=_JOBS, vps_per_shard=_VPS_PER_SHARD
    )
    wall = time.perf_counter() - tick

    assert not report.interrupted
    assert report.failures == {} and report.quarantined == {}
    assert len(report.completed) == n_ases
    traces = report.traces_total()
    assert traces >= target

    stats = campaign.stats
    spill_bytes = sum(
        p.stat().st_size for p in (out / "spills").iterdir()
    )
    payload = {
        "benchmark": "scale_campaign",
        "target_traces": target,
        "traces": traces,
        "n_ases": n_ases,
        "vps_per_as": _VPS_PER_AS,
        "vps_per_shard": _VPS_PER_SHARD,
        "jobs": _JOBS,
        "shards": stats["shards_total"],
        "workers_spawned": stats["workers_spawned"],
        "wall_seconds": round(wall, 1),
        "traces_per_sec": round(traces / wall, 1),
        "rss_peak_bytes": stats["rss_peak_bytes"],
        "rss_peak_mib": round(stats["rss_peak_bytes"] / (1 << 20), 1),
        "worker_rss_peak_mib": round(
            stats["worker_rss_peak_bytes"] / (1 << 20), 1
        ),
        "spill_bytes": spill_bytes,
        "checkpoint_bytes": (out / "checkpoint.jsonl").stat().st_size,
    }
    atomic_write_text(
        BENCH_FILENAME, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    emit(
        f"{traces:,} traces across {n_ases} ASes / "
        f"{stats['shards_total']} shards in {wall:,.0f}s "
        f"({traces / wall:,.0f}/s), peak RSS "
        f"{stats['rss_peak_bytes'] / (1 << 20):,.0f} MiB (workers "
        f"{stats['worker_rss_peak_bytes'] / (1 << 20):,.0f} MiB)"
    )
    emit(f"machine-readable stats -> {BENCH_FILENAME}")
