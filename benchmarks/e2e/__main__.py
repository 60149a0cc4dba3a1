"""Run every workload, each in a fresh interpreter, and summarize.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.e2e --seed 1
    PYTHONPATH=src python -m benchmarks.e2e --seed 1 --trace-out traces/

The first form measures the end-to-end metrics untraced; the second
runs the traced pass instead and writes one Chrome trace-event JSON per
workload into the directory.  Both run each workload for
``BENCHMARK.json``'s ``run_seconds``, print every metric with its unit,
run each workload's correctness gates, and write all results (with
provenance) to ``.bench_e2e/results-<seed>[-traced].json``.  The exit
status is non-zero when any workload fails a gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.measure import provenance
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).resolve().parent / "run.py"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace-out", metavar="DIR", default=None)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    traced = args.trace_out is not None
    scratch = ROOT / ".bench_e2e"
    scratch.mkdir(exist_ok=True)
    suffix = "-traced" if traced else ""
    results = scratch / f"results-{args.seed}{suffix}.json"

    documents = {}
    exit_codes = {}
    for name in WORKLOADS:
        out = scratch / f"{name}-{args.seed}.json"
        command = [
            sys.executable, str(RUN), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", "1" if traced else "0", "--results", str(out),
        ]
        if traced:
            command += ["--trace-out", args.trace_out]
        print(f"== {name}", flush=True)
        exit_codes[name] = subprocess.run(command, cwd=ROOT).returncode
        if out.exists():
            documents[name] = json.loads(out.read_text())
            out.unlink()

    print()
    print(f"{'workload':<12} {'metric':<36} {'value':>14}  unit")
    for name in WORKLOADS:
        document = documents.get(name)
        if document is None:
            print(f"{name:<12} (no result: exit {exit_codes[name]})")
            continue
        rows = [
            (metric, entry["value"], entry["unit"])
            for metric, entry in document["metrics"].items()
        ]
        attempted = document["attempted"]
        failed_share = document["failed"] / attempted if attempted else 0.0
        rows.append(("failed_share", failed_share, "share"))
        info = document["info"]
        for key, summary in info.items():
            if key.startswith("ack_ms.") and "p50_ms" in summary:
                rate = key[len("ack_ms."):]
                rows.append((f"ack_p50_ms.{rate}", summary["p50_ms"], "ms"))
                if "tail_ms" in summary:
                    tail = f"ack_{summary['tail']}_ms.{rate}"
                    rows.append((tail, summary["tail_ms"], "ms"))
        for key in ("summary_traces_per_s", "segments_traces_per_s"):
            if key in info:
                rows.append((key, info[key], "traces/s"))
        for metric, value, unit in rows:
            print(f"{name:<12} {metric:<36} {value:>14.6g}  {unit}")
        verdict = "ok" if document["correct"] else "FAILED"
        print(f"{name:<12} {'gates':<36} {verdict:>14}")

    results.write_text(
        json.dumps(
            {
                "seed": args.seed,
                "seconds": seconds,
                "traced": traced,
                "provenance": provenance(ROOT),
                "workloads": documents,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"\nresults: {results}")
    failed = [
        name
        for name in WORKLOADS
        if exit_codes[name] != 0 or not documents.get(name, {}).get("correct")
    ]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
