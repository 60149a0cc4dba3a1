"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload portfolio --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the traced pass and reports the per-layer metrics instead
(``--trace-out DIR`` also writes its Chrome trace-event JSON there).
The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is non-zero
when a correctness gate fails.  ``--results FILE`` writes everything
measured, with provenance, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

# the harness imports no program module at import time, so this works
# (and --help answers) even where the program sources are missing
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="DIR", default=None)
    parser.add_argument("--results", metavar="FILE", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"run.py: no program sources under {ROOT / 'src'}; run from a "
            f"full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from benchmarks.e2e.layers import new_recorder
    from benchmarks.e2e.measure import provenance

    info = provenance(ROOT)
    work_dir = ROOT / ".bench_e2e" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    recorder = new_recorder() if args.trace else None
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, work_dir, recorder
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    info["loadavg_1m_end"] = os.getloadavg()[0]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, passed in outcome.gates.items():
        print(f"  gate {name}: {'ok' if passed else 'FAILED'}")
    for key, value in outcome.info.items():
        print(f"  {key}: {json.dumps(value, default=str)}")
    print(f"  digests: {len(outcome.digests)} (all in --results)")
    for key, value in list(outcome.digests.items())[:4]:
        print(f"  digest {key}: {value}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if recorder is not None and args.trace_out:
        out = Path(args.trace_out)
        out.mkdir(parents=True, exist_ok=True)
        recorder.write_trace(out / f"{args.workload}.trace.json")
    if args.results:
        document = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": info,
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "gates": outcome.gates,
            "digests": outcome.digests,
            "info": outcome.info,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in outcome.metrics.items()
            },
        }
        Path(args.results).write_text(
            json.dumps(document, indent=2, default=str) + "\n",
            encoding="utf-8",
        )
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
