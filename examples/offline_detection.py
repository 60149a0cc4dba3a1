#!/usr/bin/env python3
"""Offline post-processing: run AReST over a published trace dataset.

AReST is "a TNT post-processing tool" -- this example shows exactly
that workflow, decoupled from any live probing: generate (or receive) a
JSONL trace dataset, reload it, sanitize it, and run detection + area
classification on the stored traces alone.  Sanitizing first is what
``arest detect`` and every other analysis path do: a duplicated or
corrupted hop record must not turn into SR evidence.

Run:  python examples/offline_detection.py [dataset.jsonl]
"""

import sys
import tempfile
from collections import Counter
from pathlib import Path

from repro.campaign import CampaignRunner, TraceDataset
from repro.core.classification import HopArea, classify_hops
from repro.core.detector import ArestDetector
from repro.probing.sanitize import TraceSanitizer


def obtain_dataset(argv: list[str]) -> Path:
    if len(argv) > 1:
        return Path(argv[1])
    # No dataset supplied: produce one the way the paper's authors did,
    # then pretend we downloaded it.
    print("no dataset given -- collecting one against AS#28 first ...")
    result = CampaignRunner(seed=1).run_as(28)
    path = Path(tempfile.gettempdir()) / "arest_as28.jsonl"
    result.dataset.dump_jsonl(path)
    print(f"dataset written to {path}\n")
    return path


def main() -> None:
    path = obtain_dataset(sys.argv)
    dataset = TraceDataset.load_jsonl(path)
    print(
        f"loaded {len(dataset)} traces toward AS{dataset.target_asn} "
        f"({len(dataset.distinct_addresses())} distinct addresses, "
        f"VPs: {', '.join(dataset.vantage_points())})"
    )

    sanitizer = TraceSanitizer()
    detector = ArestDetector()
    flag_counts: Counter = Counter()
    area_counts: Counter = Counter()
    distinct = set()
    quarantined = 0
    for stored in dataset:
        trace = sanitizer.sanitize(stored).trace
        if trace is None:
            quarantined += 1  # unrepairable: withheld, but counted
            continue
        segments = detector.detect(trace, {})  # no fingerprints: offline
        for segment in segments:
            if segment.key() not in distinct:
                distinct.add(segment.key())
                flag_counts[segment.flag] += 1
        for area in classify_hops(trace, segments):
            area_counts[area] += 1

    print(f"quarantined by the sanitizer: {quarantined}")
    print("\ndistinct segments per flag (fingerprint-free run):")
    for flag, count in flag_counts.most_common():
        print(f"  {flag.name:<4} {count}")
    total_hops = sum(area_counts.values())
    print("\nhop areas:")
    for area in HopArea:
        share = area_counts.get(area, 0) / total_hops
        print(f"  {area.value:<8} {area_counts.get(area, 0):>5} "
              f"({share:.1%})")
    print(
        "\nwithout fingerprints only CO and LSO can fire -- rerun the "
        "campaign with SNMPv3 coverage to see CVR/LSVR/LVR appear."
    )


if __name__ == "__main__":
    main()
