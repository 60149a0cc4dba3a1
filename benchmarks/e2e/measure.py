"""Statistics, memory and provenance helpers shared by the workloads."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
from pathlib import Path

#: percentile ladder, as (label, 1/share of samples beyond it)
_LADDER = (
    ("p50", 2),
    ("p75", 4),
    ("p90", 10),
    ("p95", 20),
    ("p99", 100),
    ("p99.9", 1000),
    ("p99.99", 10000),
)
#: a percentile is reportable only with this many samples beyond it
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_label(n: int) -> str | None:
    """The highest percentile with at least ten of ``n`` samples beyond it.

    ``None`` when even the median lacks ten samples on each side.
    """
    best = None
    for label, denominator in _LADDER:
        if n >= MIN_BEYOND * denominator:
            best = label
    return best


def latency_summary(seconds: list[float]) -> dict:
    """Median and supported tail of a latency sample, in milliseconds."""
    n = len(seconds)
    out: dict = {"n": n}
    if n == 0:
        return out
    ms = [s * 1000.0 for s in seconds]
    out["p50_ms"] = percentile(ms, 50)
    label = tail_label(n)
    if label is not None and label != "p50":
        out["tail"] = label
        out["tail_ms"] = percentile(ms, float(label[1:]))
    out["max_ms"] = max(ms)
    return out


# -- memory -------------------------------------------------------------------


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set of one live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def children_peak_mib() -> float:
    """Largest peak resident set among this process's reaped children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- provenance ---------------------------------------------------------------


def _git(root: Path, *args: str) -> str | None:
    # only a checkout that is itself a git repository is asked; the
    # ceiling keeps git from searching the directories above it
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path) -> dict:
    """Where and on what a result was measured (load average at start)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_1m_start": os.getloadavg()[0],
    }
