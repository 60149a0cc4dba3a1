"""The four benchmark workloads.

Each workload is a function ``(seed, seconds, work_dir, recorder=None,
**sizes) -> Outcome``; the keyword sizes exist so the harness tests can
run a tiny version of the same code.  The seed makes every input; the
program only receives what the workload generates from it.  ``seconds``
bounds the timed phase, which runs in *units* of one shape (a portfolio
pass, a shard-plan campaign, an archive re-analysis, a replay round):
the next unit starts only while it is expected to end within half a
unit of the deadline, and throughput is the median over units, which
keeps a short stall of the host from moving the result.

Without a recorder the run is untraced and yields the end-to-end
metrics.  With one it yields the per-layer metrics of
:mod:`benchmarks.e2e.layers` instead: campaign workloads first run a
third of the budget untraced at :data:`JOBS` workers (for the dispatch
layer), then the rest in-process at ``jobs=1`` with every layer wrapped.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.e2e import loadgen
from benchmarks.e2e.layers import (
    campaign_targets,
    layer_metrics,
    service_targets,
)
from benchmarks.e2e.measure import (
    children_peak_mib,
    latency_summary,
    vm_hwm_mib,
)
from benchmarks.e2e.spans import SpanRecorder, instrument, root_span

SRC = Path(__file__).resolve().parents[2] / "src"

#: the synthetic portfolio's own seed: AS sizes and roles stay the same
#: for every run, so ``--seed`` varies topologies, targets and fault
#: draws without changing how much work the AS mix holds
SHAPE_SEED = 0

#: strong flags (CVR, CO) must keep at least this precision against
#: simulator ground truth.  Zero false positives is the paper's claim,
#: but the simulator at this commit yields up to about one CVR or CO
#: false positive per 100 strong segments on some seeds (a known netsim
#: regression), and a benchmark must pass on every seed; a detector or
#: simulator fault that fakes SR evidence at scale still fails the gate.
MIN_STRONG_PRECISION = 0.95

#: campaign worker processes: one per core of the 2-core reference host
JOBS = 2
#: TNT targets per /24 prefix, as in the paper's collection
PER_PREFIX = 5
#: VPs per shard of the sharded plane
VPS_PER_SHARD = 5
#: redetect compares ``detect_batch`` with the object detector on every
#: this-many-th archive trace
SAMPLE_EVERY = 50
#: the service's ingest queue; large enough that no POST is refused
QUEUE_CAPACITY = 16384
#: load-generator connections, one submitter each
LANES = 2
#: traces per POST in the steady open-loop phases
TRACES_PER_POST = 4
#: cold starts per run whose median is ``setup_s``
SETUP_STARTS = 7


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: metric name -> (value, unit)
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: correctness gate name -> passed
    gates: dict = field(default_factory=dict)
    #: canonical output digests, keyed by unit of work
    digests: dict = field(default_factory=dict)
    #: diagnostics printed and written to the results file
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return bool(self.gates) and all(self.gates.values())


@dataclass
class Timed:
    """The timed units of one phase."""

    seconds: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    ases: int = 0

    def add(self, seconds: float, traces: int) -> None:
        self.seconds.append(seconds)
        self.traces.append(traces)

    def done(self, budget: float) -> bool:
        """True once one more unit of the mean length would end more
        than half a unit past ``budget``."""
        spent = self.total_seconds
        return spent + 0.5 * spent / len(self.seconds) >= budget

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds)

    @property
    def total_traces(self) -> int:
        return sum(self.traces)

    @property
    def rate(self) -> float:
        """Median over units of traces per second."""
        return statistics.median(
            t / s for t, s in zip(self.traces, self.seconds)
        )

    def as_info(self) -> dict:
        return {
            "units": len(self.seconds),
            "seconds": self.total_seconds,
            "traces": self.total_traces,
            "ases": self.ases,
            "unit_rates": [t / s for t, s in zip(self.traces, self.seconds)],
        }


def _units(seconds: float, unit, between=None) -> Timed:
    """Call ``unit(k, timed)`` for k = 0, 1, ... until ``timed.done``.

    Each call adds one unit to ``timed``; ``between()``, when given,
    runs untimed after every unit but the last.
    """
    timed = Timed()
    while True:
        unit(len(timed.seconds), timed)
        if timed.done(seconds):
            return timed
        if between is not None:
            between()


class _Setup:
    """Cold starts spread over a run; ``setup_s`` is their median.

    ``start(k)`` performs the k-th cold start and returns its seconds.
    Workloads call :meth:`once` between timed units, so the starts
    sample the host at several moments of the run rather than one.
    """

    def __init__(self, start, minimum: int) -> None:
        self._start = start
        self._minimum = minimum
        self.seconds: list[float] = []

    def once(self) -> None:
        self.seconds.append(self._start(len(self.seconds)))

    def median(self) -> float:
        """Median of every start, topped up to the minimum count."""
        while len(self.seconds) < self._minimum:
            self.once()
        return statistics.median(self.seconds)


def _unit_seed(seed: int, k: int) -> int:
    return seed + 7919 * k


def _digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def _cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _cold_start(argv: list[str]) -> float:
    """Wall seconds of one fresh ``arest`` process running ``argv``."""
    tick = time.perf_counter()
    # no timeout: Popen.wait(timeout) polls in 50 ms steps, which would
    # quantize the measurement
    code = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        env=_cli_env(),
        stdout=subprocess.DEVNULL,
    ).wait()
    seconds = time.perf_counter() - tick
    if code != 0:
        raise RuntimeError(f"arest {' '.join(argv)} exited {code}")
    return seconds


def _campaign_peak_mib() -> float:
    return max(vm_hwm_mib(), children_peak_mib())


def _e2e(setup: float, rate: float, peak: float) -> dict:
    return {
        "setup_s": (setup, "s"),
        "traces_per_s": (rate, "traces/s"),
        "peak_rss_mib": (peak, "MiB"),
    }


def _traced_campaign(recorder, seconds: float, phase, outcome: Outcome):
    """Untraced third at :data:`JOBS` workers, then the rest traced
    in-process.

    ``phase(budget, jobs, prefix, recorder) -> Timed``.  Both phases
    start from the same first unit, so their digests must agree on the
    units both completed (results do not depend on ``jobs``).
    """
    forks = []
    os.register_at_fork(after_in_parent=lambda: forks.append(1))
    untraced = phase(seconds / 3.0, JOBS, "untraced:", None)
    forked = len(forks)
    budget = seconds - untraced.total_seconds
    with instrument(recorder, campaign_targets(recorder)):
        traced = phase(budget, 1, "traced:", recorder)
    pairs = [
        (value, outcome.digests.get("untraced:" + key[len("traced:"):]))
        for key, value in outcome.digests.items()
        if key.startswith("traced:")
    ]
    compared = [(a, b) for a, b in pairs if b is not None]
    outcome.gates["traced_matches_untraced"] = bool(compared) and all(
        a == b for a, b in compared
    )
    outcome.info.update(
        untraced=untraced.as_info(),
        traced=traced.as_info(),
        digests_compared=len(compared),
    )
    return {
        "seconds": untraced.total_seconds,
        "traces": untraced.total_traces,
        "forks": forked,
    }, {"traces": traced.total_traces, "ases": traced.ases}


# -- portfolio ----------------------------------------------------------------


def _size_spread(specs, count: int) -> list[int]:
    """``count`` AS ids evenly spread over the size ranking, largest first.

    The pass then covers every Table 5 size tier, and dispatching the
    largest ASes first keeps the pass's tail (one worker left busy)
    short.
    """
    ranked = sorted(specs, key=lambda s: (-s.ips_discovered, s.as_id))
    if count >= len(ranked):
        return [spec.as_id for spec in ranked]
    step = (len(ranked) - 1) / max(count - 1, 1)
    return [ranked[round(i * step)].as_id for i in range(count)]


def _portfolio_phase(
    seed: int,
    seconds: float,
    jobs: int,
    sizes: dict,
    outcome: Outcome,
    prefix: str,
    recorder: SpanRecorder | None,
    between=None,
) -> Timed:
    """Portfolio passes (one seed each) until the deadline."""
    from repro.analysis.validation import validate_against_truth
    from repro.campaign import CampaignRunner
    from repro.core.flags import Flag

    strong = {"tp": 0, "fp": 0}
    failed_before = outcome.failed

    def one_pass(k: int, timed: Timed) -> None:
        runner = CampaignRunner(
            seed=_unit_seed(seed, k),
            vps_per_as=sizes["vps_per_as"],
            targets_per_as=sizes["targets_per_as"],
            per_prefix=PER_PREFIX,
        )
        as_ids = _size_spread(runner.portfolio.analyzed(), sizes["ases"])
        tick = time.perf_counter()
        with root_span(recorder):
            report = runner.run_portfolio(as_ids=as_ids, jobs=jobs)
        spent = time.perf_counter() - tick
        completed = report.as_dict()["completed"]
        traces = 0
        for as_id, result in report.items():
            traces += len(result.dataset)
            validation = validate_against_truth(result)
            for flag in (Flag.CVR, Flag.CO):
                strong["tp"] += validation.per_flag[flag].true_positives
                strong["fp"] += validation.per_flag[flag].false_positives
            outcome.digests[f"{prefix}{k}:{as_id}"] = _digest(
                json.dumps(completed[str(as_id)], sort_keys=True)
            )
        failed = len(report.failures) + len(report.quarantined)
        outcome.attempted += len(report) + failed
        outcome.failed += failed
        timed.ases += len(report)
        timed.add(spent, traces)

    timed = _units(seconds, one_pass, between)
    found = strong["tp"] + strong["fp"]
    precision = strong["tp"] / found if found else 1.0
    outcome.gates[f"{prefix}no_failed_as"] = outcome.failed == failed_before
    outcome.gates[f"{prefix}strong_precision"] = (
        precision >= MIN_STRONG_PRECISION
    )
    outcome.info[f"{prefix}strong_cvr_co"] = {
        "true_positives": strong["tp"],
        "false_positives": strong["fp"],
        "precision": precision,
    }
    return timed


def portfolio(
    seed: int,
    seconds: float,
    work_dir: Path,
    recorder: SpanRecorder | None = None,
    *,
    ases: int = 7,
    vps_per_as: int = 50,
    targets_per_as: int = 120,
    starts: int = SETUP_STARTS,
) -> Outcome:
    """Table 5 ASes probed from 50 VPs each: the paper's campaign shape.

    Classic plane (``run_portfolio``), fault-free, so probing takes the
    fused fast path; one topology build per AS, no spills.  One unit is
    a pass over ``ases`` of the 41 analyzed ASes, spread over all size
    tiers (about 14k traces), with a fresh seed per pass.
    """
    from repro.campaign import CampaignRunner

    sizes = dict(
        ases=ases, vps_per_as=vps_per_as, targets_per_as=targets_per_as
    )
    outcome = Outcome()

    def phase(budget, jobs, prefix, rec, between=None):
        return _portfolio_phase(
            seed, budget, jobs, sizes, outcome, prefix, rec, between
        )

    if recorder is not None:
        untraced, traced = _traced_campaign(recorder, seconds, phase, outcome)
        outcome.metrics = layer_metrics(recorder, untraced, traced, JOBS)
        return outcome
    first = CampaignRunner(seed=seed).portfolio.analyzed()[0].as_id
    cold = [
        "portfolio", "--as", str(first), "--vps", "1",
        "--targets", str(targets_per_as), "--seed", str(seed),
    ]
    setup = _Setup(lambda _k: _cold_start(cold), starts)
    setup.once()
    timed = phase(seconds, JOBS, "", None, setup.once)
    outcome.metrics = _e2e(
        setup.median(), timed.rate, _campaign_peak_mib()
    )
    outcome.info.update(timed.as_info(), setup_starts=setup.seconds)
    return outcome


# -- scale-lossy --------------------------------------------------------------


def _lossy_campaign(seed: int, vps_per_as: int, targets_per_as: int):
    from repro.campaign import ScaleCampaign
    from repro.netsim.faults import FaultPlan
    from repro.topogen.synthetic import SyntheticPortfolio
    from repro.util.retry import RetryPolicy

    # real campaigns see loss: 5% probe loss, SNMP timeouts and a little
    # corruption the sanitizer has to repair, with three probe attempts
    plan = FaultPlan(
        probe_loss=0.05,
        snmp_timeout_rate=0.1,
        label_garble_rate=0.02,
        duplicate_hop_rate=0.02,
        seed=seed,
    )
    return ScaleCampaign(
        portfolio=SyntheticPortfolio(
            100_000, seed=SHAPE_SEED, profile="paper"
        ),
        seed=seed,
        vps_per_as=vps_per_as,
        targets_per_as=targets_per_as,
        per_prefix=PER_PREFIX,
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=3),
    )


def _lossy_phase(
    seed: int,
    seconds: float,
    jobs: int,
    work_dir: Path,
    sizes: dict,
    outcome: Outcome,
    prefix: str,
    recorder: SpanRecorder | None,
    between=None,
) -> Timed:
    """Sharded campaigns over the same AS shape, one seed each."""
    as_ids = list(range(1, sizes["ases"] + 1))
    checks = {"count_ok": True, "quarantined": 0, "leases": 0}
    failed_before = outcome.failed

    def one_campaign(k: int, timed: Timed) -> None:
        campaign = _lossy_campaign(
            _unit_seed(seed, k), sizes["vps_per_as"], sizes["targets_per_as"]
        )
        out = work_dir / f"{prefix.rstrip(':') or 'scale'}-{k}"
        tick = time.perf_counter()
        with root_span(recorder):
            report = campaign.run(
                out, as_ids=as_ids, jobs=jobs, vps_per_shard=VPS_PER_SHARD
            )
        spent = time.perf_counter() - tick
        checks["leases"] += campaign.stats.get("leases_granted", 0)
        outcome.digests[f"{prefix}{k}"] = _digest(
            json.dumps(report.as_dict(), sort_keys=True)
        )
        # every probed trace reached the analysis: the spills on disk
        # hold exactly the traces the report counts, and each VP probed
        # the same target list
        spilled = 0
        for spill in (out / "spills").iterdir():
            with spill.open("rb") as fh:
                spilled += sum(1 for _ in fh) - 1
        total = report.traces_total()
        checks["count_ok"] &= (
            spilled == total
            and len(report.completed) == len(as_ids)
            and all(
                summary["traces_total"] % campaign.vps_per_as == 0
                for summary in report.completed.values()
            )
        )
        checks["quarantined"] += sum(
            summary["traces_quarantined"]
            for summary in report.completed.values()
        )
        failed = len(report.failures) + len(report.quarantined)
        outcome.attempted += len(as_ids)
        outcome.failed += failed
        shutil.rmtree(out)
        timed.ases += len(report.completed)
        timed.add(spent, total)

    timed = _units(seconds, one_campaign, between)
    outcome.gates[f"{prefix}no_failed_or_quarantined_shard"] = (
        outcome.failed == failed_before
    )
    outcome.gates[f"{prefix}expected_trace_count"] = checks["count_ok"]
    outcome.info[f"{prefix}leases_granted"] = checks["leases"]
    outcome.info[f"{prefix}sanitizer_quarantines"] = checks["quarantined"]
    return timed


def scale_lossy(
    seed: int,
    seconds: float,
    work_dir: Path,
    recorder: SpanRecorder | None = None,
    *,
    ases: int = 10,
    vps_per_as: int = 10,
    targets_per_as: int = 120,
    starts: int = SETUP_STARTS,
) -> Outcome:
    """Synthetic paper-profile ASes through the sharded plane, with loss.

    Lease executor, JSONL spills, checkpoint v4 fsyncs, two topology
    builds per AS, per-probe fault and retry draws, sanitizer repairs.
    """
    sizes = dict(
        ases=ases, vps_per_as=vps_per_as, targets_per_as=targets_per_as
    )
    outcome = Outcome()

    def phase(budget, jobs, prefix, rec, between=None):
        return _lossy_phase(
            seed, budget, jobs, work_dir, sizes, outcome, prefix, rec, between
        )

    if recorder is not None:
        untraced, traced = _traced_campaign(recorder, seconds, phase, outcome)
        untraced["leases"] = outcome.info["untraced:leases_granted"]
        outcome.metrics = layer_metrics(recorder, untraced, traced, JOBS)
        return outcome

    def cold(k: int) -> float:
        return _cold_start([
            "scale-campaign", "--out", str(work_dir / f"coldstart{k}"),
            "--ases", "1", "--profile", "paper", "--seed", str(seed),
            "--vps", "1", "--targets", str(targets_per_as),
            "--per-prefix", str(PER_PREFIX), "--loss", "0.05",
            "--snmp-timeout", "0.1", "--retries", "3",
        ])

    setup = _Setup(cold, starts)
    setup.once()
    timed = phase(seconds, JOBS, "", None, setup.once)
    outcome.metrics = _e2e(
        setup.median(), timed.rate, _campaign_peak_mib()
    )
    outcome.info.update(timed.as_info(), setup_starts=setup.seconds)
    return outcome


# -- redetect -----------------------------------------------------------------


def build_archive(
    seed: int,
    work_dir: Path,
    *,
    ases: int,
    vps_per_as: int,
    targets_per_as: int,
) -> tuple[Path, int]:
    """A dirty archive: the scale-lossy campaign's spills under one header."""
    campaign = _lossy_campaign(seed, vps_per_as, targets_per_as)
    out = work_dir / "archive-campaign"
    campaign.run(
        out,
        as_ids=list(range(1, ases + 1)),
        jobs=JOBS,
        vps_per_shard=VPS_PER_SHARD,
    )
    archive = work_dir / "archive.jsonl"
    count = 0
    header = {
        "kind": "header",
        "target_asn": 0,
        "metadata": {
            "source": "scale-lossy",
            "seed": str(seed),
            "ases": str(ases),
        },
    }
    with archive.open("w", encoding="utf-8") as dst:
        dst.write(json.dumps(header) + "\n")
        for spill in sorted((out / "spills").iterdir()):
            with spill.open("r", encoding="utf-8") as src:
                src.readline()
                for line in src:
                    dst.write(line)
                    count += 1
    shutil.rmtree(out)
    return archive, count


def _head(archive: Path, out: Path, traces: int) -> Path:
    with archive.open("r", encoding="utf-8") as src, out.open(
        "w", encoding="utf-8"
    ) as dst:
        for _ in range(traces + 1):
            dst.write(src.readline())
    return out


def _arest(argv: list[str]) -> bytes:
    """Run the ``arest`` CLI in-process; returns its stdout bytes."""
    from repro import cli

    buffer = io.BytesIO()
    text = io.TextIOWrapper(buffer, encoding="utf-8")
    with contextlib.redirect_stdout(text):
        code = cli.main(argv)
    text.flush()
    if code != 0:
        raise RuntimeError(f"arest {' '.join(argv)} exited {code}")
    return buffer.getvalue()


def _redetect_pass(archive: Path, recorder: SpanRecorder | None) -> tuple:
    """The two ``arest detect`` outputs (summary, then ``--segments-json``)
    and the seconds each took."""
    outputs = []
    seconds = []
    for extra in ([], ["--segments-json"]):
        tick = time.perf_counter()
        if recorder is None:
            outputs.append(_arest(["detect", str(archive), *extra]))
        else:
            with recorder.span("cli.detect"):
                outputs.append(_arest(["detect", str(archive), *extra]))
        seconds.append(time.perf_counter() - tick)
    return outputs, seconds


def _sample_matches_reference(archive: Path) -> tuple[bool, int]:
    """``detect_batch`` rows equal the object detector's on every
    :data:`SAMPLE_EVERY`-th trace; returns (all equal, rows compared)."""
    from repro.core.columnar import ColumnarDetector, TraceBatch
    from repro.core.detector import ArestDetector

    batch_detector = ColumnarDetector()
    reference = ArestDetector()
    index = 0
    checked = 0
    ok = True
    for batch in TraceBatch.iter_jsonl(archive):
        rows = batch_detector.detect_batch(batch)
        for k, trace in enumerate(batch.traces):
            if (index + k) % SAMPLE_EVERY == 0:
                checked += 1
                ok &= rows[k] == reference.detect(trace, {})
        index += len(batch)
    return ok, checked


def redetect(
    seed: int,
    seconds: float,
    work_dir: Path,
    recorder: SpanRecorder | None = None,
    *,
    archive_ases: int = 10,
    vps_per_as: int = 10,
    targets_per_as: int = 120,
    starts: int = SETUP_STARTS,
) -> Outcome:
    """Offline re-analysis of a dirty archive: decode, sanitize, detect.

    Read-only, no probing or topology work: the ``arest detect`` summary
    (``TraceBatch.iter_jsonl`` into ``detect_batch``) and then its
    ``--segments-json`` document (per-trace sanitize + one-row detect),
    over the scale-lossy campaign's concatenated spills.  One unit is
    one pass producing both outputs.
    """
    outcome = Outcome()
    tick = time.perf_counter()
    archive, n_traces = build_archive(
        seed,
        work_dir,
        ases=archive_ases,
        vps_per_as=vps_per_as,
        targets_per_as=targets_per_as,
    )
    size = archive.stat().st_size
    outcome.info.update(
        archive_traces=n_traces,
        archive_bytes=size,
        archive_build_s=time.perf_counter() - tick,
    )
    head = _head(archive, work_dir / "head.jsonl", 200)
    setup = _Setup(lambda _k: _cold_start(["detect", str(head)]), starts)
    _redetect_pass(head, None)  # imports and lazy tables, untimed

    passes: list = []
    path_seconds = [0.0, 0.0]

    def one_pass(_k: int, timed: Timed) -> None:
        with root_span(recorder):
            outputs, seconds_each = _redetect_pass(archive, recorder)
        passes.append(outputs)
        path_seconds[0] += seconds_each[0]
        path_seconds[1] += seconds_each[1]
        timed.add(sum(seconds_each), n_traces)

    if recorder is None:
        setup.once()
        timed = _units(seconds, one_pass, setup.once)
    else:
        with instrument(recorder, campaign_targets(recorder)):
            timed = _units(seconds, one_pass)
    peak = vm_hwm_mib()

    summary, segments = passes[0]
    outcome.digests["summary"] = _digest(summary)
    outcome.digests["segments"] = _digest(segments)
    outcome.gates["passes_identical"] = all(p == passes[0] for p in passes)
    outcome.gates["summary_counts_every_trace"] = summary.startswith(
        f"{n_traces} traces".encode()
    )
    outcome.gates["segments_count_every_trace"] = (
        json.loads(segments)["traces"]["collected"] == n_traces
    )
    ok, checked = _sample_matches_reference(archive)
    outcome.gates["batch_rows_match_object_detector"] = ok and checked > 0
    outcome.attempted = 2 * len(passes)
    outcome.info.update(timed.as_info(), sampled_rows=checked)
    if recorder is not None:
        outcome.metrics = layer_metrics(
            recorder,
            None,
            {
                "traces": timed.total_traces,
                "ases": 0,
                "bytes_read": len(passes) * size,
            },
            1,
        )
        return outcome
    outcome.metrics = _e2e(setup.median(), timed.rate, peak)
    outcome.info.update(
        setup_starts=setup.seconds,
        summary_traces_per_s=timed.total_traces / path_seconds[0],
        segments_traces_per_s=timed.total_traces / path_seconds[1],
    )
    return outcome


# -- service ------------------------------------------------------------------


class _ServerProcess:
    """``arest serve`` as a child process (the untraced run).

    Construction returns once the service answers ``/healthz``.
    """

    def __init__(self, state_dir: Path) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--state-dir", str(state_dir), "--port", "0",
                "--queue-capacity", str(QUEUE_CAPACITY),
            ],
            env=_cli_env(),
            stdout=subprocess.PIPE,
        )
        try:
            # the first stdout line is the bound address (or nothing, when
            # the service failed to start)
            info = json.loads(self.proc.stdout.readline())
            self.host, self.port = info["host"], info["port"]
            asyncio.run(_get_json(self.host, self.port, "/healthz"))
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise

    def peak_mib(self) -> float:
        return vm_hwm_mib(self.proc.pid)

    def stop(self) -> bool:
        """SIGTERM drain; True when the service exits cleanly."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return False
        return self.proc.returncode == 0


class _ServerThread:
    """The service hosted in-process on its own loop (the traced run)."""

    def __init__(self, state_dir: Path) -> None:
        from repro.service.server import ArestService, ServiceConfig

        self.loop = asyncio.new_event_loop()
        self.status = None
        self.error: BaseException | None = None
        ready = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            try:
                self.service = ArestService(
                    ServiceConfig(
                        state_dir=state_dir, queue_capacity=QUEUE_CAPACITY
                    )
                )
                self.host, self.port = self.loop.run_until_complete(
                    self.service.start()
                )
                ready.set()
                self.status = self.loop.run_until_complete(
                    self.service.serve_until_shutdown()
                )
            except BaseException as exc:  # re-raised by the constructor
                self.error = exc
                ready.set()
            finally:
                self.loop.close()

        # a daemon thread cannot keep the process alive if a caller
        # fails before stopping it
        self.thread = threading.Thread(
            target=serve, name="arest-service", daemon=True
        )
        self.thread.start()
        ready.wait(60)
        if self.error is not None:
            raise RuntimeError(
                "in-process service failed to start"
            ) from self.error

    def stop(self) -> bool:
        self.loop.call_soon_threadsafe(self.service.request_drain)
        self.thread.join(60)
        return self.status == "ok" and not self.thread.is_alive()


def _corpus(seed: int, ases: int, vps_per_as: int) -> list[tuple]:
    """(trace, JSONL line) pairs from a small Table 5 campaign."""
    from repro.campaign import CampaignRunner
    from repro.campaign.dataset import trace_to_json

    runner = CampaignRunner(
        seed=seed,
        vps_per_as=vps_per_as,
        targets_per_as=120,
        per_prefix=PER_PREFIX,
    )
    as_ids = [spec.as_id for spec in runner.portfolio.analyzed()][:ases]
    report = runner.run_portfolio(as_ids=as_ids, jobs=JOBS)
    return [
        (trace, (json.dumps(trace_to_json(trace)) + "\n").encode("utf-8"))
        for as_id in as_ids
        for trace in report[as_id].dataset
    ]


async def _get_json(host: str, port: int, path: str) -> dict:
    status, body = await loadgen.http_request(host, port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


async def _until_fed(host: str, port: int) -> dict:
    """Wait until every accepted trace is folded in; returns ``/report``.

    The cheap ``/healthz`` queue depth is polled first, so the heavier
    report is requested only a few times per wait.
    """
    while (await _get_json(host, port, "/healthz"))["queue_depth"]:
        await asyncio.sleep(0.01)
    while True:
        report = await _get_json(host, port, "/report")
        service = report["service"]
        if service["fed_watermark"] >= service["queue"]["accepted_total"]:
            return report
        await asyncio.sleep(0.01)


async def _drive_service(host, port, corpus, seconds, cfg) -> dict:
    """Steady open-loop phases, then closed-loop replay rounds."""
    send = loadgen.poster(host, port)
    posted: list = []
    cursor = [0]

    def bodies(posts: int, per_post: int) -> list[bytes]:
        out = []
        for _ in range(posts):
            lines = []
            for _ in range(per_post):
                trace, line = corpus[cursor[0] % len(corpus)]
                cursor[0] += 1
                posted.append(trace)
                lines.append(line)
            out.append(b"".join(lines))
        return out

    # the replay's throughput is the gated metric: it gets three
    # quarters of the budget, the steady phases an eighth each
    phase_s = seconds / 8.0
    steady = {}
    for rate in cfg["rates"]:
        posts = max(1, round(rate * phase_s / TRACES_PER_POST))
        steady[rate] = await loadgen.open_loop(
            send, bodies(posts, TRACES_PER_POST), rate / TRACES_PER_POST, LANES
        )
        await _until_fed(host, port)
    # the steady phases post a fixed schedule, so this document is the
    # same on every run of one seed; the final one depends on how many
    # replay rounds fit in the budget
    _, steady_segments = await loadgen.http_request(
        host, port, "GET", "/segments"
    )

    replay_posts = cfg["replay_traces"] // cfg["replay_post"]
    budget = seconds - len(steady) * phase_s
    timed = Timed()
    replay: list = []
    while True:
        batch = bodies(replay_posts, cfg["replay_post"])
        tick = time.monotonic()
        replay += await loadgen.closed_loop(send, batch, LANES)
        report = await _until_fed(host, port)
        timed.add(time.monotonic() - tick, replay_posts * cfg["replay_post"])
        if timed.done(budget):
            break
    status, segments = await loadgen.http_request(
        host, port, "GET", "/segments"
    )
    return {
        "steady": steady,
        "replay": replay,
        "timed": timed,
        "report": report,
        "steady_segments": steady_segments,
        "segments": segments if status == 200 else b"",
        "posted": posted,
    }


def _launch(state_dir: Path) -> float:
    """Seconds from spawning ``arest serve`` until ``/healthz`` answers
    (the server is then stopped)."""
    tick = time.perf_counter()
    server = _ServerProcess(state_dir)
    seconds = time.perf_counter() - tick
    if not server.stop():
        raise RuntimeError("arest serve did not drain cleanly")
    return seconds


def service(
    seed: int,
    seconds: float,
    work_dir: Path,
    recorder: SpanRecorder | None = None,
    *,
    rates: tuple[int, ...] = (300, 800),
    replay_traces: int = 512,
    replay_post: int = 64,
    corpus_ases: int = 12,
    corpus_vps: int = 20,
    starts: int = SETUP_STARTS,
) -> Outcome:
    """``arest serve`` under load: steady open-loop rates, then replay.

    Each steady phase posts 4-trace requests at one rate for an eighth
    of the budget.  The replay then posts ``replay_post``-trace requests
    back to back, in rounds of ``replay_traces``, each timed until
    ``/report`` shows every accepted trace folded in (``fed_watermark``).
    """
    from repro.service.state import batch_aggregate

    cfg = dict(
        rates=rates, replay_traces=replay_traces, replay_post=replay_post
    )
    outcome = Outcome()
    tick = time.perf_counter()
    corpus = _corpus(seed, corpus_ases, corpus_vps)
    outcome.info.update(
        corpus_traces=len(corpus), corpus_s=time.perf_counter() - tick
    )

    if recorder is None:
        # launches before and after the load, so they sample the host at
        # two moments of the run; the loaded server is not one of them
        setup = _Setup(lambda k: _launch(work_dir / f"launch{k}"), starts)
        for _ in range((starts + 1) // 2):
            setup.once()
        server = _ServerProcess(work_dir / "state")
        try:
            run = asyncio.run(
                _drive_service(server.host, server.port, corpus, seconds, cfg)
            )
            peak = server.peak_mib()
        finally:
            clean_exit = server.stop()
        setup_s = setup.median()
    else:
        with instrument(recorder, service_targets(recorder)):
            server = _ServerThread(work_dir / "state")
            try:
                with root_span(recorder):
                    run = asyncio.run(
                        _drive_service(
                            server.host, server.port, corpus, seconds, cfg
                        )
                    )
                poisoned = server.service.pool.poisoned
            finally:
                clean_exit = server.stop()

    steady = [r for records in run["steady"].values() for r in records]
    records = steady + run["replay"]
    outcome.attempted = len(records)
    outcome.failed = sum(1 for r in records if r.status != 202)
    outcome.gates["all_posts_accepted"] = outcome.failed == 0
    outcome.gates["drained_cleanly"] = clean_exit
    expected = batch_aggregate(run["posted"]).segments_json(None)
    outcome.gates["segments_match_batch"] = run["segments"] == expected
    outcome.digests["steady_segments"] = _digest(run["steady_segments"])
    outcome.digests[f"segments@{len(run['posted'])}"] = _digest(
        run["segments"]
    )
    queue = run["report"]["service"]["queue"]
    lateness_ms = max(r.lateness for r in steady) * 1000.0
    outcome.info.update(
        {
            f"ack_ms.{rate}": latency_summary([r.latency for r in recs])
            for rate, recs in run["steady"].items()
        }
    )
    outcome.info.update(
        posted_traces=len(run["posted"]),
        replay=run["timed"].as_info(),
        queue_peak_depth=queue["peak_depth"],
        generator_lateness_max_ms=lateness_ms,
    )
    if recorder is None:
        outcome.metrics = _e2e(setup_s, run["timed"].rate, peak)
        outcome.info.update(setup_starts=setup.seconds)
        return outcome
    rejected = sum(queue["rejected"].values())
    outcome.metrics = layer_metrics(
        recorder,
        None,
        {
            "traces": len(run["posted"]),
            "ases": 0,
            "service": {
                "peak_depth": queue["peak_depth"],
                "rejected_share": rejected / (len(run["posted"]) + rejected),
                "poisoned": poisoned,
                "lateness_max_ms": lateness_ms,
            },
        },
        1,
    )
    return outcome


#: every workload, in the order the full benchmark runs them
WORKLOADS = {
    "portfolio": portfolio,
    "scale-lossy": scale_lossy,
    "redetect": redetect,
    "service": service,
}
