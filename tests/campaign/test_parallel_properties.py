"""Property: parallel execution is invisible in the results.

For any portfolio and any ``jobs`` setting, the canonical report JSON
and the checkpoint bytes must be identical to the serial run, and so
must every AS's kept result -- its traces, per-trace segments and
analysis, which pool workers ship back by pickle while ``jobs=1``
never pickles.  This is the acceptance criterion for the supervised
executor: concurrency is purely an execution-plane concern.
"""

import json
import multiprocessing
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignRunner

from tests.conftest import scaled_examples

# One AS per flavour keeps each campaign tiny while still exercising
# heterogeneous results (includes 9999: unknown AS -> banked failure).
_AS_POOL = (7, 15, 27, 31, 46, 59, 9999)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required for the supervised pool",
)

_serial_cache: dict[tuple, tuple[str, bytes, dict]] = {}


def _run(as_ids, seed, jobs) -> tuple[str, bytes, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.ckpt"
        runner = CampaignRunner(seed=seed, vps_per_as=1, targets_per_as=4)
        report = runner.run_portfolio(
            as_ids=as_ids, checkpoint=path, jobs=jobs, timeout_per_as=120
        )
        kept = {
            as_id: (
                result.dataset.traces,
                result.trace_segments,
                result.analysis,
            )
            for as_id, result in report.items()
        }
        return (
            json.dumps(report.as_dict(), sort_keys=True),
            (path / "checkpoint.jsonl").read_bytes(),
            kept,
        )


def _serial_reference(as_ids, seed) -> tuple[str, bytes, dict]:
    key = (tuple(as_ids), seed)
    if key not in _serial_cache:
        _serial_cache[key] = _run(as_ids, seed, jobs=1)
    return _serial_cache[key]


@settings(max_examples=scaled_examples(4), deadline=None)
@given(
    as_ids=st.lists(
        st.sampled_from(_AS_POOL), min_size=1, max_size=4, unique=True
    ),
    seed=st.sampled_from((1, 3)),
    jobs=st.sampled_from((2, 4)),
)
def test_parallel_report_and_checkpoint_match_serial(as_ids, seed, jobs):
    serial_report, serial_bytes, serial_kept = _serial_reference(as_ids, seed)
    parallel_report, parallel_bytes, parallel_kept = _run(as_ids, seed, jobs)
    assert parallel_report == serial_report
    assert parallel_bytes == serial_bytes
    # the report and checkpoint hold summary counts; a hop field lost
    # on the way back from a worker shows only in the kept results
    assert parallel_kept.keys() == serial_kept.keys()
    for as_id, (traces, trace_segments, analysis) in serial_kept.items():
        got_traces, got_trace_segments, got_analysis = parallel_kept[as_id]
        assert got_traces == traces, as_id
        assert got_trace_segments == trace_segments, as_id
        assert got_analysis == analysis, as_id
