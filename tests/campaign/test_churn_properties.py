"""Properties: churn determinism and the disabled-churn identity.

Two contracts gate the dynamics engine into the campaign layer:

- **off means off**: a runner handed ``ChurnPlan.none()`` (or no plan
  at all -- the default) must produce report JSON and checkpoint bytes
  identical to a churn-free runner's.  Churn is strictly opt-in; the
  default path keeps the exact bytes it had before dynamics existed.
- **on means deterministic**: with a fixed seed and an active plan, the
  report and checkpoint must be byte-identical whatever the ``jobs``
  setting, and a run resumed from a partial checkpoint must land on the
  same bytes as an uninterrupted one.  The churn schedule ticks on the
  virtual probe clock, so execution-plane choices cannot skew it.
"""

import json
import multiprocessing
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignRunner
from repro.netsim.dynamics import ChurnPlan

from tests.conftest import scaled_examples

_AS_POOL = (7, 27, 46, 59)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required for the supervised pool",
)

_KNOBS = dict(vps_per_as=1, targets_per_as=4)


def _run(as_ids, seed, jobs=1, churn_plan=None, **kwargs) -> tuple[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.ckpt"
        runner = CampaignRunner(seed=seed, churn_plan=churn_plan, **_KNOBS)
        report = runner.run_portfolio(
            as_ids=as_ids, checkpoint=path, jobs=jobs, timeout_per_as=120
        )
        return (
            json.dumps(report.as_dict(), sort_keys=True),
            (path / "checkpoint.jsonl").read_bytes(),
        )


_reference_cache: dict[tuple, tuple[str, bytes]] = {}


def _reference(as_ids, seed, churn_plan=None) -> tuple[str, bytes]:
    key = (tuple(as_ids), seed, churn_plan)
    if key not in _reference_cache:
        _reference_cache[key] = _run(as_ids, seed, churn_plan=churn_plan)
    return _reference_cache[key]


@settings(max_examples=scaled_examples(4), deadline=None)
@given(
    as_ids=st.lists(
        st.sampled_from(_AS_POOL), min_size=1, max_size=3, unique=True
    ),
    seed=st.sampled_from((1, 3)),
)
def test_none_plan_is_byte_identical_to_default(as_ids, seed):
    """``ChurnPlan.none()`` must be indistinguishable -- report bytes,
    checkpoint bytes, config signature -- from passing no plan."""
    default_report, default_bytes = _reference(as_ids, seed)
    none_report, none_bytes = _run(
        as_ids, seed, churn_plan=ChurnPlan.none()
    )
    assert none_report == default_report
    assert none_bytes == default_bytes


def test_none_plan_keeps_config_signature():
    """An inactive plan must not perturb the checkpoint signature, so
    churn-free checkpoints stay resumable across the feature boundary."""
    plain = CampaignRunner(seed=1, **_KNOBS)._config_signature()
    with_none = CampaignRunner(
        seed=1, churn_plan=ChurnPlan.none(), **_KNOBS
    )._config_signature()
    assert with_none == plain
    assert "churn_plan" not in plain
    active = CampaignRunner(
        seed=1, churn_plan=ChurnPlan.intensity(0.3, seed=1), **_KNOBS
    )._config_signature()
    assert "churn_plan" in active


@settings(max_examples=scaled_examples(3), deadline=None)
@given(
    as_ids=st.lists(
        st.sampled_from(_AS_POOL), min_size=2, max_size=3, unique=True
    ),
    seed=st.sampled_from((1, 3)),
    jobs=st.sampled_from((2, 4)),
)
def test_churn_is_deterministic_across_jobs(as_ids, seed, jobs):
    """Fixed seed, active churn: the parallel run's report and
    checkpoint must match the serial run byte for byte."""
    plan = ChurnPlan.intensity(0.5, seed=seed)
    serial_report, serial_bytes = _reference(as_ids, seed, churn_plan=plan)
    parallel_report, parallel_bytes = _run(
        as_ids, seed, jobs=jobs, churn_plan=plan
    )
    assert parallel_report == serial_report
    assert parallel_bytes == serial_bytes


def test_churn_changes_results(tmp_path):
    """Sanity that the knob is live: an aggressive plan must actually
    move the report relative to the static baseline."""
    static_report, _ = _reference([46], 1)
    churned_report, _ = _run(
        [46], 1, churn_plan=ChurnPlan.intensity(0.8, seed=1)
    )
    assert churned_report != static_report


def test_churn_resume_matches_uninterrupted(tmp_path):
    """A churned portfolio finished in two sittings must land on the
    same bytes as one uninterrupted run."""
    as_ids = [7, 27, 46]
    plan = ChurnPlan.intensity(0.5, seed=1)
    reference_report, reference_bytes = _reference(
        as_ids, 1, churn_plan=plan
    )

    path = tmp_path / "campaign.ckpt"
    first = CampaignRunner(seed=1, churn_plan=plan, **_KNOBS)
    first.run_portfolio(as_ids=as_ids[:2], checkpoint=path)
    resumed = CampaignRunner(seed=1, churn_plan=plan, **_KNOBS)
    report = resumed.run_portfolio(
        as_ids=as_ids, checkpoint=path, resume=True
    )
    assert sorted(report.resumed_as_ids) == sorted(as_ids[:2])
    assert json.dumps(report.as_dict(), sort_keys=True) == reference_report
    assert (path / "checkpoint.jsonl").read_bytes() == reference_bytes
