"""Measurement campaign orchestration.

- :mod:`repro.campaign.vantage_points` -- the 50-VP fleet of Table 4.
- :mod:`repro.campaign.dataset` -- trace dataset container and JSONL
  (de)serialization.
- :mod:`repro.campaign.runner` -- per-AS campaign execution: topology
  build, TNT probing from every VP, fingerprinting, AReST analysis and
  ground-truth extraction.
- :mod:`repro.campaign.shardexec` -- the one executor: persistent
  work-stealing workers under leases and deadlines, with crash recovery
  and graceful shutdown.
- :mod:`repro.campaign.shards` / :mod:`repro.campaign.scale` --
  deterministic ``(as_id, vp_bucket)`` shards and the per-VP probe loop
  both drivers run, and the one campaign lease loop both drivers run
  on: a whole-AS task per one-bucket AS, probe shards plus an analysis
  per split AS, with spill-file streaming.
- :mod:`repro.campaign.checkpoint` -- the run directory both drivers
  checkpoint into (format v4: ``checkpoint.jsonl`` plus ``spills/``).
"""

from repro.campaign.vantage_points import VantagePoint, default_vantage_points
from repro.campaign.dataset import TraceDataset
from repro.campaign.anonymize import PrefixPreservingAnonymizer
from repro.campaign.checkpoint import CheckpointMismatchError
from repro.campaign.runner import (
    AsCampaignResult,
    AsFailure,
    AsQuarantine,
    CampaignReport,
    CampaignRunner,
)
from repro.campaign.checkpoint import ShardCheckpoint
from repro.campaign.scale import ScaleCampaign, ScaleReport
from repro.campaign.shardexec import (
    ExecutionResult,
    GracefulShutdown,
    LeaseExecutor,
    TaskOutcome,
    TaskStatus,
    WorkerControl,
)
from repro.campaign.shards import (
    ShardProbeRecord,
    ShardSpec,
    VpProbe,
    shard_plan,
)

__all__ = [
    "VantagePoint",
    "default_vantage_points",
    "TraceDataset",
    "PrefixPreservingAnonymizer",
    "AsCampaignResult",
    "AsFailure",
    "AsQuarantine",
    "CampaignReport",
    "CampaignRunner",
    "CheckpointMismatchError",
    "ExecutionResult",
    "GracefulShutdown",
    "TaskOutcome",
    "TaskStatus",
    "LeaseExecutor",
    "WorkerControl",
    "ScaleCampaign",
    "ScaleReport",
    "ShardCheckpoint",
    "ShardProbeRecord",
    "ShardSpec",
    "VpProbe",
    "shard_plan",
]
