"""Measurement campaign orchestration.

- :mod:`repro.campaign.vantage_points` -- the 50-VP fleet of Table 4.
- :mod:`repro.campaign.dataset` -- trace dataset container and JSONL
  (de)serialization.
- :mod:`repro.campaign.runner` -- per-AS campaign execution: topology
  build, TNT probing from every VP, fingerprinting, AReST analysis and
  ground-truth extraction.
- :mod:`repro.campaign.shardexec` -- the one executor both campaign
  drivers dispatch through: persistent work-stealing workers under
  leases and deadlines, with crash recovery and graceful shutdown.
- :mod:`repro.campaign.shards` / :mod:`repro.campaign.scale` --
  paper-scale execution: deterministic ``(as_id, vp_bucket)`` shards
  and the two-phase (probe, analyze) campaign driver with spill-file
  streaming and shard-scoped checkpointing.
"""

from repro.campaign.vantage_points import VantagePoint, default_vantage_points
from repro.campaign.dataset import TraceDataset
from repro.campaign.anonymize import PrefixPreservingAnonymizer
from repro.campaign.checkpoint import (
    CampaignCheckpoint,
    CheckpointEntry,
    CheckpointMismatchError,
    FailureStub,
    QuarantineStub,
)
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
    "CampaignCheckpoint",
    "CheckpointEntry",
    "CheckpointMismatchError",
    "FailureStub",
    "QuarantineStub",
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
