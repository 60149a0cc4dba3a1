"""Crash-safe campaign checkpoints: the run directory (format v4).

Both campaign planes bank into one layout, a *run directory*:
``checkpoint.jsonl`` (the :class:`ShardCheckpoint`) plus ``spills/``
(the traces, one JSONL dataset file per probed shard).  The checkpoint
holds only *facts about* the data -- per-VP trace counts, SHA-256
digests and fault/retry tallies, per-AS analysis summaries, failures
and quarantines -- so it stays small at a million traces, and resume
rebuilds whatever it needs from the spills after checking them against
those facts.

The file embeds a config signature (seed, probing knobs, fault plan,
retry policy, portfolio descriptor); resuming under a different
configuration raises :class:`CheckpointMismatchError` rather than
silently mixing campaigns.  Format 3 -- one JSONL file per portfolio
run, datasets inline -- is refused with the format change stated, and
left untouched.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

from repro.util.journal import (
    append_json_line,
    rewrite_json_lines,
    salvage_decode,
)

logger = logging.getLogger(__name__)

_KIND = "arest-shard-checkpoint"
_VERSION = 4

#: the checkpoint file and the spill directory inside a run directory
CHECKPOINT_FILENAME = "checkpoint.jsonl"
SPILL_DIRNAME = "spills"


class CheckpointMismatchError(ValueError):
    """The checkpoint was written by a differently-configured campaign."""


def _is_format_3(path: Path) -> bool:
    """Does ``path`` hold a format-3 (or older) campaign checkpoint?"""
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
    except (OSError, ValueError):
        return False
    return isinstance(header, dict) and header.get("kind") == (
        "arest-checkpoint"
    )


def open_run_dir(
    out_dir: str | Path,
    config: dict,
    vps_per_shard: int | None = None,
    resume: bool = False,
) -> "ShardCheckpoint":
    """The checkpoint of run directory ``out_dir``, loaded when resuming.

    Creates ``out_dir`` and its ``spills/`` when missing.  A format-3
    checkpoint file -- passed as ``out_dir`` itself, or found as its
    ``checkpoint.jsonl`` -- is refused before anything is written.
    """
    out_dir = Path(out_dir)
    path = out_dir / CHECKPOINT_FILENAME
    for candidate in (out_dir, path):
        if candidate.is_file() and _is_format_3(candidate):
            raise ValueError(
                f"{candidate} is a v3 campaign checkpoint file; campaigns "
                f"now checkpoint into a v4 run directory "
                f"({CHECKPOINT_FILENAME} plus {SPILL_DIRNAME}/) and v3 "
                f"files cannot be resumed -- rerun the campaign with a "
                f"new checkpoint directory"
            )
    (out_dir / SPILL_DIRNAME).mkdir(parents=True, exist_ok=True)
    store = ShardCheckpoint(path, config, vps_per_shard=vps_per_shard)
    if resume:
        store.load()
    return store


class ShardCheckpoint:
    """The checkpoint file of a run directory (format v4).

    It banks per-shard probe records (spill file name, per-VP trace
    counts and SHA-256 digests, fault/retry tallies) and per-AS
    analysis summaries, failures and quarantines, while the traces
    themselves live in the spill files the records point at.

    Crash-safety contract (the order matters):

    1. a shard's spill file is atomically renamed into place *first*;
    2. its probe record is durably appended *second*.

    A crash between the two leaves a spill with no record: resume
    re-runs the shard and the atomic re-write replaces the orphan with
    byte-identical content.  A crash mid-append truncates at most the
    final line, which :meth:`load` salvages.  Either way: zero traces
    lost, zero traces duplicated.

    Canonical form: while a run is live, records sit in banking order
    and the header carries the shard ``layout`` (so resume re-derives
    the same shard plan).  On clean completion
    :meth:`compact_canonical` rewrites the file as per-VP probe lines
    plus per-AS analysis lines, sorted, with every partition-dependent
    detail (bucket numbers, spill names, layout) dropped -- so the
    final checkpoint bytes are identical for **any** ``--jobs`` or
    ``--shards`` value, serial, parallel, or crashed-and-resumed.

    The header embeds a config signature and resuming under a
    different configuration raises :class:`CheckpointMismatchError`.
    The layout is deliberately *outside* that comparison: re-sharding a
    resumed run is legal (the banked layout simply wins).
    """

    def __init__(
        self,
        path: str | Path,
        config: dict,
        vps_per_shard: int | None = None,
    ) -> None:
        self._path = Path(path)
        self._config = config
        #: shard-plan layout; resume adopts the banked value
        self.vps_per_shard = vps_per_shard
        #: record key -> decoded object, in banking order; keys are
        #: ("probe", (as_id, bucket)), ("vp", (as_id, vp_index)),
        #: ("analysis", as_id), ("failure", as_id),
        #: ("quarantine", (as_id, bucket))
        self._records: dict[tuple, object] = {}
        self._synced = False
        #: True once the file holds the canonical (completed) form
        self.complete = False

    @property
    def path(self) -> Path:
        return self._path

    # -- typed views ----------------------------------------------------------

    @property
    def probed(self) -> dict[tuple[int, int], "ShardProbeRecord"]:
        """Banked per-shard probe records, keyed ``(as_id, bucket)``."""
        return {
            key[1]: obj
            for key, obj in self._records.items()
            if key[0] == "probe"
        }

    @property
    def vp_probes(self) -> dict[tuple[int, int], "VpProbe"]:
        """Canonical per-VP probe facts, keyed ``(as_id, vp_index)``."""
        return {
            key[1]: obj
            for key, obj in self._records.items()
            if key[0] == "vp"
        }

    @property
    def vp_facts(self) -> dict[tuple[int, int], "VpProbe"]:
        """Every banked per-VP fact, live or canonical, by ``(as_id,
        vp_index)`` (a live record wins over a canonical line)."""
        facts = dict(self.vp_probes)
        for record in self.probed.values():
            for vp in record.vps:
                facts[(record.as_id, vp.vp_index)] = vp
        return facts

    @property
    def analyses(self) -> dict[int, dict]:
        """Banked per-AS analysis summaries (opaque canonical JSON)."""
        return {
            key[1]: obj
            for key, obj in self._records.items()
            if key[0] == "analysis"
        }

    @property
    def failures(self) -> dict[int, dict]:
        """Banked per-AS analysis failures (stage + error)."""
        return {
            key[1]: obj
            for key, obj in self._records.items()
            if key[0] == "failure"
        }

    @property
    def quarantines(self) -> dict[tuple[int, int], dict]:
        """Banked per-shard quarantines, keyed ``(as_id, bucket)``."""
        return {
            key[1]: obj
            for key, obj in self._records.items()
            if key[0] == "quarantine"
        }

    # -- load -----------------------------------------------------------------

    def load(self) -> None:
        """Read banked records; missing file means a fresh start.

        Adopts the banked shard layout, salvages the intact prefix of
        a torn or garbled file (logging what it discarded, compacting
        the rest away), and raises :class:`CheckpointMismatchError` on
        a config mismatch.
        """
        if not self._path.exists():
            return
        with self._path.open("r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header_line = lines[0] if lines else ""
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError:
            raise ValueError(
                f"not an AReST shard checkpoint (unparseable header): "
                f"{self._path}"
            ) from None
        if (
            not isinstance(header, dict)
            or header.get("kind") != _KIND
        ):
            raise ValueError(
                f"not an AReST shard checkpoint: {self._path}"
            )
        if header.get("config") != self._config:
            raise CheckpointMismatchError(
                f"shard checkpoint {self._path} was written by a "
                f"different campaign configuration; delete it or rerun "
                f"with the original settings"
            )
        layout = header.get("layout")
        if isinstance(layout, dict) and "vps_per_shard" in layout:
            self.vps_per_shard = int(layout["vps_per_shard"])
        self.complete = bool(header.get("complete", False))
        self._records = {}
        decoded, damaged = salvage_decode(
            lines[1:],
            _shard_record_decode,
            path=self._path,
            label="shard checkpoint",
            noun="shard record(s)",
            logger=logger,
        )
        for key, obj in decoded:
            self._records[key] = obj
        if damaged:
            self._flush()  # compact away the damaged tail
        else:
            self._synced = True

    # -- banking --------------------------------------------------------------

    def record_probe(self, record: "ShardProbeRecord") -> None:
        """Durably bank one completed shard (spill already in place)."""
        self._bank(("probe", record.key), record)

    def record_analysis(self, as_id: int, summary: dict) -> None:
        """Durably bank one AS's canonical analysis summary."""
        self._bank(("analysis", as_id), summary)

    def record_failure(self, as_id: int, stub: dict) -> None:
        """Durably bank one AS whose analysis failed deterministically."""
        self._bank(("failure", as_id), stub)

    def record_quarantine(
        self, key: tuple[int, int], detail: dict
    ) -> None:
        """Durably bank one shard past its re-dispatch budget."""
        self._bank(("quarantine", key), detail)

    def _bank(self, key: tuple, obj: object) -> None:
        replacing = self._synced and key in self._records
        self._records[key] = obj
        if self._synced and not replacing:
            append_json_line(self._path, _shard_record_encode(key, obj))
        else:
            self._flush()

    # -- canonicalization ------------------------------------------------------

    def reopen(self) -> None:
        """Mark a completed checkpoint live before new records land.

        The rewrite drops ``complete`` from the header, so a crash
        before the next compaction can never pass for a finished run.
        """
        if self.complete:
            self.complete = False
            self._flush()

    def compact_canonical(self, as_ids: list[int]) -> None:
        """Rewrite the completed checkpoint in its canonical form.

        Per-shard probe records are exploded into per-VP lines (sorted
        by ``(as_id, vp_index)``) with the bucket number and spill name
        dropped; analysis/failure lines follow each AS; quarantines (a
        degraded run only) close the file.  The layout leaves the
        header and ``complete`` enters it.  The result is the same
        byte sequence for every partitioning and completion order of
        the same campaign.  ASes banked but not in ``as_ids`` (a resume
        that listed fewer) keep their records, after the listed ones,
        in their banked order.
        """
        canonical: dict[tuple, object] = {}
        vp_facts = self.vp_facts
        analyses = self.analyses
        failures = self.failures
        banked = (
            ident if isinstance(ident, int) else ident[0]
            for kind, ident in self._records
            if kind != "quarantine"
        )
        for as_id in dict.fromkeys([*as_ids, *banked]):
            for (a, vp_index) in sorted(
                k for k in vp_facts if k[0] == as_id
            ):
                canonical[("vp", (a, vp_index))] = vp_facts[(a, vp_index)]
            if as_id in analyses:
                canonical[("analysis", as_id)] = analyses[as_id]
            if as_id in failures:
                canonical[("failure", as_id)] = failures[as_id]
        for key in sorted(self.quarantines):
            canonical[("quarantine", key)] = self.quarantines[key]
        self.complete = True
        self._records = canonical
        self._flush()

    def _header(self) -> dict:
        header: dict = {
            "kind": _KIND,
            "version": _VERSION,
            "config": self._config,
        }
        if self.complete:
            header["complete"] = True
        elif self.vps_per_shard is not None:
            header["layout"] = {"vps_per_shard": self.vps_per_shard}
        return header

    def _flush(self) -> None:
        rewrite_json_lines(
            self._path,
            self._header(),
            (
                _shard_record_encode(key, obj)
                for key, obj in self._records.items()
            ),
        )
        self._synced = True


def _shard_record_encode(key: tuple, obj: object) -> dict:
    """One banked shard-checkpoint record as its JSONL line."""
    kind, ident = key
    if kind == "probe":
        return {"shard": list(ident), "probe": obj.as_dict()}
    if kind == "vp":
        return {"vp": list(ident), "probe": obj.as_dict()}
    if kind == "analysis":
        return {"as_id": ident, "analysis": obj}
    if kind == "failure":
        return {"as_id": ident, "failure": obj}
    if kind == "quarantine":
        return {"shard": list(ident), "quarantine": obj}
    raise ValueError(f"unknown shard record kind: {kind!r}")


def _shard_record_decode(record: dict) -> tuple[tuple, object]:
    """Inverse of :func:`_shard_record_encode` (raises on damage)."""
    from repro.campaign.shards import ShardProbeRecord, VpProbe

    if "vp" in record:
        as_id, vp_index = (int(v) for v in record["vp"])
        return ("vp", (as_id, vp_index)), VpProbe.from_dict(
            record["probe"]
        )
    if "shard" in record:
        as_id, bucket = (int(v) for v in record["shard"])
        if "quarantine" in record:
            return ("quarantine", (as_id, bucket)), dict(
                record["quarantine"]
            )
        return ("probe", (as_id, bucket)), ShardProbeRecord.from_dict(
            as_id, bucket, record["probe"]
        )
    as_id = int(record["as_id"])
    if "analysis" in record:
        return ("analysis", as_id), dict(record["analysis"])
    return ("failure", as_id), dict(record["failure"])
