"""Datacenter task tables → normalized :class:`ClusterTrace`.

Two wire formats converge here:

* **CSV** in the Alibaba cluster-trace ``batch_task`` shape — columns for
  task/job names, start/end timestamps, and planned CPU/memory demand
  (``plan_cpu`` in centi-cores, ``plan_mem`` in normalized units).  The
  column vocabulary is a :class:`ColumnMap`, so other public traces
  (Google, Azure) are one mapping away, not one parser away.
* **JSON** — either our own versioned schema (passed through verbatim) or
  a plain list of task objects using the same column vocabulary.

The one modeling decision ingestion makes is the multi-resource
projection: the fleet places *intra-host bandwidth* pipes, so a task's
``(cpu, mem)`` demand vector is projected onto bytes/s via the linear
:class:`IngestConfig` weights — CPU-heavy tasks stream more traffic
between I/O devices and memory, memory-heavy tasks shift the mix — then
clamped into the fleet's plausible pipe range.  The raw ``cpu``/``mem``
figures ride along on every :class:`ClusterTask` untouched, so a later
multi-resource placement PR can re-score byte-identical traces without
re-ingesting.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from ...errors import WorkloadError
from ...units import Gbps
from .schema import ClusterTask, ClusterTrace, rebase_and_scale


@dataclass(frozen=True)
class ColumnMap:
    """Source-table column names for the fields the schema needs.

    Defaults follow the Alibaba cluster-trace v2018 ``batch_task`` table.
    ``user`` and ``status`` may be absent from the source (``None`` /
    missing column tolerated): tenants are then derived from the job id
    and no status filtering happens.
    """

    task: str = "task_name"
    job: str = "job_name"
    user: str = "user"
    status: str = "status"
    start: str = "start_time"
    end: str = "end_time"
    cpu: str = "plan_cpu"
    mem: str = "plan_mem"
    instances: str = "instance_num"


@dataclass(frozen=True)
class IngestConfig:
    """Knobs for normalizing one raw table.

    Attributes:
        columns: Source column vocabulary.
        keep_status: Row status values to keep (Alibaba marks finished
            tasks ``Terminated``); ``None`` keeps every row.
        time_scale: Multiplier applied to rebased arrivals *and*
            durations — compresses an hours-long trace into simulated
            seconds while preserving the concurrency profile.
        cpu_bandwidth_per_core: bytes/s of pipe demand per planned core.
        mem_bandwidth_per_unit: bytes/s per planned memory unit.
        min_bandwidth / max_bandwidth: Clamp range for the projected
            demand, in bytes/s (the fleet's plausible pipe sizes).
        tenant_buckets: When the table has no user column, tenants are
            synthesized by hashing the job id into this many buckets —
            stable across runs (CRC32, not Python's randomized hash).
        bidirectional_every: Every n-th kept row (by stable task-id hash)
            guards both directions, matching the churn workload's mix of
            request/response services; 0 disables.
    """

    columns: ColumnMap = ColumnMap()
    keep_status: Optional[frozenset] = frozenset({"Terminated"})
    time_scale: float = 1.0
    cpu_bandwidth_per_core: float = Gbps(30)
    mem_bandwidth_per_unit: float = Gbps(1.2)
    min_bandwidth: float = Gbps(5)
    max_bandwidth: float = Gbps(200)
    tenant_buckets: int = 64
    bidirectional_every: int = 4

    def __post_init__(self) -> None:
        # A NaN or infinite scale overflows the rebased arrivals.
        if not 0 < self.time_scale < math.inf:
            raise WorkloadError(f"time_scale must be finite and > 0, "
                                f"got {self.time_scale}")

    def project_bandwidth(self, cpu_cores: float, mem_units: float) -> float:
        """The multi-resource → bandwidth projection, clamped."""
        raw = (cpu_cores * self.cpu_bandwidth_per_core
               + mem_units * self.mem_bandwidth_per_unit)
        return min(max(raw, self.min_bandwidth), self.max_bandwidth)


def _stable_hash(text: str) -> int:
    """Deterministic across processes (unlike ``hash()``)."""
    return zlib.crc32(text.encode("utf-8"))


def _tenant_for(job_id: str, user: Optional[str],
                config: IngestConfig) -> str:
    if user:
        return user
    return f"u{_stable_hash(job_id) % config.tenant_buckets:03d}"


def _float_field(row: Dict[str, str], column: str, task_id: str) -> float:
    value = row.get(column, "")
    if value in ("", None):
        return 0.0
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise WorkloadError(
            f"task {task_id!r}: column {column!r} is not numeric: "
            f"{value!r}"
        ) from None
    # A NaN start would survive the end <= start filter and turn every
    # task's rebased arrival into NaN.
    if not math.isfinite(number):
        raise WorkloadError(
            f"task {task_id!r}: column {column!r} is not finite: {value!r}")
    return number


def ingest_rows(rows: List[Dict[str, str]], config: IngestConfig,
                name: str) -> ClusterTrace:
    """Normalize already-parsed rows (shared CSV/JSON tail)."""
    cols = config.columns
    tasks: List[ClusterTask] = []
    seen: Dict[str, int] = {}
    for row in rows:
        status = row.get(cols.status)
        if (config.keep_status is not None and status is not None
                and status not in config.keep_status):
            continue
        job_id = str(row.get(cols.job, "") or "")
        raw_task = str(row.get(cols.task, "") or "")
        if not job_id or not raw_task:
            continue
        task_id = f"{job_id}/{raw_task}"
        # Real tables repeat (job, task) across instance rows; keep ids
        # unique without dropping load.
        count = seen.get(task_id, 0)
        seen[task_id] = count + 1
        if count:
            task_id = f"{task_id}#{count}"
        start = _float_field(row, cols.start, task_id)
        end = _float_field(row, cols.end, task_id)
        if end <= start:
            continue  # unfinished or corrupt rows carry no service time
        cpu_cores = _float_field(row, cols.cpu, task_id) / 100.0
        mem_units = _float_field(row, cols.mem, task_id)
        bid = (config.bidirectional_every > 0
               and _stable_hash(task_id) % config.bidirectional_every == 0)
        tasks.append(ClusterTask(
            task_id=task_id,
            job_id=job_id,
            tenant_id=_tenant_for(job_id, row.get(cols.user), config),
            arrival=start,
            duration=end - start,
            bandwidth=config.project_bandwidth(cpu_cores, mem_units),
            cpu=cpu_cores,
            memory=mem_units,
            bidirectional=bid,
        ))
    if not tasks:
        raise WorkloadError(
            f"trace {name!r}: no usable rows after filtering "
            f"(keep_status={sorted(config.keep_status or [])}, "
            f"{len(rows)} rows read)"
        )
    return ClusterTrace(
        tasks=rebase_and_scale(tasks, time_scale=config.time_scale),
        name=name,
    )


def ingest_csv(text: str, config: Optional[IngestConfig] = None,
               name: str = "csv-trace") -> ClusterTrace:
    """Parse an Alibaba-style CSV task table into a normalized trace.

    A header row is required (it is what binds the :class:`ColumnMap`);
    headerless Alibaba raw dumps should be given one line naming their
    columns.
    """
    config = config or IngestConfig()
    reader = csv.DictReader(io.StringIO(text))
    if not reader.fieldnames:
        raise WorkloadError(f"trace {name!r}: empty CSV")
    missing = [c for c in (config.columns.task, config.columns.job,
                           config.columns.start, config.columns.end)
               if c not in reader.fieldnames]
    if missing:
        raise WorkloadError(
            f"trace {name!r}: CSV lacks required columns {missing} "
            f"(have {reader.fieldnames})"
        )
    return ingest_rows(list(reader), config, name)


def ingest_json(text: str, config: Optional[IngestConfig] = None,
                name: str = "json-trace") -> ClusterTrace:
    """Parse a JSON task table (or pass through our own schema).

    Accepts either the versioned :meth:`ClusterTrace.to_json` object —
    returned as-is, already normalized — or a bare JSON list of row
    objects keyed by the :class:`ColumnMap` vocabulary.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"trace {name!r}: not JSON: {exc}") from exc
    if isinstance(payload, dict) and "schema" in payload:
        return ClusterTrace.from_json(text)
    if not isinstance(payload, list):
        raise WorkloadError(
            f"trace {name!r}: expected a schema object or a list of "
            f"rows, got {type(payload).__name__}"
        )
    rows = [{k: v for k, v in item.items()} for item in payload]
    return ingest_rows(rows, config or IngestConfig(), name)


def load_trace(path: str, config: Optional[IngestConfig] = None,
               fmt: str = "auto") -> ClusterTrace:
    """Read a trace file, dispatching on *fmt* (or the extension).

    ``auto`` maps ``.csv`` → CSV and anything else → JSON, which covers
    both the bundled fixture and replay artifacts.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    name = os.path.splitext(os.path.basename(path))[0]
    if fmt == "auto":
        fmt = "csv" if path.lower().endswith(".csv") else "json"
    if fmt == "csv":
        return ingest_csv(text, config, name=name)
    if fmt == "json":
        return ingest_json(text, config, name=name)
    raise WorkloadError(
        f"unknown trace format {fmt!r}; choices: auto, csv, json"
    )
