"""The normalized cluster-trace schema.

Every source of fleet load — a real datacenter task table, the seeded
synthesizer, a replayed JSON artifact — converges on one schema before it
touches a :class:`~repro.fleet.Fleet`: a flat, arrival-ordered list of
:class:`ClusterTask` records.  That is what makes runs comparable (the
gem5 standardized-simulation lesson from PAPERS.md): two policies, two
clock disciplines, or two PRs are only ever measured on byte-identical
normalized load, never on "roughly the same" raw files.

The JSON round-trip is versioned (:data:`SCHEMA_VERSION`) and canonical —
sorted keys, fixed separators — so that *same trace* is decidable by
string equality: the determinism suite asserts the synthesizer's output
is byte-identical across runs, and replay artifacts embed the schema tag
so a future reader can refuse what it does not understand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List

from ...errors import WorkloadError

#: Version tag embedded in every serialized trace and replay report.
SCHEMA_VERSION = "repro.cluster-trace/v1"


@dataclass(frozen=True)
class ClusterTask:
    """One tenant task (session) from a datacenter trace, normalized.

    Attributes:
        task_id: Unique id within the trace.
        job_id: Grouping key — tasks of one job arrive together-ish and
            belong to one tenant (Alibaba ``job_name``).
        tenant_id: The owning tenant (Alibaba ``user``; synthesized when
            the source table has no user column).
        arrival: Arrival time in seconds, rebased so the trace starts
            at (or near) 0.
        duration: Service time in seconds once admitted (> 0).
        bandwidth: Intra-host bandwidth demand in bytes/s — the
            placement-relevant projection of the task's multi-resource
            demand vector (> 0).
        cpu: Original CPU demand in cores (informational; kept so a
            multi-resource placement PR can re-score the same trace).
        memory: Original memory demand, normalized units (informational).
        bidirectional: Whether the replayed pipe guards both directions.
    """

    task_id: str
    job_id: str
    tenant_id: str
    arrival: float
    duration: float
    bandwidth: float
    cpu: float = 0.0
    memory: float = 0.0
    bidirectional: bool = False

    def __post_init__(self) -> None:
        # Written so that NaN fails each check.
        if not 0 <= self.arrival < math.inf:
            raise WorkloadError(
                f"task {self.task_id!r}: arrival must be finite and >= 0, "
                f"got {self.arrival}"
            )
        if not 0 < self.duration < math.inf:
            raise WorkloadError(
                f"task {self.task_id!r}: duration must be finite and > 0, "
                f"got {self.duration}"
            )
        if not 0 < self.bandwidth < math.inf:
            raise WorkloadError(
                f"task {self.task_id!r}: bandwidth must be finite and > 0, "
                f"got {self.bandwidth}"
            )

    @property
    def completion(self) -> float:
        """Earliest possible completion: arrival + duration (no waiting)."""
        return self.arrival + self.duration


@dataclass
class ClusterTrace:
    """An arrival-ordered collection of :class:`ClusterTask` records.

    Attributes:
        tasks: The tasks, kept sorted by ``(arrival, task_id)``.
        name: Provenance label (source file stem or synth config digest)
            carried into replay reports.
    """

    tasks: List[ClusterTask]
    name: str = "trace"

    def __post_init__(self) -> None:
        ids = set()
        for task in self.tasks:
            if task.task_id in ids:
                raise WorkloadError(
                    f"trace {self.name!r}: duplicate task id "
                    f"{task.task_id!r}"
                )
            ids.add(task.task_id)
        self.tasks.sort(key=lambda t: (t.arrival, t.task_id))

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    @property
    def horizon(self) -> float:
        """Latest no-wait completion time across all tasks."""
        return max((t.completion for t in self.tasks), default=0.0)

    def tenants(self) -> List[str]:
        """Distinct tenant ids, sorted."""
        return sorted({t.tenant_id for t in self.tasks})

    def jobs(self) -> List[str]:
        """Distinct job ids, sorted."""
        return sorted({t.job_id for t in self.tasks})

    def mean_duration(self) -> float:
        """Mean task duration (0.0 for an empty trace)."""
        if not self.tasks:
            return 0.0
        return sum(t.duration for t in self.tasks) / len(self.tasks)

    def concurrent_at(self, t: float) -> int:
        """Tasks whose no-wait interval covers time *t*."""
        return sum(1 for task in self.tasks
                   if task.arrival <= t < task.completion)

    def describe(self) -> str:
        """One-line trace summary."""
        return (f"ClusterTrace {self.name!r}: {len(self.tasks)} tasks, "
                f"{len(self.tenants())} tenants, {len(self.jobs())} jobs, "
                f"horizon {self.horizon:g}s")

    # -- the versioned round-trip -------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON: versioned, sorted keys, fixed separators.

        Two traces are the same trace iff their serializations are equal
        as strings — the determinism tests rely on this.
        """
        payload = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "tasks": [
                {
                    "task_id": t.task_id,
                    "job_id": t.job_id,
                    "tenant_id": t.tenant_id,
                    "arrival": t.arrival,
                    "duration": t.duration,
                    "bandwidth": t.bandwidth,
                    "cpu": t.cpu,
                    "memory": t.memory,
                    "bidirectional": t.bidirectional,
                }
                for t in self.tasks
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ClusterTrace":
        """Rebuild a trace serialized with :meth:`to_json`.

        Raises :class:`~repro.errors.WorkloadError` on a missing or
        unknown schema tag — silently replaying a future schema would
        produce numbers that *look* comparable and are not.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"not a cluster trace: {exc}") from exc
        if not isinstance(payload, dict):
            raise WorkloadError(
                "not a cluster trace: expected a JSON object with a "
                f"'schema' tag, got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise WorkloadError(
                f"unsupported cluster-trace schema {schema!r} "
                f"(this build reads {SCHEMA_VERSION!r})"
            )
        tasks = [
            ClusterTask(
                task_id=str(item["task_id"]),
                job_id=str(item["job_id"]),
                tenant_id=str(item["tenant_id"]),
                arrival=float(item["arrival"]),
                duration=float(item["duration"]),
                bandwidth=float(item["bandwidth"]),
                cpu=float(item.get("cpu", 0.0)),
                memory=float(item.get("memory", 0.0)),
                bidirectional=bool(item.get("bidirectional", False)),
            )
            for item in payload.get("tasks", [])
        ]
        return cls(tasks=tasks, name=str(payload.get("name", "trace")))


def rebase_and_scale(tasks: List[ClusterTask], time_scale: float = 1.0,
                     bandwidth_scale: float = 1.0) -> List[ClusterTask]:
    """Normalize raw task timings: rebase arrivals to start at 0 and
    scale times/bandwidths.

    Raw datacenter tables stamp arrivals in epoch-ish seconds and span
    hours; simulation wants the trace to start at 0 and often wants time
    compressed (``time_scale < 1``) so a lockstep equivalence run stays
    tractable.  Durations scale with arrivals so the *load shape* (the
    concurrency profile) is preserved exactly.
    """
    if not 0 < time_scale < math.inf:
        raise WorkloadError(
            f"time_scale must be finite and > 0, got {time_scale}")
    if not 0 < bandwidth_scale < math.inf:
        raise WorkloadError(
            f"bandwidth_scale must be finite and > 0, got {bandwidth_scale}"
        )
    if not tasks:
        return []
    base = min(t.arrival for t in tasks)
    return [
        ClusterTask(
            task_id=t.task_id,
            job_id=t.job_id,
            tenant_id=t.tenant_id,
            arrival=(t.arrival - base) * time_scale,
            duration=t.duration * time_scale,
            bandwidth=t.bandwidth * bandwidth_scale,
            cpu=t.cpu,
            memory=t.memory,
            bidirectional=t.bidirectional,
        )
        for t in tasks
    ]


def trace_summary(trace: ClusterTrace) -> Dict[str, float]:
    """Aggregate shape figures for logs and reports."""
    if not trace.tasks:
        return {"tasks": 0, "tenants": 0, "jobs": 0, "horizon": 0.0,
                "mean_duration": 0.0, "mean_bandwidth": 0.0}
    return {
        "tasks": len(trace),
        "tenants": len(trace.tenants()),
        "jobs": len(trace.jobs()),
        "horizon": trace.horizon,
        "mean_duration": trace.mean_duration(),
        "mean_bandwidth": (sum(t.bandwidth for t in trace.tasks)
                           / len(trace)),
    }
