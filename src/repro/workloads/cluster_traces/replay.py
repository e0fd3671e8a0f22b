"""Replay a normalized :class:`ClusterTrace` against a :class:`Fleet`.

The replay discipline mirrors ``repro.fleet.workload.run_churn`` — the
fleet advances to each event time under whatever clock it was built with,
so event-driven and lockstep runs see the identical interleaving — but a
trace replay is a richer contract than churn:

* **arrivals become placement intents.**  Each task maps to a pipe
  between deterministic reference-topology endpoints (stable task-id
  hash → NIC/GPU source, DIMM sink — the paper's canonical I/O-to-memory
  traffic), with the task's projected bandwidth demand.
* **rejections retry, deterministically.**  A rejected task backs off
  (exponential, seeded by nothing — the schedule is a pure function of
  the task) and retries until its waiting budget is spent; only then is
  it a *final* rejection.  This is what gives JCT a tail: a task that
  waits is late, not gone, exactly the task-lifecycle bookkeeping
  datacenter schedulers do.
* **completions release on time.**  Admission at ``t`` schedules the
  release at ``t + duration``; job completion time is
  ``release − arrival``, so ``JCT ≥ duration`` always, with equality iff
  the task never waited.
* **the fleet is sampled while it runs.**  At a fixed cadence the
  per-host telemetry rollups are read into a host-utilization
  distribution, so a policy that packs hot spots shows up even when its
  rejection rate looks fine.

The :class:`ReplayReport` serializes canonically (sorted keys, versioned
tag, the trace's content digest embedded) — two reports are the same
outcome iff their JSON strings are equal, which is how the determinism
suite asserts event == lockstep bit-for-bit.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ...core.intents import PerformanceTarget, pipe
from ...errors import FleetError, WorkloadError
from ...stats import percentile
from ...topology.elements import DeviceType
from .schema import SCHEMA_VERSION, ClusterTask, ClusterTrace

#: Version tag embedded in every serialized replay report.
#: v2 added the failure-run counters (``retries_exhausted``,
#: ``sessions_shed``), the ``availability`` figure, and the ``faults``
#: block — so failure runs are distinguishable from clean rejections.
REPORT_VERSION = "repro.cluster-replay/v2"

_ARRIVE, _RETRY, _COMPLETE, _SAMPLE = 0, 1, 2, 3


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs for one replay run (policy-independent: every policy being
    compared must see the same retry and SLO discipline).

    Attributes:
        slo_stretch: A task attains its SLO iff
            ``JCT <= slo_stretch * duration``.  Final rejections never
            attain.
        retry: Whether rejected tasks re-queue at all; ``False`` makes
            every first rejection final (the churn workload's model).
        retry_backoff_fraction: First backoff as a fraction of the
            task's own duration — scale-free, so the same config works
            for second-long synthetic tasks and hour-long real ones.
        retry_backoff_growth: Exponential backoff multiplier per
            successive rejection.
        max_wait_fraction: A task abandons (final rejection) once its
            next retry would start later than
            ``arrival + max_wait_fraction * duration``.
        samples: Host-utilization sampling points spread evenly over the
            trace horizon (0 disables sampling).
    """

    slo_stretch: float = 1.5
    retry: bool = True
    retry_backoff_fraction: float = 0.05
    retry_backoff_growth: float = 2.0
    max_wait_fraction: float = 1.0
    samples: int = 32

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not self.slo_stretch >= 1.0:
            raise WorkloadError(
                f"slo_stretch must be >= 1, got {self.slo_stretch}"
            )
        if not self.retry_backoff_fraction > 0:
            raise WorkloadError(
                f"retry_backoff_fraction must be > 0, got "
                f"{self.retry_backoff_fraction}"
            )
        if not self.retry_backoff_growth >= 1.0:
            raise WorkloadError(
                f"retry_backoff_growth must be >= 1, got "
                f"{self.retry_backoff_growth}"
            )
        if not 0 <= self.max_wait_fraction < math.inf:
            raise WorkloadError(
                f"max_wait_fraction must be finite and >= 0, got "
                f"{self.max_wait_fraction}"
            )
        if self.samples < 0:
            raise WorkloadError(
                f"samples must be >= 0, got {self.samples}"
            )


def _stable_hash(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def task_intent(task: ClusterTask, sources: Sequence[str],
                sinks: Sequence[str]) -> PerformanceTarget:
    """The pipe intent one task replays as.

    Endpoints are a pure function of the task id (CRC32, not Python's
    randomized ``hash``), so the same trace maps to the same endpoint
    mix on every run and under every policy.
    """
    h = _stable_hash(task.task_id)
    return pipe(
        task.task_id,
        task.tenant_id,
        src=sources[h % len(sources)],
        dst=sinks[(h >> 8) % len(sinks)],
        bandwidth=task.bandwidth,
        bidirectional=task.bidirectional,
    )


def _summary(values: List[float]) -> Dict[str, float]:
    """p50/p90/p99/mean/max of *values* (zeros when empty)."""
    if not values:
        return {"mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
                "max": 0.0}
    return {
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "max": max(values),
    }


@dataclass
class ReplayReport:
    """Outcome of replaying one trace under one policy on one fleet.

    Counters accumulate during the run; the derived figures (rates,
    percentile summaries) are computed at read time so the report object
    can be inspected mid-run by tests.

    Attributes:
        trace_name / trace_digest: Which load this was (the digest is
            SHA-256 over the trace's canonical JSON, so "byte-identical
            load" is checkable from two reports alone).
        policy / hosts / clock / max_attempts: The fleet configuration.
        config: The replay discipline used.
        submitted: Distinct tasks that arrived.
        admitted: Tasks eventually placed.
        rejected: Tasks whose waiting budget expired (final rejections).
        first_attempt_rejections: Arrivals bounced on first try (whether
            or not a retry later landed them).
        retries: Re-submission attempts performed.
        retries_exhausted: Final rejections that had retried at least
            once — the tasks whose waiting budget (not the fleet's first
            answer) killed them.  Distinguishes "the fleet was briefly
            full" from "the fleet said no immediately".
        sessions_shed: Admitted tasks lost mid-run because evacuation
            off a failed host exhausted its retries (only nonzero when a
            fault schedule is armed).
        released: Placements released on task completion.
        jcts: Per-admitted-task job completion times (release − arrival).
        waits: Per-admitted-task queueing delay (JCT − duration).
        slo_attained: Admitted tasks with ``JCT <= stretch * duration``.
        utilization_samples: Per-host ``reserved_peak`` fractions read at
            each sampling point.
        per_host_admitted: Admissions per host id (final landing host).
        host_events: Host engine events processed during the replay.
        trace_events: Replay-queue events processed (arrivals, retries,
            completions, samples).
        fault_summary: Fault-campaign counters (schedule size, injector
            and recovery counters) when a fault schedule was armed;
            ``None`` on clean runs.
    """

    trace_name: str
    trace_digest: str
    policy: str
    hosts: int
    clock: str
    max_attempts: Optional[int]
    config: ReplayConfig
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    first_attempt_rejections: int = 0
    retries: int = 0
    retries_exhausted: int = 0
    sessions_shed: int = 0
    released: int = 0
    jcts: List[float] = field(default_factory=list)
    waits: List[float] = field(default_factory=list)
    slo_attained: int = 0
    utilization_samples: List[float] = field(default_factory=list)
    per_host_admitted: Dict[str, int] = field(default_factory=dict)
    host_events: int = 0
    trace_events: int = 0
    fault_summary: Optional[Dict[str, object]] = None

    @property
    def rejection_rate(self) -> float:
        """Final rejections over submitted tasks."""
        return self.rejected / self.submitted if self.submitted else 0.0

    @property
    def availability(self) -> float:
        """Admitted sessions that were *not* lost to host failures.

        1.0 on clean runs; under a fault schedule this is the
        session-survival figure per policy (an admitted-then-shed task
        counts against it, a never-admitted one does not — that is what
        :attr:`rejection_rate` measures).
        """
        if not self.admitted:
            return 1.0
        return 1.0 - self.sessions_shed / self.admitted

    @property
    def slo_attainment(self) -> float:
        """Tasks meeting their SLO over *all* submitted tasks (a final
        rejection is an SLO miss, not a statistical no-show)."""
        return (self.slo_attained / self.submitted
                if self.submitted else 0.0)

    def jct_summary(self) -> Dict[str, float]:
        """JCT percentile summary over admitted tasks."""
        return _summary(self.jcts)

    def wait_summary(self) -> Dict[str, float]:
        """Queueing-delay percentile summary over admitted tasks."""
        return _summary(self.waits)

    def utilization_summary(self) -> Dict[str, float]:
        """Distribution of per-host peak reserved-link fractions."""
        return _summary(self.utilization_samples)

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable form (what :meth:`to_json` serializes)."""
        return {
            "schema": REPORT_VERSION,
            "trace": {
                "schema": SCHEMA_VERSION,
                "name": self.trace_name,
                "digest": self.trace_digest,
            },
            "fleet": {
                "policy": self.policy,
                "hosts": self.hosts,
                "clock": self.clock,
                "max_attempts": self.max_attempts,
            },
            "replay": {
                "slo_stretch": self.config.slo_stretch,
                "retry": self.config.retry,
                "retry_backoff_fraction":
                    self.config.retry_backoff_fraction,
                "retry_backoff_growth": self.config.retry_backoff_growth,
                "max_wait_fraction": self.config.max_wait_fraction,
                "samples": self.config.samples,
            },
            "counts": {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "first_attempt_rejections": self.first_attempt_rejections,
                "retries": self.retries,
                "retries_exhausted": self.retries_exhausted,
                "sessions_shed": self.sessions_shed,
                "released": self.released,
                "host_events": self.host_events,
                "trace_events": self.trace_events,
            },
            "rejection_rate": self.rejection_rate,
            "availability": self.availability,
            "faults": self.fault_summary,
            "jct": self.jct_summary(),
            "wait": self.wait_summary(),
            "slo": {
                "stretch": self.config.slo_stretch,
                "attained": self.slo_attained,
                "attainment": self.slo_attainment,
            },
            "utilization": self.utilization_summary(),
            "per_host_admitted": dict(sorted(
                self.per_host_admitted.items())),
        }

    def to_json(self) -> str:
        """Canonical JSON of :meth:`as_dict` (includes run metadata)."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def outcome_dict(self) -> Dict[str, object]:
        """The report minus run metadata: everything that must be
        *bit-identical* across clock disciplines.

        Only the clock's name is metadata — every count, percentile, and
        utilization sample is part of the event-clock-equals-lockstep
        contract (``host_events`` included: both disciplines execute
        exactly the events that are due, they differ only in who gets
        woken when nothing is).
        """
        d = self.as_dict()
        d["fleet"] = {k: v for k, v in d["fleet"].items()
                      if k != "clock"}
        return d

    def outcome_json(self) -> str:
        """Canonical JSON of :meth:`outcome_dict` — two replays are the
        same outcome iff these strings are equal (the cross-clock
        determinism suite compares them verbatim)."""
        return json.dumps(self.outcome_dict(), sort_keys=True,
                          separators=(",", ":"))

    def describe(self) -> str:
        """Human-readable run summary."""
        jct = self.jct_summary()
        util = self.utilization_summary()
        util95 = (percentile(self.utilization_samples, 95)
                  if self.utilization_samples else 0.0)
        lines = [
            f"replay {self.trace_name!r} on {self.hosts} hosts "
            f"(policy={self.policy}, clock={self.clock}): "
            f"{self.submitted} tasks, {self.admitted} admitted, "
            f"{self.rejected} rejected ({self.rejection_rate:.1%}), "
            f"{self.retries} retries",
            f"  JCT p50/p99: {jct['p50']:.4f}s / {jct['p99']:.4f}s "
            f"(mean {jct['mean']:.4f}s)",
            f"  SLO (<= {self.config.slo_stretch:g}x duration): "
            f"{self.slo_attainment:.1%} attained",
            f"  host reserved-peak p50/p95/max: "
            f"{util['p50']:.2f} / {util95:.2f} / {util['max']:.2f} "
            f"over {len(self.utilization_samples)} samples",
        ]
        if self.fault_summary is not None:
            injector = self.fault_summary.get("injector", {})
            recovery = self.fault_summary.get("recovery", {})
            lines.append(
                f"  faults: {injector.get('crashes', 0)} crashes, "
                f"{injector.get('degrades', 0)} degrades, "
                f"{injector.get('partitions', 0)} partitions; "
                f"{recovery.get('evacuated', 0)} evacuated, "
                f"{self.sessions_shed} shed -> "
                f"availability {self.availability:.2%}"
            )
        return "\n".join(lines)


def replay_trace(fleet, trace: ClusterTrace,
                 config: Optional[ReplayConfig] = None,
                 faults=None, recovery=None) -> ReplayReport:
    """Drive *fleet* through *trace*; return the scored report.

    The fleet advances to each event time under its own clock discipline
    (event-driven by default; lockstep produces the bit-identical
    report).  The replay queue is a heap, because retries are scheduled
    dynamically — but every entry is a pure function of the trace and
    the config, so the processing order is deterministic.

    Args:
        fleet: The fleet to drive.
        trace: The normalized trace to replay.
        config: Retry/SLO/sampling discipline.
        faults: Optional
            :class:`~repro.fleet.faults.FleetFaultSchedule`: hosts
            crash, degrade, and partition on that schedule while the
            trace replays, a
            :class:`~repro.fleet.recovery.FleetRecoveryController`
            evacuates (attached automatically unless *recovery* is
            given), and the report gains failure accounting
            (``sessions_shed``, ``availability``, the ``faults`` block).
            A shed task loses its SLO credit — it did not finish.
        recovery: Recovery controller override (knobs pre-tuned to the
            trace's timescale); only meaningful with *faults*.
    """
    config = config or ReplayConfig()
    injector = None
    if faults is not None:
        from ...fleet.faults import FleetFaultInjector
        from ...fleet.recovery import (
            FleetRecoveryConfig,
            FleetRecoveryController,
        )

        if recovery is None:
            recovery = FleetRecoveryController(
                fleet,
                FleetRecoveryConfig.for_horizon(max(trace.horizon, 1e-9)),
            )
        injector = FleetFaultInjector(fleet, faults, recovery=recovery)
    reference = fleet.reference_topology
    sources = sorted(
        d.device_id for t in (DeviceType.NIC, DeviceType.GPU)
        for d in reference.devices(t)
    )
    sinks = sorted(d.device_id for d in reference.devices(DeviceType.DIMM))
    if not sources or not sinks:
        raise FleetError(
            f"reference topology {reference.name!r} lacks NIC/GPU "
            f"sources or DIMM sinks for trace replay"
        )

    report = ReplayReport(
        trace_name=trace.name,
        trace_digest=hashlib.sha256(
            trace.to_json().encode("utf-8")).hexdigest(),
        policy=fleet.scheduler.policy.name,
        hosts=len(fleet),
        clock=fleet.clock.name,
        max_attempts=fleet.scheduler.max_attempts,
        config=config,
    )

    # (time, seq, kind, payload): seq breaks time ties deterministically
    # and in insertion order, mirroring the churn generator's sort key.
    queue: List[Tuple[float, int, int, object]] = []
    seq = 0
    for task in trace:
        heapq.heappush(queue, (task.arrival, seq, _ARRIVE, task))
        seq += 1
    horizon = trace.horizon
    if config.samples and horizon > 0:
        step = horizon / config.samples
        for i in range(1, config.samples + 1):
            heapq.heappush(queue, (i * step, seq, _SAMPLE, None))
            seq += 1

    # An admitted task's SLO is credited at admission (its completion
    # time is then fixed); if a host failure later sheds the session,
    # the credit is taken back here — a shed task did not finish.
    attained_ids: set = set()
    if injector is not None:
        def on_shed(intent) -> None:
            report.sessions_shed += 1
            if intent.intent_id in attained_ids:
                attained_ids.discard(intent.intent_id)
                report.slo_attained -= 1

        recovery.on_shed(on_shed)

    advance = injector.advance_to if injector is not None \
        else fleet.advance_to

    def attempt(task: ClusterTask, now: float, attempt_no: int) -> None:
        nonlocal seq
        placed = fleet.try_submit(task_intent(task, sources, sinks))
        if placed is not None:
            report.admitted += 1
            report.per_host_admitted[placed.host_id] = (
                report.per_host_admitted.get(placed.host_id, 0) + 1)
            completion = now + task.duration
            heapq.heappush(queue, (completion, seq, _COMPLETE, task))
            seq += 1
            jct = completion - task.arrival
            report.jcts.append(jct)
            report.waits.append(now - task.arrival)
            if jct <= config.slo_stretch * task.duration + 1e-12:
                report.slo_attained += 1
                attained_ids.add(task.task_id)
            return
        if attempt_no == 0:
            report.first_attempt_rejections += 1
        backoff = (task.duration * config.retry_backoff_fraction
                   * config.retry_backoff_growth ** attempt_no)
        next_try = now + backoff
        deadline = task.arrival + config.max_wait_fraction * task.duration
        if not config.retry or next_try > deadline:
            report.rejected += 1
            if attempt_no > 0:
                report.retries_exhausted += 1
            return
        heapq.heappush(queue, (next_try, seq, _RETRY,
                               (task, attempt_no + 1)))
        seq += 1

    while queue:
        time, _seq, kind, payload = heapq.heappop(queue)
        report.host_events += advance(time)
        report.trace_events += 1
        if kind == _ARRIVE:
            report.submitted += 1
            attempt(payload, time, 0)
        elif kind == _RETRY:
            task, attempt_no = payload
            report.retries += 1
            attempt(task, time, attempt_no)
        elif kind == _COMPLETE:
            task = payload
            if fleet.scheduler.has_intent(task.task_id):
                fleet.release(task.task_id)
                report.released += 1
            elif (injector is not None
                    and recovery.cancel(task.task_id)):
                pass  # done mid-evacuation: stop retrying it
        else:  # _SAMPLE
            for summary in fleet.telemetry.headrooms():
                report.utilization_samples.append(summary.reserved_peak)
    if injector is not None:
        # Run past the last repair so every fault heals and every retry
        # resolves; the counters below are then final.
        end = max(trace.horizon, faults.end_time)
        if end > fleet.now:
            report.host_events += injector.advance_to(end)
        report.fault_summary = {
            "schedule_seed": faults.seed,
            "schedule_events": len(faults),
            "injector": injector.counters(),
            "recovery": recovery.counters(),
        }
    return report


@dataclass
class PolicyComparison:
    """Per-policy replay reports over byte-identical load.

    Attributes:
        trace_name / trace_digest: The shared load (every report's
            digest is asserted equal at construction).
        reports: Policy name → its :class:`ReplayReport`, insertion
            order preserved.
    """

    trace_name: str
    trace_digest: str
    reports: Dict[str, ReplayReport]

    def __post_init__(self) -> None:
        for name, report in self.reports.items():
            if report.trace_digest != self.trace_digest:
                raise WorkloadError(
                    f"policy {name!r} was scored on a different trace "
                    f"({report.trace_digest[:12]} != "
                    f"{self.trace_digest[:12]}); comparisons must share "
                    f"byte-identical load"
                )

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable comparison (one report dict per policy)."""
        return {
            "schema": REPORT_VERSION,
            "trace": {"name": self.trace_name,
                      "digest": self.trace_digest},
            "policies": {name: report.as_dict()
                         for name, report in self.reports.items()},
        }

    def to_json(self) -> str:
        """Canonical JSON form of :meth:`as_dict`."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def describe(self) -> str:
        """The comparison table: one row per policy (an availability
        column appears when a fault schedule was armed)."""
        faulted = any(r.fault_summary is not None
                      for r in self.reports.values())
        header = (f"{'policy':<12} {'reject':>8} {'JCT p50':>10} "
                  f"{'JCT p99':>10} {'SLO':>8} {'util p95':>9}")
        if faulted:
            header += f" {'shed':>6} {'avail':>8}"
        lines = [f"policy comparison on {self.trace_name!r} "
                 f"(trace digest {self.trace_digest[:12]}):", header,
                 "-" * len(header)]
        for name, report in self.reports.items():
            jct = report.jct_summary()
            util95 = (percentile(report.utilization_samples, 95)
                      if report.utilization_samples else 0.0)
            row = (
                f"{name:<12} {report.rejection_rate:>7.1%} "
                f"{jct['p50']:>9.4f}s {jct['p99']:>9.4f}s "
                f"{report.slo_attainment:>7.1%} {util95:>9.2f}"
            )
            if faulted:
                row += (f" {report.sessions_shed:>6} "
                        f"{report.availability:>7.1%}")
            lines.append(row)
        return "\n".join(lines)


def compare_policies(
    trace: ClusterTrace,
    policies: Sequence[str] = ("first-fit", "best-fit", "spread"),
    *,
    topology: Union[str, object] = "cascade_lake_2s",
    hosts: int = 16,
    clock: str = "event",
    max_attempts: Optional[int] = 8,
    config: Optional[ReplayConfig] = None,
    faults=None,
    **fleet_kwargs,
) -> PolicyComparison:
    """Replay *trace* once per policy on fresh, identical fleets.

    Every policy sees byte-identical load (same trace object), the same
    replay discipline, and a fleet built from the same arguments — the
    only degree of freedom is the ranking function, so the table is a
    pure policy comparison.  With *faults* (a
    :class:`~repro.fleet.faults.FleetFaultSchedule`) every policy also
    endures the identical storm, so the table becomes an
    SLO-under-failure / availability comparison.
    """
    from ...fleet import Fleet

    config = config or ReplayConfig()
    reports: Dict[str, ReplayReport] = {}
    for policy in policies:
        fleet = Fleet(topology, hosts=hosts, policy=policy, clock=clock,
                      max_attempts=max_attempts, **fleet_kwargs)
        try:
            report = replay_trace(fleet, trace, config, faults=faults)
        finally:
            fleet.shutdown()
        reports[report.policy] = report
    digest = next(iter(reports.values())).trace_digest if reports else ""
    return PolicyComparison(trace_name=trace.name, trace_digest=digest,
                            reports=reports)
