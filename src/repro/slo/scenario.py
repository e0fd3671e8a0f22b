"""The seeded latency-regression scenario: alert to migration, closed.

The acceptance demo for the SLO subsystem, and the CLI's ``fleet slo``
workload: a churn-driven fleet with latency probes armed suffers a
silent capacity degradation on one host (its links drop to a fraction
of nominal capacity — the serialization term of every probe on that
host inflates past the objective bound, *without* the fault model
marking the host unhealthy).  The fast-window burn-rate alert names the
offender, the fleet's alert sink live-migrates its sessions to hosts
with headroom, and SLO attainment recovers — the paper's §3.1 "observe
it, then manage it" loop at fleet scale.

Deterministic by construction: the churn stream, degrade instants, and
evaluation boundaries are identical for both fleet-clock disciplines,
so :meth:`LatencyRegressionReport.signature` is bit-identical across
them for a given seed (pinned in ``tests/test_slo.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import SloError
from ..units import us
from .monitor import SloSample
from .objective import SloAlert, SloObjective
from .probe import SloConfig


@dataclass(frozen=True)
class LatencyRegressionConfig:
    """Knobs for one seeded regression run.

    Attributes:
        seed: Master seed (drives the churn arrival stream).
        hosts: Fleet size.
        horizon: Simulated seconds.
        arrival_rate / mean_holding / tenants: Churn-stream shape (see
            :class:`~repro.fleet.workload.FleetChurnConfig`).
        bound / percentile / budget_period: The objective under test.
        probe_period / sample_stride / message_size: Probe knobs; the
            default 256 KiB probe makes a 20x capacity degradation a
            ~20x serialization inflation, far past the bound, while
            healthy paths stay well under it.
        degrade_at: When the target host's links silently degrade.
        degrade_factor: Remaining capacity fraction (0.05 = 20x loss).
        restore_at: Optional repair instant (``None`` = never).
        degrade_host: Target host id (default: the first host).
        max_moves: Migration budget per alert handed to
            :meth:`~repro.fleet.migration.MigrationPlanner.relieve_latency`.
    """

    seed: int = 0
    hosts: int = 4
    horizon: float = 0.12
    arrival_rate: float = 2000.0
    mean_holding: float = 0.05
    tenants: int = 8
    bound: float = us(200)
    percentile: float = 99.0
    budget_period: float = 14.4
    probe_period: float = 0.002
    sample_stride: int = 1
    message_size: float = float(1 << 18)
    degrade_at: float = 0.04
    degrade_factor: float = 0.05
    restore_at: Optional[float] = None
    degrade_host: Optional[str] = None
    max_moves: int = 4

    def __post_init__(self) -> None:
        # The churn stream never reaches a NaN or infinite horizon, nor
        # any horizon at a rate <= 0.
        for name in ("horizon", "arrival_rate", "mean_holding"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise SloError(f"{name} must be finite and > 0, got {value}")
        if self.tenants < 1:
            raise SloError(f"tenants must be >= 1, got {self.tenants}")
        # The fault injector's degrade accepts (0, 1].
        if not 0 < self.degrade_factor <= 1:
            raise SloError(f"degrade_factor must be in (0, 1], "
                           f"got {self.degrade_factor}")
        if self.max_moves < 0:
            raise SloError(f"max_moves must be >= 0, got {self.max_moves}")
        if not 0 <= self.degrade_at <= self.horizon:
            raise SloError(
                f"degrade_at={self.degrade_at} outside the horizon "
                f"[0, {self.horizon}]")
        if (self.restore_at is not None
                and not self.restore_at >= self.degrade_at):
            raise SloError(f"restore_at must not precede degrade_at, "
                           f"got {self.restore_at}")
        try:  # the probe and objective fields, checked where they are used
            self.slo_config()
        except ValueError as exc:
            raise SloError(str(exc)) from None

    def slo_config(self) -> SloConfig:
        """The probe sweep and objective this scenario arms."""
        objective = SloObjective(
            "fleet-p99", self.bound, percentile=self.percentile,
            period=self.budget_period)
        return SloConfig(
            objectives=(objective,), probe_period=self.probe_period,
            sample_stride=self.sample_stride,
            message_size=self.message_size, keep_samples=True)


@dataclass
class LatencyRegressionReport:
    """Outcome of one regression run.

    Attributes:
        config: The driving config.
        target_host: The host that was degraded.
        admitted / rejected / released: Churn counters.
        alerts: Every burn-rate alert, in firing order.
        slo_migrations: ``(time, intent_id, src, dst, ok)`` for every
            latency-driven migration attempt, in planner order.
        first_alert_time: When the first fast-window alert fired.
        first_migration_time: When the first successful latency-driven
            migration committed (the "mitigation latency" endpoint).
        attainment_before / during / after: Good-sample fraction over
            the healthy prefix, the regression window, and the
            post-mitigation tail (``None`` when a segment is empty).
        samples: Total probe samples folded fleet-wide.
        ledger_signatures: Per-host reservation signatures at the end.
        histogram_signature: The monitor's folded histogram state.
    """

    config: LatencyRegressionConfig
    target_host: str
    admitted: int = 0
    rejected: int = 0
    released: int = 0
    alerts: Tuple[SloAlert, ...] = ()
    slo_migrations: Tuple[Tuple[float, str, str, str, bool], ...] = ()
    first_alert_time: Optional[float] = None
    first_migration_time: Optional[float] = None
    attainment_before: Optional[float] = None
    attainment_during: Optional[float] = None
    attainment_after: Optional[float] = None
    samples: int = 0
    ledger_signatures: List[Tuple[str, tuple]] = field(default_factory=list)
    histogram_signature: tuple = ()

    def signature(self) -> tuple:
        """The bit-identical cross-clock equivalence key."""
        return (
            self.alerts,
            self.slo_migrations,
            tuple(self.ledger_signatures),
            self.histogram_signature,
            (self.admitted, self.rejected, self.released, self.samples),
        )

    def describe(self) -> str:
        """Operator-facing run summary."""

        def pct(x: Optional[float]) -> str:
            return "n/a" if x is None else f"{x:.2%}"

        committed = sum(1 for m in self.slo_migrations if m[4])
        lines = [
            f"latency regression on {self.target_host} "
            f"(seed={self.config.seed}, degrade x"
            f"{self.config.degrade_factor:g} at "
            f"{self.config.degrade_at:g}s): "
            f"{self.admitted} admitted, {self.rejected} rejected, "
            f"{self.samples} probe samples",
            f"  alerts: {len(self.alerts)} "
            f"(first at {self.first_alert_time:.6f}s)"
            if self.alerts else "  alerts: none",
            f"  slo migrations: {committed} committed / "
            f"{len(self.slo_migrations)} attempted"
            + (f" (first at {self.first_migration_time:.6f}s)"
               if self.first_migration_time is not None else ""),
            f"  attainment: before={pct(self.attainment_before)}  "
            f"during={pct(self.attainment_during)}  "
            f"after={pct(self.attainment_after)}",
        ]
        if self.first_alert_time is not None:
            detect = self.first_alert_time - self.config.degrade_at
            lines.append(f"  detection latency: {detect * 1e3:.1f}ms")
        if (self.first_alert_time is not None
                and self.first_migration_time is not None):
            react = self.first_migration_time - self.first_alert_time
            lines.append(f"  alert-to-migration: {react * 1e3:.1f}ms")
        return "\n".join(lines)


def run_latency_regression(
    config: Optional[LatencyRegressionConfig] = None,
    *,
    clock: str = "event",
) -> LatencyRegressionReport:
    """Run one seeded regression scenario and report the closed loop."""
    # Imported here: repro.slo is imported by repro.fleet.cluster at
    # module level, so the scenario (a fleet *client*) must not import
    # the fleet at this module's own import time.
    from ..fleet.cluster import Fleet
    from ..fleet.workload import FleetChurnConfig, generate_events

    config = config or LatencyRegressionConfig()
    slo = config.slo_config()
    objective = slo.objectives[0]
    fleet = Fleet(
        "cascade_lake_2s", hosts=config.hosts, policy="best-fit",
        clock=clock, slo=slo,
        slo_max_moves=config.max_moves)
    try:
        target = config.degrade_host or fleet.host_ids()[0]
        fleet.require_host(target)
        report = LatencyRegressionReport(config=config, target_host=target)

        controls: List[Tuple[float, str]] = [(config.degrade_at, "degrade")]
        if config.restore_at is not None:
            controls.append((min(config.restore_at, config.horizon),
                             "restore"))

        def apply_controls(up_to: float) -> None:
            while controls and controls[0][0] <= up_to:
                at, kind = controls.pop(0)
                fleet.advance_to(at)
                if kind == "degrade":
                    fleet.degrade_host_links(target, config.degrade_factor)
                else:
                    fleet.restore_host_links(target)

        churn = FleetChurnConfig(
            seed=config.seed, tenants=config.tenants,
            horizon=config.horizon, arrival_rate=config.arrival_rate,
            mean_holding=config.mean_holding)
        for time, _seq, kind, payload in generate_events(churn, fleet):
            apply_controls(time)
            fleet.advance_to(time)
            if kind == "arrive":
                if fleet.try_submit(payload) is not None:
                    report.admitted += 1
                else:
                    report.rejected += 1
            elif fleet.scheduler.has_intent(payload):
                fleet.release(payload)
                report.released += 1
        apply_controls(config.horizon)
        fleet.advance_to(config.horizon)

        monitor = fleet.slo
        assert monitor is not None
        report.alerts = tuple(monitor.alerts)
        report.slo_migrations = tuple(
            (r.time, r.intent_id, r.src, r.dst, r.ok)
            for r in fleet.planner.records if r.kind == "slo")
        report.first_alert_time = (
            report.alerts[0].time if report.alerts else None)
        committed = [m for m in report.slo_migrations if m[4]]
        report.first_migration_time = committed[0][0] if committed else None
        report.samples = len(monitor.samples)
        report.attainment_before, report.attainment_during, \
            report.attainment_after = _attainment_segments(
                monitor.samples, objective, config.degrade_at,
                report.first_migration_time)
        report.ledger_signatures = sorted(
            fleet.ledger_signatures().items())
        report.histogram_signature = monitor.signature()[1]
        return report
    finally:
        fleet.shutdown()


def _attainment_segments(
    samples: List[SloSample], objective: SloObjective,
    degrade_at: float, recovered_at: Optional[float],
) -> Tuple[Optional[float], Optional[float], Optional[float]]:
    """Good-sample fractions before / during / after the regression.

    "During" ends at the first committed latency-driven migration
    (mitigation start); without one, the regression never ends.
    """
    segments = [[0, 0], [0, 0], [0, 0]]
    for t, _host, _tenant, _path, value in samples:
        if t < degrade_at:
            index = 0
        elif recovered_at is None or t <= recovered_at:
            index = 1
        else:
            index = 2
        segments[index][objective.is_bad(value)] += 1
    out = []
    for good, bad in segments:
        total = good + bad
        out.append(good / total if total else None)
    return out[0], out[1], out[2]
