"""Seeded chaos campaigns: randomized fault storms with an oracle.

A campaign builds a resilient :class:`~repro.host.Host`, admits a base
workload (one persistent flow per placement), then injects a seeded,
randomized sequence of failures — every :class:`FailureKind`, overlapping
in time, each with a scheduled repair — and audits the system after every
event has had ``settle_rounds`` recovery ticks to react:

* the :mod:`~repro.resilience.invariants` suite must stay clean
  (no traffic over down links, no stranded placements, conservation,
  floor protection, ledger consistency);
* after the last repair, the fabric must return *bit-exact* to its
  pre-fault baseline and every degradation record must be restored.

Everything is driven by one ``random.Random(seed)`` plus the simulation
engine's deterministic event order, so a campaign is exactly reproducible:
same seed, same report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.intents import pipe
from ..errors import ResilienceError
from ..host import Host
from ..monitor.failures import FailureInjector, FailureKind
from ..topology.graph import HostTopology
from ..topology.presets import cascade_lake_2s
from ..topology.routing import k_shortest_paths
from .controller import RecoveryConfig, check_count, check_duration
from .invariants import (
    InvariantViolation,
    check_invariants,
    diff_snapshots,
    snapshot_fabric,
)


@dataclass(frozen=True)
class ChaosConfig:
    """One campaign's shape.

    Attributes:
        seed: Master seed; fully determines the fault storm.
        faults: How many failures to inject.
        warmup: Seconds of healthy running before the first fault (the
            baseline snapshot is taken at the end of warmup).
        fault_spacing: Mean gap between consecutive injections (seconds);
            the actual gaps are uniform in ``[0.5, 1.5] *`` this, small
            enough that failures overlap with the repair delays below.
        repair_delay: ``(min, max)`` seconds each fault stays active.
        settle_rounds: Recovery ticks allowed between an event and its
            invariant audit (the paper-level SLO: affected intents must
            be re-placed or explicitly degraded within this many rounds).
        workload_intents: Base workload size (pipe intents + flows).
        bandwidth_fraction: Each intent asks for this fraction of its
            shortest path's bottleneck capacity.
        flap_period: Half-period of injected link flaps; kept well under
            the recovery config's ``flap_window`` so quarantine engages.
        recovery: Recovery controller tuning for the campaign host.
    """

    seed: int = 0
    faults: int = 20
    warmup: float = 0.02
    fault_spacing: float = 0.01
    repair_delay: tuple = (0.015, 0.04)
    settle_rounds: int = 5
    workload_intents: int = 6
    bandwidth_fraction: float = 0.2
    flap_period: float = 0.004
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)

    def __post_init__(self) -> None:
        for name in ("warmup", "fault_spacing", "flap_period"):
            check_duration(name, getattr(self, name))
        for name in ("faults", "settle_rounds", "workload_intents"):
            check_count(name, getattr(self, name))
        try:
            low, high = self.repair_delay
        except (TypeError, ValueError):
            raise ResilienceError(f"repair_delay must be a (min, max) pair, "
                                  f"got {self.repair_delay!r}") from None
        check_duration("repair_delay min", low)
        check_duration("repair_delay max", high)
        if low > high:
            raise ResilienceError(f"repair_delay min must be <= max, "
                                  f"got {self.repair_delay!r}")
        if not 0 < self.bandwidth_fraction <= 1:
            raise ResilienceError(f"bandwidth_fraction must be in (0, 1], "
                                  f"got {self.bandwidth_fraction}")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled campaign event (for the report/debugging)."""

    time: float
    kind: str  # "inject" | "repair"
    failure_kind: str
    target: str


@dataclass
class ChaosReport:
    """Everything a campaign observed.

    ``passed`` is the oracle verdict: no invariant violations at any
    checkpoint, a bit-exact fabric restore, and no degradation left
    active after the last repair.
    """

    seed: int
    faults: int
    duration: float = 0.0
    events: List[ChaosEvent] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)
    restore_diffs: List[str] = field(default_factory=list)
    unrestored_degradations: List[str] = field(default_factory=list)
    checks: int = 0
    replacements: int = 0
    degradations: int = 0
    restores: int = 0
    quarantines: int = 0
    parked_peak: int = 0
    shed: int = 0
    admitted_after_retry: int = 0

    @property
    def passed(self) -> bool:
        """Whether the campaign met every acceptance condition."""
        return (not self.violations and not self.restore_diffs
                and not self.unrestored_degradations)

    def describe(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            f"chaos campaign seed={self.seed}: "
            f"{'PASSED' if self.passed else 'FAILED'}",
            f"  {self.faults} faults over {self.duration:.3f}s simulated, "
            f"{self.checks} invariant audits",
            f"  recovery: {self.replacements} re-placements, "
            f"{self.degradations} degradations, {self.restores} restores, "
            f"{self.quarantines} quarantines",
            f"  admission: peak {self.parked_peak} parked, "
            f"{self.admitted_after_retry} admitted after retry, "
            f"{self.shed} shed",
        ]
        for violation in self.violations[:20]:
            lines.append(f"  VIOLATION {violation}")
        for diff in self.restore_diffs[:20]:
            lines.append(f"  RESTORE DRIFT {diff}")
        for record in self.unrestored_degradations[:20]:
            lines.append(f"  UNRESTORED {record}")
        return "\n".join(lines)


def _fault_plan(config: ChaosConfig, topology: HostTopology,
                rng: random.Random) -> List[tuple]:
    """The seeded storm: ``(time, kind, target, clear_after)`` tuples.

    The first four faults cycle through every :class:`FailureKind` so
    even tiny campaigns exercise all injection paths; the rest draw
    uniformly.
    """
    links = sorted(link.link_id for link in topology.links())
    switches = sorted(
        device.device_id for device in topology.devices()
        if device.is_fabric and topology.incident_links(device.device_id)
    )
    kinds = list(FailureKind)
    plan: List[tuple] = []
    t = config.warmup
    for i in range(config.faults):
        t += rng.uniform(0.5, 1.5) * config.fault_spacing
        kind = kinds[i] if i < len(kinds) else rng.choice(kinds)
        if kind is FailureKind.SWITCH_DEGRADE and switches:
            target = rng.choice(switches)
        else:
            if kind is FailureKind.SWITCH_DEGRADE:
                kind = FailureKind.LINK_DEGRADE
            target = rng.choice(links)
        clear_after = rng.uniform(*config.repair_delay)
        if kind is FailureKind.LINK_FLAP:
            # Keep the flap alive long enough to cross the quarantine
            # threshold, whatever repair_delay says.
            clear_after = max(
                clear_after,
                (config.recovery.flap_threshold + 1) * config.flap_period,
            )
        plan.append((t, kind, target, clear_after))
    return plan


def _inject(injector: FailureInjector, kind: FailureKind, target: str,
            rng: random.Random, config: ChaosConfig):
    if kind is FailureKind.LINK_DEGRADE:
        return injector.degrade_link(
            target, capacity_factor=rng.uniform(0.1, 0.6)
        )
    if kind is FailureKind.LINK_DOWN:
        return injector.fail_link(target)
    if kind is FailureKind.LINK_FLAP:
        return injector.flap_link(target, period=config.flap_period)
    return injector.degrade_switch(
        target, capacity_factor=rng.uniform(0.1, 0.6)
    )


def _build_workload(host: Host, rng: random.Random,
                    config: ChaosConfig) -> int:
    """Admit pipe intents between random endpoint pairs; flow per intent."""
    endpoints = [d.device_id for d in host.topology.endpoints()]
    placed = 0
    for i in range(config.workload_intents):
        src, dst = rng.sample(endpoints, 2)
        paths = k_shortest_paths(host.topology, src, dst, k=1)
        bandwidth = config.bandwidth_fraction * paths[0].bottleneck_capacity
        intent = pipe(f"chaos-i{i}", f"tenant{i % 3}", src=src, dst=dst,
                      bandwidth=bandwidth)
        placement = host.submit_with_retry(intent)
        if placement is None:
            continue
        placed += 1
        flow = host.network.start_transfer(
            intent.tenant_id, placement.candidate.paths[0],
            demand=bandwidth, flow_id=f"chaos-f{i}",
        )
        host.recovery.bind_flow(intent.intent_id, flow.flow_id)
    return placed


def run_campaign(
    topology: Optional[HostTopology] = None,
    config: Optional[ChaosConfig] = None,
) -> ChaosReport:
    """Run one seeded chaos campaign; returns the full report.

    Deterministic: two calls with the same topology factory output and
    config produce identical reports (event times, violations, counters).
    """
    config = config or ChaosConfig()
    topology = topology or cascade_lake_2s()
    rng = random.Random(config.seed)
    settle = config.settle_rounds * config.recovery.tick_period

    host = Host(topology, resilience=config.recovery,
                coalesce_recompute=True)
    report = ChaosReport(seed=config.seed, faults=config.faults)
    try:
        _build_workload(host, rng, config)
        host.run_until(config.warmup)
        if host.monitor is not None:
            host.monitor.record_baseline()
        baseline = snapshot_fabric(host.network)

        injector = FailureInjector(host.network)
        plan = _fault_plan(config, host.topology, rng)
        checkpoints: List[float] = []
        for at, kind, target, clear_after in plan:
            injector.schedule(
                lambda inj, k=kind, tg=target: _inject(inj, k, tg, rng,
                                                       config),
                at=at, clear_after=clear_after,
            )
            report.events.append(ChaosEvent(
                time=at, kind="inject", failure_kind=kind.value,
                target=target,
            ))
            report.events.append(ChaosEvent(
                time=at + clear_after, kind="repair",
                failure_kind=kind.value, target=target,
            ))
            checkpoints.extend([at, at + clear_after])

        def audit() -> None:
            report.checks += 1
            report.violations.extend(check_invariants(
                host.network, manager=host.manager,
                controller=host.recovery,
            ))

        for t in sorted(checkpoints):
            target_time = t + settle
            if target_time > host.now:
                host.run_until(target_time)
            audit()
            report.parked_peak = max(report.parked_peak,
                                     len(host.retry or ()))

        # Cool-down: let flaps finish clearing, quarantines expire, and
        # every degradation restore; then take the final readings.
        cooldown = (host.now + config.recovery.quarantine_holddown
                    + config.recovery.flap_window + 2 * settle)
        host.run_until(cooldown)
        audit()

        still_active = injector.failures(active_only=True)
        for failure in still_active:
            injector.clear(failure)
        if still_active:
            host.run_until(host.now + 2 * settle)
            audit()

        report.restore_diffs = diff_snapshots(
            baseline, snapshot_fabric(host.network)
        )
        report.unrestored_degradations = [
            f"{d.intent_id} on {d.link_id} (factor {d.factor:.2f} "
            f"since {d.started_at:.6f}s)"
            for d in host.recovery.degradations(active_only=True)
        ]
        report.replacements = len(host.recovery.actions_of("replace"))
        report.degradations = len(host.recovery.actions_of("degrade"))
        report.restores = len(host.recovery.actions_of("restore"))
        report.quarantines = len(host.recovery.actions_of("quarantine"))
        if host.retry is not None:
            report.shed = len(host.retry.shed)
            report.admitted_after_retry = host.retry.admitted_after_retry
        report.duration = host.now
    finally:
        host.shutdown()
    return report
