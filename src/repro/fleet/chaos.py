"""Seeded fleet chaos campaigns: churn + faults + self-healing + oracle.

The fleet mirror of :mod:`repro.resilience.chaos`: one campaign builds a
fleet, drives the standard seeded churn workload through it while a
:class:`~repro.fleet.faults.FleetFaultInjector` crashes, degrades, and
partitions hosts on a schedule derived from the same seed, lets the
:class:`~repro.fleet.recovery.FleetRecoveryController` evacuate and
retry, and audits the fleet with
:func:`~repro.fleet.invariants.check_fleet_invariants` after every fault
action and at campaign end.

Everything is a pure function of the config: the workload, the fault
schedule, the evacuation decisions, the retry backoffs.
:attr:`FleetChaosReport.outcome_json` deliberately excludes the clock
discipline, so the equivalence property — same seed, bit-identical
outcomes on the event-driven and lockstep clocks — is one string
comparison (asserted across ≥20 seeds in ``tests/test_fleet_chaos.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import FleetError
from .cluster import Fleet
from .faults import (
    FleetFaultConfig,
    FleetFaultInjector,
    FleetFaultSchedule,
    generate_fault_schedule,
)
from .invariants import check_fleet_invariants
from .recovery import FleetRecoveryConfig, FleetRecoveryController
from .workload import (
    FleetChurnConfig,
    check_churn_rates,
    check_count,
    generate_events,
)


@dataclass(frozen=True)
class FleetChaosConfig:
    """Knobs for one seeded fleet chaos campaign.

    Attributes:
        seed: Master seed; workload and fault schedule both derive
            from it (through independent RNG streams).
        hosts: Fleet size.
        topology: Per-host topology preset.
        policy: Placement policy name.
        clock: Fleet clock discipline (``"event"`` or ``"lockstep"``).
        max_attempts: Per-intent host-probe bound.
        failure_domains: Failure domains to spread hosts over.
        horizon: Simulated seconds of churn.
        arrival_rate: Intent arrivals per simulated second.
        mean_holding: Mean intent lifetime (exponential).
        tenants: Tenant pool size.
        faults: Fault injections to schedule over the horizon.
        fault_config: Full :class:`FleetFaultConfig` override; when
            ``None`` one is derived from ``seed``/``faults``/``horizon``.
        recovery: Retry/backoff knobs for the recovery controller;
            when ``None``, scaled to the horizon.
        deep_audits: Run the per-host fabric oracle inside every
            per-fault audit (always run at campaign end).
    """

    seed: int = 0
    hosts: int = 8
    topology: str = "cascade_lake_2s"
    policy: str = "best-fit"
    clock: str = "event"
    max_attempts: Optional[int] = 4
    failure_domains: int = 4
    horizon: float = 0.3
    arrival_rate: float = 1500.0
    mean_holding: float = 0.08
    tenants: int = 12
    faults: int = 10
    fault_config: Optional[FleetFaultConfig] = None
    recovery: Optional[FleetRecoveryConfig] = None
    deep_audits: bool = True

    def __post_init__(self) -> None:
        if self.hosts < 2:
            raise FleetError(
                f"a chaos campaign needs >= 2 hosts (somewhere to "
                f"evacuate to), got {self.hosts}")
        check_churn_rates(self.horizon, self.arrival_rate,
                          self.mean_holding)
        check_count("failure_domains", self.failure_domains)
        check_count("tenants", self.tenants)
        check_count("faults", self.faults, minimum=0)
        if self.max_attempts is not None:
            check_count("max_attempts", self.max_attempts)


@dataclass
class FleetChaosReport:
    """Outcome of one campaign.

    Attributes:
        config: The driving config.
        submitted / admitted / rejected / released: Workload counters.
        fault_counters: The injector's counters (crashes, recoveries,
            degrades, restores, partitions, heals, skipped).
        recovery_counters: The recovery controller's counters
            (evacuated, requeued, retries, shed, ...).
        audits: Invariant audits run.
        violations: Every violation observed, stringified (empty = green).
        final_placements: Sorted ``(intent_id, host_id)`` pairs at end.
        host_events: Host engine events processed.
    """

    config: FleetChaosConfig
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    released: int = 0
    fault_counters: Dict[str, int] = field(default_factory=dict)
    recovery_counters: Dict[str, int] = field(default_factory=dict)
    audits: int = 0
    violations: List[str] = field(default_factory=list)
    final_placements: List[Tuple[str, str]] = field(default_factory=list)
    host_events: int = 0

    @property
    def passed(self) -> bool:
        """Whether the invariant oracle stayed green throughout."""
        return not self.violations

    @property
    def sessions_lost(self) -> int:
        """Sessions shed after exhausting evacuation retries."""
        return self.recovery_counters.get("shed", 0)

    def outcome_dict(self) -> Dict:
        """The campaign's clock-independent outcome.

        Excludes the clock discipline and host-event counts (lockstep
        legitimately processes more idle boundary work); everything else
        — every admission, evacuation, shed, and final placement — must
        be bit-identical for the same seed on both clocks.
        """
        return {
            "seed": self.config.seed,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "released": self.released,
            "faults": dict(sorted(self.fault_counters.items())),
            "recovery": dict(sorted(self.recovery_counters.items())),
            "violations": list(self.violations),
            "final_placements": [list(p) for p in self.final_placements],
        }

    @property
    def outcome_json(self) -> str:
        """Canonical JSON of :meth:`outcome_dict` (the equivalence key)."""
        return json.dumps(self.outcome_dict(), sort_keys=True,
                          separators=(",", ":"))

    def describe(self) -> str:
        """Human-readable campaign summary."""
        f = self.fault_counters
        r = self.recovery_counters
        lines = [
            f"fleet chaos (seed={self.config.seed}, "
            f"hosts={self.config.hosts}, clock={self.config.clock}): "
            f"{'PASS' if self.passed else 'FAIL'}",
            f"  workload: {self.submitted} submitted, "
            f"{self.admitted} admitted, {self.rejected} rejected, "
            f"{self.released} released",
            f"  faults: {f.get('crashes', 0)} crashes "
            f"({f.get('recoveries', 0)} recovered), "
            f"{f.get('degrades', 0)} degrades "
            f"({f.get('restores', 0)} restored), "
            f"{f.get('partitions', 0)} partitions, "
            f"{f.get('skipped', 0)} skipped",
            f"  recovery: {r.get('evacuated', 0)} evacuated, "
            f"{r.get('requeued', 0)} requeued "
            f"({r.get('retries', 0)} retries), "
            f"{r.get('shed', 0)} shed, "
            f"{r.get('cancelled', 0)} cancelled, "
            f"{r.get('healed_in_place', 0)} healed in place",
            f"  oracle: {self.audits} audits, "
            f"{len(self.violations)} violations",
        ]
        for v in self.violations[:8]:
            lines.append(f"    {v}")
        return "\n".join(lines)


def run_fleet_campaign(config: Optional[FleetChaosConfig] = None,
                       ) -> FleetChaosReport:
    """One seeded chaos campaign: churn under faults, oracle-audited.

    Builds the fleet, derives the fault schedule, and drives the seeded
    churn workload through the injector's time loop (so fault and retry
    interleavings are identical on both clock disciplines).  The
    invariant oracle runs after every fault action and once at the end;
    any violation fails the campaign but never aborts it — the report
    carries the full list.
    """
    config = config or FleetChaosConfig()
    report = FleetChaosReport(config=config)
    fleet = Fleet(
        config.topology,
        hosts=config.hosts,
        clock=config.clock,
        policy=config.policy,
        max_attempts=config.max_attempts,
        failure_domains=config.failure_domains,
    )
    try:
        recovery = FleetRecoveryController(
            fleet,
            config.recovery
            or FleetRecoveryConfig.for_horizon(config.horizon),
        )
        fault_config = config.fault_config or FleetFaultConfig(
            seed=config.seed, faults=config.faults,
            horizon=config.horizon,
        )
        schedule: FleetFaultSchedule = generate_fault_schedule(
            fault_config, fleet.health)
        injector = FleetFaultInjector(fleet, schedule, recovery=recovery)

        def audit(_record) -> None:
            report.audits += 1
            for v in check_fleet_invariants(fleet, recovery=recovery,
                                            deep=config.deep_audits):
                report.violations.append(str(v))

        injector.on_event(audit)

        churn = FleetChurnConfig(
            seed=config.seed,
            tenants=config.tenants,
            horizon=config.horizon,
            arrival_rate=config.arrival_rate,
            mean_holding=config.mean_holding,
            drain=True,
        )
        for time, _seq, kind, payload in generate_events(churn, fleet):
            report.host_events += injector.advance_to(time)
            if kind == "arrive":
                report.submitted += 1
                if fleet.try_submit(payload) is not None:
                    report.admitted += 1
                else:
                    report.rejected += 1
            else:
                intent_id: str = payload
                if fleet.scheduler.has_intent(intent_id):
                    fleet.release(intent_id)
                    report.released += 1
                else:
                    # Parked for re-placement when its lifetime ended:
                    # the session is done, stop retrying it.
                    recovery.cancel(intent_id)
        # Run out the clock past the last repair so every fault heals
        # and every retry resolves before the final audit.
        end = max(config.horizon, schedule.end_time) + fleet.clock_quantum
        report.host_events += injector.advance_to(end)

        report.audits += 1
        for v in check_fleet_invariants(fleet, recovery=recovery,
                                        deep=True):
            report.violations.append(str(v))

        report.fault_counters = injector.counters()
        report.recovery_counters = recovery.counters()
        report.final_placements = sorted(
            (p.intent_id, p.host_id) for p in fleet.placements()
        )
    finally:
        fleet.shutdown()
    return report
