"""``repro.fleet`` — the multi-host cluster layer.

Composes many :class:`~repro.host.Host` sessions into one schedulable
fleet: event-driven (or lockstep) clock coordination (:class:`Fleet`,
:class:`FleetClock`), push-invalidated per-host headroom rollups
(:class:`FleetTelemetry`), headroom-aware admission with pluggable
policies ranked over a vectorized matrix (:class:`ClusterScheduler`), and
atomic cross-host live migration (:class:`MigrationPlanner`).  On top of
that, a seeded fleet fault model — host crashes, capacity degradations,
domain partitions (:class:`FleetFaultInjector`, :class:`FleetHealth`) —
with self-healing evacuation (:class:`FleetRecoveryController`), a
fleet-wide invariant oracle (:func:`check_fleet_invariants`), and a
chaos-campaign harness (:func:`run_fleet_campaign`).  See DESIGN.md
§11–12 and §14.
"""

from .chaos import FleetChaosConfig, FleetChaosReport, run_fleet_campaign
from .clock import (
    FLEET_CLOCKS,
    EventDrivenFleetClock,
    FleetClock,
    LockstepFleetClock,
    make_clock,
)
from .cluster import Fleet
from .faults import (
    FleetFaultConfig,
    FleetFaultEvent,
    FleetFaultInjector,
    FleetFaultRecord,
    FleetFaultSchedule,
    FleetHealth,
    generate_fault_schedule,
)
from .invariants import check_fleet_invariants
from .migration import MigrationPlanner, MigrationRecord
from .recovery import (
    EvacuationRecord,
    FleetRecoveryConfig,
    FleetRecoveryController,
)
from .placement import (
    PLACEMENT_POLICIES,
    BestFitHeadroomPolicy,
    FirstFitPolicy,
    PlacementPolicy,
    PlacementRequest,
    SpreadByTenantPolicy,
    make_policy,
)
from .scheduler import ClusterScheduler, FleetPlacement
from .telemetry import (
    FleetTelemetry,
    HeadroomMatrix,
    HostHeadroom,
)
from .workload import (
    FleetChurnConfig,
    FleetChurnReport,
    generate_events,
    run_churn,
)

__all__ = [
    "Fleet",
    "FleetClock",
    "LockstepFleetClock",
    "EventDrivenFleetClock",
    "FLEET_CLOCKS",
    "make_clock",
    "FleetTelemetry",
    "HeadroomMatrix",
    "HostHeadroom",
    "ClusterScheduler",
    "FleetPlacement",
    "MigrationPlanner",
    "MigrationRecord",
    "PlacementPolicy",
    "PlacementRequest",
    "FirstFitPolicy",
    "BestFitHeadroomPolicy",
    "SpreadByTenantPolicy",
    "PLACEMENT_POLICIES",
    "make_policy",
    "FleetChurnConfig",
    "FleetChurnReport",
    "generate_events",
    "run_churn",
    "FleetHealth",
    "FleetFaultConfig",
    "FleetFaultEvent",
    "FleetFaultSchedule",
    "FleetFaultInjector",
    "FleetFaultRecord",
    "generate_fault_schedule",
    "FleetRecoveryConfig",
    "FleetRecoveryController",
    "EvacuationRecord",
    "check_fleet_invariants",
    "FleetChaosConfig",
    "FleetChaosReport",
    "run_fleet_campaign",
]
