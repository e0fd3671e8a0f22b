"""Exception hierarchy for the ``repro`` library.

All library-specific failures derive from :class:`HostNetError`, so callers
can catch one base class at the manager boundary.  Subclasses are grouped by
subsystem; each carries enough context in its message to be actionable
without a debugger.
"""

from __future__ import annotations


class HostNetError(Exception):
    """Base class for every error raised by the ``repro`` library."""


# --------------------------------------------------------------------------
# Topology errors.
# --------------------------------------------------------------------------


class TopologyError(HostNetError):
    """Base class for topology construction and query failures."""


class UnknownDeviceError(TopologyError):
    """A device id was referenced that does not exist in the topology."""

    def __init__(self, device_id: str) -> None:
        super().__init__(f"unknown device: {device_id!r}")
        self.device_id = device_id


class UnknownLinkError(TopologyError):
    """A link id was referenced that does not exist in the topology."""

    def __init__(self, link_id: str) -> None:
        super().__init__(f"unknown link: {link_id!r}")
        self.link_id = link_id


class DuplicateElementError(TopologyError):
    """A device or link id was registered twice."""


class InvalidTopologyError(TopologyError):
    """The topology failed structural validation (see ``topology.validate``)."""


class NoPathError(TopologyError):
    """No usable path exists between the requested endpoints."""

    def __init__(self, src: str, dst: str, detail: str = "") -> None:
        message = f"no path from {src!r} to {dst!r}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.src = src
        self.dst = dst


# --------------------------------------------------------------------------
# Simulation errors.
# --------------------------------------------------------------------------


class SimulationError(HostNetError):
    """Base class for discrete-event engine failures."""


class ClockError(SimulationError):
    """An event was scheduled in the past or the clock moved backwards."""


class FlowError(SimulationError):
    """Illegal flow lifecycle transition (e.g. completing a finished flow)."""


# --------------------------------------------------------------------------
# Telemetry / monitoring errors.
# --------------------------------------------------------------------------


class TelemetryError(HostNetError):
    """Base class for telemetry collection failures."""


class UnknownMetricError(TelemetryError):
    """A metric name was queried that was never registered."""

    def __init__(self, metric: str) -> None:
        super().__init__(f"unknown metric: {metric!r}")
        self.metric = metric


class MonitorError(HostNetError):
    """Base class for monitoring/diagnostic subsystem failures."""


# --------------------------------------------------------------------------
# Resource-management errors.
# --------------------------------------------------------------------------


class ResourceError(HostNetError):
    """Base class for resource-management failures."""


class AdmissionError(ResourceError):
    """An intent could not be admitted under the active resource model."""

    def __init__(self, intent_id: str, reason: str) -> None:
        super().__init__(f"intent {intent_id!r} rejected: {reason}")
        self.intent_id = intent_id
        self.reason = reason


class InterpretationError(ResourceError):
    """A performance target could not be compiled into link requirements."""


class ScheduleError(ResourceError):
    """The scheduler could not place the requested demands."""


class ArbiterError(ResourceError):
    """Runtime arbitration failed (e.g. enforcing an unknown allocation)."""


class UnknownTenantError(ResourceError):
    """A tenant id was referenced that was never registered."""

    def __init__(self, tenant_id: str) -> None:
        super().__init__(f"unknown tenant: {tenant_id!r}")
        self.tenant_id = tenant_id


class WorkloadError(HostNetError):
    """Base class for workload/application configuration failures."""


class SloError(HostNetError):
    """Base class for latency-SLO subsystem misconfiguration."""


class ResilienceError(HostNetError):
    """Base class for recovery-controller and chaos-harness
    misconfiguration."""


# --------------------------------------------------------------------------
# Fleet (multi-host cluster) errors.
# --------------------------------------------------------------------------


class FleetError(HostNetError):
    """Base class for cluster-layer failures."""


class UnknownHostError(FleetError):
    """A host id was referenced that is not part of the fleet."""

    def __init__(self, host_id: str) -> None:
        super().__init__(f"unknown host: {host_id!r}")
        self.host_id = host_id


class MigrationError(FleetError):
    """A cross-host migration could not be completed.

    The migration machinery is all-or-nothing: when this is raised the
    intent is back on its source host exactly as it was.
    """

    def __init__(self, intent_id: str, reason: str) -> None:
        super().__init__(f"intent {intent_id!r} not migrated: {reason}")
        self.intent_id = intent_id
        self.reason = reason
