"""Discrete-event simulation core: engine, flows, fair sharing, latency."""

from .bandwidth import Constraint, FlowDemand, max_min_fair_rates
from .clock import SimClock
from .engine import Engine, PeriodicTask
from .events import Event
from .flows import Flow, FlowState
from .latency import DEFAULT_LATENCY_MODEL, LatencyModel
from .network import SYSTEM_TENANT, FabricNetwork
from .rng import bounded_normal, exponential_interarrivals, make_rng
from .solver import IncrementalMaxMinSolver, SolverStats

__all__ = [
    "SimClock",
    "Event",
    "Engine",
    "PeriodicTask",
    "Flow",
    "FlowState",
    "FlowDemand",
    "Constraint",
    "max_min_fair_rates",
    "IncrementalMaxMinSolver",
    "SolverStats",
    "LatencyModel",
    "DEFAULT_LATENCY_MODEL",
    "FabricNetwork",
    "SYSTEM_TENANT",
    "make_rng",
    "exponential_interarrivals",
    "bounded_normal",
]
