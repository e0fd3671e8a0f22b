"""Offline analysis: fairness indices, SLO compliance, capacity reports."""

from .capacity import (
    LinkCapacityRow,
    capacity_report,
    format_capacity_report,
    stranded_bandwidth,
)
from .fairness import (
    goodput_retention,
    isolation_scorecard,
    jain_index,
    slowdown,
    weighted_jain_index,
)
from .slo import (
    ObjectiveReport,
    evaluate_objective,
    violation_episodes,
    violation_time_fraction,
)

__all__ = [
    "jain_index",
    "weighted_jain_index",
    "slowdown",
    "goodput_retention",
    "isolation_scorecard",
    "ObjectiveReport",
    "evaluate_objective",
    "violation_episodes",
    "violation_time_fraction",
    "LinkCapacityRow",
    "capacity_report",
    "stranded_bandwidth",
    "format_capacity_report",
]
