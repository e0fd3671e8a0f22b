"""SLO compliance analysis over recorded latency samples and rate series.

This is the *offline* counterpart of the live :mod:`repro.slo` pipeline:
the same :class:`~repro.slo.objective.SloObjective` vocabulary (a
percentile bound with an error budget), scored in one pass over a
recorded sample list instead of streamed through probes and burn-rate
trackers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..slo.objective import SloObjective
from ..stats import percentile


@dataclass(frozen=True)
class ObjectiveReport:
    """Batch compliance of a latency sample set against one objective.

    Attributes:
        objective: The :class:`SloObjective` scored.
        samples: Number of samples evaluated.
        attainment: Good-sample fraction (samples within the bound) —
            the same statistic :meth:`FleetSloMonitor.attainment`
            tracks live.
        achieved: The objective's target percentile over the samples.
        worst: The worst observed sample.
    """

    objective: SloObjective
    samples: int
    attainment: float
    achieved: float
    worst: float

    @property
    def met(self) -> bool:
        """Whether the achieved percentile is within the bound (the
        standard criterion)."""
        return self.achieved <= self.objective.bound


def evaluate_objective(latencies: Sequence[float],
                       objective: SloObjective) -> ObjectiveReport:
    """Score recorded *latencies* against *objective*; raises on empty
    input."""
    if not latencies:
        raise ValueError("evaluate_objective of empty sample set")
    good = sum(1 for sample in latencies if not objective.is_bad(sample))
    return ObjectiveReport(
        objective=objective,
        samples=len(latencies),
        attainment=good / len(latencies),
        achieved=percentile(latencies, objective.percentile),
        worst=max(latencies),
    )


def violation_episodes(
    series: Sequence[Tuple[float, float]],
    floor: float,
    tolerance: float = 0.95,
) -> List[Tuple[float, float]]:
    """Contiguous time spans where a guaranteed rate dipped below floor.

    Args:
        series: (time, rate) samples, time-ordered.
        floor: The guaranteed rate.
        tolerance: A sample violates when ``rate < floor * tolerance``.

    Returns:
        ``(start, end)`` spans.  A violation at the last sample closes at
        that sample's time.
    """
    episodes: List[Tuple[float, float]] = []
    start = None
    last_time = None
    for t, rate in series:
        if last_time is not None and t < last_time:
            raise ValueError("series must be time-ordered")
        last_time = t
        violating = rate < floor * tolerance
        if violating and start is None:
            start = t
        elif not violating and start is not None:
            episodes.append((start, t))
            start = None
    if start is not None and last_time is not None:
        episodes.append((start, last_time))
    return episodes


def violation_time_fraction(
    series: Sequence[Tuple[float, float]],
    floor: float,
    tolerance: float = 0.95,
) -> float:
    """Fraction of the observed span spent in violation."""
    if len(series) < 2:
        return 0.0
    span = series[-1][0] - series[0][0]
    if span <= 0:
        return 0.0
    violated = sum(end - start for start, end
                   in violation_episodes(series, floor, tolerance))
    return violated / span
