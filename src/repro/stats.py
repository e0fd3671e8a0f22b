"""Small statistics helpers used across workloads, monitoring, and benches.

Kept plain Python + math on purpose.  These helpers see small inputs
(telemetry windows of tens to hundreds of samples), and at that size
numpy loses: converting a short Python list to an ndarray plus the
per-call dispatch overhead costs more than the arithmetic it saves.  The
solver's water-filling is scalar for the same reason: no workload hands
it a component large enough for a vectorized core to pay (DESIGN §10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile of *samples* (p in [0, 100]).

    Raises ``ValueError`` on an empty sample set — callers must decide what
    an absent measurement means; silently returning 0 hides outages.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0 <= p <= 100:
        raise ValueError(f"p must be in [0, 100], got {p}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    # a + frac*(b-a) is exact when a == b, unlike the two-product form.
    return ordered[low] + frac * (ordered[high] - ordered[low])


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not samples:
        raise ValueError("mean of empty sample set")
    return sum(samples) / len(samples)


def stddev(samples: Sequence[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two samples."""
    if len(samples) < 2:
        return 0.0
    mu = mean(samples)
    return math.sqrt(sum((x - mu) ** 2 for x in samples) / len(samples))


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample set."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for table printing."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }


def summarize(samples: Sequence[float]) -> Summary:
    """Build a :class:`Summary`; raises on empty input."""
    if not samples:
        raise ValueError("summarize of empty sample set")
    return Summary(
        count=len(samples),
        mean=mean(samples),
        p50=percentile(samples, 50),
        p95=percentile(samples, 95),
        p99=percentile(samples, 99),
        minimum=min(samples),
        maximum=max(samples),
    )


class EwmaTracker:
    """Exponentially weighted moving average + variance tracker.

    Used by the anomaly detectors: maintains a smoothed mean and a smoothed
    absolute deviation so a z-score can be computed per observation.
    """

    def __init__(self, alpha: float = 0.2) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._mean: Optional[float] = None
        self._dev = 0.0
        self.observations = 0

    @property
    def value(self) -> Optional[float]:
        """Current smoothed mean (``None`` before the first observation)."""
        return self._mean

    @property
    def deviation(self) -> float:
        """Current smoothed mean absolute deviation."""
        return self._dev

    def update(self, x: float) -> None:
        """Fold observation *x* into the averages."""
        self.observations += 1
        if self._mean is None:
            self._mean = x
            return
        error = abs(x - self._mean)
        self._mean = (1 - self.alpha) * self._mean + self.alpha * x
        self._dev = (1 - self.alpha) * self._dev + self.alpha * error

    def zscore(self, x: float, floor: float = 1e-12) -> float:
        """Deviation of *x* from the smoothed mean, in deviations.

        Returns 0.0 until a baseline exists.
        """
        if self._mean is None or self.observations < 2:
            return 0.0
        return (x - self._mean) / max(self._dev, floor)


class TimeSeries:
    """An append-only (time, value) series with window queries."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, t: float, value: float) -> None:
        """Append a sample; time must be non-decreasing."""
        if self._times and t < self._times[-1]:
            raise ValueError(
                f"time series {self.name!r}: time went backwards "
                f"({t} < {self._times[-1]})"
            )
        self._times.append(t)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._values)

    def last(self) -> Tuple[float, float]:
        """Most recent (time, value); raises on empty series."""
        if not self._values:
            raise ValueError(f"time series {self.name!r} is empty")
        return self._times[-1], self._values[-1]

    def values(self) -> List[float]:
        """All values (copy)."""
        return list(self._values)

    def times(self) -> List[float]:
        """All timestamps (copy)."""
        return list(self._times)

    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Samples with ``start <= t <= end``."""
        return [
            (t, v) for t, v in zip(self._times, self._values)
            if start <= t <= end
        ]

    def items(self) -> Iterable[Tuple[float, float]]:
        """Iterate over (time, value) pairs."""
        return zip(self._times, self._values)
