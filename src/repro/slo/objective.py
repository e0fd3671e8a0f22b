"""Declarative SLO objectives and multi-window burn-rate tracking.

An :class:`SloObjective` says "the p99 latency of these sessions stays
under this bound"; a :class:`BurnRateTracker` watches how fast a stream
of good/bad probe samples spends the objective's error budget.  The
alerting policy is the Google SRE workbook's multi-window multi-burn-rate
recipe, scaled into simulated time:

* the **fast** page fires when 2% of a budget period's error budget burns
  in a 1/720-period window (the "5% of budget in 1 hour of a 30-day
  period" rule: burn rate > 36);
* the **slow** page fires when budget burns at rate > 12 over a
  1/120-period window (the "10% in 6 hours" rule).

Each long window is paired with a short window 1/12 its length — both
must exceed the threshold, so alerts reset quickly once the regression
clears — and re-fires are suppressed for one long-window per window kind.
A real 30-day budget period makes no sense inside a sub-second
simulation, so ``period`` is simply a config knob: the default 14.4 s
"month" gives a 20 ms fast window, matched to probe cadences of a few
milliseconds.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Default error-budget period in simulated seconds (the "30 days").
DEFAULT_BUDGET_PERIOD = 14.4

#: Long-window divisors and burn thresholds from the SRE workbook's
#: recommended pairs (5%-of-budget/1h and 10%-of-budget/6h on a 30-day
#: period), expressed as fractions of the budget period.
_FAST_DIVISOR, _FAST_THRESHOLD = 720.0, 36.0
_SLOW_DIVISOR, _SLOW_THRESHOLD = 120.0, 12.0
#: Short confirmation window = long window / 12 (1h -> 5min).
_SHORT_RATIO = 12.0


@dataclass(frozen=True)
class BurnRateWindow:
    """One (long, short) window pair with its burn-rate threshold.

    Attributes:
        name: ``"fast"`` or ``"slow"`` (alert routing key).
        long: Long-window length in simulated seconds.
        short: Confirmation-window length (``long / 12``).
        threshold: Burn rate both windows must exceed to fire.
    """

    name: str
    long: float
    short: float
    threshold: float


@dataclass(frozen=True)
class SloObjective:
    """One latency objective: a percentile bound over a session scope.

    Attributes:
        name: Unique objective name (alert and report key).
        bound: Latency bound in seconds.
        percentile: Target percentile in (0, 100); p99 by default, so
            the error budget is 1% of samples.
        tenant: Restrict to one tenant id (``None`` = every tenant).
        path: Restrict to one canonical path key, e.g. ``"nic:0->dimm:0"``
            (``None`` = every path).
        period: Error-budget period in simulated seconds — the "30
            days" the burn-rate thresholds are quoted against.
    """

    name: str
    bound: float
    percentile: float = 99.0
    tenant: Optional[str] = None
    path: Optional[str] = None
    period: float = DEFAULT_BUDGET_PERIOD

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an SloObjective needs a name")
        if not self.bound > 0:  # also rejects NaN
            raise ValueError(f"bound must be > 0, got {self.bound}")
        if not 0 < self.percentile < 100:
            raise ValueError(
                f"percentile must be in (0, 100), got {self.percentile}")
        if not 0 < self.period < math.inf:
            raise ValueError(
                f"period must be finite and > 0, got {self.period}")

    @property
    def error_budget(self) -> float:
        """Allowed bad-sample fraction (``1 - percentile/100``)."""
        return 1.0 - self.percentile / 100.0

    def windows(self) -> Tuple[BurnRateWindow, BurnRateWindow]:
        """The (fast, slow) burn-rate window pairs for this objective."""
        fast_long = self.period / _FAST_DIVISOR
        slow_long = self.period / _SLOW_DIVISOR
        return (
            BurnRateWindow("fast", fast_long, fast_long / _SHORT_RATIO,
                           _FAST_THRESHOLD),
            BurnRateWindow("slow", slow_long, slow_long / _SHORT_RATIO,
                           _SLOW_THRESHOLD),
        )

    def matches(self, tenant: str, path: str) -> bool:
        """Whether a (tenant, path) sample stream is in this
        objective's scope."""
        if self.tenant is not None and tenant != self.tenant:
            return False
        if self.path is not None and path != self.path:
            return False
        return True

    def is_bad(self, value: float) -> bool:
        """Whether one latency sample burns error budget."""
        return value > self.bound


@dataclass(frozen=True)
class SloAlert:
    """One burn-rate alert, the audit record sinks act on.

    Attributes:
        time: Fleet/host time the alert fired (evaluation boundary).
        objective: The :attr:`SloObjective.name` that is burning.
        window: ``"fast"`` or ``"slow"``.
        host_id: Offending host (``""`` for a host-local probe alert,
            which knows no fleet identity).
        burn_long: Burn rate over the long window.
        burn_short: Burn rate over the short window.
        threshold: The threshold both rates exceeded.
    """

    time: float
    objective: str
    window: str
    host_id: str
    burn_long: float
    burn_short: float
    threshold: float

    def describe(self) -> str:
        """One operator-facing line."""
        where = f" on {self.host_id}" if self.host_id else ""
        return (f"[{self.time:.6f}s] {self.objective}: {self.window}-window "
                f"burn {self.burn_long:.1f}x/{self.burn_short:.1f}x "
                f"(threshold {self.threshold:g}x){where}")


@dataclass
class BurnRateTracker:
    """Streaming burn-rate evaluation for one objective over one scope.

    Fed batches of ``(time, good, bad)`` counts in nondecreasing time
    order (one batch per probe tick or evaluation boundary);
    :meth:`check` answers "which windows fire right now".  Entries
    older than the longest window are pruned, so live state is O(long
    window / probe period).

    Entries live in parallel time / cumulative-count arrays, so a
    burn-rate query is a bisect plus two subtractions — O(log n), not a
    scan.  The fleet monitor queries every (objective, host) tracker at
    every evaluation boundary, which made the naive scan the
    subsystem's hot path (and what the <=2% enabled-overhead contract
    in ``benchmarks/bench_slo_overhead.py`` holds the line on).
    """

    objective: SloObjective

    def __post_init__(self) -> None:
        windows = self.objective.windows()
        self._windows = windows
        self._horizon = max(w.long for w in windows)
        self._times: List[float] = []
        self._cum_good: List[int] = []
        self._cum_bad: List[int] = []
        self._start = 0  # first live entry (pruned lazily, see below)
        self._last_fired: Dict[str, float] = {}

    def record(self, t: float, good: int, bad: int) -> None:
        """Fold one batch of sample verdicts taken at time *t*."""
        if good < 0 or bad < 0:
            raise ValueError(f"negative sample counts ({good}, {bad})")
        if good or bad:
            cum_good, cum_bad = self._cum_good, self._cum_bad
            self._times.append(t)
            cum_good.append((cum_good[-1] if cum_good else 0) + good)
            cum_bad.append((cum_bad[-1] if cum_bad else 0) + bad)

    def _prune(self, now: float) -> None:
        # Cumulative sums are absolute, so pruning just advances the
        # live-window start; the dead prefix is physically dropped once
        # it dominates the arrays.
        start = bisect_left(self._times, now - self._horizon, self._start)
        self._start = start
        if start > 1024 and start * 2 > len(self._times):
            del self._times[:start]
            del self._cum_good[:start]
            del self._cum_bad[:start]
            self._start = 0

    def burn_rate(self, now: float, window: float) -> Optional[float]:
        """Budget burn rate over ``[now - window, now]``.

        ``None`` when the window holds no samples (an empty window is
        evidence of nothing — it must not fire or clear an alert).
        """
        times = self._times
        first = bisect_left(times, now - window, self._start)
        if first >= len(times):
            return None
        base_good = self._cum_good[first - 1] if first else 0
        base_bad = self._cum_bad[first - 1] if first else 0
        good = self._cum_good[-1] - base_good
        bad = self._cum_bad[-1] - base_bad
        total = good + bad
        if total == 0:
            return None
        return (bad / total) / self.objective.error_budget

    def check(self, now: float) -> List[Tuple[BurnRateWindow, float, float]]:
        """Windows firing at *now*: ``(window, burn_long, burn_short)``.

        A window fires when *both* its long and short burn rates exceed
        the threshold (the multi-window conjunction that makes alerts
        reset fast), at most once per long-window length (cooldown).
        """
        self._prune(now)
        fired = []
        for window in self._windows:
            last = self._last_fired.get(window.name)
            if last is not None and now - last < window.long:
                continue
            burn_long = self.burn_rate(now, window.long)
            if burn_long is None or burn_long <= window.threshold:
                continue
            burn_short = self.burn_rate(now, window.short)
            if burn_short is None or burn_short <= window.threshold:
                continue
            self._last_fired[window.name] = now
            fired.append((window, burn_long, burn_short))
        return fired
