"""Simulated clock.

All time in the library is simulated; nothing reads the wall clock.  The
clock only moves forward, in seconds (float).
"""

from __future__ import annotations

import math

from ..errors import ClockError


class SimClock:
    """A monotonically non-decreasing simulated clock."""

    def __init__(self, start: float = 0.0) -> None:
        if not 0 <= start < math.inf:  # also rejects NaN
            raise ClockError(
                f"clock start must be finite and >= 0, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to time *t*.

        Raises :class:`ClockError` if *t* is in the past.
        """
        if t < self._now:
            raise ClockError(
                f"clock cannot move backwards: now={self._now}, requested={t}"
            )
        self._now = t

    def advance_by(self, dt: float) -> None:
        """Move the clock forward by *dt* seconds (must be >= 0)."""
        if dt < 0:
            raise ClockError(f"cannot advance by negative duration {dt}")
        self._now += dt

    def __repr__(self) -> str:
        return f"SimClock(now={self._now!r})"
