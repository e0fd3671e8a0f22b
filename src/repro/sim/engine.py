"""The discrete-event simulation engine.

A classic heapq event loop over :class:`~repro.sim.clock.SimClock`.  The
engine is deliberately minimal: everything else (flows, telemetry,
heartbeats, arbitration) is built by scheduling callbacks on it.

Determinism guarantees:

* events at equal times fire in scheduling order (tie-broken by a sequence
  number);
* the engine is single-threaded;
* no component of the library reads the wall clock.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from ..errors import ClockError, SimulationError
from ..trace.recorder import TRACER
from .clock import SimClock
from .events import Event


class Engine:
    """Single-threaded discrete-event engine."""

    #: Queues below this size are never compacted: scanning a handful of
    #: entries at pop time is cheaper than rebuilding the heap.
    _COMPACT_MIN = 64

    def __init__(self, start: float = 0.0) -> None:
        self.clock = SimClock(start)
        self._queue: List[Event] = []
        self._seq = 0
        self._events_processed = 0
        self._running = False
        # Live-event accounting: cancelled-but-still-queued entries, kept
        # exact by push/pop/cancel, so pending_events() is O(1) and the
        # heap can be compacted when cancellations dominate it.
        self._cancelled_in_queue = 0
        self._compactions = 0

    # -- scheduling ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks fired so far."""
        return self._events_processed

    def schedule_at(self, t: float, callback: Callable[[], None],
                    label: str = "") -> Event:
        """Schedule *callback* at absolute time *t* (>= now)."""
        if not t >= self.now:  # also rejects NaN
            raise ClockError(
                f"cannot schedule at {t} (now is {self.now})"
            )
        event = Event(time=t, seq=self._seq, callback=callback, label=label,
                      queued=True, _engine=self)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None],
                    label: str = "") -> Event:
        """Schedule *callback* after *delay* seconds (>= 0)."""
        if not delay >= 0:  # also rejects NaN
            raise ClockError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self.now + delay, callback, label=label)

    def schedule_now(self, callback: Callable[[], None],
                     label: str = "") -> Event:
        """Schedule *callback* at the current timestamp.

        It fires after every event already queued at this instant —
        the coalescing primitive: same-instant work is deferred to the end
        of the timestamp without advancing simulated time.
        """
        return self.schedule_at(self.now, callback, label=label)

    def schedule_every(
        self,
        period: float,
        callback: Callable[[], None],
        label: str = "",
        first_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng=None,
    ) -> "PeriodicTask":
        """Run *callback* every *period* seconds until cancelled.

        ``jitter`` adds uniform ±jitter/2 noise to each period (requires
        *rng*, a ``random.Random``-like object).  Returns a
        :class:`PeriodicTask` handle with a ``cancel()`` method.
        """
        if not period > 0:  # also rejects NaN
            raise SimulationError(f"period must be > 0, got {period}")
        if not jitter >= 0 or (jitter > 0 and rng is None):
            raise SimulationError("jitter requires a non-negative value and an rng")
        task = PeriodicTask(self, period, callback, label, jitter, rng)
        delay = period if first_delay is None else first_delay
        task._arm(delay)
        return task

    # -- execution -----------------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
            self._cancelled_in_queue -= 1
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Process one event; returns ``False`` when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            event.queued = False
            self.clock.advance_to(event.time)
            self._events_processed += 1
            if TRACER.enabled:
                self._dispatch_traced(event)
            else:
                event.callback()
            return True
        return False

    def _dispatch_traced(self, event: Event) -> None:
        """Dispatch one event under a span plus a queue-depth sample."""
        TRACER.begin("engine", event.label or "event", {"t": event.time})
        try:
            event.callback()
        finally:
            TRACER.end()
            TRACER.counter("engine", "engine.queue_depth", len(self._queue))

    def run_until(self, t: float, max_events: Optional[int] = None) -> int:
        """Process events up to and including time *t*; advance clock to *t*.

        Returns the number of events processed.  ``max_events`` is a safety
        valve against runaway event storms in tests.
        """
        if not t >= self.now:  # also rejects NaN
            raise ClockError(f"cannot run until {t} (now is {self.now})")
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        processed = 0
        try:
            while True:
                next_time = self.peek_time()
                if next_time is None or next_time > t:
                    break
                self.step()
                processed += 1
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"run_until({t}) exceeded max_events={max_events}"
                    )
            self.clock.advance_to(t)
        finally:
            self._running = False
        return processed

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the event queue completely (bounded by *max_events*)."""
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        processed = 0
        try:
            while self.step():
                processed += 1
                if processed >= max_events:
                    raise SimulationError(f"run() exceeded max_events={max_events}")
        finally:
            self._running = False
        return processed

    def pending_events(self) -> int:
        """Number of non-cancelled events still queued (O(1)).

        Maintained as a live counter — pushes increment, pops and cancels
        decrement — instead of the historical full-queue scan, so periodic
        health checks can poll it without a per-call O(n) cost.
        """
        return len(self._queue) - self._cancelled_in_queue

    def _note_cancelled(self, event: Event) -> None:
        """A queued event was cancelled: update accounting, maybe compact.

        When cancelled entries exceed half the queue the heap is rebuilt
        without them, bounding queue memory under heavy
        :class:`PeriodicTask` churn (each rescheduling cancel leaves a
        tombstone behind otherwise).
        """
        self._cancelled_in_queue += 1
        if (2 * self._cancelled_in_queue > len(self._queue)
                and len(self._queue) >= self._COMPACT_MIN):
            self._queue = [e for e in self._queue if not e.cancelled]
            heapq.heapify(self._queue)
            self._cancelled_in_queue = 0
            self._compactions += 1


class PeriodicTask:
    """Handle for a repeating callback created by :meth:`Engine.schedule_every`."""

    def __init__(self, engine: Engine, period: float,
                 callback: Callable[[], None], label: str,
                 jitter: float, rng) -> None:
        self._engine = engine
        self._period = period
        self._callback = callback
        self._label = label
        self._jitter = jitter
        self._rng = rng
        self._event: Optional[Event] = None
        self._cancelled = False
        self.fire_count = 0

    def _next_period(self) -> float:
        if self._jitter and self._rng is not None:
            offset = (self._rng.random() - 0.5) * self._jitter
            return max(self._period + offset, self._period * 0.01)
        return self._period

    def _arm(self, delay: float) -> None:
        if self._cancelled:
            return
        self._event = self._engine.schedule_in(delay, self._fire,
                                               label=self._label)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fire_count += 1
        self._callback()
        self._arm(self._next_period())

    @property
    def period(self) -> float:
        """Current repeat period in seconds."""
        return self._period

    def reschedule(self, period: float) -> None:
        """Change the repeat period, effective from the next firing."""
        if not period > 0:  # also rejects NaN
            raise SimulationError(f"period must be > 0, got {period}")
        self._period = period

    def cancel(self) -> None:
        """Stop the task; the pending firing (if any) is cancelled."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()
