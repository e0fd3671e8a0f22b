"""Fleet clock coordination: one protocol, two disciplines.

Every host keeps its own discrete-event engine; the fleet needs a policy
for *when* each engine runs.  :class:`FleetClock` is that policy surface —
``advance_to(t)`` moves fleet time forward, ``wake(host_id, t)`` brings a
single host's local clock up to fleet time before the fleet touches it.
Two disciplines implement it:

* :class:`LockstepFleetClock` — the original coordinator: every host is
  advanced quantum by quantum in host-id order, and the fleet's control
  loop (:meth:`~repro.fleet.migration.MigrationPlanner.control`) runs at
  every quantum boundary.  Cost is O(hosts × quanta) regardless of load.
* :class:`EventDrivenFleetClock` — a fleet-level event heap keyed by each
  host's next pending event: only hosts with work are woken, idle hosts
  fast-forward lazily (their local clocks catch up on the next ``wake``).
  This is the SimBricks-style discipline — synchronize at interaction
  points, not on a global metronome — and it is what makes 256-host fleets
  tractable.

The event-driven clock is seed-deterministic: the heap orders ties by
``(time, host_id)``, and hosts share no fabric state, so the outcome of a
seeded churn run is identical to lockstep (asserted across ≥20 seeds in
``tests/test_fleet_clock.py``).

Both disciplines advance a host only through :meth:`FleetClock._run_host`,
which also runs the host's latency probe (``slo=``): a fleet probe
schedules no engine event, and the clock sweeps it at each point of the
fleet's one :class:`~repro.slo.probe.SweepGrid` it passes, after the
host's own events at or before that point.  The event clock also sweeps idle hosts
when a grid point falls due, so an armed probe no longer keeps every
host's queue busy.  Whenever fleet-level control must observe
exact quantum cadence — a rebalance threshold is armed, any host runs a
recovery controller, or escalations are queued — the event clock falls
back to lockstep boundaries for the advance, preserving the ordering of
escalation draining and rebalance moves bit-for-bit.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple, Type, Union, TYPE_CHECKING

from ..errors import ClockError, FleetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Fleet

#: Floating-point slack when comparing fleet-clock boundaries.
_CLOCK_EPS = 1e-12


class FleetClock:
    """The fleet's time-coordination surface (strategy interface).

    Args:
        fleet: The fleet whose hosts this clock advances.
        quantum: Lockstep granularity in simulated seconds (the event
            clock uses it only when falling back to boundary cadence).
        start: Initial fleet time.
    """

    name = "abstract"

    def __init__(self, fleet: "Fleet", quantum: float,
                 start: float = 0.0) -> None:
        self.fleet = fleet
        self.quantum = quantum
        self._now = start
        # Fleet membership is fixed at construction; resolving engines
        # once keeps the per-event hot path free of host lookups.
        self._engines = {host_id: host.engine
                         for host_id, host in fleet.hosts()}
        # Crashed hosts: frozen in time, never advanced or woken until
        # reactivated (see FleetFaultInjector).
        self._inactive: set = set()
        # Each probed host's latency probe, swept by _run_host.
        self._probes = {host_id: host.slo_probe
                        for host_id, host in fleet.hosts()
                        if host.slo_probe is not None}

    @property
    def now(self) -> float:
        """Current fleet time."""
        return self._now

    def is_active(self, host_id: str) -> bool:
        """Whether *host_id* is being advanced (not crashed)."""
        return host_id not in self._inactive

    def deactivate(self, host_id: str) -> None:
        """Freeze *host_id*: no advances, wakes become no-ops.

        A crashed host's engine keeps its pending events (arbiter ticks,
        retries) so reactivation can replay them deterministically; it
        simply stops observing fleet time while inactive.
        """
        if host_id not in self._engines:
            self.fleet.host(host_id)  # raises UnknownHostError
        self._inactive.add(host_id)

    def reactivate(self, host_id: str) -> int:
        """Unfreeze *host_id* and catch its local clock up to fleet time.

        The backlog accumulated while frozen (periodic arbiter ticks and
        so on) replays in one burst at reactivation — identically under
        both clock disciplines, since both see the same fleet time here.
        Returns the number of host events processed catching up.
        """
        self._inactive.discard(host_id)
        return self.wake(host_id)

    def _check_target(self, t: float) -> None:
        if t < self._now - _CLOCK_EPS:
            raise ClockError(
                f"cannot run fleet until {t} (now is {self._now})"
            )

    def advance_to(self, t: float) -> int:
        """Advance fleet time to *t*, running host work due before it.

        Returns the number of host events processed.
        """
        raise NotImplementedError

    def wake(self, host_id: str, t: Optional[float] = None) -> int:
        """Bring one host's local clock up to *t* (default: fleet time).

        The fleet calls this before any interaction with a host (probe,
        release, migration leg) so host-local timestamps always match
        fleet time no matter how lazily the host has been advanced.
        Returns the number of host events processed.
        """
        if host_id in self._inactive:
            return 0  # crashed: frozen in time until reactivated
        target = self._now if t is None else t
        engine = self._engines.get(host_id)
        if engine is None:  # unknown id: raise UnknownHostError
            engine = self.fleet.host(host_id).engine
        if target < engine.now:
            return 0  # already ahead (never happens under fleet control)
        return self._run_host(host_id, engine, target)

    def _run_host(self, host_id: str, engine, t: float) -> int:
        """Run one host's engine to *t*: every advance of a host (the
        lockstep loop, the event heap, :meth:`wake`) goes through here.

        A probed host is swept at each grid point on the way, after its
        own events at or before that point, as its probe's engine timer
        would (see :meth:`~repro.slo.probe.LatencyProbe.run_until`).
        Returns the number of host events processed.
        """
        probe = self._probes.get(host_id)
        if probe is None:
            return engine.run_until(t)
        return probe.run_until(t)

    def notify(self, host_id: str) -> None:
        """Tell the clock *host_id*'s event queue may have changed.

        Fleet-surface mutations (submit, release, migration legs) can
        schedule host events *after* the pre-interaction :meth:`wake`;
        the event-driven clock re-peeks here so those events are not
        deferred to the host's next wake.  Lockstep needs no hint.
        """

    def _advance_lockstep(self, t: float) -> int:
        """Quantum-by-quantum advance with control at every boundary."""
        processed = 0
        while self._now < t - _CLOCK_EPS:
            boundary = min(t, self._now + self.quantum)
            for host_id, host in self.fleet.hosts():
                if host_id in self._inactive:
                    continue  # crashed: frozen in time
                processed += self._run_host(host_id, host.engine, boundary)
            self._now = boundary
            self.fleet.planner.control()
        return processed

    def __repr__(self) -> str:
        return f"{type(self).__name__}(t={self._now:.6f}s)"


class LockstepFleetClock(FleetClock):
    """Advance every host in lockstep, one quantum at a time.

    Deterministic and simple — and O(hosts × quanta) even when nothing is
    happening.  Kept as the reference discipline the event-driven clock
    is equivalence-tested against, and for workloads that want fleet
    control at every boundary unconditionally.
    """

    name = "lockstep"

    def advance_to(self, t: float) -> int:
        self._check_target(t)
        return self._advance_lockstep(t)


class EventDrivenFleetClock(FleetClock):
    """Wake only hosts with pending work; idle hosts fast-forward.

    A lazy heap of ``(next_event_time, host_id)`` entries drives the
    advance: the earliest entry is re-validated against the host's engine
    (fleet-level operations may have added or cancelled events since it
    was pushed), stale entries are discarded, and live ones run the host
    exactly to their event time.  Host clocks are left behind fleet time
    until the next :meth:`wake` — which every fleet-surface interaction
    performs first — so an idle host costs nothing per advance.

    When exact boundary cadence matters (rebalance armed, any recovery
    controller attached, escalations queued) the advance transparently
    uses the lockstep discipline instead, so escalation and rebalance
    ordering is identical to :class:`LockstepFleetClock`.
    """

    name = "event"

    def __init__(self, fleet: "Fleet", quantum: float,
                 start: float = 0.0) -> None:
        super().__init__(fleet, quantum, start)
        self._heap: List[Tuple[float, str]] = []
        # One representative in-heap entry per host: pushing a peek that
        # is already queued is pure churn (stale entries cost two
        # re-validation peeks each at the next advance).
        self._queued: Dict[str, float] = {}
        # The fleet's sweep grid and its first point after the last
        # sweep pass: an advance that reaches it sweeps every probed host
        # (_sweep_due), so the fold at each grid point sees every sweep
        # before it, and no advance scans the hosts between grid points.
        self._grid = fleet.slo_grid
        self._grid_due = (self._grid.after(start) if self._grid is not None
                          else math.inf)
        self._primed = False
        # Recovery controllers are attached at host construction and the
        # fleet's membership is fixed, so one scan decides forever whether
        # boundary cadence is needed for recovery ordering.
        self._any_recovery = any(host.recovery is not None
                                 for _host_id, host in fleet.hosts())

    # -- heap maintenance --------------------------------------------------

    def _prime(self) -> None:
        self._heap = []
        self._queued = {}
        for host_id, engine in self._engines.items():
            if host_id in self._inactive:
                continue  # crashed hosts never enter the heap
            t_ev = engine.peek_time()
            if t_ev is not None:
                self._heap.append((t_ev, host_id))
                self._queued[host_id] = t_ev
        heapq.heapify(self._heap)
        self._primed = True

    def _push_peek(self, host_id: str, t_ev: float) -> None:
        if self._queued.get(host_id) != t_ev:
            heapq.heappush(self._heap, (t_ev, host_id))
            self._queued[host_id] = t_ev

    def _drop_entry(self, host_id: str, t_ev: float) -> None:
        if self._queued.get(host_id) == t_ev:
            del self._queued[host_id]

    def notify(self, host_id: str) -> None:
        """Re-peek *host_id* after an out-of-band mutation.

        Fleet operations (submit, release, migrate) schedule and cancel
        host events outside the advance loop; pushing a fresh entry keeps
        the heap's earliest-event invariant without rescanning the fleet.
        Duplicate and stale entries are discarded during the advance.
        """
        if not self._primed or host_id in self._inactive:
            return
        t_ev = self.fleet.host(host_id).engine.peek_time()
        if t_ev is not None:
            self._push_peek(host_id, t_ev)

    def wake(self, host_id: str, t: Optional[float] = None) -> int:
        if host_id in self._inactive:
            return 0  # crashed: frozen in time until reactivated
        target = self._now if t is None else t
        engine = self._engines.get(host_id)
        if engine is None:  # unknown id: raise UnknownHostError
            engine = self.fleet.host(host_id).engine
        processed = (self._run_host(host_id, engine, target)
                     if target >= engine.now else 0)
        if self._primed:
            t_ev = engine.peek_time()
            if t_ev is not None:
                self._push_peek(host_id, t_ev)
        return processed

    # -- the advance -------------------------------------------------------

    def _needs_boundaries(self) -> bool:
        planner = self.fleet.planner
        if planner.rebalance_threshold is not None:
            return True
        if planner.pending_escalations:
            return True
        return self._any_recovery

    def advance_to(self, t: float) -> int:
        self._check_target(t)
        if self._needs_boundaries():
            # Boundary cadence: host clocks all land on fleet time, so
            # the lazy heap is rebuilt on the next pure-event advance.
            self._primed = False
            return self._advance_lockstep(t)
        if not self._primed:
            self._prime()
        heap = self._heap
        engines = self._engines
        processed = 0
        while heap and heap[0][0] <= t + _CLOCK_EPS:
            t_ev, host_id = heap[0]
            if host_id in self._inactive:
                # Crashed since this entry was pushed: lazily evicted.
                heapq.heappop(heap)
                self._drop_entry(host_id, t_ev)
                continue
            engine = engines[host_id]
            actual = engine.peek_time()
            if actual != t_ev:
                # Stale: the event ran, was cancelled, or an earlier one
                # was scheduled since this entry was pushed.
                heapq.heappop(heap)
                self._drop_entry(host_id, t_ev)
                if actual is not None:
                    self._push_peek(host_id, actual)
                continue
            heapq.heappop(heap)
            self._drop_entry(host_id, t_ev)
            processed += self._run_host(host_id, engine, t_ev)
            nxt = engine.peek_time()
            if nxt is not None:
                self._push_peek(host_id, nxt)
        if self._grid_due <= t + _CLOCK_EPS:
            processed += self._sweep_due(t + _CLOCK_EPS)
            self._grid_due = self._grid.after(t)
        if t > self._now:
            self._now = t
        return processed

    def _sweep_due(self, limit: float) -> int:
        """Sweep every active probed host at its grid points up to
        *limit*, hosts with no event due included.

        The heap loop has already run every host event up to *limit*,
        so each host runs only to its sweeps; without a recovery
        controller (whose presence switches the advance to lockstep) a
        sweep schedules no host event.
        """
        processed = 0
        inactive = self._inactive
        for host_id, probe in self._probes.items():
            if host_id not in inactive and probe.next_due <= limit:
                processed += probe.run_due(limit)
        return processed


#: Registry used by the CLI and the Fleet constructor.
FLEET_CLOCKS = {
    LockstepFleetClock.name: LockstepFleetClock,
    EventDrivenFleetClock.name: EventDrivenFleetClock,
}


def make_clock(clock: Union[str, Type[FleetClock]], fleet: "Fleet",
               quantum: float, start: float = 0.0) -> FleetClock:
    """Resolve a clock name (or a FleetClock subclass) to an instance."""
    if isinstance(clock, type) and issubclass(clock, FleetClock):
        return clock(fleet, quantum, start)
    try:
        return FLEET_CLOCKS[clock](fleet, quantum, start)
    except (KeyError, TypeError):
        raise FleetError(
            f"unknown fleet clock {clock!r}; "
            f"choices: {sorted(FLEET_CLOCKS)}"
        ) from None
