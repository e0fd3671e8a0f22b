"""Fleet self-healing: evacuate sessions off failing hosts.

The fleet-scale mirror of the per-host
:class:`~repro.resilience.controller.RecoveryController`: where that one
re-places intents *within* a fabric, :class:`FleetRecoveryController`
moves them *between* hosts when a whole host fails.

Two evacuation modes, chosen by what the fault left behind:

* **crash** — the source host is gone, so there is nothing to migrate:
  its fleet placements are released (a dead host's reservations are
  void), unbound from the scheduler, and re-placed fresh on surviving
  hosts via :meth:`~repro.fleet.scheduler.ClusterScheduler.place`.
* **degrade** — the source host is alive but sick: sessions are *live
  migrated* off it through the
  :class:`~repro.fleet.migration.MigrationPlanner` (atomic, rollback on
  failure), so a session never stops being served while it moves.

Either way, evacuation order is highest-value (bandwidth) first — when
headroom is scarce, the big sessions grab it and the leftovers are the
lowest-value ones, which is the graceful-degradation ordering: what
eventually sheds is what was worth least.  Placement candidates exclude
crashed hosts, respect active partitions, and carry the failure-domain
avoid-set, so evacuees land outside the faulted domain whenever any
other domain fits them.

Evacuations that fail (no host admits right now) park in a bounded
retry queue with exponential backoff and a give-up timeout.  Retries
are pumped deterministically by the
:class:`~repro.fleet.faults.FleetFaultInjector` drive loop — no RNG, no
wall clock — so campaigns stay bit-identical across clock disciplines.
A session whose retry budget expires is **shed** (crash case — it has no
host) or left degraded in place (degrade case — it is still served,
just on a sick host).  The planner also hands this controller any
session orphaned by a failed migration rollback (see
``MigrationPlanner.recovery``), closing the never-lose-a-session loop.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..core.intents import PerformanceTarget
from ..errors import AdmissionError, FleetError, MigrationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Fleet
    from .scheduler import FleetPlacement

#: Floating-point slack when comparing retry due-times.
_RETRY_EPS = 1e-12


@dataclass(frozen=True)
class FleetRecoveryConfig:
    """Knobs for fleet-level evacuation and retry.

    Attributes:
        max_retries: Re-placement attempts per evacuee after the initial
            failure before giving up.
        retry_backoff: First retry delay in simulated seconds.
        backoff_growth: Exponential backoff multiplier per retry.
        retry_timeout: Give-up horizon (seconds after the first failed
            attempt); whichever of retries/timeout trips first ends the
            session's evacuation.
        evacuate_degraded: Whether degrade faults trigger live
            migration off the host (crashes always evacuate).
    """

    max_retries: int = 8
    retry_backoff: float = 0.004
    backoff_growth: float = 2.0
    retry_timeout: float = 0.5
    evacuate_degraded: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FleetError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 < self.retry_backoff < math.inf:
            raise FleetError(f"retry_backoff must be finite and > 0, "
                             f"got {self.retry_backoff}")
        if not 1.0 <= self.backoff_growth < math.inf:
            raise FleetError(f"backoff_growth must be finite and >= 1, "
                             f"got {self.backoff_growth}")
        # An infinite timeout leaves max_retries as the only bound.
        if not self.retry_timeout > 0:
            raise FleetError(
                f"retry_timeout must be > 0, got {self.retry_timeout}")

    @classmethod
    def for_horizon(cls, horizon: float,
                    **overrides) -> "FleetRecoveryConfig":
        """Defaults scaled to a workload *horizon* (trace replays span
        seconds to hours; the absolute defaults suit sub-second chaos)."""
        scaled = {
            "retry_backoff": horizon * 0.01,
            "retry_timeout": horizon * 1.25,
        }
        scaled.update(overrides)
        return cls(**scaled)


@dataclass(frozen=True)
class EvacuationRecord:
    """One evacuation decision, for the audit log.

    Attributes:
        kind: ``"evacuate"`` (moved), ``"requeue"`` (parked for retry),
            ``"retry"`` (a retry attempt), ``"shed"`` (gave up, session
            lost), ``"exhaust"`` (gave up, session stays degraded in
            place), ``"cancel"`` (session ended while parked), or
            ``"healed"`` (source recovered before the retry fired).
        time: Fleet time of the decision.
        intent_id: The session.
        src: The host being evacuated.
        dst: Where it landed (``None`` when it did not).
        ok: Whether the session is placed after this decision.
        detail: Human-readable specifics.
    """

    kind: str
    time: float
    intent_id: str
    src: str
    dst: Optional[str]
    ok: bool
    detail: str = ""


@dataclass
class _Pending:
    """One parked evacuee awaiting its next re-placement attempt."""

    intent: PerformanceTarget
    src_host: str
    live: bool  # True: still placed on a degraded host (migrate later)
    attempts: int
    first_failed_at: float
    next_try: float


class FleetRecoveryController:
    """Evacuates sessions off crashed/degraded hosts, with bounded retry.

    Attaching the controller registers it as the migration planner's
    orphan sink (``fleet.planner.recovery``), so a failed migration whose
    rollback also fails requeues the session here instead of losing it.

    Args:
        fleet: The fleet to heal.
        config: Retry/backoff/timeout knobs.
    """

    def __init__(self, fleet: "Fleet",
                 config: Optional[FleetRecoveryConfig] = None) -> None:
        self.fleet = fleet
        self.config = config or FleetRecoveryConfig()
        fleet.planner.recovery = self
        self._heap: List[Tuple[float, int, _Pending]] = []
        self._pending: Dict[str, _Pending] = {}
        self._seq = 0
        self.records: List[EvacuationRecord] = []
        self._shed_listeners: List[
            Callable[[PerformanceTarget], None]] = []
        self.evacuated = 0  # sessions successfully moved off a faulted host
        self.requeued = 0  # sessions that needed at least one retry
        self.retries = 0  # retry attempts performed
        self.retries_exhausted = 0  # sessions whose retry budget expired
        self.shed = 0  # sessions lost after exhausting retries (crash path)
        self.cancelled = 0  # parked sessions whose lifetime ended first
        self.healed_in_place = 0  # degrade ended before the retry fired

    # -- observation ---------------------------------------------------------

    def on_shed(self,
                listener: Callable[[PerformanceTarget], None]) -> None:
        """Call *listener* with each intent the controller gives up on
        (replay uses this to score availability)."""
        self._shed_listeners.append(listener)

    def is_pending(self, intent_id: str) -> bool:
        """Whether *intent_id* is parked awaiting re-placement (not
        placed anywhere right now)."""
        entry = self._pending.get(intent_id)
        return entry is not None and not entry.live

    @property
    def pending_replacements(self) -> int:
        """Parked sessions that currently hold no placement."""
        return sum(1 for e in self._pending.values() if not e.live)

    @property
    def pending_migrations(self) -> int:
        """Parked sessions still placed on a degraded host."""
        return sum(1 for e in self._pending.values() if e.live)

    def next_due(self) -> Optional[float]:
        """Fleet time of the earliest parked retry (``None`` when idle)."""
        while self._heap:
            t, _seq, entry = self._heap[0]
            if self._pending.get(entry.intent.intent_id) is entry:
                return t
            heapq.heappop(self._heap)  # stale: cancelled or superseded
        return None

    # -- evacuation entry points ---------------------------------------------

    def evacuate_host(self, host_id: str, crash: bool = True) -> None:
        """Move every fleet session off *host_id*.

        Crash: release-then-replace (the host is dead).  Degrade: live
        migration (the host still serves).  Highest-value first, so
        scarce surviving headroom goes to the sessions worth most.
        """
        scheduler = self.fleet.scheduler
        victims = sorted(
            scheduler.placements_on(host_id),
            key=lambda p: (-p.placement.intent.bandwidth, p.intent_id),
        )
        if not crash:
            if not self.config.evacuate_degraded:
                return
            for fp in victims:
                self._migrate_off(fp.intent_id, host_id,
                                  attempts=0,
                                  first_failed_at=self.fleet.now)
            return
        evacuees: List[PerformanceTarget] = []
        for fp in victims:
            intent = scheduler.original_intent(fp.intent_id)
            # A pending live-migration entry for this session is
            # superseded: the crash path owns it now.
            self._pending.pop(fp.intent_id, None)
            self.fleet.manager_release(host_id, fp.intent_id)
            scheduler.forget(fp.intent_id)
            evacuees.append(intent)
        self.fleet.notify(host_id)
        self.fleet.telemetry.invalidate(host_id)
        for intent in evacuees:
            self._replace(intent, host_id, attempts=0,
                          first_failed_at=self.fleet.now)

    def requeue(self, intent: PerformanceTarget, src_host: str,
                reason: str = "") -> None:
        """Park a session that lost its placement outside the fault path
        (the migration planner's orphan hand-off)."""
        self._park(intent, src_host, live=False, attempts=0,
                   first_failed_at=self.fleet.now, reason=reason)

    def cancel(self, intent_id: str) -> bool:
        """Drop a parked re-placement because the session's lifetime
        ended (its departure/completion came due while it waited).

        Returns whether anything was cancelled.  Live entries are not
        cancellable here — a live session still placed is released
        through the normal fleet path.
        """
        entry = self._pending.get(intent_id)
        if entry is None or entry.live:
            return False
        del self._pending[intent_id]
        self.cancelled += 1
        self._record("cancel", intent_id, entry.src_host, None, ok=False,
                     detail="session ended while awaiting re-placement")
        return True

    # -- the retry pump ------------------------------------------------------

    def process(self, now: float) -> int:
        """Run every parked retry due by *now*; returns attempts made.

        Called by the fault injector's drive loop at each interleave
        point — deterministic because due-times are pure backoff
        arithmetic and the queue orders by (time, sequence).
        """
        attempted = 0
        while self._heap and self._heap[0][0] <= now + _RETRY_EPS:
            _t, _seq, entry = heapq.heappop(self._heap)
            intent_id = entry.intent.intent_id
            if self._pending.get(intent_id) is not entry:
                continue  # cancelled or superseded while parked
            del self._pending[intent_id]
            self.retries += 1
            attempted += 1
            if entry.live:
                self._retry_live(entry)
            else:
                self._replace(entry.intent, entry.src_host,
                              attempts=entry.attempts,
                              first_failed_at=entry.first_failed_at)
        return attempted

    # -- placement attempts --------------------------------------------------

    def _replace(self, intent: PerformanceTarget, src_host: str,
                 attempts: int,
                 first_failed_at: float) -> Optional["FleetPlacement"]:
        """One re-placement attempt for a session with no host."""
        placed = self.fleet.scheduler.place(
            intent,
            avoid=self.fleet.health.avoid_hosts(),
            exclude=frozenset((src_host,)),
            reachable_from=src_host,
        )
        if placed is not None:
            self.evacuated += 1
            self._record("evacuate" if attempts == 0 else "retry",
                         intent.intent_id, src_host, placed.host_id,
                         ok=True)
            return placed
        self._park(intent, src_host, live=False, attempts=attempts,
                   first_failed_at=first_failed_at)
        return None

    def _migrate_off(self, intent_id: str, src_host: str, attempts: int,
                     first_failed_at: float) -> Optional["FleetPlacement"]:
        """One live-migration attempt off a degraded host."""
        scheduler = self.fleet.scheduler
        health = self.fleet.health
        intent = scheduler.original_intent(intent_id)
        candidates = [
            h for h in scheduler.policy.rank_matrix(
                scheduler.request_for(
                    intent, avoid_hosts=health.avoid_hosts()),
                self.fleet.telemetry.matrix(),
            )
            if h != src_host and not health.is_crashed(h)
            and health.reachable(src_host, h)
        ]
        if scheduler.max_attempts is not None:
            candidates = candidates[:scheduler.max_attempts]
        for dst in candidates:
            try:
                placed = self.fleet.planner.migrate(intent_id, dst,
                                                    kind="evacuate")
            except (MigrationError, AdmissionError):
                continue
            self.evacuated += 1
            self._record("evacuate" if attempts == 0 else "retry",
                         intent_id, src_host, dst, ok=True)
            return placed
        self._park(intent, src_host, live=True, attempts=attempts,
                   first_failed_at=first_failed_at)
        return None

    def _retry_live(self, entry: _Pending) -> None:
        """A parked live entry came due: the world may have changed."""
        intent_id = entry.intent.intent_id
        scheduler = self.fleet.scheduler
        if (not scheduler.has_intent(intent_id)
                or scheduler.host_of(intent_id) != entry.src_host):
            return  # released, or the crash path already moved it
        if not self.fleet.health.is_degraded(entry.src_host):
            self.healed_in_place += 1
            self._record("healed", intent_id, entry.src_host,
                         entry.src_host, ok=True,
                         detail="host restored before the retry fired")
            return
        self._migrate_off(intent_id, entry.src_host,
                          attempts=entry.attempts,
                          first_failed_at=entry.first_failed_at)

    # -- parking / giving up -------------------------------------------------

    def _park(self, intent: PerformanceTarget, src_host: str, live: bool,
              attempts: int, first_failed_at: float,
              reason: str = "") -> None:
        now = self.fleet.now
        attempts += 1
        cfg = self.config
        out_of_retries = attempts > cfg.max_retries
        out_of_time = (now - first_failed_at) > cfg.retry_timeout + _RETRY_EPS
        if out_of_retries or out_of_time:
            self._give_up(intent, src_host, live,
                          "retries" if out_of_retries else "timeout")
            return
        delay = cfg.retry_backoff * cfg.backoff_growth ** (attempts - 1)
        entry = _Pending(intent=intent, src_host=src_host, live=live,
                         attempts=attempts,
                         first_failed_at=first_failed_at,
                         next_try=now + delay)
        self._pending[intent.intent_id] = entry
        heapq.heappush(self._heap, (entry.next_try, self._seq, entry))
        self._seq += 1
        if attempts == 1:
            self.requeued += 1
            self._record("requeue", intent.intent_id, src_host, None,
                         ok=live, detail=reason or
                         f"no host admitted it; retry at "
                         f"{entry.next_try:.6f}s")

    def _give_up(self, intent: PerformanceTarget, src_host: str,
                 live: bool, why: str) -> None:
        self.retries_exhausted += 1
        if live:
            # Still placed on the degraded host: served, just not moved.
            self._record("exhaust", intent.intent_id, src_host, src_host,
                         ok=True,
                         detail=f"gave up ({why}); stays degraded in place")
            return
        self.shed += 1
        self._record("shed", intent.intent_id, src_host, None, ok=False,
                     detail=f"gave up ({why}); session lost")
        for listener in self._shed_listeners:
            listener(intent)

    # -- reporting -----------------------------------------------------------

    def _record(self, kind: str, intent_id: str, src: str,
                dst: Optional[str], ok: bool, detail: str = "") -> None:
        self.records.append(EvacuationRecord(
            kind=kind, time=self.fleet.now, intent_id=intent_id,
            src=src, dst=dst, ok=ok, detail=detail,
        ))

    def counters(self) -> Dict[str, int]:
        """All recovery counters, keyed for report embedding."""
        return {
            "evacuated": self.evacuated,
            "requeued": self.requeued,
            "retries": self.retries,
            "retries_exhausted": self.retries_exhausted,
            "shed": self.shed,
            "cancelled": self.cancelled,
            "healed_in_place": self.healed_in_place,
            "pending_replacements": self.pending_replacements,
            "pending_migrations": self.pending_migrations,
        }

    def describe(self) -> str:
        """Human-readable recovery summary."""
        return (
            f"FleetRecoveryController: {self.evacuated} evacuated, "
            f"{self.requeued} requeued ({self.retries} retries), "
            f"{self.shed} shed, {self.healed_in_place} healed in place, "
            f"{self.pending_replacements}+{self.pending_migrations} pending"
        )
