"""Reservation ledger, admission control, and the retry queue.

The ledger tracks, per directed link, how much bandwidth is promised to
admitted intents.  Admission is a pure capacity check: a candidate fits iff
every one of its directed demands leaves the link within
``capacity * headroom``.  Headroom < 1 keeps slack for system traffic and
model error; headroom > 1 deliberately overcommits (useful with
work-conserving tenants that rarely peak together).

:class:`AdmissionRetryQueue` softens the hard admit/reject edge: intents
that fail under transient congestion or fault pressure are *parked* and
re-tried on a sim-clock-driven exponential backoff (with jitter, so a
burst of rejects doesn't re-arrive as a burst of retries), re-admitted
promptly when capacity frees, and shed with a recorded reason once their
deadline passes or the bounded queue overflows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import AdmissionError, HostNetError
from ..trace.recorder import TRACER
from ..topology.graph import HostTopology
from .intents import PerformanceTarget
from .interpreter import CandidateRequirement, CompiledIntent, LinkDemand


def _key(link_id: str, direction: str) -> Tuple[str, str]:
    return (link_id, direction)


class ReservationLedger:
    """Per-directed-link bandwidth reservations of admitted intents."""

    def __init__(self, topology: HostTopology) -> None:
        self.topology = topology
        self._reserved: Dict[Tuple[str, str], float] = {}
        self._by_intent: Dict[str, List[LinkDemand]] = {}

    def reserved(self, link_id: str, direction: str) -> float:
        """Bytes/s currently reserved on one direction of *link_id*."""
        return self._reserved.get(_key(link_id, direction), 0.0)

    @property
    def reserved_map(self) -> Dict[Tuple[str, str], float]:
        """Live per-``(link_id, direction)`` reservation totals.

        Bulk readers (telemetry rollups) iterate this directly instead of
        calling :meth:`reserved` once per directed link.  Treat as
        read-only.
        """
        return self._reserved

    def reserved_total(self, link_id: str) -> float:
        """Reserved bytes/s on *link_id*, both directions summed."""
        return (self.reserved(link_id, "fwd") + self.reserved(link_id, "rev"))

    def utilization(self, link_id: str, direction: str) -> float:
        """Reserved fraction of one direction's capacity."""
        capacity = self.topology.link(link_id).capacity
        if capacity <= 0:
            return float("inf")
        return self.reserved(link_id, direction) / capacity

    def headroom_after(self, demand: LinkDemand, headroom: float) -> float:
        """Remaining capacity fraction after adding *demand* (can be < 0)."""
        capacity = self.topology.link(demand.link_id).capacity
        if capacity <= 0:
            return float("-inf")
        budget = capacity * headroom
        used = self.reserved(demand.link_id, demand.direction)
        return (budget - used - demand.bandwidth) / capacity

    def fits(self, candidate: CandidateRequirement, headroom: float) -> bool:
        """Whether every demand of *candidate* fits within *headroom*."""
        return all(
            self.headroom_after(demand, headroom) >= 0.0
            for demand in candidate.demands
        )

    def post_utilization(self, candidate: CandidateRequirement) -> float:
        """Max directed-link reserved utilization if *candidate* commits.

        The scheduler's objective: lower is better (more balanced fabric).
        """
        worst = 0.0
        for demand in candidate.demands:
            capacity = self.topology.link(demand.link_id).capacity
            if capacity <= 0:
                return float("inf")
            used = self.reserved(demand.link_id, demand.direction)
            worst = max(worst, (used + demand.bandwidth) / capacity)
        return worst

    def commit(self, intent_id: str, candidate: CandidateRequirement) -> None:
        """Record *candidate*'s demands under *intent_id*."""
        if intent_id in self._by_intent:
            raise AdmissionError(intent_id, "already committed")
        for demand in candidate.demands:
            key = _key(demand.link_id, demand.direction)
            self._reserved[key] = self._reserved.get(key, 0.0) + demand.bandwidth
        self._by_intent[intent_id] = list(candidate.demands)

    def release(self, intent_id: str) -> List[LinkDemand]:
        """Remove an intent's reservations; returns what was released."""
        demands = self._by_intent.pop(intent_id, None)
        if demands is None:
            raise AdmissionError(intent_id, "not committed")
        for demand in demands:
            key = _key(demand.link_id, demand.direction)
            remaining = self._reserved.get(key, 0.0) - demand.bandwidth
            if remaining <= 1e-9:
                self._reserved.pop(key, None)
            else:
                self._reserved[key] = remaining
        return demands

    def demands_of(self, intent_id: str) -> List[LinkDemand]:
        """The committed demands of one intent."""
        try:
            return list(self._by_intent[intent_id])
        except KeyError:
            raise AdmissionError(intent_id, "not committed") from None

    def committed_intents(self) -> List[str]:
        """Ids of all committed intents."""
        return list(self._by_intent)

    def tenant_floor(self, link_id: str, intent_ids: List[str]) -> float:
        """Total floor the given intents hold on *link_id* (both directions)."""
        total = 0.0
        for intent_id in intent_ids:
            for demand in self._by_intent.get(intent_id, []):
                if demand.link_id == link_id:
                    total += demand.bandwidth
        return total


@dataclass
class AdmissionDecision:
    """Outcome of one admission attempt.

    Attributes:
        intent_id: The intent decided on.
        admitted: Whether it was accepted.
        candidate: The committed candidate when admitted.
        reason: Rejection reason when not.
    """

    intent_id: str
    admitted: bool
    candidate: Optional[CandidateRequirement] = None
    reason: str = ""


class AdmissionController:
    """Capacity-checked admission against a ledger.

    Args:
        ledger: The shared reservation ledger.
        headroom: Admission budget as a fraction of link capacity
            (0.9 keeps 10% slack; 1.2 overcommits by 20%).
    """

    def __init__(self, ledger: ReservationLedger, headroom: float = 0.9) -> None:
        # A NaN headroom would reject every intent without saying why.
        if not 0 < headroom < math.inf:
            raise ValueError(
                f"headroom must be finite and > 0, got {headroom}")
        self.ledger = ledger
        self.headroom = headroom
        self.admitted_count = 0
        self.rejected_count = 0

    def feasible(self, compiled: CompiledIntent) -> List[CandidateRequirement]:
        """Candidates of *compiled* that currently fit the budget."""
        return [
            c for c in compiled.candidates
            if self.ledger.fits(c, self.headroom)
        ]

    def admit(self, compiled: CompiledIntent,
              candidate: CandidateRequirement) -> AdmissionDecision:
        """Commit *candidate* for *compiled*'s intent, re-checking fit."""
        intent_id = compiled.intent.intent_id
        if not self.ledger.fits(candidate, self.headroom):
            self.rejected_count += 1
            return AdmissionDecision(
                intent_id=intent_id, admitted=False,
                reason="insufficient capacity at commit time",
            )
        self.ledger.commit(intent_id, candidate)
        self.admitted_count += 1
        return AdmissionDecision(
            intent_id=intent_id, admitted=True, candidate=candidate,
        )

    def reject(self, compiled: CompiledIntent,
               reason: str) -> AdmissionDecision:
        """Record a rejection (for accounting symmetry)."""
        self.rejected_count += 1
        return AdmissionDecision(
            intent_id=compiled.intent.intent_id, admitted=False, reason=reason,
        )


# --------------------------------------------------------------------------
# Retry queue: backoff-parked re-admission.
# --------------------------------------------------------------------------


@dataclass
class ParkedIntent:
    """One intent waiting in the retry queue.

    Attributes:
        intent: The performance target still to be placed.
        parked_at: When it first failed to admit (simulated seconds).
        deadline: Absolute shed time; ``None`` waits indefinitely.
        attempts: Placement attempts so far (including the initial one).
        last_reason: The most recent failure's message.
    """

    intent: PerformanceTarget
    parked_at: float
    deadline: Optional[float]
    attempts: int = 1
    last_reason: str = ""


@dataclass(frozen=True)
class ShedRecord:
    """Why a parked intent was dropped instead of admitted.

    Attributes:
        intent_id: The shed intent.
        reason: ``"deadline"`` (parked past its deadline),
            ``"queue_full"`` (bounded queue overflowed), or
            ``"shutdown"`` (queue stopped with intents still parked).
        time: When it was shed (simulated seconds).
        attempts: Placement attempts made before giving up.
    """

    intent_id: str
    reason: str
    time: float
    attempts: int


class AdmissionRetryQueue:
    """Sim-clock-driven retry of intents that failed to place.

    ``submit`` tries an immediate placement; on any
    :class:`~repro.errors.HostNetError` the intent is parked and re-tried
    with exponential backoff plus jitter.  :meth:`kick` (wired to the
    manager's release hook) retries everything at the next engine instant,
    so capacity freed by a departure is claimed in bounded time rather
    than after a full backoff period.  The queue is bounded
    (``max_parked``); overflow and expired deadlines shed with a
    :class:`ShedRecord` so operators can account for every intent.

    Args:
        engine: The discrete-event engine driving retry timers.
        submit: Placement attempt, e.g. ``manager.submit``; must raise
            :class:`~repro.errors.HostNetError` on failure.
        base_delay: First backoff delay (seconds).
        multiplier: Backoff growth per failed attempt.
        max_delay: Backoff ceiling (seconds).
        jitter: Fractional uniform jitter applied to each delay
            (0.25 means ±25%), desynchronizing retry bursts.
        max_parked: Bound on simultaneously parked intents.
        seed: RNG seed for the jitter (determinism).
    """

    def __init__(
        self,
        engine,
        submit: Callable[[PerformanceTarget], object],
        *,
        base_delay: float = 0.002,
        multiplier: float = 2.0,
        max_delay: float = 0.05,
        jitter: float = 0.25,
        max_parked: int = 64,
        seed: int = 0,
    ) -> None:
        if base_delay <= 0 or max_delay <= 0 or multiplier < 1:
            raise ValueError("backoff parameters must be positive "
                             "(multiplier >= 1)")
        if not 0 <= jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if max_parked <= 0:
            raise ValueError(f"max_parked must be > 0, got {max_parked}")
        self.engine = engine
        self._submit = submit
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.max_parked = max_parked
        self._rng = random.Random(seed)
        self._parked: Dict[str, ParkedIntent] = {}
        self._timers: Dict[str, object] = {}
        self._kick_pending = False
        self.shed: List[ShedRecord] = []
        self.admitted_after_retry = 0
        self._admit_listeners: List[Callable[[PerformanceTarget, object],
                                             None]] = []

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._parked)

    def parked(self) -> List[ParkedIntent]:
        """Currently parked intents, oldest first."""
        return list(self._parked.values())

    def is_parked(self, intent_id: str) -> bool:
        """Whether *intent_id* is waiting in the queue."""
        return intent_id in self._parked

    def on_admit(self, listener: Callable[[PerformanceTarget, object],
                                          None]) -> None:
        """Register a callback fired when a parked intent finally places."""
        self._admit_listeners.append(listener)

    # -- the front door -----------------------------------------------------

    def submit(self, intent: PerformanceTarget,
               deadline: Optional[float] = None):
        """Place *intent* now, or park it for retry.

        Returns the placement on immediate success, ``None`` when the
        intent was parked (or immediately shed — check :attr:`shed`).
        *deadline* is an absolute simulated time after which the intent
        is dropped rather than retried.
        """
        try:
            return self._attempt_submit(intent)
        except HostNetError as exc:
            self._park(intent, deadline, str(exc))
            return None

    def _attempt_submit(self, intent: PerformanceTarget):
        if not TRACER.enabled:
            return self._submit(intent)
        with TRACER.span("admission", "retry", {
            "intent": intent.intent_id,
        }):
            try:
                placement = self._submit(intent)
            except Exception as exc:
                TRACER.annotate(outcome=type(exc).__name__)
                raise
            TRACER.annotate(outcome="admitted")
            return placement

    # -- parking ------------------------------------------------------------

    def _park(self, intent: PerformanceTarget, deadline: Optional[float],
              reason: str) -> None:
        now = self.engine.now
        if deadline is not None and now >= deadline:
            self._shed(intent.intent_id, "deadline", attempts=1)
            return
        if len(self._parked) >= self.max_parked:
            self._shed(intent.intent_id, "queue_full", attempts=1)
            return
        entry = ParkedIntent(intent=intent, parked_at=now,
                             deadline=deadline, attempts=1,
                             last_reason=reason)
        self._parked[intent.intent_id] = entry
        self._arm(entry)
        if TRACER.enabled:
            TRACER.instant("admission", "park",
                           {"intent": intent.intent_id, "reason": reason})
        self._sample_depth()

    def _backoff(self, attempts: int) -> float:
        delay = min(self.base_delay * self.multiplier ** (attempts - 1),
                    self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def _arm(self, entry: ParkedIntent) -> None:
        intent_id = entry.intent.intent_id
        delay = self._backoff(entry.attempts)
        if entry.deadline is not None:
            # Never sleep past the deadline: fire then and shed on time.
            delay = min(delay, max(entry.deadline - self.engine.now, 0.0))
        old = self._timers.pop(intent_id, None)
        if old is not None:
            old.cancel()
        self._timers[intent_id] = self.engine.schedule_in(
            delay, lambda: self._retry(intent_id), label="admission-retry"
        )

    def _retry(self, intent_id: str) -> None:
        entry = self._parked.get(intent_id)
        if entry is None:
            return
        self._timers.pop(intent_id, None)
        now = self.engine.now
        if entry.deadline is not None and now >= entry.deadline:
            del self._parked[intent_id]
            self._shed(intent_id, "deadline", attempts=entry.attempts)
            self._sample_depth()
            return
        entry.attempts += 1
        try:
            placement = self._attempt_submit(entry.intent)
        except HostNetError as exc:
            entry.last_reason = str(exc)
            self._arm(entry)
            return
        del self._parked[intent_id]
        self.admitted_after_retry += 1
        self._sample_depth()
        for listener in self._admit_listeners:
            listener(entry.intent, placement)

    def _shed(self, intent_id: str, reason: str, attempts: int) -> None:
        record = ShedRecord(intent_id=intent_id, reason=reason,
                            time=self.engine.now, attempts=attempts)
        self.shed.append(record)
        if TRACER.enabled:
            TRACER.instant("admission", "shed",
                           {"intent": intent_id, "reason": reason})

    def _sample_depth(self) -> None:
        if TRACER.enabled:
            TRACER.counter("admission", "admission.parked_intents",
                           len(self._parked))

    # -- external triggers --------------------------------------------------

    def kick(self) -> None:
        """Retry every parked intent at the next engine instant.

        Wire this to :meth:`HostNetworkManager.on_release` (capacity just
        freed); coalesced so N same-instant releases trigger one sweep.
        """
        if self._kick_pending or not self._parked:
            return
        self._kick_pending = True
        self.engine.schedule_now(self._kicked, label="admission-kick")

    def _kicked(self) -> None:
        self._kick_pending = False
        for intent_id in list(self._parked):
            self._retry(intent_id)

    def stop(self, shed_remaining: bool = True) -> None:
        """Cancel all timers; optionally shed what's still parked."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        if shed_remaining:
            for intent_id, entry in list(self._parked.items()):
                self._shed(intent_id, "shutdown", attempts=entry.attempts)
            self._parked.clear()
            self._sample_depth()
