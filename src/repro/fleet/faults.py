"""Fleet-scale fault injection: crashes, degradations, partitions.

The per-host chaos harness (``repro.resilience.chaos``) breaks links
*inside* one fabric; this module breaks the *fleet* — whole hosts crash
and later recover, hosts silently lose capacity, and failure domains
partition from each other — with the same discipline: every fault is
drawn from a seeded schedule that is a pure function of its config, every
fault is paired with its repair, and the outcome of a campaign is
bit-identical across both fleet-clock disciplines.

Three pieces live here:

* :class:`FleetHealth` — the fleet's fault ground truth: which hosts are
  crashed or degraded, which failure domain each host belongs to, and
  which domains are currently partitioned.  Placement, migration, and
  evacuation all consult it (crashed hosts are hard-filtered, faulted
  domains are soft-avoided, partitions block migration legs).
* :func:`generate_fault_schedule` — the seeded schedule: a pure function
  of (:class:`FleetFaultConfig`, host membership), so the same seed
  always yields the same storm.
* :class:`FleetFaultInjector` — drives a schedule through the fleet
  clock.  Its :meth:`~FleetFaultInjector.advance_to` interleaves fault
  events (and the recovery controller's retry queue) with the fleet's
  own advance, so both clock disciplines observe identical state
  transitions at identical fleet times — the SimBricks lesson applied to
  failures: component-boundary faults are only useful when their
  semantics are deterministic at the sync points.

Crash semantics: a crashed host is frozen (evicted from the fleet clock
— no events run while it is down), its fleet placements are released
(reservations on a dead host are void) and handed to the
:class:`~repro.fleet.recovery.FleetRecoveryController` for evacuation,
and the cluster scheduler stops considering it.  Recovery thaws the host
— it re-enters the clock's heap and catches up to fleet time — and makes
it a placement target again.  Degradation keeps the host alive but
shrinks every intra-host link to a capacity factor (via the per-host
:class:`~repro.monitor.failures.FailureInjector`, whose repair path
restores link state bit-exactly) and marks it unavailable so placements
drain away from it.  A partition cuts one failure domain off from the
rest: sessions keep running, but no migration or evacuation leg may
cross the cut.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from ..errors import FleetError, UnknownHostError
from ..sim.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Fleet

#: Floating-point slack when comparing fault-timeline times.
_FAULT_EPS = 1e-12


class FleetHealth:
    """Fleet-level fault ground truth.

    Hosts are assigned to ``domains`` failure domains round-robin over
    sorted host ids — the racks/power-feeds abstraction: a fault that
    takes out one host makes its whole domain suspect, so evacuees are
    steered *out* of the domain (:meth:`avoid_hosts`), which is how one
    correlated failure avoids eating a tenant twice.

    Args:
        host_ids: Fleet membership (order-insensitive; sorted here).
        domains: Number of failure domains (>= 1).
    """

    def __init__(self, host_ids: Sequence[str], domains: int = 1) -> None:
        if domains < 1:
            raise FleetError(f"failure domains must be >= 1, got {domains}")
        self._hosts = sorted(host_ids)
        if not self._hosts:
            raise FleetError("FleetHealth needs at least one host")
        self.domains = min(domains, len(self._hosts))
        self._domain_of = {
            host_id: i % self.domains
            for i, host_id in enumerate(self._hosts)
        }
        self._members: Dict[int, List[str]] = {}
        for host_id in self._hosts:
            self._members.setdefault(
                self._domain_of[host_id], []).append(host_id)
        self._crashed: set = set()
        self._degraded: Dict[str, float] = {}
        self._partitions: Dict[int, FrozenSet[str]] = {}
        self._partition_seq = 0

    # -- membership ----------------------------------------------------------

    def host_ids(self) -> List[str]:
        """All known host ids, sorted."""
        return list(self._hosts)

    def _check(self, host_id: str) -> None:
        if host_id not in self._domain_of:
            raise UnknownHostError(host_id)

    def domain_of(self, host_id: str) -> int:
        """The failure domain *host_id* belongs to."""
        self._check(host_id)
        return self._domain_of[host_id]

    def domain_members(self, domain: int) -> List[str]:
        """Hosts in *domain*, sorted."""
        return list(self._members.get(domain, ()))

    # -- crash / degrade state -----------------------------------------------

    def crash(self, host_id: str) -> None:
        """Mark *host_id* crashed (idempotent)."""
        self._check(host_id)
        self._crashed.add(host_id)

    def recover(self, host_id: str) -> None:
        """Clear *host_id*'s crash mark (idempotent)."""
        self._check(host_id)
        self._crashed.discard(host_id)

    def degrade(self, host_id: str, factor: float) -> None:
        """Mark *host_id* degraded to *factor* of nominal capacity."""
        self._check(host_id)
        if not 0 < factor <= 1:
            raise FleetError(f"degrade factor must be in (0, 1], got {factor}")
        self._degraded[host_id] = factor

    def restore(self, host_id: str) -> None:
        """Clear *host_id*'s degradation mark (idempotent)."""
        self._degraded.pop(host_id, None)

    def is_crashed(self, host_id: str) -> bool:
        """Whether *host_id* is currently crashed."""
        return host_id in self._crashed

    def is_degraded(self, host_id: str) -> bool:
        """Whether *host_id* is currently capacity-degraded."""
        return host_id in self._degraded

    def degrade_factor(self, host_id: str) -> Optional[float]:
        """Active degradation factor of *host_id* (``None`` if healthy)."""
        return self._degraded.get(host_id)

    @property
    def crashed(self) -> FrozenSet[str]:
        """Currently crashed hosts."""
        return frozenset(self._crashed)

    @property
    def degraded(self) -> FrozenSet[str]:
        """Currently degraded hosts."""
        return frozenset(self._degraded)

    def faulted_domains(self) -> FrozenSet[int]:
        """Domains containing at least one crashed or degraded host."""
        return frozenset(
            self._domain_of[h] for h in (self._crashed | set(self._degraded))
        )

    def avoid_hosts(self) -> FrozenSet[str]:
        """Every host in a faulted domain — the placement avoid-set.

        A fault on one host makes its whole domain suspect (shared rack,
        power feed, ToR), so new placements and evacuees are steered to
        other domains first.  This is a soft signal: policies rank these
        hosts last rather than excluding them, so a fleet whose every
        domain is faulted still places.
        """
        bad = self.faulted_domains()
        if not bad:
            return frozenset()
        return frozenset(
            h for d in bad for h in self._members.get(d, ())
        )

    # -- partitions ----------------------------------------------------------

    def partition(self, hosts: Sequence[str]) -> int:
        """Cut *hosts* off from the rest of the fleet; returns a token.

        Hosts inside the cut still reach each other, as does the
        remainder of the fleet — only legs *crossing* the cut are
        blocked (:meth:`reachable`).
        """
        side = frozenset(hosts)
        for host_id in side:
            self._check(host_id)
        if not side or len(side) == len(self._hosts):
            raise FleetError(
                "a partition must cut a proper, non-empty subset of hosts"
            )
        self._partition_seq += 1
        token = self._partition_seq
        self._partitions[token] = side
        return token

    def heal(self, token: int) -> None:
        """Repair the partition identified by *token* (idempotent)."""
        self._partitions.pop(token, None)

    def reachable(self, a: str, b: str) -> bool:
        """Whether a migration/evacuation leg from *a* to *b* is possible
        under the currently active partitions."""
        for side in self._partitions.values():
            if (a in side) != (b in side):
                return False
        return True

    @property
    def partitions(self) -> List[FrozenSet[str]]:
        """Active partition cuts (each the isolated side)."""
        return [self._partitions[t] for t in sorted(self._partitions)]

    def describe(self) -> str:
        """Human-readable health summary."""
        lines = [
            f"FleetHealth: {len(self._hosts)} hosts in "
            f"{self.domains} domain(s), {len(self._crashed)} crashed, "
            f"{len(self._degraded)} degraded, "
            f"{len(self._partitions)} partition(s)"
        ]
        for host_id in sorted(self._crashed):
            lines.append(f"  {host_id}: CRASHED")
        for host_id in sorted(self._degraded):
            lines.append(
                f"  {host_id}: degraded to "
                f"{self._degraded[host_id]:.0%} capacity")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Seeded fault schedules.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetFaultEvent:
    """One scheduled fault and (implicitly) its repair.

    Attributes:
        time: Injection time (fleet clock).
        kind: ``"crash"``, ``"degrade"``, or ``"partition"``.
        targets: Affected host ids (one host for crash/degrade; a whole
            failure domain for partitions).
        duration: Seconds until the paired repair fires.
        factor: Capacity factor for ``degrade`` (else ``None``).
    """

    time: float
    kind: str
    targets: Tuple[str, ...]
    duration: float
    factor: Optional[float] = None

    @property
    def clear_time(self) -> float:
        """When the paired repair fires."""
        return self.time + self.duration


@dataclass(frozen=True)
class FleetFaultSchedule:
    """A full seeded storm: injection events plus their implied repairs."""

    seed: int
    events: Tuple[FleetFaultEvent, ...]

    @property
    def end_time(self) -> float:
        """Time of the last repair (0 for an empty schedule)."""
        return max((e.clear_time for e in self.events), default=0.0)

    def __len__(self) -> int:
        return len(self.events)

    def describe(self) -> str:
        """Human-readable schedule listing."""
        lines = [f"fault schedule (seed={self.seed}): "
                 f"{len(self.events)} events"]
        for ev in self.events:
            what = ev.kind
            if ev.factor is not None:
                what += f"@{ev.factor:.0%}"
            lines.append(
                f"  {ev.time:.6f}s +{ev.duration:.6f}s {what:<14} "
                f"{','.join(ev.targets)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FleetFaultConfig:
    """Knobs for one seeded fault schedule.

    Timing knobs are fractions of ``horizon``, so one config shape works
    for sub-second chaos campaigns and hour-long trace replays alike
    (the same scale-free design as
    :class:`~repro.workloads.cluster_traces.replay.ReplayConfig`).

    Attributes:
        seed: Master seed; the schedule is a pure function of this
            config plus the fleet's host membership.
        faults: Fault injections to attempt.  Injections that would
            exceed ``max_down_fraction`` are skipped, so the emitted
            schedule may be shorter.
        horizon: The driven workload's horizon; injections land in
            ``[start_fraction * horizon, horizon)``.
        start_fraction: Warmup fraction before the first fault.
        outage_fraction: (lo, hi) fault duration as horizon fractions.
        crash_weight / degrade_weight / partition_weight: Relative draw
            weights after the first three events (which cycle through
            all kinds once, so small schedules still cover every kind).
        degrade_factor: (lo, hi) surviving-capacity factor for degrades.
        max_down_fraction: Cap on the fraction of hosts concurrently
            crashed or degraded — the knob that keeps "aggregate
            headroom suffices" true for loss-free campaigns.
    """

    seed: int = 0
    faults: int = 8
    horizon: float = 0.4
    start_fraction: float = 0.1
    outage_fraction: Tuple[float, float] = (0.1, 0.3)
    crash_weight: float = 0.5
    degrade_weight: float = 0.3
    partition_weight: float = 0.2
    degrade_factor: Tuple[float, float] = (0.2, 0.6)
    max_down_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.faults < 0:
            raise FleetError(f"faults must be >= 0, got {self.faults}")
        if not 0 < self.horizon < math.inf:
            raise FleetError(
                f"horizon must be finite and > 0, got {self.horizon}")
        if not 0 <= self.start_fraction < 1:
            raise FleetError(
                f"start_fraction must be in [0, 1), got "
                f"{self.start_fraction}")
        if not 0 < self.max_down_fraction <= 1:
            raise FleetError(
                f"max_down_fraction must be in (0, 1], got "
                f"{self.max_down_fraction}")
        if not all(0 <= f < math.inf for f in self.outage_fraction):
            raise FleetError(f"outage_fraction must be finite and >= 0, "
                             f"got {self.outage_fraction}")
        # The fault injector's degrade accepts (0, 1].
        if not all(0 < f <= 1 for f in self.degrade_factor):
            raise FleetError(f"degrade_factor must be in (0, 1], "
                             f"got {self.degrade_factor}")
        weights = (self.crash_weight, self.degrade_weight,
                   self.partition_weight)
        if not (all(0 <= w < math.inf for w in weights) and sum(weights) > 0):
            raise FleetError(f"kind weights must be finite, >= 0 and not "
                             f"all zero, got {weights}")


_FAULT_KINDS = ("crash", "degrade", "partition")


def generate_fault_schedule(config: FleetFaultConfig,
                            health: FleetHealth) -> FleetFaultSchedule:
    """The seeded storm for one fleet: a pure function of its inputs.

    Injection times are spread over the active window (one per slot,
    jittered within it), targets are drawn uniformly from hosts not
    already faulted at that time, and partition events cut one whole
    failure domain (the single drawn host's domain when the fleet has
    only one domain — a one-domain fleet cannot be split along domain
    lines, so the cut isolates that host alone).
    """
    rng = make_rng(config.seed, "fleet-faults")
    hosts = health.host_ids()
    events: List[FleetFaultEvent] = []
    if config.faults == 0:
        return FleetFaultSchedule(seed=config.seed, events=())
    start = config.start_fraction * config.horizon
    window = config.horizon - start
    slot = window / config.faults
    max_down = max(1, int(config.max_down_fraction * len(hosts)))
    down_until: Dict[str, float] = {}
    for i in range(config.faults):
        t = start + (i + rng.uniform(0.1, 0.9)) * slot
        duration = rng.uniform(*config.outage_fraction) * config.horizon
        if i < len(_FAULT_KINDS):
            kind = _FAULT_KINDS[i]
        else:
            weights = (config.crash_weight, config.degrade_weight,
                       config.partition_weight)
            x = rng.random() * sum(weights)
            kind = _FAULT_KINDS[-1]
            for candidate, weight in zip(_FAULT_KINDS, weights):
                x -= weight
                if x <= 0:
                    kind = candidate
                    break
        if kind == "partition":
            anchor = rng.choice(hosts)
            if health.domains > 1:
                targets = tuple(
                    health.domain_members(health.domain_of(anchor)))
            else:
                targets = (anchor,)
            if len(targets) >= len(hosts):
                continue  # cannot cut the whole fleet from itself
            events.append(FleetFaultEvent(
                time=t, kind=kind, targets=targets, duration=duration))
            continue
        candidates = [h for h in hosts if down_until.get(h, 0.0) <= t]
        already_down = len(hosts) - len(candidates)
        if not candidates or already_down + 1 > max_down:
            continue  # respect the concurrent-fault cap
        target = rng.choice(candidates)
        down_until[target] = t + duration
        factor = (rng.uniform(*config.degrade_factor)
                  if kind == "degrade" else None)
        events.append(FleetFaultEvent(
            time=t, kind=kind, targets=(target,), duration=duration,
            factor=factor))
    return FleetFaultSchedule(seed=config.seed, events=tuple(events))


# --------------------------------------------------------------------------
# The injector.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetFaultRecord:
    """One applied fault action, for the audit log.

    Attributes:
        time: Fleet time the action took effect.
        action: ``"inject"``, ``"repair"``, or ``"skip"``.
        kind: The fault kind acted on.
        targets: Affected host ids.
        detail: Human-readable specifics.
    """

    time: float
    action: str
    kind: str
    targets: Tuple[str, ...]
    detail: str = ""


@dataclass
class _ScheduledAction:
    event: FleetFaultEvent
    applied: bool = False
    partition_token: Optional[int] = None


class FleetFaultInjector:
    """Drives a :class:`FleetFaultSchedule` through the fleet clock.

    The injector owns the campaign's time loop: callers replace their
    ``fleet.advance_to(t)`` calls with :meth:`advance_to`, which advances
    the fleet to each due fault (and recovery-retry) time in order,
    applies it, and continues — so both clock disciplines see the exact
    same interleaving of workload, faults, and recovery.

    Args:
        fleet: The fleet under test.
        schedule: The seeded storm to drive.
        recovery: Optional
            :class:`~repro.fleet.recovery.FleetRecoveryController`; when
            attached, crash/degrade events trigger evacuation and the
            injector also pumps its retry queue.  Without one, fleet
            placements on a crashed host are released and *dropped*
            (counted in :attr:`sessions_dropped`) — the fleet never
            carries reservations on a dead host either way.
    """

    def __init__(self, fleet: "Fleet", schedule: FleetFaultSchedule,
                 recovery=None) -> None:
        self.fleet = fleet
        self.schedule = schedule
        self.recovery = recovery
        self._actions = [_ScheduledAction(event=ev)
                         for ev in schedule.events]
        self._timeline: List[Tuple[float, int, str, int]] = []
        seq = 0
        for idx, ev in enumerate(schedule.events):
            self._timeline.append((ev.time, seq, "inject", idx))
            seq += 1
            self._timeline.append((ev.clear_time, seq, "repair", idx))
            seq += 1
        heapq.heapify(self._timeline)
        self._listeners: List[Callable[[FleetFaultRecord], None]] = []
        self.records: List[FleetFaultRecord] = []
        self.crashes = 0
        self.recoveries = 0
        self.degrades = 0
        self.restores = 0
        self.partitions = 0
        self.heals = 0
        self.skipped = 0
        #: Fleet sessions released from crashed hosts with no recovery
        #: controller attached (lost — tests assert this stays 0 when
        #: a controller is wired).
        self.sessions_dropped = 0

    # -- observation ---------------------------------------------------------

    def on_event(self,
                 listener: Callable[[FleetFaultRecord], None]) -> None:
        """Call *listener* after every applied fault action (the chaos
        harness hangs its invariant audits here)."""
        self._listeners.append(listener)

    def pending(self) -> int:
        """Timeline actions not yet applied."""
        return len(self._timeline)

    def next_time(self) -> Optional[float]:
        """Fleet time of the next due action (faults and retries)."""
        t_fault = self._timeline[0][0] if self._timeline else None
        t_retry = (self.recovery.next_due()
                   if self.recovery is not None else None)
        times = [x for x in (t_fault, t_retry) if x is not None]
        return min(times) if times else None

    # -- the drive loop ------------------------------------------------------

    def advance_to(self, t: float) -> int:
        """Advance the fleet to *t*, applying every fault action and
        recovery retry due on the way, in time order.

        Returns host events processed (same contract as
        :meth:`Fleet.advance_to`, so replay's ``host_events`` counter
        keeps working when faults are armed).
        """
        processed = 0
        while True:
            t_next = self.next_time()
            if t_next is None or t_next > t + _FAULT_EPS:
                break
            if t_next > self.fleet.now:
                processed += self.fleet.advance_to(t_next)
            # Faults first, then retries: a retry due at the same
            # instant must see the post-fault world.
            while (self._timeline
                   and self._timeline[0][0] <= t_next + _FAULT_EPS):
                _t, _seq, action, idx = heapq.heappop(self._timeline)
                self._apply(action, idx)
            if self.recovery is not None:
                self.recovery.process(self.fleet.now)
        if t > self.fleet.now:
            processed += self.fleet.advance_to(t)
        if self.recovery is not None:
            self.recovery.process(self.fleet.now)
        return processed

    # -- applying actions ----------------------------------------------------

    def _emit(self, action: str, kind: str, targets: Tuple[str, ...],
              detail: str = "") -> None:
        record = FleetFaultRecord(
            time=self.fleet.now, action=action, kind=kind,
            targets=targets, detail=detail)
        self.records.append(record)
        for listener in self._listeners:
            listener(record)

    def _skip(self, kind: str, targets: Tuple[str, ...],
              detail: str) -> None:
        self.skipped += 1
        self._emit("skip", kind, targets, detail)

    def _apply(self, action: str, idx: int) -> None:
        entry = self._actions[idx]
        ev = entry.event
        if action == "inject":
            handler = getattr(self, f"_inject_{ev.kind}")
        else:
            if not entry.applied:
                return  # the paired injection was skipped
            handler = getattr(self, f"_repair_{ev.kind}")
        handler(entry, ev)

    # crash ------------------------------------------------------------------

    def _inject_crash(self, entry: _ScheduledAction,
                      ev: FleetFaultEvent) -> None:
        host_id = ev.targets[0]
        health = self.fleet.health
        if health.is_crashed(host_id) or health.is_degraded(host_id):
            self._skip("crash", ev.targets, "host already faulted")
            return
        # Freeze the host *at* fleet time: wake it first so its local
        # clock (and any releases below) are stamped "now".
        self.fleet.wake(host_id)
        health.crash(host_id)
        self.fleet.telemetry.set_fault(host_id, True)
        if self.recovery is not None:
            self.recovery.evacuate_host(host_id, crash=True)
        else:
            self._drop_placements(host_id)
        self.fleet.clock.deactivate(host_id)
        entry.applied = True
        self.crashes += 1
        self._emit("inject", "crash", ev.targets)

    def _repair_crash(self, entry: _ScheduledAction,
                      ev: FleetFaultEvent) -> None:
        host_id = ev.targets[0]
        self.fleet.health.recover(host_id)
        self.fleet.telemetry.set_fault(host_id, False)
        # Thaw: the host re-enters the clock and catches up to fleet
        # time (its backlog — arbiter passes scheduled before the crash
        # — replays during the catch-up, identically on both clocks).
        self.fleet.clock.reactivate(host_id)
        self.recoveries += 1
        self._emit("repair", "crash", ev.targets)

    def _drop_placements(self, host_id: str) -> None:
        """No recovery controller: release (and lose) fleet sessions on a
        crashed host so it provably holds zero reservations."""
        scheduler = self.fleet.scheduler
        for fp in scheduler.placements_on(host_id):
            self.fleet.manager_release(host_id, fp.intent_id)
            scheduler.forget(fp.intent_id)
            self.sessions_dropped += 1
        self.fleet.telemetry.invalidate(host_id)

    # degrade ----------------------------------------------------------------

    def _inject_degrade(self, entry: _ScheduledAction,
                        ev: FleetFaultEvent) -> None:
        host_id = ev.targets[0]
        health = self.fleet.health
        if health.is_crashed(host_id) or health.is_degraded(host_id):
            self._skip("degrade", ev.targets, "host already faulted")
            return
        factor = ev.factor if ev.factor is not None else 0.5
        self.fleet.wake(host_id)
        health.degrade(host_id, factor)
        self.fleet.telemetry.set_fault(host_id, True)
        self.fleet.degrade_host_links(host_id, factor)
        self.fleet.notify(host_id)
        self.fleet.telemetry.invalidate(host_id)
        if self.recovery is not None:
            self.recovery.evacuate_host(host_id, crash=False)
        entry.applied = True
        self.degrades += 1
        self._emit("inject", "degrade", ev.targets,
                   f"capacity factor {factor:.2f}")

    def _repair_degrade(self, entry: _ScheduledAction,
                        ev: FleetFaultEvent) -> None:
        host_id = ev.targets[0]
        self.fleet.wake(host_id)
        self.fleet.restore_host_links(host_id)
        self.fleet.health.restore(host_id)
        self.fleet.telemetry.set_fault(host_id, False)
        self.fleet.notify(host_id)
        self.fleet.telemetry.invalidate(host_id)
        self.restores += 1
        self._emit("repair", "degrade", ev.targets)

    # partition --------------------------------------------------------------

    def _inject_partition(self, entry: _ScheduledAction,
                          ev: FleetFaultEvent) -> None:
        entry.partition_token = self.fleet.health.partition(ev.targets)
        entry.applied = True
        self.partitions += 1
        self._emit("inject", "partition", ev.targets)

    def _repair_partition(self, entry: _ScheduledAction,
                          ev: FleetFaultEvent) -> None:
        if entry.partition_token is not None:
            self.fleet.health.heal(entry.partition_token)
            entry.partition_token = None
        self.heals += 1
        self._emit("repair", "partition", ev.targets)

    # -- reporting -----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """All fault counters, keyed for report embedding."""
        return {
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "degrades": self.degrades,
            "restores": self.restores,
            "partitions": self.partitions,
            "heals": self.heals,
            "skipped": self.skipped,
            "sessions_dropped": self.sessions_dropped,
        }

    def describe(self) -> str:
        """Human-readable injector summary."""
        return (
            f"FleetFaultInjector: {self.crashes} crashes "
            f"({self.recoveries} recovered), {self.degrades} degrades "
            f"({self.restores} restored), {self.partitions} partitions "
            f"({self.heals} healed), {self.skipped} skipped, "
            f"{self.pending()} pending"
        )
