"""The closed-loop recovery controller.

Detection without reaction is a dashboard.  :class:`RecoveryController`
closes the loop the paper's management plane implies: it watches the
fabric's ground-truth health (link state transitions, degraded effective
capacities) and the monitor's anomaly reports, and per affected placement
picks one of three moves:

* **re-placement** — release and re-admit the intent onto an alternate
  candidate that avoids every dead, quarantined, or degraded link (the
  manager's :meth:`~repro.core.manager.HostNetworkManager.replace` makes
  this atomic: a failed attempt reinstates the original placement);
* **graceful degradation** — when no alternate exists, shrink the
  placement's utilization ceilings proportionally to the surviving
  effective capacity and record a tenant-visible
  :class:`Degradation`, restored bit-for-bit when the fault clears;
* **quarantine** — a link that flaps more than ``flap_threshold`` times
  within ``flap_window`` is quarantined under a hold-down timer:
  placements avoid it even while it is momentarily up, until it stays up
  for ``quarantine_holddown`` seconds.

The controller also flips the arbiter into degradation-aware allocation
(caps computed against *effective* capacity) so enforcement stops
overcommitting silently-degraded links the moment recovery is armed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.manager import HostNetworkManager, Placement
from ..errors import HostNetError, ResilienceError
from ..trace.recorder import TRACER
from ..trace.spans import CAT_RECOVERY


def check_duration(name: str, value: float) -> None:
    """Reject a period, window or hold-down that is not finite and > 0."""
    if not 0 < value < math.inf:
        raise ResilienceError(f"{name} must be finite and > 0, got {value}")


def check_count(name: str, value: int) -> None:
    """Reject a count below 1."""
    if not value >= 1:
        raise ResilienceError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class RecoveryConfig:
    """Tuning knobs for closed-loop recovery.

    Attributes:
        tick_period: Recovery scan period (simulated seconds).  Link-state
            transitions and anomalous monitor reports additionally trigger
            an immediate (same-instant) scan.
        flap_threshold: Link state transitions within ``flap_window`` that
            trigger quarantine.
        flap_window: Sliding window for counting transitions (seconds).
        quarantine_holddown: How long a quarantined link must stay up
            before placements may use it again (seconds).
        degrade_floor: Minimum ceiling factor handed to a degraded
            placement — keeps the record explicit even when the link is
            hard-down (effective capacity 0).
        monitor: Whether :class:`~repro.host.Host` should build a
            :class:`~repro.monitor.monitor.HostMonitor` and subscribe the
            controller to its reports.
        monitor_check_period: Period of the monitor's scheduled checks
            when ``monitor`` is on (seconds).
        retry: Whether :class:`~repro.host.Host` should build an
            :class:`~repro.core.admission.AdmissionRetryQueue` kicked on
            every release.
        retry_max_parked: Bound on the retry queue when ``retry`` is on.
        seed: RNG seed forwarded to monitor probing and retry jitter.
    """

    tick_period: float = 0.002
    flap_threshold: int = 3
    flap_window: float = 0.05
    quarantine_holddown: float = 0.05
    degrade_floor: float = 0.05
    monitor: bool = True
    monitor_check_period: float = 0.005
    retry: bool = True
    retry_max_parked: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("tick_period", "flap_window", "quarantine_holddown",
                     "monitor_check_period"):
            check_duration(name, getattr(self, name))
        for name in ("flap_threshold", "retry_max_parked"):
            check_count(name, getattr(self, name))
        if not 0 < self.degrade_floor <= 1:
            raise ResilienceError(f"degrade_floor must be in (0, 1], "
                                  f"got {self.degrade_floor}")


@dataclass(frozen=True)
class RecoveryAction:
    """One recovery decision, for the audit log.

    Attributes:
        kind: ``"replace"``, ``"degrade"``, ``"restore"``,
            ``"quarantine"``, or ``"unquarantine"``.
        time: When it happened (simulated seconds).
        intent_id: Affected intent (placement actions) or ``None``.
        link_id: Affected link (quarantine/degrade actions) or ``None``.
        detail: Human-readable specifics.
    """

    kind: str
    time: float
    intent_id: Optional[str] = None
    link_id: Optional[str] = None
    detail: str = ""


@dataclass
class Degradation:
    """A tenant-visible record of one shrunk guarantee.

    Attributes:
        intent_id: The degraded intent.
        tenant_id: Its owner (so tenants can query their downgrades).
        link_id: The faulty link forcing the downgrade.
        factor: Current ceiling factor (fraction of the intent's healthy
            service level; ``degrade_floor`` means effectively zero).
        started_at: When the downgrade began.
        restored_at: When full service resumed, if it has.
    """

    intent_id: str
    tenant_id: str
    link_id: str
    factor: float
    started_at: float
    restored_at: Optional[float] = None

    @property
    def active(self) -> bool:
        """Whether the downgrade is still in effect."""
        return self.restored_at is None


class RecoveryController:
    """Closed-loop failure recovery over one managed host.

    Args:
        manager: The resource manager whose placements are protected.
        monitor: Optional :class:`~repro.monitor.monitor.HostMonitor`;
            anomalous reports trigger an immediate recovery scan.
        config: Tuning knobs (see :class:`RecoveryConfig`).
    """

    def __init__(
        self,
        manager: HostNetworkManager,
        monitor=None,
        config: Optional[RecoveryConfig] = None,
    ) -> None:
        self.manager = manager
        self.network = manager.network
        self.engine = self.network.engine
        self.config = config or RecoveryConfig()
        self.actions: List[RecoveryAction] = []
        self.ticks = 0
        self._degradations: Dict[Tuple[str, str], Degradation] = {}
        self._transitions: Dict[str, List[float]] = {}
        self._quarantined_until: Dict[str, float] = {}
        self._replace_failed: Dict[str, FrozenSet[str]] = {}
        self._escalation_listeners: List[Callable[[str, List[str]], None]] = []
        self._escalated: Dict[str, FrozenSet[str]] = {}
        self._flows: Dict[str, List[str]] = {}
        self._task = None
        self._tick_pending = False
        self._replacing: Optional[str] = None
        self.network.on_link_state_change(self._on_link_state)
        self.manager.on_release(self._on_release)
        if monitor is not None:
            monitor.on_report(self._on_report)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Arm recovery: periodic scans + degradation-aware arbitration."""
        if self._task is not None:
            return
        self.manager.arbiter.degradation_aware = True
        self._task = self.engine.schedule_every(
            self.config.tick_period, self.tick, label="recovery-tick"
        )

    def stop(self) -> None:
        """Disarm periodic scanning (records and state are kept)."""
        if self._task is not None:
            self._task.cancel()
            self._task = None

    @property
    def running(self) -> bool:
        """Whether periodic scanning is armed."""
        return self._task is not None

    # -- flow binding -------------------------------------------------------

    def bind_flow(self, intent_id: str, flow_id: str) -> None:
        """Tie a live flow to a placement so re-placement reroutes it.

        When *intent_id* is re-placed, every bound flow whose endpoints
        match a path of the new candidate is rerouted in place.
        """
        self._flows.setdefault(intent_id, []).append(flow_id)

    # -- signals ------------------------------------------------------------

    def _on_link_state(self, link_id: str, up: bool) -> None:
        self._transitions.setdefault(link_id, []).append(self.engine.now)
        self._request_tick()

    def _on_report(self, report) -> None:
        if not report.healthy:
            self._request_tick()

    def _on_release(self, intent_id: str) -> None:
        # A released intent's downgrades are moot: lift its ceilings and
        # close the records so they don't read as pending restorations
        # forever.  Skipped mid-replace — the placement is coming back
        # (or being reinstated) and the replace path does its own cleanup.
        if intent_id == self._replacing:
            return
        self._close_degradations(intent_id, reason="intent released")
        self._flows.pop(intent_id, None)
        self._replace_failed.pop(intent_id, None)
        self._escalated.pop(intent_id, None)

    def _request_tick(self) -> None:
        """Schedule one same-instant scan (coalesced) if armed."""
        if self._tick_pending or self._task is None:
            return
        self._tick_pending = True
        self.engine.schedule_now(self._reactive_tick, label="recovery-react")

    def _reactive_tick(self) -> None:
        self._tick_pending = False
        self.tick()

    # -- the control loop ---------------------------------------------------

    def tick(self) -> None:
        """One recovery scan: quarantine, re-place, degrade, restore."""
        if not TRACER.enabled:
            return self._tick_untracked()
        with TRACER.span(CAT_RECOVERY, "tick"):
            self._tick_untracked()

    def _tick_untracked(self) -> None:
        self.ticks += 1
        self._update_quarantine()
        down = {
            link.link_id for link in self.network.topology.links()
            if not link.up
        }
        quarantined = set(self._quarantined_until)
        degraded = {
            link.link_id: link.effective_capacity / link.capacity
            for link in self.network.topology.links()
            if link.up and link.effective_capacity < link.capacity
        }
        avoid = down | quarantined | set(degraded)
        unhealthy = down | quarantined

        for placement in list(self.manager.placements()):
            links = set(placement.links())
            if not links & avoid:
                continue
            if self._try_replace(placement, avoid):
                continue
            self._degrade(placement, links, down | quarantined, degraded)
            self._maybe_escalate(placement, links & unhealthy)

        self._restore_where_healthy(unhealthy, degraded)
        if TRACER.enabled:
            TRACER.counter(CAT_RECOVERY, "recovery.active_degradations",
                           len([d for d in self._degradations.values()
                                if d.active]))
            TRACER.counter(CAT_RECOVERY, "recovery.quarantined_links",
                           len(self._quarantined_until))

    # -- quarantine ---------------------------------------------------------

    def _update_quarantine(self) -> None:
        now = self.engine.now
        horizon = now - self.config.flap_window
        for link_id, times in list(self._transitions.items()):
            recent = [t for t in times if t > horizon]
            if recent:
                self._transitions[link_id] = recent
            else:
                del self._transitions[link_id]
                continue
            if len(recent) >= self.config.flap_threshold:
                until = now + self.config.quarantine_holddown
                newly = link_id not in self._quarantined_until
                if self._quarantined_until.get(link_id, -1.0) < until:
                    self._quarantined_until[link_id] = until
                if newly:
                    self._record("quarantine", link_id=link_id,
                                 detail=f"{len(recent)} transitions in "
                                        f"{self.config.flap_window:.3g}s")
                    if TRACER.enabled:
                        TRACER.instant(CAT_RECOVERY, "quarantine",
                                       {"link": link_id,
                                        "transitions": len(recent)})
        for link_id, until in list(self._quarantined_until.items()):
            if now >= until and self.network.topology.link(link_id).up:
                del self._quarantined_until[link_id]
                self._record("unquarantine", link_id=link_id,
                             detail="hold-down expired, link stable")

    def is_quarantined(self, link_id: str) -> bool:
        """Whether *link_id* is currently held out of placement."""
        return link_id in self._quarantined_until

    def quarantined(self) -> List[str]:
        """Links currently quarantined."""
        return sorted(self._quarantined_until)

    # -- re-placement -------------------------------------------------------

    def _try_replace(self, placement: Placement,
                     avoid: Set[str]) -> bool:
        intent_id = placement.intent.intent_id
        signature = frozenset(avoid)
        if self._replace_failed.get(intent_id) == signature:
            return False  # nothing changed since the last failed attempt
        if not TRACER.enabled:
            return self._try_replace_untracked(placement, avoid, signature)
        with TRACER.span(CAT_RECOVERY, "replace", {
            "intent": intent_id, "avoid": len(avoid),
        }):
            ok = self._try_replace_untracked(placement, avoid, signature)
            TRACER.annotate(outcome="replaced" if ok else "no_alternative")
            return ok

    def _try_replace_untracked(self, placement: Placement,
                               avoid: Set[str],
                               signature: FrozenSet[str]) -> bool:
        intent_id = placement.intent.intent_id
        self._replacing = intent_id
        try:
            new = self.manager.replace(intent_id, avoid_links=avoid)
        except HostNetError:
            self._replace_failed[intent_id] = signature
            return False
        finally:
            self._replacing = None
        self._replace_failed.pop(intent_id, None)
        self._escalated.pop(intent_id, None)
        self._close_degradations(intent_id, reason="replaced")
        self._reroute_flows(intent_id, new)
        self._record("replace", intent_id=intent_id,
                     detail=f"moved onto {new.links()}")
        return True

    # -- fleet escalation ----------------------------------------------------

    def on_escalation(self, listener: Callable[[str, List[str]], None]) -> None:
        """Register a callback for placements local recovery cannot save.

        Fired with ``(intent_id, dead_links)`` when a placement sits on
        hard-unavailable links (down or quarantined), no local alternate
        candidate exists, and graceful degradation has pinned it at the
        degrade floor — i.e. the intent's guarantee cannot be met on this
        host at all.  A fleet-level controller uses this to live-migrate
        the placement to another host; without listeners the hook is inert.
        Each (intent, dead-link-set) pair fires once until the situation
        changes, so listeners are not spammed every recovery tick.
        """
        self._escalation_listeners.append(listener)

    def _maybe_escalate(self, placement: Placement,
                        dead_links: Set[str]) -> None:
        if not self._escalation_listeners or not dead_links:
            return
        intent_id = placement.intent.intent_id
        signature = frozenset(dead_links)
        if self._escalated.get(intent_id) == signature:
            return
        self._escalated[intent_id] = signature
        self._record("escalate", intent_id=intent_id,
                     detail=f"local recovery exhausted on "
                            f"{sorted(dead_links)}")
        if TRACER.enabled:
            TRACER.instant(CAT_RECOVERY, "escalate",
                           {"intent": intent_id,
                            "dead_links": len(dead_links)})
        for listener in self._escalation_listeners:
            listener(intent_id, sorted(dead_links))

    def _reroute_flows(self, intent_id: str, placement: Placement) -> None:
        flow_ids = self._flows.get(intent_id, [])
        surviving: List[str] = []
        for flow_id in flow_ids:
            if not self.network.has_flow(flow_id):
                continue
            flow = self.network.flow(flow_id)
            target = next(
                (p for p in placement.candidate.paths
                 if (p.src, p.dst) == (flow.path.src, flow.path.dst)),
                None,
            )
            if target is not None and target.links != flow.path.links:
                self.network.reroute_flow(flow_id, target)
            surviving.append(flow_id)
        if surviving:
            self._flows[intent_id] = surviving
        else:
            self._flows.pop(intent_id, None)

    # -- graceful degradation ----------------------------------------------

    def _degrade(self, placement: Placement, links: Set[str],
                 unhealthy: Set[str], degraded: Dict[str, float]) -> None:
        if not TRACER.enabled:
            self._degrade_untracked(placement, links, unhealthy, degraded)
            return
        with TRACER.span(CAT_RECOVERY, "degrade", {
            "intent": placement.intent.intent_id,
            "links": len(links & (unhealthy | set(degraded))),
        }):
            changed = self._degrade_untracked(placement, links,
                                              unhealthy, degraded)
            TRACER.annotate(changed=changed)

    def _degrade_untracked(self, placement: Placement, links: Set[str],
                           unhealthy: Set[str],
                           degraded: Dict[str, float]) -> bool:
        intent_id = placement.intent.intent_id
        tenant_id = placement.intent.tenant_id
        now = self.engine.now
        changed = False
        for link_id in sorted(links):
            if link_id in unhealthy:
                factor = self.config.degrade_floor
            elif link_id in degraded:
                factor = max(degraded[link_id], self.config.degrade_floor)
            else:
                continue
            factor = min(factor, 1.0)
            key = (intent_id, link_id)
            record = self._degradations.get(key)
            if record is not None and record.active:
                if abs(record.factor - factor) > 1e-9:
                    record.factor = factor
                    changed = True
            else:
                self._degradations[key] = Degradation(
                    intent_id=intent_id, tenant_id=tenant_id,
                    link_id=link_id, factor=factor, started_at=now,
                )
                changed = True
            self.manager.arbiter.set_utilization_ceiling(
                f"degrade:{intent_id}", link_id, factor
            )
        if changed:
            self._record("degrade", intent_id=intent_id,
                         detail=f"ceilings shrunk on "
                                f"{sorted(links & (unhealthy | set(degraded)))}")
            self.manager.arbiter.adjust_once()
        return changed

    def _restore_where_healthy(self, unhealthy: Set[str],
                               degraded: Dict[str, float]) -> None:
        now = self.engine.now
        for (intent_id, link_id), record in list(self._degradations.items()):
            if not record.active:
                continue
            if link_id in unhealthy or link_id in degraded:
                continue
            self.manager.arbiter.clear_utilization_ceiling(
                f"degrade:{intent_id}", link_id
            )
            record.restored_at = now
            self._record("restore", intent_id=intent_id, link_id=link_id,
                         detail="link healthy again, full service restored")

    def _close_degradations(self, intent_id: str, reason: str) -> None:
        """End every active downgrade of *intent_id* (it moved away)."""
        now = self.engine.now
        for record in self._iter_degradations(intent_id):
            self.manager.arbiter.clear_utilization_ceiling(
                f"degrade:{intent_id}", record.link_id
            )
            record.restored_at = now
            self._record("restore", intent_id=intent_id,
                         link_id=record.link_id, detail=reason)

    def _iter_degradations(self, intent_id: str) -> List[Degradation]:
        return [
            record for (iid, _link), record in self._degradations.items()
            if iid == intent_id and record.active
        ]

    # -- latency SLO sink ----------------------------------------------------

    def handle_latency_alert(self, alert, max_actions: int = 2) -> int:
        """React to a burn-rate alert from this host's latency probe.

        The host-local half of the §16 SLO closed loop (the fleet-level
        half is :meth:`~repro.fleet.migration.MigrationPlanner
        .relieve_latency`): walk the placement ledger and re-place
        sessions off their current — hot — paths onto alternate
        candidates; where no alternate exists, fall back to graceful
        degradation, shrinking utilization ceilings on the hot links so
        queueing inflation stays bounded (the ceilings clear through the
        normal restore path once the links read healthy).  *alert* is an
        :class:`~repro.slo.objective.SloAlert`; only fast-window alerts
        act — slow-window alerts are recorded for the audit trail only.
        ``max_actions`` bounds the work per alert (the probe's alert
        cooldown bounds the rate).  Returns the number of sessions
        re-placed.
        """
        self._record(
            "latency",
            detail=f"{alert.objective}: {alert.window}-window burn "
                   f"{alert.burn_long:.1f}x over threshold "
                   f"{alert.threshold:g}x")
        if alert.window != "fast":
            return 0
        moved = 0
        actions = 0
        for placement in list(self.manager.placements()):
            if actions >= max_actions:
                break
            links = set(placement.links())
            if self._try_replace(placement, links):
                moved += 1
                actions += 1
                continue
            self._degrade(placement, links, set(),
                          {link: self.config.degrade_floor
                           for link in links})
            actions += 1
        return moved

    # -- queries ------------------------------------------------------------

    def degradations(self, tenant_id: Optional[str] = None,
                     active_only: bool = False) -> List[Degradation]:
        """Downgrade records, optionally one tenant's / only active ones."""
        records = list(self._degradations.values())
        if tenant_id is not None:
            records = [r for r in records if r.tenant_id == tenant_id]
        if active_only:
            records = [r for r in records if r.active]
        return records

    def actions_of(self, kind: str) -> List[RecoveryAction]:
        """Recovery actions of one kind, in order."""
        return [a for a in self.actions if a.kind == kind]

    def _record(self, kind: str, intent_id: Optional[str] = None,
                link_id: Optional[str] = None, detail: str = "") -> None:
        self.actions.append(RecoveryAction(
            kind=kind, time=self.engine.now,
            intent_id=intent_id, link_id=link_id, detail=detail,
        ))

    def describe(self) -> str:
        """Human-readable recovery state summary."""
        active = [d for d in self._degradations.values() if d.active]
        lines = [
            f"RecoveryController: {self.ticks} ticks, "
            f"{len(self.actions)} actions, "
            f"{len(self._quarantined_until)} quarantined links, "
            f"{len(active)} active degradations"
        ]
        for link_id in self.quarantined():
            lines.append(f"  quarantined: {link_id} until "
                         f"{self._quarantined_until[link_id]:.6f}s")
        for record in active:
            lines.append(
                f"  degraded: {record.intent_id} on {record.link_id} "
                f"factor={record.factor:.2f} since {record.started_at:.6f}s"
            )
        return "\n".join(lines)
