"""Cross-host live migration: release-on-source / submit-on-destination.

The fleet's answer to the failures a single host cannot absorb.  When a
host's local :class:`~repro.resilience.controller.RecoveryController` has
exhausted its moves (no alternate candidate, degrade floor hit) it
escalates to the fleet, and the :class:`MigrationPlanner` moves the
placement to a healthier host; a rebalance trigger does the same when
reserved load skews past a threshold.

Every migration is **all-or-nothing**, reusing the atomic-rollback
machinery the per-host replace path is built on: the placement is released
on the source, submitted (device-remapped) on the destination, and on any
destination failure reinstated on the source bit-for-bit via
:meth:`~repro.core.manager.HostNetworkManager.reinstate` — a failed
migration never strands or duplicates an intent.

Under the fault model two new failure windows open.  A *pre-flight* check
rejects legs touching a crashed host or crossing an active partition
before any state moves (the source placement is untouched).  And if the
**rollback itself** fails — the source degraded between release and
reinstate, so the bit-for-bit restore no longer fits — the session is
handed to the attached :class:`~repro.fleet.recovery.FleetRecoveryController`
retry queue (or parked on :attr:`MigrationPlanner.orphans` when none is
attached) instead of vanishing: every session is at all times placed,
parked for retry, or explicitly shed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..errors import AdmissionError, FleetError, HostNetError, MigrationError
from ..trace.recorder import TRACER
from ..trace.spans import CAT_FLEET
from .scheduler import ClusterScheduler, FleetPlacement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Fleet


@dataclass(frozen=True)
class MigrationRecord:
    """One migration decision, for the audit log.

    Attributes:
        kind: ``"migrate"`` (explicit), ``"escalate"`` (resilience-driven),
            ``"rebalance"`` (threshold-driven), or ``"slo"``
            (latency-burn-rate-driven, via :meth:`MigrationPlanner.
            relieve_latency`).
        time: Fleet-clock time of the decision.
        intent_id: The moved (or unmovable) intent.
        src: Source host.
        dst: Destination host (``None`` when no candidate admitted it).
        ok: Whether the move committed.
        detail: Human-readable specifics.
    """

    kind: str
    time: float
    intent_id: str
    src: str
    dst: Optional[str]
    ok: bool
    detail: str = ""


class MigrationPlanner:
    """Fleet-level placement mobility.

    Args:
        fleet: The fleet being managed.
        scheduler: The cluster scheduler whose bookkeeping tracks where
            every intent lives (and whose policy ranks rescue targets).
        rebalance_threshold: When the gap between the hottest and coldest
            host's peak reserved-link fraction exceeds this, one placement
            is moved per fleet tick.  ``None`` disables rebalancing.
        max_moves_per_tick: Rebalance budget per fleet quantum boundary.
    """

    def __init__(self, fleet: "Fleet", scheduler: ClusterScheduler,
                 rebalance_threshold: Optional[float] = None,
                 max_moves_per_tick: int = 1) -> None:
        # `gap <= threshold` is never true for NaN: every tick would move.
        if rebalance_threshold is not None and not rebalance_threshold >= 0:
            raise FleetError(f"rebalance_threshold must be >= 0, "
                             f"got {rebalance_threshold}")
        self.fleet = fleet
        self.scheduler = scheduler
        self.rebalance_threshold = rebalance_threshold
        self.max_moves_per_tick = max_moves_per_tick
        self.records: List[MigrationRecord] = []
        self._escalations: List[Tuple[str, str]] = []  # (host_id, intent_id)
        #: Attached FleetRecoveryController (set by its constructor);
        #: receives sessions orphaned by a failed rollback.
        self.recovery = None
        #: (intent, src_host_id, reason) for rollback-failure orphans
        #: when no recovery controller is attached — never silently lost.
        self.orphans: List[Tuple] = []

    # -- explicit migration --------------------------------------------------

    def migrate(self, intent_id: str, dst_host_id: str,
                kind: str = "migrate") -> FleetPlacement:
        """Atomically move one placement to *dst_host_id*.

        Raises :class:`~repro.errors.MigrationError` when the destination
        rejects it; the source placement is then exactly as before.
        """
        if not TRACER.enabled:
            return self._migrate_untracked(intent_id, dst_host_id, kind)
        with TRACER.span(CAT_FLEET, "migrate", {
            "intent": intent_id, "dst": dst_host_id, "kind": kind,
        }):
            try:
                placed = self._migrate_untracked(intent_id, dst_host_id, kind)
            except HostNetError as exc:
                TRACER.annotate(outcome=type(exc).__name__)
                raise
            TRACER.annotate(outcome="migrated")
            return placed

    def _migrate_untracked(self, intent_id: str, dst_host_id: str,
                           kind: str) -> FleetPlacement:
        src_host_id = self.scheduler.host_of(intent_id)
        if dst_host_id == src_host_id:
            raise MigrationError(
                intent_id, f"already on {src_host_id!r}"
            )
        self.fleet.require_host(dst_host_id)  # raises UnknownHostError early
        # Pre-flight health: a crashed endpoint or an active partition
        # fails the leg *before* any state moves, so the source placement
        # is exactly as it was.
        health = self.fleet.health
        if health.is_crashed(dst_host_id):
            self._record(kind, intent_id, src_host_id, None, ok=False,
                         detail=f"{dst_host_id!r} is crashed")
            raise MigrationError(
                intent_id, f"destination {dst_host_id!r} is crashed")
        if health.is_crashed(src_host_id):
            self._record(kind, intent_id, src_host_id, None, ok=False,
                         detail=f"source {src_host_id!r} is crashed")
            raise MigrationError(
                intent_id, f"source {src_host_id!r} is crashed")
        if not health.reachable(src_host_id, dst_host_id):
            self._record(kind, intent_id, src_host_id, None, ok=False,
                         detail=f"{src_host_id!r} and {dst_host_id!r} "
                                f"are partitioned")
            raise MigrationError(
                intent_id,
                f"{src_host_id!r} cannot reach {dst_host_id!r}: "
                f"active partition",
            )
        # Both legs of the move must see host clocks at fleet time, or an
        # event-clock fleet would stamp the release/submit in the past.
        self.fleet.wake(src_host_id)
        self.fleet.wake(dst_host_id)
        original = self.scheduler.original_intent(intent_id)
        old = self.fleet.manager_placement(src_host_id, intent_id)
        remapped = self.fleet.remap_intent(original, dst_host_id)

        self.fleet.manager_release(src_host_id, intent_id)
        try:
            placement = self.fleet.manager_submit(dst_host_id, remapped)
        except HostNetError as exc:
            try:
                self.fleet.manager_reinstate(src_host_id, old)
            except HostNetError as rb_exc:
                # The rollback window closed too (the source failed
                # between release and reinstate).  The session must not
                # vanish: hand it to the recovery retry queue, or park
                # it on the orphan list for the operator.
                self.fleet.notify(src_host_id)
                self.fleet.notify(dst_host_id)
                self.telemetry_invalidate(src_host_id, dst_host_id)
                self.scheduler.forget(intent_id)
                reason = (f"rollback to {src_host_id!r} failed after "
                          f"{dst_host_id!r} rejected it: {rb_exc}")
                if self.recovery is not None:
                    self.recovery.requeue(original, src_host_id,
                                          reason=reason)
                    disposition = "requeued for re-placement"
                else:
                    self.orphans.append((original, src_host_id, reason))
                    disposition = "parked on planner.orphans"
                self._record(kind, intent_id, src_host_id, None, ok=False,
                             detail=f"{reason}; {disposition}")
                raise MigrationError(
                    intent_id, f"{reason}; {disposition}") from rb_exc
            self.fleet.notify(src_host_id)
            self.fleet.notify(dst_host_id)
            self.telemetry_invalidate(src_host_id, dst_host_id)
            self._record(kind, intent_id, src_host_id, None, ok=False,
                         detail=f"{dst_host_id!r} rejected: {exc}")
            raise MigrationError(
                intent_id,
                f"destination {dst_host_id!r} rejected it ({exc}); "
                f"reinstated on {src_host_id!r}",
            ) from exc
        self.scheduler.rebind(intent_id, dst_host_id)
        self.fleet.notify(src_host_id)
        self.fleet.notify(dst_host_id)
        self.telemetry_invalidate(src_host_id, dst_host_id)
        self._record(kind, intent_id, src_host_id, dst_host_id, ok=True)
        return FleetPlacement(dst_host_id, placement)

    def telemetry_invalidate(self, *host_ids: str) -> None:
        """Drop cached headrooms of hosts whose reservations just changed."""
        for host_id in host_ids:
            self.fleet.telemetry.invalidate(host_id)

    # -- escalation from host-local recovery ---------------------------------

    def request_escalation(self, host_id: str, intent_id: str) -> None:
        """Queue a placement local recovery gave up on (processed at the
        next quantum boundary, so escalations arriving mid-quantum stay
        deterministic)."""
        self._escalations.append((host_id, intent_id))

    @property
    def pending_escalations(self) -> List[Tuple[str, str]]:
        """Escalations queued but not yet drained by :meth:`control`.

        The event-driven clock checks this to decide whether an advance
        must observe exact quantum-boundary cadence.
        """
        return list(self._escalations)

    def rescue(self, intent_id: str) -> Optional[FleetPlacement]:
        """Move one failing placement to the best host that admits it.

        Destinations are ranked by the scheduler's policy (the source host
        is excluded).  Returns the new placement, or ``None`` when no host
        admitted it (recorded; the placement stays degraded on its source).
        """
        if not self.scheduler.has_intent(intent_id):
            return None  # released while the escalation was in flight
        src_host_id = self.scheduler.host_of(intent_id)
        intent = self.scheduler.original_intent(intent_id)
        health = self.fleet.health
        candidates = [
            h for h in self.scheduler.policy.rank_matrix(
                self.scheduler.request_for(
                    intent, avoid_hosts=health.avoid_hosts()),
                self.fleet.telemetry.matrix(),
            )
            if h != src_host_id and not health.is_crashed(h)
            and health.reachable(src_host_id, h)
        ]
        for dst_host_id in candidates:
            try:
                return self.migrate(intent_id, dst_host_id, kind="escalate")
            except MigrationError:
                continue
        self._record("escalate", intent_id, src_host_id, None, ok=False,
                     detail=f"no host among {len(candidates)} admitted it")
        return None

    # -- latency-driven relief (the SLO alert sink) --------------------------

    def relieve_latency(self, host_id: str, max_moves: int = 4) -> int:
        """Live-migrate sessions off a latency-violating host.

        The fleet-side sink for burn-rate alerts (DESIGN.md §16): the
        offending host's placements are drained largest-first to the
        policy's best-ranked healthy destinations, until *max_moves*
        migrations commit or nothing else fits anywhere.  Large
        reservations go first because they dominate the serialization
        term that inflated the probes.  Failed drains are recorded with
        ``kind="slo"`` so the audit log shows the alert was acted on
        even when no destination admitted anything.

        Returns the number of committed migrations.
        """
        health = self.fleet.health
        candidates = sorted(
            self.scheduler.placements_on(host_id),
            key=lambda p: (-p.placement.intent.bandwidth, p.intent_id),
        )
        moved = 0
        for fleet_placement in candidates:
            if moved >= max_moves:
                break
            intent_id = fleet_placement.intent_id
            if not self.scheduler.has_intent(intent_id):
                continue
            intent = self.scheduler.original_intent(intent_id)
            destinations = [
                h for h in self.scheduler.policy.rank_matrix(
                    self.scheduler.request_for(
                        intent, avoid_hosts=health.avoid_hosts()),
                    self.fleet.telemetry.matrix(),
                )
                if h != host_id and not health.is_crashed(h)
                and health.reachable(host_id, h)
            ]
            placed = False
            for dst_host_id in destinations:
                try:
                    self.migrate(intent_id, dst_host_id, kind="slo")
                    placed = True
                    break
                except (MigrationError, AdmissionError):
                    continue
            if placed:
                moved += 1
            else:
                self._record("slo", intent_id, host_id, None, ok=False,
                             detail=f"no host among {len(destinations)} "
                                    f"admitted it")
        return moved

    # -- the fleet control loop ----------------------------------------------

    def control(self) -> None:
        """One fleet-level pass: drain escalations, then maybe rebalance.

        Called by the fleet clock at every quantum boundary (the event
        clock falls back to boundary cadence whenever this pass could do
        anything — escalations queued, rebalancing armed, or recovery
        controllers attached).
        """
        pending, self._escalations = self._escalations, []
        for _host_id, intent_id in pending:
            self.rescue(intent_id)
        if self.rebalance_threshold is not None:
            self._rebalance()

    def _rebalance(self) -> None:
        """Move placements off the hottest host when the skew trips."""
        for _ in range(self.max_moves_per_tick):
            headrooms = [
                h for h in self.fleet.telemetry.headrooms() if h.available
            ]
            if len(headrooms) < 2:
                return
            hottest = max(headrooms, key=lambda h: (h.reserved_peak,
                                                    h.host_id))
            coldest = min(headrooms, key=lambda h: (h.reserved_peak,
                                                    h.host_id))
            gap = hottest.reserved_peak - coldest.reserved_peak
            if gap <= self.rebalance_threshold:
                return
            if not TRACER.enabled:
                moved = self._rebalance_move(hottest.host_id,
                                             coldest.host_id)
            else:
                with TRACER.span(CAT_FLEET, "rebalance", {
                    "src": hottest.host_id, "dst": coldest.host_id,
                    "gap": round(gap, 3),
                }):
                    moved = self._rebalance_move(hottest.host_id,
                                                 coldest.host_id)
                    TRACER.annotate(outcome="moved" if moved else "stuck")
            if not moved:
                return

    def _rebalance_move(self, src_host_id: str, dst_host_id: str) -> bool:
        """Try to move one placement from src to dst; largest first.

        Moving the biggest migratable reservation closes the gap fastest;
        candidates that the destination rejects fall through to smaller
        ones (bounded, so a pathological tick stays cheap).
        """
        candidates = sorted(
            self.scheduler.placements_on(src_host_id),
            key=lambda p: (-p.placement.intent.bandwidth, p.intent_id),
        )
        for fleet_placement in candidates[:4]:
            try:
                self.migrate(fleet_placement.intent_id, dst_host_id,
                             kind="rebalance")
                return True
            except MigrationError:
                continue
            except AdmissionError:
                continue
        return False

    # -- queries -------------------------------------------------------------

    def migrations(self, kind: Optional[str] = None,
                   ok_only: bool = False) -> List[MigrationRecord]:
        """Migration records, optionally filtered by kind / success."""
        records = self.records
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        if ok_only:
            records = [r for r in records if r.ok]
        return list(records)

    def _record(self, kind: str, intent_id: str, src: str,
                dst: Optional[str], ok: bool, detail: str = "") -> None:
        self.records.append(MigrationRecord(
            kind=kind, time=self.fleet.now, intent_id=intent_id,
            src=src, dst=dst, ok=ok, detail=detail,
        ))

    def describe(self) -> str:
        """Human-readable migration summary."""
        moved = len(self.migrations(ok_only=True))
        lines = [f"MigrationPlanner: {moved}/{len(self.records)} moves "
                 f"committed, rebalance_threshold="
                 f"{self.rebalance_threshold}"]
        for record in self.records[-8:]:
            arrow = f"{record.src} -> {record.dst or '???'}"
            status = "ok" if record.ok else "FAILED"
            lines.append(f"  {record.time:.6f}s {record.kind:<9} "
                         f"{record.intent_id}: {arrow} [{status}]"
                         + (f" {record.detail}" if record.detail else ""))
        return "\n".join(lines)
