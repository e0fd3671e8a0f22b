"""The :class:`HostNetworkManager`: the paper's compile-schedule-arbitrate
pipeline in one facade (§3.2).

Submitting a :class:`~repro.core.intents.PerformanceTarget` runs:

1. **interpret** — compile the intent into candidate per-link requirements
   under its resource model (pipe/hose);
2. **schedule** — pick a candidate topology-aware (or via a baseline
   strategy);
3. **admit** — capacity-check and commit the reservation;
4. **arbitrate** — install the floors in the dynamic arbiter, which
   enforces them on the live fabric from then on.

The manager also maintains each tenant's virtualized view and the tenant
registry; it is the single object examples and benchmarks interact with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set

from ..errors import AdmissionError, ScheduleError, UnknownTenantError
from ..sim.network import FabricNetwork
from ..trace.recorder import TRACER
from ..units import us
from .admission import AdmissionController, ReservationLedger
from .arbiter import DynamicArbiter
from .intents import PerformanceTarget
from .interpreter import CandidateRequirement, CompiledIntent, interpret
from .scheduler import Scheduler, TopologyAwareScheduler
from .virtual import VirtualHostView, build_view


@dataclass
class Placement:
    """A successfully admitted intent and where it landed.

    Attributes:
        intent: The admitted intent.
        candidate: The committed candidate (paths + per-link demands).
    """

    intent: PerformanceTarget
    candidate: CandidateRequirement

    def links(self) -> List[str]:
        """Physical links the placement reserved on."""
        return self.candidate.links()


class HostNetworkManager:
    """Holistic resource manager over one host's fabric.

    Args:
        network: The live fabric to manage.
        scheduler: Path-selection strategy (default topology-aware).
        headroom: Admission budget fraction (see
            :class:`~repro.core.admission.AdmissionController`).
        work_conserving: Arbiter allocation mode.
        arbiter_period: Arbiter adjustment period (seconds).
        decision_latency: Arbiter sense-to-enforce delay (seconds, §3.2 Q3).
        candidate_paths: k for the interpreter's path enumeration.
        auto_start_arbiter: Start the arbiter loop on construction.
    """

    def __init__(
        self,
        network: FabricNetwork,
        scheduler: Optional[Scheduler] = None,
        headroom: float = 0.9,
        work_conserving: bool = True,
        arbiter_period: float = 0.001,
        decision_latency: float = us(10),
        candidate_paths: int = 4,
        auto_start_arbiter: bool = True,
    ) -> None:
        # Zero candidate paths would reject every intent without saying why.
        if not candidate_paths >= 1:
            raise ValueError(
                f"candidate_paths must be >= 1, got {candidate_paths}")
        self.network = network
        self.scheduler = scheduler or TopologyAwareScheduler()
        self.ledger = ReservationLedger(network.topology)
        self.admission = AdmissionController(self.ledger, headroom=headroom)
        self.arbiter = DynamicArbiter(
            network, period=arbiter_period,
            decision_latency=decision_latency,
            work_conserving=work_conserving,
        )
        self.candidate_paths = candidate_paths
        self.tenants: Set[str] = set()
        self._placements: Dict[str, Placement] = {}
        self._intents_by_tenant: Dict[str, List[str]] = {}
        self._release_listeners: List[Callable[[str], None]] = []
        self._change_listeners: List[Callable[[], None]] = []
        #: Bumped on every reservation-changing operation (submit,
        #: release, replace, reinstate) — the cheap "did anything about
        #: this host's placements move" version the fleet telemetry
        #: subscribes to.
        self.change_count = 0
        if auto_start_arbiter:
            self.arbiter.start()

    # -- tenants -----------------------------------------------------------------

    def register_tenant(self, tenant_id: str) -> None:
        """Add a tenant; until it holds intents it is best-effort."""
        if tenant_id in self.tenants:
            return
        self.tenants.add(tenant_id)
        self._intents_by_tenant.setdefault(tenant_id, [])
        self.arbiter.register_best_effort(tenant_id)

    def unregister_tenant(self, tenant_id: str) -> None:
        """Remove a tenant: release its intents and lift its caps."""
        if tenant_id not in self.tenants:
            raise UnknownTenantError(tenant_id)
        for intent_id in list(self._intents_by_tenant.get(tenant_id, [])):
            self.release(intent_id)
        self.arbiter.unregister_best_effort(tenant_id)
        self.tenants.discard(tenant_id)
        self._intents_by_tenant.pop(tenant_id, None)

    # -- the pipeline ---------------------------------------------------------------

    def submit(self, intent: PerformanceTarget) -> Placement:
        """Interpret, schedule, admit, and start enforcing *intent*.

        Raises :class:`~repro.errors.InterpretationError`,
        :class:`~repro.errors.ScheduleError`, or
        :class:`~repro.errors.AdmissionError` at the stage that failed.
        """
        if not TRACER.enabled:
            return self._submit_untracked(intent)
        with TRACER.span("manager", "admit", {
            "tenant": intent.tenant_id,
            "intent": intent.intent_id,
        }):
            try:
                placement = self._submit_untracked(intent)
            except Exception as exc:
                TRACER.annotate(outcome=type(exc).__name__)
                raise
            TRACER.annotate(outcome="admitted",
                            links=len(placement.links()))
            return placement

    def _submit_untracked(self, intent: PerformanceTarget) -> Placement:
        if intent.tenant_id not in self.tenants:
            self.register_tenant(intent.tenant_id)
        if intent.intent_id in self._placements:
            raise AdmissionError(intent.intent_id, "already placed")

        compiled = interpret(self.network.topology, intent,
                             k=self.candidate_paths)
        candidate = self.scheduler.choose(compiled, self.admission)
        decision = self.admission.admit(compiled, candidate)
        if not decision.admitted:
            raise AdmissionError(intent.intent_id, decision.reason)

        self._install_enforcement(intent, candidate)
        placement = Placement(intent=intent, candidate=candidate)
        self._placements[intent.intent_id] = placement
        self._intents_by_tenant.setdefault(intent.tenant_id, []).append(
            intent.intent_id
        )
        # Enforce the new allocation immediately rather than waiting for
        # the next periodic tick ("adjust the allocation promptly when
        # applications come and go").
        self.arbiter.adjust_once()
        self._mark_changed()
        return placement

    def _install_enforcement(self, intent: PerformanceTarget,
                             candidate: CandidateRequirement) -> None:
        """Install floors and SLO ceilings for an admitted candidate.

        All-or-nothing: a failure mid-install (a misbehaving arbiter,
        a candidate referencing a removed link) rolls back every floor
        and ceiling already placed *and* the ledger commit, so a failed
        submit leaves the fabric exactly as it found it.
        """
        installed: List = []
        try:
            for demand in candidate.demands:
                self.arbiter.add_floor(intent.tenant_id, demand.link_id,
                                       demand.bandwidth,
                                       direction=demand.direction)
                installed.append(demand)
            if intent.latency_slo is not None:
                self._install_slo_ceilings(intent, candidate)
        except Exception:
            for demand in installed:
                self.arbiter.remove_floor(intent.tenant_id, demand.link_id,
                                          demand.bandwidth,
                                          direction=demand.direction)
            for link_id in candidate.links():
                self.arbiter.clear_utilization_ceiling(intent.intent_id,
                                                       link_id)
            self.ledger.release(intent.intent_id)
            self.admission.admitted_count -= 1
            self.admission.rejected_count += 1
            raise

    def replace(self, intent_id: str,
                avoid_links: Iterable[str] = ()) -> Placement:
        """Re-place an admitted intent onto an alternate candidate.

        The failure-recovery path: releases the current placement,
        re-interprets the intent against the *current* topology (healthy
        routing excludes down links), and admits a candidate that touches
        none of *avoid_links* (dead or quarantined links).  If no such
        candidate exists or admission fails, the original placement is
        reinstated exactly — floors, ceilings, and ledger — and the error
        re-raised, so a failed re-placement never strands the intent.
        """
        if not TRACER.enabled:
            return self._replace_untracked(intent_id, avoid_links)
        with TRACER.span("manager", "replace", {"intent": intent_id}):
            try:
                placement = self._replace_untracked(intent_id, avoid_links)
            except Exception as exc:
                TRACER.annotate(outcome=type(exc).__name__)
                raise
            TRACER.annotate(outcome="replaced",
                            links=len(placement.links()))
            return placement

    def _replace_untracked(self, intent_id: str,
                           avoid_links: Iterable[str]) -> Placement:
        old = self.placement(intent_id)
        intent = old.intent
        avoid = set(avoid_links)
        self._release_untracked(intent_id)
        try:
            compiled = interpret(self.network.topology, intent,
                                 k=self.candidate_paths)
            viable = tuple(
                c for c in compiled.candidates
                if not avoid.intersection(c.links())
            )
            if not viable:
                raise ScheduleError(
                    f"intent {intent_id!r}: every candidate crosses an "
                    f"avoided link"
                )
            compiled = CompiledIntent(intent=intent, candidates=viable)
            candidate = self.scheduler.choose(compiled, self.admission)
            decision = self.admission.admit(compiled, candidate)
            if not decision.admitted:
                raise AdmissionError(intent_id, decision.reason)
            self._install_enforcement(intent, candidate)
        except Exception:
            self.reinstate(old)
            raise
        placement = Placement(intent=intent, candidate=candidate)
        self._placements[intent_id] = placement
        self._intents_by_tenant.setdefault(intent.tenant_id, []).append(
            intent_id
        )
        self.arbiter.adjust_once()
        self._mark_changed()
        return placement

    def reinstate(self, placement: Placement) -> None:
        """Put a just-released placement back, bypassing the capacity check.

        The atomic-rollback primitive shared by failed re-placements and
        failed cross-host migrations: the reservation was admitted before
        and — the engine being single-threaded — nothing else was given its
        budget between the release and this call, so re-committing the same
        candidate cannot oversubscribe.
        """
        intent = placement.intent
        self.ledger.commit(intent.intent_id, placement.candidate)
        self._install_enforcement(intent, placement.candidate)
        self._placements[intent.intent_id] = placement
        self._intents_by_tenant.setdefault(intent.tenant_id, []).append(
            intent.intent_id
        )
        self.arbiter.adjust_once()
        self._mark_changed()

    def _install_slo_ceilings(self, intent: PerformanceTarget,
                              candidate: CandidateRequirement) -> None:
        """Compile a latency SLO into per-link utilization ceilings.

        Queueing inflates a path's one-way latency to roughly
        ``B * (1 + alpha * rho / (1 - rho))`` at uniform utilization
        ``rho`` (B = zero-load latency).  Inverting for the SLO's one-way
        budget gives the admissible rho; a 0.8 safety factor keeps tail
        headroom.  This is the interpreter's "holistic" translation of an
        application intent into low-level requirements (§3.2).
        """
        alpha = self.network.latency_model.alpha
        for path in candidate.paths:
            base = path.base_latency
            if base <= 0:
                continue
            slack = (intent.latency_slo / 2.0 - base) / base
            if slack <= 0:
                rho = 0.2  # SLO is razor-thin; keep the path nearly idle
            else:
                budget = 0.8 * slack
                rho = budget / (alpha + budget)
            rho = min(max(rho, 0.2), 1.0)
            for link_id in path.links:
                self.arbiter.set_utilization_ceiling(
                    intent.intent_id, link_id, rho
                )

    def try_submit(self, intent: PerformanceTarget) -> Optional[Placement]:
        """Like :meth:`submit` but returns ``None`` instead of raising."""
        from ..errors import HostNetError

        try:
            return self.submit(intent)
        except HostNetError:
            return None

    def release(self, intent_id: str) -> None:
        """Withdraw an intent: drop reservations, floors, and stale caps."""
        if not TRACER.enabled:
            return self._release_untracked(intent_id)
        placement = self._placements.get(intent_id)
        tenant = placement.intent.tenant_id if placement else "?"
        with TRACER.span("manager", "release",
                         {"tenant": tenant, "intent": intent_id}):
            self._release_untracked(intent_id)

    def _release_untracked(self, intent_id: str) -> None:
        placement = self._placements.pop(intent_id, None)
        if placement is None:
            raise AdmissionError(intent_id, "not placed")
        tenant_id = placement.intent.tenant_id
        for demand in placement.candidate.demands:
            self.arbiter.remove_floor(tenant_id, demand.link_id,
                                      demand.bandwidth,
                                      direction=demand.direction)
        if placement.intent.latency_slo is not None:
            for link_id in placement.links():
                self.arbiter.clear_utilization_ceiling(intent_id, link_id)
        self.ledger.release(intent_id)
        bucket = self._intents_by_tenant.get(tenant_id, [])
        if intent_id in bucket:
            bucket.remove(intent_id)
        # Lift caps on links the arbiter no longer manages; one batched
        # re-solve covers every lifted cap (lifting touches no floor, so
        # the managed set is read once).
        managed = set(self.arbiter.managed_links())
        with self.network.batch():
            for link_id in placement.links():
                if link_id not in managed:
                    self.arbiter.lift_link_caps(link_id)
        self.arbiter.adjust_once()
        self._mark_changed()
        for listener in self._release_listeners:
            listener(intent_id)

    def on_release(self, listener: Callable[[str], None]) -> None:
        """Register a callback fired after every successful release.

        Capacity just came free; the admission retry queue uses this to
        re-try parked intents promptly instead of waiting out its backoff.
        """
        self._release_listeners.append(listener)

    def on_change(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after any reservation change.

        Coarser than :meth:`on_release` (it also fires on submit,
        replace, and reinstate) and carries no payload: it is an
        invalidation signal, not an event stream.  Fleet telemetry uses
        it to mark this host's headroom summary dirty.
        """
        self._change_listeners.append(listener)

    def _mark_changed(self) -> None:
        self.change_count += 1
        for listener in self._change_listeners:
            listener()

    # -- queries ---------------------------------------------------------------------

    def placement(self, intent_id: str) -> Placement:
        """The placement of an admitted intent."""
        try:
            return self._placements[intent_id]
        except KeyError:
            raise AdmissionError(intent_id, "not placed") from None

    def placements(self) -> List[Placement]:
        """All current placements."""
        return list(self._placements.values())

    def intents_of(self, tenant_id: str) -> List[PerformanceTarget]:
        """Admitted intents of one tenant."""
        if tenant_id not in self.tenants:
            raise UnknownTenantError(tenant_id)
        return [
            self._placements[i].intent
            for i in self._intents_by_tenant.get(tenant_id, [])
        ]

    def tenant_view(self, tenant_id: str) -> VirtualHostView:
        """The tenant's virtualized intra-host network view."""
        return build_view(self, tenant_id)

    def shutdown(self) -> None:
        """Stop the arbiter and lift every cap (end of experiment)."""
        self.arbiter.stop(lift_caps=True)

    def describe(self) -> str:
        """Human-readable summary of the manager's state."""
        lines = [
            f"HostNetworkManager on {self.network.topology.name!r}: "
            f"{len(self.tenants)} tenants, {len(self._placements)} intents, "
            f"scheduler={self.scheduler.name}, "
            f"{'work-conserving' if self.arbiter.work_conserving else 'reserved'}"
        ]
        for placement in self._placements.values():
            intent = placement.intent
            lines.append(
                f"  {intent.intent_id}: tenant={intent.tenant_id} "
                f"{intent.kind.value} {intent.bandwidth:.3g}B/s over "
                f"{len(placement.links())} links"
            )
        return "\n".join(lines)
