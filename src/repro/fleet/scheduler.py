"""The cluster scheduler: fleet-wide admission of tenant intents.

:class:`ClusterScheduler` is to the fleet what each host's
:class:`~repro.core.manager.HostNetworkManager` is to one fabric.  It does
not re-implement admission — every per-host guarantee (capacity-checked
ledgers, atomic floor installation, SLO ceilings) is delegated to the host
managers.  Its job is the one decision no host can make: *which* host.

For each intent the active :class:`~repro.fleet.placement.PlacementPolicy`
ranks hosts over the telemetry's vectorized
:class:`~repro.fleet.telemetry.HeadroomMatrix` (push-invalidated, so it is
always current); the scheduler walks that order, skipping ineligible hosts
as it reaches them, probes each candidate (waking it to fleet time and
remapping the intent's device ids onto its topology) and commits to the
first that admits.  Every decision is traced under the
``fleet`` category.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, List, Optional, Set, Tuple,
                    TYPE_CHECKING, Union)

from ..core.intents import PerformanceTarget
from ..core.manager import Placement
from ..errors import AdmissionError, FleetError
from ..trace.recorder import TRACER
from ..trace.spans import CAT_FLEET
from .placement import PlacementPolicy, PlacementRequest, make_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Fleet


class FleetPlacement:
    """An admitted intent and the host it landed on.

    Attributes:
        host_id: The hosting host.
        placement: The host-local :class:`~repro.core.manager.Placement`
            (whose intent has device ids remapped to that host).
    """

    __slots__ = ("host_id", "placement")

    def __init__(self, host_id: str, placement: Placement) -> None:
        self.host_id = host_id
        self.placement = placement

    @property
    def intent_id(self) -> str:
        """Id of the placed intent."""
        return self.placement.intent.intent_id

    @property
    def tenant_id(self) -> str:
        """Owner of the placed intent."""
        return self.placement.intent.tenant_id

    def __repr__(self) -> str:
        return (f"FleetPlacement({self.intent_id!r} on {self.host_id!r}, "
                f"{len(self.placement.links())} links)")


class ClusterScheduler:
    """Headroom-aware fleet-wide admission.

    Args:
        fleet: The fleet whose hosts are placement targets.
        policy: A policy name from
            :data:`~repro.fleet.placement.PLACEMENT_POLICIES` or a
            :class:`~repro.fleet.placement.PlacementPolicy` instance.
        max_attempts: Bound on per-intent host probes.  ``None`` (default)
            probes every host, guaranteeing an admit whenever *any* host
            fits.  A finite bound models the constant scheduling cost a
            production placer pays (probe the k most promising hosts, as
            sample-based cluster schedulers do) — under bounded probing
            the *ranking* decides the rejection rate, which is exactly
            what ``bench_fleet_placement`` measures.  Must be >= 1.
    """

    def __init__(self, fleet: "Fleet",
                 policy: Union[str, PlacementPolicy] = "best-fit",
                 max_attempts: Optional[int] = None) -> None:
        if max_attempts is not None and max_attempts < 1:
            raise FleetError(
                f"max_attempts must be >= 1 or None, got {max_attempts}")
        self.fleet = fleet
        self.telemetry = fleet.telemetry
        self.policy = make_policy(policy)
        self.max_attempts = max_attempts
        self._host_of: Dict[str, str] = {}
        self._original_intent: Dict[str, PerformanceTarget] = {}
        self._tenant_hosts: Dict[str, Dict[str, int]] = {}
        self.admitted_count = 0
        self.rejected_count = 0
        self.released_count = 0
        self.probe_count = 0  # per-host admission attempts, total

    # -- admission -----------------------------------------------------------

    def submit(self, intent: PerformanceTarget) -> FleetPlacement:
        """Place *intent* on some host, or raise
        :class:`~repro.errors.AdmissionError` when no host admits it.

        The intent's device ids are interpreted against the fleet's
        reference topology and remapped per candidate host, so one intent
        vocabulary works across a heterogeneous fleet.
        """
        if not TRACER.enabled:
            return self._submit_untracked(intent)
        with TRACER.span(CAT_FLEET, "schedule", {
            "tenant": intent.tenant_id,
            "intent": intent.intent_id,
            "policy": self.policy.name,
        }):
            try:
                placed = self._submit_untracked(intent)
            except AdmissionError:
                TRACER.annotate(outcome="rejected")
                raise
            TRACER.annotate(outcome="admitted", host=placed.host_id)
            return placed

    def _submit_untracked(self, intent: PerformanceTarget) -> FleetPlacement:
        if intent.intent_id in self._host_of:
            raise AdmissionError(intent.intent_id, "already placed in fleet")
        placed, tried = self._place(
            intent, avoid=self.fleet.health.avoid_hosts(),
        )
        if placed is not None:
            self.admitted_count += 1
            return placed
        self.rejected_count += 1
        raise AdmissionError(
            intent.intent_id,
            f"no host admitted it ({tried} tried, "
            f"policy={self.policy.name})",
        )

    def _place(self, intent: PerformanceTarget,
               avoid: FrozenSet[str] = frozenset(),
               exclude: FrozenSet[str] = frozenset(),
               reachable_from: Optional[str] = None,
               ) -> Tuple[Optional[FleetPlacement], int]:
        """Probe-and-commit without the admitted/rejected accounting.

        *avoid* is the soft faulted-domain signal threaded into the
        policy ranking; *exclude* hard-removes hosts (the evacuation
        source); crashed hosts are always hard-removed; when
        *reachable_from* is given, hosts partitioned away from it are
        removed too (a migration leg cannot cross a cut).  Eligibility
        is checked lazily while walking the ranked order, which stops
        after ``max_attempts`` probes.  Returns the placement (or
        ``None``) plus how many hosts were probed — on a rejection that
        is every eligible host up to ``max_attempts`` — for the
        rejection message.
        """
        health = self.fleet.health
        order = self.policy.rank_matrix(
            self.request_for(intent, avoid_hosts=avoid),
            self.telemetry.matrix(),
        )
        budget = self.max_attempts
        probes = 0
        fleet = self.fleet
        for host_id in order:
            if (host_id in exclude or health.is_crashed(host_id)
                    or (reachable_from is not None
                        and not health.reachable(reachable_from, host_id))):
                continue
            if probes == budget:
                break
            probes += 1
            self.probe_count += 1
            # Probed hosts must be at fleet time so the reservation (and
            # any deferred re-solve it schedules) is stamped "now", not
            # at whatever time the host was last woken.
            fleet.wake(host_id)
            remapped = fleet.remap_intent(intent, host_id)
            placement = fleet.manager_try_submit(host_id, remapped)
            # Either outcome may have scheduled host events (arbiter
            # enforcement after its decision latency, retry backoffs);
            # they postdate the wake above, so re-notify the clock.
            fleet.notify(host_id)
            if placement is None:
                continue
            self._bind(intent, host_id)
            self.telemetry.invalidate(host_id)
            return FleetPlacement(host_id, placement), probes
        return None, probes

    def place(self, intent: PerformanceTarget,
              avoid: FrozenSet[str] = frozenset(),
              exclude: FrozenSet[str] = frozenset(),
              reachable_from: Optional[str] = None,
              ) -> Optional[FleetPlacement]:
        """Place an intent outside the admission accounting.

        The recovery controller's re-placement path: an evacuee being
        re-homed was already counted admitted once, so this neither
        bumps ``admitted_count`` nor ``rejected_count``.  Returns
        ``None`` when no eligible host admits it.
        """
        if intent.intent_id in self._host_of:
            raise AdmissionError(intent.intent_id, "already placed in fleet")
        placed, _tried = self._place(intent, avoid=avoid, exclude=exclude,
                                     reachable_from=reachable_from)
        return placed

    def try_submit(self,
                   intent: PerformanceTarget) -> Optional[FleetPlacement]:
        """Like :meth:`submit` but returns ``None`` on fleet-wide reject."""
        try:
            return self.submit(intent)
        except AdmissionError:
            return None

    def release(self, intent_id: str) -> None:
        """Withdraw a fleet-placed intent from its host."""
        host_id = self.host_of(intent_id)
        self.fleet.wake(host_id)
        self.fleet.manager_release(host_id, intent_id)
        self.fleet.notify(host_id)  # release schedules enforcement too
        self._unbind(intent_id)
        self.telemetry.invalidate(host_id)
        self.released_count += 1

    # -- placement bookkeeping ----------------------------------------------

    def _bind(self, intent: PerformanceTarget, host_id: str) -> None:
        self._host_of[intent.intent_id] = host_id
        self._original_intent[intent.intent_id] = intent
        bucket = self._tenant_hosts.setdefault(intent.tenant_id, {})
        bucket[host_id] = bucket.get(host_id, 0) + 1

    def _unbind(self, intent_id: str) -> None:
        host_id = self._host_of.pop(intent_id)
        intent = self._original_intent.pop(intent_id)
        bucket = self._tenant_hosts.get(intent.tenant_id, {})
        remaining = bucket.get(host_id, 0) - 1
        if remaining > 0:
            bucket[host_id] = remaining
        else:
            bucket.pop(host_id, None)
        if not bucket:
            self._tenant_hosts.pop(intent.tenant_id, None)

    def rebind(self, intent_id: str, host_id: str) -> None:
        """Move the bookkeeping of an intent to a new host.

        Called by the :class:`~repro.fleet.migration.MigrationPlanner`
        after it has physically moved the placement; not for general use.
        """
        intent = self._original_intent[intent_id]
        self._unbind(intent_id)
        self._bind(intent, host_id)

    def forget(self, intent_id: str) -> None:
        """Drop the fleet bookkeeping of an intent *without* releasing it.

        The crash path: a dead host's reservations are void (there is no
        manager to release from in the real-world analogue), so the
        fault machinery releases host-locally and unbinds here, then
        re-places through :meth:`place`.  Not for general use — an
        intent forgotten while its host still serves it would leak.
        """
        self._unbind(intent_id)

    # -- queries -------------------------------------------------------------

    def request_for(self, intent: PerformanceTarget,
                    avoid_hosts: FrozenSet[str] = frozenset(),
                    ) -> PlacementRequest:
        """Canonicalize *intent* for policy consumption: attach keys from
        the fleet's reference vocabulary plus the tenant's current hosts
        (and the faulted-domain avoid-set, when the caller threads it)."""
        return PlacementRequest(
            intent=intent,
            src_key=self.fleet.canonical_device_key(intent.src),
            dst_key=(self.fleet.canonical_device_key(intent.dst)
                     if intent.dst is not None else None),
            tenant_hosts=frozenset(self.tenant_hosts(intent.tenant_id)),
            avoid_hosts=avoid_hosts,
        )

    def host_of(self, intent_id: str) -> str:
        """Which host carries *intent_id*."""
        try:
            return self._host_of[intent_id]
        except KeyError:
            raise AdmissionError(intent_id, "not placed in fleet") from None

    def has_intent(self, intent_id: str) -> bool:
        """Whether *intent_id* is currently placed somewhere."""
        return intent_id in self._host_of

    def original_intent(self, intent_id: str) -> PerformanceTarget:
        """The intent as submitted (reference-topology device ids)."""
        try:
            return self._original_intent[intent_id]
        except KeyError:
            raise AdmissionError(intent_id, "not placed in fleet") from None

    def tenant_hosts(self, tenant_id: str) -> Set[str]:
        """Hosts currently carrying intents of *tenant_id*."""
        return set(self._tenant_hosts.get(tenant_id, ()))

    def bindings(self) -> Dict[str, str]:
        """intent_id -> host_id for every fleet placement (a copy).

        The invariant oracle's ground truth for binding soundness.
        """
        return dict(self._host_of)

    def placements(self) -> List[FleetPlacement]:
        """Every fleet placement, in deterministic intent-id order."""
        return [
            FleetPlacement(host_id, placement)
            for _intent_id, host_id, placement
            in self.fleet.collect_placements(self._host_of)
        ]

    def placements_on(self, host_id: str) -> List[FleetPlacement]:
        """Fleet placements on one host, in intent-id order."""
        return [p for p in self.placements() if p.host_id == host_id]

    @property
    def rejection_rate(self) -> float:
        """Fleet-wide rejected / (admitted + rejected)."""
        decided = self.admitted_count + self.rejected_count
        return self.rejected_count / decided if decided else 0.0

    def describe(self) -> str:
        """Human-readable scheduler summary."""
        per_host: Dict[str, int] = {}
        for host_id in self._host_of.values():
            per_host[host_id] = per_host.get(host_id, 0) + 1
        lines = [
            f"ClusterScheduler(policy={self.policy.name}): "
            f"{self.admitted_count} admitted, {self.rejected_count} rejected "
            f"({self.rejection_rate:.1%}), {self.released_count} released"
        ]
        for host_id in self.fleet.host_ids():
            lines.append(f"  {host_id}: {per_host.get(host_id, 0)} intents")
        return "\n".join(lines)
