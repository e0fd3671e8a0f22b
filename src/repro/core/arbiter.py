"""The dynamic resource arbiter (§3.2).

Enforces the schedule at run time: periodically observes per-tenant usage
on every managed link, computes rate caps that protect admitted floors, and
pushes them into the fabric — after a configurable *decision latency*, the
end-to-end time to sense, decide, and program an enforcement point.  §3.2
Q3 asks how small that latency must be; E7 sweeps it and measures how
isolation degrades as enforcement goes stale.

Allocation rule per managed link (each adjustment round):

1. every guaranteed tenant's cap is at least its floor, always — so a
   returning tenant can start reclaiming immediately;
2. the distributable spare is ``capacity - sum(floors)`` **plus the
   unused part of idle tenants' floors** (ElasticSwitch-style lending:
   guaranteed bandwidth nobody is using works for others);
3. spare is distributed by *demand-aware water-filling*: each tenant's
   spare demand is estimated from its observed usage beyond its floor
   (doubled, to let it grow between rounds, plus a small ramp allowance
   so idle tenants can signal); leftover is split equally.

Lending is what makes the fabric work-conserving, and it is also the
source of the staleness window E7 measures: when an idle guarantee-holder
bursts back, borrowed bandwidth is only reclaimed at the next adjustment
(plus the decision latency), so floors can dip transiently.  Larger
decision latencies mean longer dips — §3.2 Q3 quantified.

Non-work-conserving mode pins guaranteed tenants exactly at their floors
and splits the static spare among best-effort tenants — predictable and
dip-free, but it strands every idle guarantee (the E6/E9 trade-off).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    AbstractSet, Container, Dict, List, Optional, Set, Tuple)

from ..errors import ArbiterError
from ..sim.engine import PeriodicTask
from ..trace.recorder import TRACER
from ..sim.network import SYSTEM_TENANT, FabricNetwork
from ..units import us

#: Usage below this (bytes/s) counts as inactive.
_ACTIVE_EPSILON = 1.0

#: Minimum cap handed to an inactive best-effort tenant so it can ramp up.
_RAMP_ALLOWANCE_FRACTION = 0.02

#: How far beyond observed usage a tenant's spare-demand estimate reaches;
#: 2.0 lets a growing tenant double every adjustment round.
_GROWTH_FACTOR = 2.0

#: A guaranteed tenant using less than this fraction of its floor is
#: *parked*: its unused floor is lent out.  Any usage above the threshold
#: reclaims the floor at the next adjustment — lending on raw usage alone
#: would deadlock (a squeezed owner can never ramp back through borrowed
#: capacity).
_PARK_FRACTION = 0.1


@dataclass(frozen=True)
class LinkAllocation:
    """One adjustment-round outcome for a link (for introspection/tests)."""

    link_id: str
    capacity: float
    floors: Dict[str, float]
    usages: Dict[str, float]
    caps: Dict[str, float]


def compute_caps(
    capacity: float,
    floors: Dict[str, float],
    usages: Dict[str, float],
    best_effort: Set[str],
    work_conserving: bool,
    utilization_ceiling: float = 1.0,
    lend_parked_floors: bool = True,
    demand_aware: bool = True,
) -> Dict[str, float]:
    """The arbiter's per-link allocation rule (see module docstring).

    Args:
        capacity: Per-direction link capacity (bytes/s).
        floors: Guaranteed floor per guaranteed tenant.
        usages: Observed rate per tenant (guaranteed and best-effort).
        best_effort: Tenants present without any floor on this link.
        work_conserving: Whether unused guarantees are redistributable.
        utilization_ceiling: Fraction of capacity the allocator may hand
            out in total.  Latency SLOs compile to ceilings < 1 (queueing
            delay explodes near saturation), trading some work
            conservation for a bounded tail.  Floors always fit first —
            guarantees beat the ceiling if they conflict.
        lend_parked_floors: Whether idle guarantees join the spare
            (the ElasticSwitch-style lending; off = hard reservations).
            Ablation knob — production use leaves it on.
        demand_aware: Whether the spare is water-filled by usage-derived
            demand estimates (off = split equally among active sharers).
            Ablation knob — production use leaves it on.

    Returns:
        Rate cap per tenant (every tenant in *floors* or *best_effort*).
    """
    if not 0 < utilization_ceiling <= 1:
        raise ValueError("utilization_ceiling must be in (0, 1]")
    tenants = set(floors) | set(best_effort)
    if (work_conserving and demand_aware and tenants
            and not any(usages.values())):
        # All idle: the water-fill has a closed form.
        return idle_caps(capacity, floors, tenants, best_effort,
                         utilization_ceiling, lend_parked_floors)
    budget = capacity * utilization_ceiling
    reserved = sum(floors.values())
    spare = max(budget - reserved, 0.0)
    allowance = capacity * _RAMP_ALLOWANCE_FRACTION

    caps: Dict[str, float] = {}
    if not work_conserving:
        for tenant, floor in floors.items():
            caps[tenant] = floor
        if best_effort:
            be_share = spare / len(best_effort)
            for tenant in best_effort:
                caps[tenant] = max(be_share, allowance)
        return caps

    # Lend *parked* guarantees: a floor whose owner is clearly idle joins
    # the distributable spare.  Reclaim happens one round after the owner
    # shows any real usage again — the staleness window E7 measures.
    if lend_parked_floors:
        spare += sum(
            max(floor - usages.get(tenant, 0.0), 0.0)
            for tenant, floor in floors.items()
            if usages.get(tenant, 0.0) < _PARK_FRACTION * floor
        )

    # Demand-aware water-filling of the spare.  A tenant's estimated spare
    # demand is its observed usage beyond its floor, doubled so it can keep
    # growing, plus the ramp allowance so an idle tenant still gets a
    # toehold to signal demand with.
    if demand_aware:
        estimates = {
            tenant: max(usages.get(tenant, 0.0)
                        - floors.get(tenant, 0.0), 0.0)
            * _GROWTH_FACTOR + allowance
            for tenant in tenants
        }
        allocation = _waterfill(spare, estimates)
    else:
        # Ablation: equal split among active sharers (plus all guaranteed
        # tenants, whose floors must be claimable instantly).
        active = {t for t in tenants
                  if usages.get(t, 0.0) > _ACTIVE_EPSILON}
        sharers = active | set(floors)
        share = spare / len(sharers) if sharers else 0.0
        allocation = {t: (share if t in sharers else allowance)
                      for t in tenants}
    for tenant in tenants:
        caps[tenant] = floors.get(tenant, 0.0) + allocation[tenant]
    for tenant in best_effort:
        caps[tenant] = max(caps[tenant], allowance)
    return caps


def idle_caps(
    capacity: float,
    floors: Dict[str, float],
    tenants: AbstractSet[str],
    best_effort: Container[str],
    utilization_ceiling: float,
    lend_parked_floors: bool,
) -> Dict[str, float]:
    """:func:`compute_caps` for a work-conserving, demand-aware link on
    which no tenant uses anything.

    Every floor is parked and every demand estimate collapses to the ramp
    allowance, so the water-fill reduces to an equal split of the (lent)
    spare over *tenants* and the floor holders: each tenant without a
    floor holds ``max(share, allowance)`` and each floor holder its floor
    plus the share (at least the allowance if it is also in
    *best_effort*).

    Args:
        tenants: Tenants that get a cap, in the order the caps are
            wanted; floor holders missing from it are appended after it.
    """
    budget = capacity * utilization_ceiling
    reserved = sum(floors.values())
    spare = max(budget - reserved, 0.0)
    allowance = capacity * _RAMP_ALLOWANCE_FRACTION
    if lend_parked_floors:
        spare += reserved
    share = spare / (len(tenants) + len(floors.keys() - tenants))
    # Every tenant without a floor holds the same cap, so the tenants are
    # filled with it in one step and only the floor holders overwritten.
    caps = dict.fromkeys(tenants, max(0.0 + share, allowance))
    for tenant, floor in floors.items():
        cap = floor + share
        caps[tenant] = (max(cap, allowance) if tenant in best_effort
                        else cap)
    return caps


def _waterfill(budget: float, demands: Dict[str, float]) -> Dict[str, float]:
    """Classic water-filling: satisfy demands fairly, split any leftover.

    Each round gives every unsatisfied claimant an equal share, capped at
    its demand; leftover re-enters the pool.  Budget remaining after every
    demand is met is split equally among all claimants (so anyone may grow
    past its estimate next round).
    """
    if not demands:
        return {}
    # Fast path: when the pool covers every demand (the common case on a
    # lightly loaded link, and always when usages are zero), the rounds
    # below reduce to demand-plus-equal-bonus in one pass.
    total_demand = sum(demands.values())
    if total_demand <= budget:
        bonus = (budget - total_demand) / len(demands)
        return {tenant: demand + bonus
                for tenant, demand in demands.items()}
    allocation = {tenant: 0.0 for tenant in demands}
    unsatisfied = {t for t, d in demands.items() if d > 0}
    remaining = budget
    while unsatisfied and remaining > 1e-9:
        share = remaining / len(unsatisfied)
        progressed = False
        for tenant in list(unsatisfied):
            need = demands[tenant] - allocation[tenant]
            grant = min(share, need)
            if grant > 0:
                allocation[tenant] += grant
                remaining -= grant
                progressed = True
            if allocation[tenant] >= demands[tenant] - 1e-9:
                unsatisfied.discard(tenant)
        if not progressed:
            break
    if remaining > 1e-9:
        bonus = remaining / len(demands)
        for tenant in allocation:
            allocation[tenant] += bonus
    return allocation


class DynamicArbiter:
    """Periodic, delayed enforcement of floors over a live fabric.

    Args:
        network: The fabric to control.
        period: Adjustment period (seconds, finite and > 0).
        decision_latency: Sense-decide-program delay before newly computed
            caps take effect (seconds, finite and >= 0) — §3.2 Q3's knob.
            At 0 the caps apply within the round that computed them.
        work_conserving: Allocation mode (see :func:`compute_caps`).
    """

    def __init__(
        self,
        network: FabricNetwork,
        period: float = 0.001,
        decision_latency: float = us(10),
        work_conserving: bool = True,
        lend_parked_floors: bool = True,
        demand_aware: bool = True,
        degradation_aware: bool = False,
    ) -> None:
        if not (math.isfinite(period) and period > 0):
            raise ArbiterError(f"period must be finite and > 0, got {period}")
        if not (math.isfinite(decision_latency) and decision_latency >= 0):
            raise ArbiterError(f"decision_latency must be finite and >= 0, "
                               f"got {decision_latency}")
        self.network = network
        self.period = period
        self.decision_latency = decision_latency
        self.work_conserving = work_conserving
        self.lend_parked_floors = lend_parked_floors
        self.demand_aware = demand_aware
        #: Allocate against *effective* (degradation-aware) capacity rather
        #: than the spec sheet.  Off by default — the baseline arbiter
        #: trusts the datasheet, which is exactly the blind spot §3.1's
        #: silent-degradation case exploits; the recovery controller flips
        #: this on so caps stop overcommitting degraded links.
        self.degradation_aware = degradation_aware

        # (link, direction) -> tenant -> floor.  Links are full duplex, so
        # guarantees are enforced per direction (a 50 Gbps ingress floor
        # must not be satisfiable with egress bandwidth).
        self._floors: Dict[Tuple[str, str], Dict[str, float]] = {}
        # link -> {owner: ceiling}; the strictest owner wins per link.
        self._ceilings: Dict[str, Dict[str, float]] = {}
        self._best_effort: Set[str] = set()
        self._task: Optional[PeriodicTask] = None
        # (link, direction) -> tenants whose caps this arbiter installed.
        self._capped: Dict[Tuple[str, str], Set[str]] = {}
        # Event-driven cadence: once a round quiesces (skipped — nothing
        # can have changed), the periodic task parks itself; any fabric
        # re-solve or configuration change re-arms it.  An idle host thus
        # schedules no arbiter events at all, which is what lets the
        # fleet's event clock skip it entirely.
        self._running = False
        self._subscribed = False

        # Quiescence: an adjustment round is a pure function of the
        # arbiter's configuration (floors, ceilings, best-effort set,
        # mode flags) and the fabric state (flows, caps, link health —
        # all funnelled through the network's recompute counter).  When
        # neither input has changed since the last computed round, the
        # round would re-derive byte-identical caps, so it is skipped.
        self._config_version = 0
        self._quiesced_state: Optional[tuple] = None
        # Per-directed-link incremental state.  A link's allocation is a
        # pure function of a small input signature (its floor version, the
        # best-effort roster version, capacity, ceiling, the link's own
        # rate version — or "idle" on a flowless fabric — and the mode
        # flags); churn moves one link's floors at a time, and a
        # re-solve moves only the usage of links its flows cross, so most
        # links present an unchanged signature each round and reuse their
        # cached (signature, allocation) without re-programming a cap.
        # Whatever lifts caps behind the cache drops its entries.
        self._floor_versions: Dict[Tuple[str, str], int] = {}
        self._best_effort_version = 0
        self._link_cache: Dict[Tuple[str, str], tuple] = {}
        self._emitted_caps: Dict[Tuple[str, str], Dict[str, float]] = {}
        self._applying = False

        self.adjustments = 0
        self.skipped_adjustments = 0
        #: Allocations computed by adjustment rounds (:func:`compute_caps`
        #: calls, or its :func:`idle_caps` closed form on a flowless
        #: fabric); a link whose signature is unchanged reuses its cached
        #: allocation.
        self.allocations_computed = 0
        self.last_allocations: List[LinkAllocation] = []

    # -- configuration ----------------------------------------------------------

    def _floor_keys(self, link_id: str,
                    direction: Optional[str]) -> List[Tuple[str, str]]:
        if direction is None:
            return [(link_id, "fwd"), (link_id, "rev")]
        if direction not in ("fwd", "rev"):
            raise ArbiterError(f"direction must be fwd/rev/None, "
                               f"got {direction!r}")
        return [(link_id, direction)]

    def add_floor(self, tenant_id: str, link_id: str, bandwidth: float,
                  direction: Optional[str] = None) -> None:
        """Add *bandwidth* to a tenant's guaranteed floor on *link_id*.

        With *direction* (``"fwd"``/``"rev"``) the floor binds one
        direction; without it, the guarantee is installed in both
        directions (bidirectional intents, simple callers).
        """
        if not (math.isfinite(bandwidth) and bandwidth > 0):
            raise ArbiterError(f"floor bandwidth must be finite and > 0, "
                               f"got {bandwidth}")
        self.network.topology.link(link_id)  # validate
        keys = self._floor_keys(link_id, direction)
        self._config_changed()
        for key in keys:
            per_tenant = self._floors.setdefault(key, {})
            per_tenant[tenant_id] = per_tenant.get(tenant_id, 0.0) + bandwidth
            self._floor_versions[key] = self._floor_versions.get(key, 0) + 1

    def remove_floor(self, tenant_id: str, link_id: str,
                     bandwidth: float,
                     direction: Optional[str] = None) -> None:
        """Subtract *bandwidth* from a floor (removing it at zero); a
        rejected call changes nothing."""
        if not (math.isfinite(bandwidth) and bandwidth > 0):
            raise ArbiterError(f"floor bandwidth must be finite and > 0, "
                               f"got {bandwidth}")
        keys = self._floor_keys(link_id, direction)
        for key in keys:
            if tenant_id not in self._floors.get(key, ()):
                raise ArbiterError(
                    f"no floor for tenant {tenant_id!r} on "
                    f"{key[0]!r}/{key[1]}"
                )
        self._config_changed()
        for key in keys:
            per_tenant = self._floors[key]
            remaining = per_tenant[tenant_id] - bandwidth
            if remaining <= 1e-9:
                del per_tenant[tenant_id]
                if not per_tenant:
                    del self._floors[key]
            else:
                per_tenant[tenant_id] = remaining
            self._floor_versions[key] = self._floor_versions.get(key, 0) + 1

    def set_utilization_ceiling(self, owner: str, link_id: str,
                                ceiling: float) -> None:
        """Bound the fraction of *link_id* the allocator may hand out.

        Latency SLOs compile to per-link ceilings: capping utilization
        bounds queueing inflation.  Multiple owners (intents) may set
        ceilings on one link; the strictest applies.  The link must also
        carry at least one floor for the arbiter to manage it.
        """
        if not 0 < ceiling <= 1:
            raise ArbiterError("ceiling must be in (0, 1]")
        self.network.topology.link(link_id)  # validate
        self._config_changed()
        self._ceilings.setdefault(link_id, {})[owner] = ceiling

    def clear_utilization_ceiling(self, owner: str, link_id: str) -> None:
        """Remove one owner's ceiling on *link_id* (no-op if absent)."""
        owners = self._ceilings.get(link_id)
        if owners is not None and owner in owners:
            self._config_changed()
            del owners[owner]
            if not owners:
                del self._ceilings[link_id]

    def ceiling_on(self, link_id: str) -> float:
        """The effective (strictest) ceiling on *link_id*; 1.0 if none."""
        owners = self._ceilings.get(link_id)
        if not owners:
            return 1.0
        return min(owners.values())

    def register_best_effort(self, tenant_id: str) -> None:
        """Mark a tenant as best-effort (subject to caps, no floor)."""
        if tenant_id not in self._best_effort:
            self._config_changed()
            self._best_effort_version += 1
            self._best_effort.add(tenant_id)

    def unregister_best_effort(self, tenant_id: str) -> None:
        """Remove a tenant from best-effort tracking and lift its caps."""
        if tenant_id in self._best_effort:
            self._config_changed()
            self._best_effort_version += 1
            self._best_effort.discard(tenant_id)
        self._lift_tenant_caps(tenant_id)

    def floors_on(self, link_id: str,
                  direction: Optional[str] = None) -> Dict[str, float]:
        """Current floors on *link_id*.

        With *direction*, that direction's floors; without, the per-tenant
        maximum across directions (the effective guarantee level).
        """
        if direction is not None:
            return dict(self._floors.get((link_id, direction), {}))
        merged: Dict[str, float] = {}
        for d in ("fwd", "rev"):
            for tenant, floor in self._floors.get((link_id, d), {}).items():
                merged[tenant] = max(merged.get(tenant, 0.0), floor)
        return merged

    def managed_links(self) -> List[str]:
        """Links with at least one floor (either direction), deduplicated
        in first-appearance order."""
        return list(dict.fromkeys(link_id for link_id, _d in self._floors))

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic adjustment (self-pausing while quiesced)."""
        if self._running:
            raise ArbiterError("arbiter already started")
        self._running = True
        self._arm()
        if not self._subscribed:
            self._subscribed = True
            self.network.on_recompute(self._fabric_changed)

    def _arm(self) -> None:
        if self._task is None:
            self._task = self.network.engine.schedule_every(
                self.period, self.adjust_once, label="arbiter-adjust"
            )

    def _park(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def _fabric_changed(self) -> None:
        # Runs on every fabric re-solve — the one signal that can move a
        # quiesced arbiter's inputs (flow rates, link health, caps).  Our
        # own enforcement batch also re-solves; _apply suppresses the
        # self-wake and decides quiescence itself.
        if self._running and not self._applying:
            self._arm()

    def _config_changed(self) -> None:
        # Every configuration mutation funnels through here: bump the
        # round fingerprint and un-park the periodic task.
        self._config_version += 1
        if self._running:
            self._arm()

    def stop(self, lift_caps: bool = True) -> None:
        """Stop adjusting; optionally lift every cap the arbiter set."""
        self._running = False
        self._park()
        if lift_caps:
            with self.network.batch():
                for (link_id, direction), tenants in self._capped.items():
                    self.network.clear_link_caps(link_id, tenants,
                                                 direction=direction)
            self._capped.clear()
            self._link_cache.clear()
            self._emitted_caps.clear()

    # -- the control loop -------------------------------------------------------

    def adjust_once(self) -> List[LinkAllocation]:
        """One sense-decide round; caps apply after ``decision_latency``."""
        if not TRACER.enabled:
            return self._adjust_once_untracked()
        with TRACER.span("arbiter", "adjust", {
            "directed_links": len(self._floors),
            "best_effort_tenants": len(self._best_effort),
        }):
            allocations = self._adjust_once_untracked()
            TRACER.annotate(allocations=len(allocations))
            return allocations

    def _input_fingerprint(self) -> tuple:
        """Everything an adjustment round's outcome depends on.

        The mode flags are included by value because the recovery
        controller flips ``degradation_aware`` by direct assignment; the
        network's recompute counter stands in for all fabric state (any
        flow, cap, or link-health change re-solves exactly once).
        """
        self.network.flush_recompute()
        return (
            self._config_version,
            self.work_conserving,
            self.lend_parked_floors,
            self.demand_aware,
            self.degradation_aware,
            self.network.recompute_count,
        )

    def _adjust_once_untracked(self) -> List[LinkAllocation]:
        self.adjustments += 1
        fingerprint = self._input_fingerprint()
        if fingerprint == self._quiesced_state:
            self.skipped_adjustments += 1
            # Quiesced: nothing can move the outcome until a fabric
            # re-solve or a config change, and both re-arm the task.
            self._park()
            return self.last_allocations
        allocations: List[LinkAllocation] = []
        # One (link, direction, {tenant: cap}) entry per directed link
        # whose caps moved, in emission order.
        pending: List[Tuple[str, str, Dict[str, float]]] = []
        # On a fabric with no live flows every usage reading is zero, so
        # "idle" stands in for every link's usage; otherwise each link's
        # signature carries that link's own rate version, which moves
        # whenever its {tenant: rate} map may have.
        fabric_idle = not self.network.active_flows()
        # There, with every usage zero, the work-conserving demand-aware
        # rule is idle_caps's closed form.
        closed_form = (fabric_idle and self.work_conserving
                       and self.demand_aware)
        best_effort = self._best_effort
        rate_version = self.network.rate_version
        mode = (self.work_conserving, self.lend_parked_floors,
                self.demand_aware)
        link_cache = self._link_cache
        topology_link = self.network.topology.link
        for key, floors in self._floors.items():
            link_id, direction = key
            link = topology_link(link_id)
            # By default the arbiter believes the spec sheet; in
            # degradation-aware mode it allocates what the link can
            # actually carry right now.
            capacity = (link.effective_capacity if self.degradation_aware
                        else link.capacity)
            link_usage = ("idle" if fabric_idle
                          else rate_version(link_id, direction))
            ceiling = self.ceiling_on(link_id)
            sig = (self._floor_versions.get(key, 0),
                   self._best_effort_version, capacity, ceiling,
                   link_usage, mode)
            cached = link_cache.get(key)
            if cached is not None and cached[0] == sig:
                # The fabric still holds exactly these caps.
                allocations.append(cached[1])
                continue
            self.allocations_computed += 1
            link_floors = dict(floors)
            if closed_form:
                # compute_caps's all-idle rule, without its tenant-set
                # union: the caps cover the roster, then the floor
                # holders off it (a floor holder is never best-effort
                # on its own link).  Only that cap order differs from
                # compute_caps's, and on a flowless fabric no rate,
                # reading or digest depends on it.
                caps = idle_caps(capacity, link_floors, best_effort,
                                 (), ceiling, self.lend_parked_floors)
                usages = dict.fromkeys(caps, 0.0)
                usages.pop(SYSTEM_TENANT, None)
            else:
                # Built only on a miss: the signature needs no tenant
                # set, and no usage read.
                tenants = set(link_floors) | best_effort
                tenants.discard(SYSTEM_TENANT)
                usages = (dict.fromkeys(tenants, 0.0) if fabric_idle
                          else self.network.tenant_link_rates(
                              link_id, direction, tenants))
                caps = compute_caps(
                    capacity=capacity, floors=link_floors, usages=usages,
                    best_effort={t for t in best_effort
                                 if t not in link_floors},
                    work_conserving=self.work_conserving,
                    utilization_ceiling=ceiling,
                    lend_parked_floors=self.lend_parked_floors,
                    demand_aware=self.demand_aware,
                )
            allocation = LinkAllocation(
                link_id=f"{link_id}|{direction}", capacity=capacity,
                floors=link_floors, usages=usages, caps=caps,
            )
            link_cache[key] = (sig, allocation)
            allocations.append(allocation)
            emitted = self._emitted_caps.setdefault(key, {})
            # Within a changed link, most tenants usually keep the same
            # cap (equal shares of an unchanged pool); only program the
            # ones that actually moved.
            moved = {tenant: cap for tenant, cap in caps.items()
                     if emitted.get(tenant) != cap}
            if moved:
                emitted.update(moved)
                pending.append((link_id, direction, moved))

        quiesced: Optional[tuple] = None
        if pending:
            if self.decision_latency > 0:
                self.network.engine.schedule_in(
                    self.decision_latency,
                    lambda batch=pending: self._apply(batch),
                    label="arbiter-apply",
                )
            else:
                self._apply(pending)
                if self.network.active_flows():
                    # The caps just installed re-solved live flows whose
                    # new rates this round never sensed: quiesce on the
                    # pre-apply inputs so the next round senses them
                    # (and reclaims any floor lent out meanwhile).
                    quiesced = fingerprint
        self.last_allocations = allocations
        # Otherwise the snapshot is taken *after* any synchronous apply:
        # on a flowless fabric the caps cannot move any reading, and once
        # a delayed apply turns out to be a no-op next round the
        # fingerprint stabilizes, so subsequent rounds skip until some
        # input actually moves.
        self._quiesced_state = (quiesced if quiesced is not None
                                else self._input_fingerprint())
        return allocations

    def _apply(self, batch: List[Tuple[str, str, Dict[str, float]]]
               ) -> None:
        # One enforcement round programs every cap in a single fabric
        # re-solve, one fabric call per directed link; the incremental
        # solver then only re-solves the components whose caps actually
        # changed since last round.
        if TRACER.enabled:
            TRACER.begin("arbiter", "enforce", {
                "caps": sum(len(caps) for _, _, caps in batch),
                "tenants": len({tenant for _, _, caps in batch
                                for tenant in caps}),
            })
        # Flush any recompute other components queued before this apply so
        # their listeners (including our own re-arm) run un-suppressed.
        before = self._input_fingerprint()
        self._applying = True
        try:
            with self.network.batch():
                for link_id, direction, caps in batch:
                    self.network.set_link_caps(link_id, caps,
                                               direction=direction)
                    self._capped.setdefault((link_id, direction),
                                            set()).update(caps)
            if (before == self._quiesced_state
                    and not self.network.active_flows()):
                # The only thing that moved since the decide round is our
                # own enforcement, and with no live flows the new caps
                # cannot change any reading the next round would sense:
                # fold the apply into the quiesced state instead of waking
                # up just to discover a no-op.
                self._quiesced_state = self._input_fingerprint()
            elif self._running:
                self._arm()
        finally:
            self._applying = False
            if TRACER.enabled:
                TRACER.end()

    def _lift_tenant_caps(self, tenant_id: str) -> None:
        stale = [key for key, tenants in self._capped.items()
                 if tenant_id in tenants]
        with self.network.batch():
            for key in stale:
                link_id, direction = key
                self.network.clear_link_caps(link_id, (tenant_id,),
                                             direction=direction)
                tenants = self._capped[key]
                tenants.discard(tenant_id)
                if not tenants:
                    del self._capped[key]
                # A cap was cleared behind the cache: the next round
                # recomputes and re-programs this link.
                self._link_cache.pop(key, None)
                self._emitted_caps.get(key, {}).pop(tenant_id, None)

    def lift_link_caps(self, link_id: str) -> None:
        """Lift every cap on *link_id* (after its last floor is released)."""
        with self.network.batch():
            for direction in ("fwd", "rev"):
                key = (link_id, direction)
                tenants = self._capped.pop(key, None)
                if tenants is None:
                    continue
                self.network.clear_link_caps(link_id, tenants,
                                             direction=direction)
                self._link_cache.pop(key, None)
                self._emitted_caps.pop(key, None)
