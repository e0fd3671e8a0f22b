"""Weighted, demand-limited max-min fair bandwidth allocation.

The fluid model at the heart of the simulator: each active flow traverses a
set of capacity constraints (physical links, plus any *virtual* constraints
the arbiter injects, e.g. a per-tenant cap on one link) and receives a rate
via progressive filling (water-filling):

1. grow every unfrozen flow's rate in proportion to its weight;
2. when a constraint saturates, freeze every flow crossing it;
3. when a flow reaches its demand, freeze that flow;
4. repeat until all flows are frozen.

This yields the classic weighted max-min fair allocation, which is the
accepted fluid approximation for PCIe/memory-bus bandwidth sharing under
congestion (see Neugebauer'18's PCIe model, and fair-share assumptions in
the QoS literature the paper cites).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Relative tolerance for saturation checks.
_EPSILON = 1e-9

#: Absolute tolerance in bytes/s: demands/rates below this are zero.  Fabric
#: quantities are O(1e9), so 1e-9 B/s is twenty orders below signal — but it
#: keeps denormal inputs from stalling the water-filling loop.
_ABS_EPSILON = 1e-9


@dataclass(frozen=True)
class FlowDemand:
    """One flow's input to the solver.

    Attributes:
        flow_id: Unique identifier.
        links: Ids of the capacity constraints the flow crosses (physical
            link ids and/or virtual constraint ids).
        demand: Maximum useful rate in bytes/s (``inf`` for elastic flows).
        weight: Max-min weight (finite, > 0); rates grow in proportion to
            weights.
    """

    flow_id: str
    links: Tuple[str, ...]
    demand: float = math.inf
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.weight < math.inf:
            raise ValueError(
                f"flow {self.flow_id!r}: weight must be finite and > 0")
        if not self.demand >= 0:
            raise ValueError(f"flow {self.flow_id!r}: demand must be >= 0")


@dataclass(frozen=True)
class Constraint:
    """A named capacity constraint (physical or virtual).

    Physical constraints apply to every flow that lists them in ``links``.
    Virtual constraints (e.g. tenant caps) additionally restrict membership
    to ``member_flows`` when given.
    """

    constraint_id: str
    capacity: float
    member_flows: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        if not self.capacity >= 0:
            raise ValueError(
                f"constraint {self.constraint_id!r}: capacity must be >= 0"
            )


def build_problem(
    flows: Sequence[FlowDemand],
    capacities: Mapping[str, float],
    extra_constraints: Iterable[Constraint] = (),
) -> Tuple[Dict[str, List[int]], Dict[str, float]]:
    """Validate inputs and build the constraint-membership structures.

    Returns ``(members, caps)``: constraint id -> flow indices (with
    multiplicity — a flow crossing a link twice consumes double capacity on
    it), and constraint id -> capacity.  Only constraints actually crossed
    by some flow appear.  Shared by the stateless entry point and the full
    solve of :class:`~repro.sim.solver.IncrementalMaxMinSolver`, so both
    agree on validation and ordering.
    """
    flow_index = {f.flow_id: i for i, f in enumerate(flows)}
    if len(flow_index) != len(flows):
        raise ValueError("duplicate flow ids passed to solver")

    members: Dict[str, List[int]] = {}
    caps: Dict[str, float] = {}
    for f in flows:
        for link_id in f.links:
            if link_id not in capacities:
                raise KeyError(f"flow {f.flow_id!r} references unknown "
                               f"constraint {link_id!r}")
            members.setdefault(link_id, []).append(flow_index[f.flow_id])
    for link_id in members:
        caps[link_id] = float(capacities[link_id])

    for constraint in extra_constraints:
        cid = constraint.constraint_id
        if cid in caps:
            raise ValueError(f"constraint id {cid!r} collides with a link id")
        if constraint.member_flows is None:
            raise ValueError(
                f"virtual constraint {cid!r} must declare member_flows"
            )
        # Flow-index order, not frozenset order (see _solve_component).
        bound = sorted(flow_index[fid] for fid in constraint.member_flows
                       if fid in flow_index)
        if bound:
            members[cid] = bound
            caps[cid] = float(constraint.capacity)
    return members, caps


def progressive_fill(
    flows: Sequence[FlowDemand],
    members: Mapping[str, List[int]],
    caps: Mapping[str, float],
) -> List[float]:
    """The water-filling core: rates (by flow index) for a built problem.

    The one water-filling implementation: the stateless entry point and
    every solve of :class:`~repro.sim.solver.IncrementalMaxMinSolver` run
    it (DESIGN §10 records why there is no second, vectorized core).  Both
    per-constraint usage *and* per-constraint active weight are carried as
    running totals — usage grows with the rates and is debited on demand
    clamps; active weight is debited as member flows freeze — so each
    round costs one pass over the still-active constraints and flows
    instead of re-summing the whole incidence.
    """
    n = len(flows)
    rates = [0.0] * n
    weights = [f.weight for f in flows]
    demands = [f.demand for f in flows]
    frozen = [d <= _ABS_EPSILON for d in demands]
    finite = [math.isfinite(d) for d in demands]
    demand_floor = [d * (1 - _EPSILON) for d in demands]

    # Reverse incidence (flow -> constraints, with crossing multiplicity
    # preserved) so freezing a flow can debit the running totals.
    flow_cids: List[List[str]] = [[] for _ in range(n)]
    for cid, flow_ids in members.items():
        for i in flow_ids:
            flow_cids[i].append(cid)
    used = {cid: 0.0 for cid in members}
    active_weights: Dict[str, float] = {
        cid: sum(weights[i] for i in flow_ids if not frozen[i])
        for cid, flow_ids in members.items()
    }
    cap_floor = {cid: caps[cid] * (1 - _EPSILON) for cid in members}

    def freeze(i: int) -> None:
        frozen[i] = True
        w = weights[i]
        for cid in flow_cids[i]:
            active_weights[cid] -= w

    # Progressive filling.
    for _round in range(2 * (n + len(caps)) + 2):
        active = [i for i in range(n) if not frozen[i]]
        if not active:
            break

        # Growth headroom per constraint: remaining capacity shared over the
        # total weight of unfrozen flows crossing it.  (Plain comparisons —
        # builtin min/max calls are measurable at this loop's temperature.)
        step = math.inf
        for cid, active_weight in active_weights.items():
            if active_weight <= _ABS_EPSILON:
                continue
            headroom = caps[cid] - used[cid]
            if headroom <= 0.0:
                step = 0.0
                break
            candidate = headroom / active_weight
            if candidate < step:
                step = candidate

        # Growth headroom per flow demand.
        for i in active:
            if finite[i]:
                candidate = (demands[i] - rates[i]) / weights[i]
                if candidate < step:
                    step = candidate

        if not math.isfinite(step):
            # No binding constraint at all: unconstrained elastic flows.
            # This only happens for flows with infinite demand crossing no
            # constraints, which is a caller bug.
            raise ValueError("elastic flow with no capacity constraint")

        if step > 0:
            for i in active:
                rates[i] += weights[i] * step
            for cid, active_weight in active_weights.items():
                if active_weight > _ABS_EPSILON:
                    used[cid] += active_weight * step

        # Freeze demand-satisfied flows.
        for i in active:
            if rates[i] + _ABS_EPSILON >= demand_floor[i]:
                overshoot = rates[i] - demands[i]
                if overshoot > 0:
                    rates[i] = demands[i]
                    for cid in flow_cids[i]:
                        used[cid] -= overshoot
                freeze(i)

        # Freeze flows on saturated constraints.  Only constraints with
        # active members can have grown this round; ones saturated from the
        # start (zero capacity) trip on their first round here too.
        for cid, flow_ids in members.items():
            if used[cid] + _ABS_EPSILON >= cap_floor[cid]:
                for i in flow_ids:
                    if not frozen[i]:
                        freeze(i)

    return rates


def max_min_fair_rates(
    flows: Sequence[FlowDemand],
    capacities: Mapping[str, float],
    extra_constraints: Iterable[Constraint] = (),
) -> Dict[str, float]:
    """Compute weighted max-min fair rates (stateless entry point).

    One :func:`build_problem` and one :func:`progressive_fill` over every
    flow; callers with churning flow sets should hold a
    :class:`~repro.sim.solver.IncrementalMaxMinSolver` instead and use its
    mutation API, which re-solves only the connected component a change
    touches.

    Args:
        flows: The active flows.
        capacities: Capacity (bytes/s) per physical link id.  Every link id
            referenced by a flow must be present.
        extra_constraints: Additional constraints (e.g. the arbiter's
            per-tenant-per-link caps).  A constraint with ``member_flows``
            binds only the listed flows *and* only where the flow's link
            set contains the constraint id — virtual ids are matched by
            membership alone.

    Returns:
        Mapping flow id -> allocated rate (bytes/s).  Flows with zero demand
        get rate 0.  A flow crossing a zero-capacity (failed) link gets 0.
    """
    if not flows:
        return {}
    members, caps = build_problem(flows, capacities, extra_constraints)
    rates = progressive_fill(flows, members, caps)
    return {f.flow_id: rates[i] for i, f in enumerate(flows)}
