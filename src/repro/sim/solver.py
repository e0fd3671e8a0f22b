"""Stateful, incremental weighted max-min fair solver.

The stateless :func:`~repro.sim.bandwidth.max_min_fair_rates` re-solves the
whole host from scratch on every call, which makes fabric churn
O(rounds x flows x constraints) per flow event.  This module keeps the
problem *resident*: the solver owns the current flow set, physical
capacities, and virtual constraints, and a mutation only invalidates the
connected component of the flow/constraint bipartite graph it touches.

Key properties:

* **Component partitioning.**  Two flows interact (directly or
  transitively) only if they share a constraint.  The weighted max-min
  allocation of a disconnected component is independent of every other
  component, so cached rates of untouched components are reused verbatim.
* **Dirty sets.**  Every mutation records the flows and constraints it
  touched.  ``solve()`` re-solves exactly the components containing
  something recorded since the last solve; a clean solver returns its
  cached rates without any work.
* **One water-filling core.**  Every fill builds one ``(members, caps)``
  problem and runs :func:`~repro.sim.bandwidth.progressive_fill` on it;
  :attr:`SolverStats.scalar_fills` counts the fills.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..trace.recorder import TRACER
from .bandwidth import (
    Constraint,
    FlowDemand,
    build_problem,
    progressive_fill,
)


@dataclass
class SolverStats:
    """Observable cost counters (the benchmarks' and tests' hook).

    Attributes:
        solve_calls: Total ``solve()`` invocations.
        noop_solves: Calls that returned the cache untouched (nothing dirty).
        full_solves: From-scratch joint solves over every flow.
        incremental_solves: Calls that re-solved only dirty components.
        component_solves: Individual component sub-solves executed.
        flows_resolved: Flow rates recomputed across all solves.
        flows_reused: Flow rates served from the component cache.
        scalar_fills: Water-filling runs.
        array_fills: Always 0; kept only because the benchmark's layer
            reader sums it with ``scalar_fills``.
    """

    solve_calls: int = 0
    noop_solves: int = 0
    full_solves: int = 0
    incremental_solves: int = 0
    component_solves: int = 0
    flows_resolved: int = 0
    flows_reused: int = 0
    scalar_fills: int = 0
    array_fills: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


class IncrementalMaxMinSolver:
    """Resident weighted max-min fair allocation with component caching.

    Mutations (:meth:`set_flow`, :meth:`remove_flow`, :meth:`set_capacity`,
    :meth:`set_constraint`, :meth:`remove_constraint`) are cheap and only
    mark state dirty; :meth:`solve` re-solves the dirty components and
    returns the full rate map.  All mutation methods are idempotent-cheap:
    writing a value identical to the current one does not dirty anything,
    so a periodic controller re-applying an unchanged schedule costs no
    re-solve ("arbiter periods reuse unchanged components").
    """

    def __init__(self) -> None:
        self._flows: Dict[str, FlowDemand] = {}
        self._flow_order: Dict[str, int] = {}
        self._order_seq = itertools.count()
        self._capacities: Dict[str, float] = {}
        self._virtual: Dict[str, Constraint] = {}

        # Adjacency (connectivity only; multiplicity is rebuilt per solve
        # from the authoritative FlowDemand.links tuples).
        self._members: Dict[str, Set[str]] = {}
        self._flow_cids: Dict[str, Set[str]] = {}
        # Virtual-constraint membership index including not-yet-added flows,
        # so a flow added after its constraint still binds (matching the
        # stateless function's solve-time membership semantics).
        self._virtual_by_flow: Dict[str, Set[str]] = {}

        # What mutations touched since the last solve.  Insertion-ordered
        # dicts, not sets: component discovery follows this order.
        self._touched_flows: Dict[str, None] = {}
        self._touched_cids: Dict[str, None] = {}
        self._loaded_clean = True  # nothing ever solved -> full solve first

        self._rates: Dict[str, float] = {}
        self.stats = SolverStats()

    # -- mutation API --------------------------------------------------------

    def set_capacity(self, constraint_id: str, capacity: float) -> None:
        """Register or update a physical constraint's capacity (bytes/s)."""
        if not capacity >= 0:
            raise ValueError(
                f"constraint {constraint_id!r}: capacity must be >= 0"
            )
        if constraint_id in self._virtual:
            raise ValueError(
                f"constraint id {constraint_id!r} collides with a virtual "
                f"constraint"
            )
        previous = self._capacities.get(constraint_id)
        value = float(capacity)
        if previous == value:
            return
        self._capacities[constraint_id] = value
        if previous is not None:
            self._touch_constraint(constraint_id)

    def set_flow(self, flow: FlowDemand) -> None:
        """Add *flow* or replace the flow with the same id."""
        for link_id in flow.links:
            if link_id not in self._capacities:
                raise KeyError(f"flow {flow.flow_id!r} references unknown "
                               f"constraint {link_id!r}")
        fid = flow.flow_id
        existing = self._flows.get(fid)
        if existing is not None:
            if (existing.links == flow.links
                    and existing.demand == flow.demand
                    and existing.weight == flow.weight):
                return
            if existing.links != flow.links:
                self._unlink_flow(fid, existing)
                self._link_flow(fid, flow)
            else:
                self._touch_flow(fid)
        else:
            self._flow_order[fid] = next(self._order_seq)
            self._link_flow(fid, flow)
        self._flows[fid] = flow

    def set_flow_params(self, flow_id: str,
                        demand: Optional[float] = None,
                        weight: Optional[float] = None) -> None:
        """Update a resident flow's demand and/or weight in place.

        Cheaper than :meth:`set_flow` for the refresh-scan hot path: no
        :class:`FlowDemand` is constructed unless something changed.
        """
        current = self._flows[flow_id]
        new_demand = current.demand if demand is None else demand
        new_weight = current.weight if weight is None else weight
        if new_demand == current.demand and new_weight == current.weight:
            return
        self._flows[flow_id] = FlowDemand(
            flow_id=flow_id, links=current.links,
            demand=new_demand, weight=new_weight,
        )
        self._touch_flow(flow_id)

    def remove_flow(self, flow_id: str) -> None:
        """Deactivate a flow; its former neighbours are re-solved next."""
        flow = self._flows.pop(flow_id, None)
        if flow is None:
            raise KeyError(f"flow not present: {flow_id!r}")
        self._unlink_flow(flow_id, flow)
        self._flow_order.pop(flow_id, None)
        self._rates.pop(flow_id, None)
        self._touched_flows.pop(flow_id, None)

    def set_constraint(self, constraint: Constraint) -> None:
        """Install or update a virtual constraint (e.g. a tenant cap)."""
        cid = constraint.constraint_id
        if constraint.member_flows is None:
            raise ValueError(
                f"virtual constraint {cid!r} must declare member_flows"
            )
        if cid in self._capacities:
            raise ValueError(f"constraint id {cid!r} collides with a link id")
        existing = self._virtual.get(cid)
        if (existing is not None
                and existing.capacity == constraint.capacity
                and existing.member_flows == constraint.member_flows):
            return
        if existing is not None:
            # Flows leaving the membership must re-solve too: stamp the old
            # bound set before the adjacency forgets it.
            for fid in self._members.get(cid, set()):
                self._touch_flow(fid)
            self._unlink_virtual(cid, existing)
        self._virtual[cid] = constraint
        self._link_virtual(cid, constraint)
        self._touch_constraint(cid)

    def remove_constraint(self, constraint_id: str) -> None:
        """Remove a virtual constraint (no-op if absent)."""
        constraint = self._virtual.pop(constraint_id, None)
        if constraint is None:
            return
        for fid in self._members.get(constraint_id, set()):
            self._touch_flow(fid)
        self._unlink_virtual(constraint_id, constraint)
        self._touched_cids.pop(constraint_id, None)

    # -- queries -------------------------------------------------------------

    def flow_count(self) -> int:
        """Number of resident flows."""
        return len(self._flows)

    def has_flow(self, flow_id: str) -> bool:
        """Whether *flow_id* is resident."""
        return flow_id in self._flows

    def flow(self, flow_id: str) -> FlowDemand:
        """The resident :class:`FlowDemand` for *flow_id*."""
        return self._flows[flow_id]

    def rate(self, flow_id: str) -> float:
        """Last solved rate of *flow_id* (0.0 if never solved)."""
        return self._rates.get(flow_id, 0.0)

    def is_dirty(self) -> bool:
        """Whether the next :meth:`solve` has work to do."""
        return (self._loaded_clean and bool(self._flows)) or bool(
            self._touched_flows or self._touched_cids
        )

    # -- solving -------------------------------------------------------------

    def solve(self) -> Dict[str, float]:
        """Return the rate map, re-solving only what a mutation touched.

        The returned dict is a snapshot owned by the caller.
        """
        self.stats.solve_calls += 1
        if not TRACER.enabled:
            return self._solve_untracked()
        with TRACER.span("solver", "solve", {
            "flows": len(self._flows),
            "dirty_flows": len(self._touched_flows),
            "dirty_constraints": len(self._touched_cids),
        }):
            before = (self.stats.noop_solves, self.stats.full_solves,
                      self.stats.component_solves, self.stats.flows_resolved)
            rates = self._solve_untracked()
            if self.stats.noop_solves > before[0]:
                TRACER.annotate(kind="noop")
            else:
                TRACER.annotate(
                    kind=("full" if self.stats.full_solves > before[1]
                          else "incremental"),
                    components=self.stats.component_solves - before[2],
                    flows_resolved=self.stats.flows_resolved - before[3],
                )
            return rates

    def _solve_untracked(self) -> Dict[str, float]:
        if self._loaded_clean:
            self._full_solve()
            self._loaded_clean = False
        elif self._touched_flows or self._touched_cids:
            self._incremental_solve()
        else:
            self.stats.noop_solves += 1
        self._touched_flows.clear()
        self._touched_cids.clear()
        return dict(self._rates)

    def _fill(self, flows: List[FlowDemand],
              members: Dict[str, List[int]],
              caps: Dict[str, float]) -> List[float]:
        """Water-fill one built problem."""
        self.stats.scalar_fills += 1
        return progressive_fill(flows, members, caps)

    def _full_solve(self) -> None:
        flows = list(self._flows.values())
        if flows:
            members, caps = build_problem(flows, self._capacities,
                                          self._virtual.values())
            rates = self._fill(flows, members, caps)
            self._rates = {f.flow_id: rates[i] for i, f in enumerate(flows)}
        else:
            self._rates = {}
        self.stats.full_solves += 1
        self.stats.flows_resolved += len(flows)

    def _incremental_solve(self) -> None:
        components = self._dirty_components()
        affected = sum(len(component) for component in components)
        self.stats.incremental_solves += 1
        self.stats.flows_reused += len(self._flows) - affected
        for component in components:
            self._solve_component(component)
            self.stats.component_solves += 1
            self.stats.flows_resolved += len(component)

    def _dirty_components(self) -> List[List[str]]:
        """Connected components of the dirty region, in one adjacency pass.

        Expands the transitive closure of the touched flows/constraints and
        partitions it into components simultaneously: each unseen seed
        grows its whole component before the next seed is considered, so
        the adjacency is walked exactly once.  Components come out in
        seed-discovery order with flows insertion-ordered inside each.
        """
        seeds: List[str] = [
            fid for fid in self._touched_flows if fid in self._flows
        ]
        for cid in self._touched_cids:
            seeds.extend(self._members.get(cid, ()))
        components: List[List[str]] = []
        seen: Set[str] = set()
        for seed in seeds:
            if seed in seen:
                continue
            component: Set[str] = set()
            stack = [seed]
            while stack:
                fid = stack.pop()
                if fid in component:
                    continue
                component.add(fid)
                for cid in self._flow_cids.get(fid, ()):
                    for neighbour in self._members.get(cid, ()):
                        if neighbour not in component:
                            stack.append(neighbour)
            seen |= component
            components.append(
                sorted(component, key=self._flow_order.__getitem__)
            )
        return components

    def _solve_component(self, component: List[str]) -> None:
        """Re-solve one component."""
        flows = [self._flows[fid] for fid in component]
        # Inline problem build: resident flows were validated at set_flow
        # time, so this skips build_problem's unknown-constraint checks and
        # flow-index dict on the hot churn path.
        members: Dict[str, List[int]] = {}
        for i, flow in enumerate(flows):
            for cid in flow.links:
                bucket = members.get(cid)
                if bucket is None:
                    members[cid] = [i]
                else:
                    bucket.append(i)
        caps = {cid: self._capacities[cid] for cid in members}
        if self._virtual:
            component_set = set(component)
            index = {fid: i for i, fid in enumerate(component)}
            for cid, constraint in self._virtual.items():
                inside = self._members.get(cid, set()) & component_set
                if inside:
                    # Flow-index order, not set order: the fill sums and
                    # freezes members in list order, and unequal weights
                    # would round differently under each hash seed.
                    members[cid] = sorted(index[fid] for fid in inside)
                    caps[cid] = float(constraint.capacity)
        rates = self._fill(flows, members, caps)
        for i, f in enumerate(flows):
            self._rates[f.flow_id] = rates[i]

    # -- internal bookkeeping ------------------------------------------------

    def _touch_flow(self, flow_id: str) -> None:
        self._touched_flows[flow_id] = None

    def _touch_constraint(self, cid: str) -> None:
        self._touched_cids[cid] = None

    def _link_flow(self, fid: str, flow: FlowDemand) -> None:
        cids = set(flow.links)
        cids |= self._virtual_by_flow.get(fid, set())
        self._flow_cids[fid] = cids
        for cid in cids:
            self._members.setdefault(cid, set()).add(fid)
        self._touch_flow(fid)

    def _unlink_flow(self, fid: str, flow: FlowDemand) -> None:
        # Dirty the constraints the flow sat on so its former neighbours
        # reclaim the capacity it held.
        for cid in self._flow_cids.pop(fid, set()):
            bucket = self._members.get(cid)
            if bucket is not None:
                bucket.discard(fid)
                if not bucket:
                    del self._members[cid]
            self._touch_constraint(cid)

    def _link_virtual(self, cid: str, constraint: Constraint) -> None:
        for fid in constraint.member_flows or ():
            self._virtual_by_flow.setdefault(fid, set()).add(cid)
            if fid in self._flows:
                self._flow_cids[fid].add(cid)
                self._members.setdefault(cid, set()).add(fid)

    def _unlink_virtual(self, cid: str, constraint: Constraint) -> None:
        for fid in constraint.member_flows or ():
            bucket = self._virtual_by_flow.get(fid)
            if bucket is not None:
                bucket.discard(cid)
                if not bucket:
                    del self._virtual_by_flow[fid]
            if fid in self._flows:
                self._flow_cids[fid].discard(cid)
        self._members.pop(cid, None)
