"""Array-backed water-filling: interned problem state + vectorized core.

The scalar :func:`~repro.sim.bandwidth.progressive_fill` is the reference
implementation of weighted max-min water-filling, but it is a pure-Python
loop that costs O(rounds x constraints x membership).  This module provides
the production path for large problems:

* :class:`InternedProblem` — a mirror of the resident solver's problem kept
  in *interned* form: every flow and constraint gets a stable integer slot,
  weights/demands/capacities live in dense numpy vectors, and each flow's
  constraint incidence is a small pre-interned (constraint-slot,
  multiplicity) array computed once at ``set_flow`` time.  The mirror is
  maintained incrementally by :class:`~repro.sim.solver.IncrementalMaxMinSolver`
  mutations — a solve never re-hashes a flow or constraint id.
* :func:`_fill_arrays` — the vectorized water-filling round: active
  weights, headroom, demand gaps, and freeze masks are computed with
  ``bincount``/segment operations over a flat edge list instead of nested
  Python loops.  Semantically identical to the scalar core (same epsilons,
  same freeze rules, same round bound); results agree within floating-point
  accumulation order (1e-6, enforced by the seeded property suite in
  ``tests/test_sim_arrays.py``).
* :func:`progressive_fill_array` — a drop-in vectorized replacement for
  ``progressive_fill`` on an already-built ``(members, caps)`` problem,
  used by the stateless entry point for large instances.

numpy overhead dominates for tiny problems (the constant cost of building
local arrays exceeds the whole scalar solve below a few dozen flows), and
chaos/churn workloads produce tiny components constantly — so the resident
solver picks the path *per component*, falling back to the scalar core
below :data:`DEFAULT_ARRAY_CROSSOVER`.  The crossover was measured on the
benchmark VM (see ``BENCH_sim_performance.json``): with the running-total
scalar core the two paths break even around ~256 flows per component; at
1000 flows the array path is ~4x faster and still widening.

numpy is an optional dependency of this module alone: when it is missing,
:data:`HAVE_NUMPY` is ``False``, the solver silently keeps the scalar path
for every component, and :class:`NullInternedProblem` stands in as an
inert mirror.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

try:  # gate, don't require: the scalar core remains fully functional
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    np = None  # type: ignore[assignment]

from .bandwidth import _ABS_EPSILON, _EPSILON, FlowDemand

#: Whether the vectorized path is available at all.
HAVE_NUMPY = np is not None

#: Component size (flow count) at which the solver switches from the scalar
#: to the array core.  Measured break-even on the reference VM is ~256
#: flows (the scalar core carries running usage/active-weight totals, so
#: its rounds are cheap; numpy's per-call constants only amortize once
#: components get big).  Below this, churn-sized components never pay
#: numpy setup; above it the array core wins and keeps widening (~4x at
#: 1000 flows).
DEFAULT_ARRAY_CROSSOVER = 256


def _fill_arrays(
    weights: "np.ndarray",
    demands: "np.ndarray",
    caps: "np.ndarray",
    edge_flow: "np.ndarray",
    edge_cons: "np.ndarray",
    edge_mult: "np.ndarray",
) -> "np.ndarray":
    """Vectorized progressive filling over a flat edge list.

    Args:
        weights/demands: Per-flow vectors (local indices ``0..n-1``).
        caps: Per-constraint capacity vector (local indices ``0..m-1``).
        edge_flow/edge_cons/edge_mult: The incidence as parallel arrays:
            edge *k* says flow ``edge_flow[k]`` crosses constraint
            ``edge_cons[k]`` with multiplicity ``edge_mult[k]``.

    Returns:
        Per-flow rate vector.  Mirrors the scalar core exactly: same
        initial freezes, same per-round step/freeze rules, same round
        bound, same "elastic flow with no capacity constraint" error.
    """
    n = len(weights)
    m = len(caps)
    rates = np.zeros(n)
    frozen = demands <= _ABS_EPSILON
    finite_demand = np.isfinite(demands)
    # Demand threshold for the freeze check; inf stays inf (never reached).
    demand_floor = demands * (1.0 - _EPSILON)
    used = np.zeros(m)
    # used >= cap_stop <=> used + _ABS_EPSILON >= cap * (1 - _EPSILON),
    # the scalar core's saturation test, folded into one precomputed bound.
    cap_stop = caps * (1.0 - _EPSILON) - _ABS_EPSILON
    ratio = np.empty(m)

    # The loop works on *live* index/edge arrays, re-filtered whenever a
    # flow freezes: per-round cost then tracks the shrinking active set —
    # matching the scalar core, whose active lists drain as flows freeze —
    # instead of staying O(total edges) for every round.  `used` is
    # carried, never re-summed, so dropping a frozen flow's edges cannot
    # lose its capacity footprint.
    idx = np.flatnonzero(~frozen)
    if idx.size < n and edge_flow.size:
        live = ~frozen[edge_flow]
        edge_flow = edge_flow[live]
        edge_cons = edge_cons[live]
        edge_mult = edge_mult[live]
    edge_weight = weights[edge_flow] * edge_mult
    idxf = idx[finite_demand[idx]]

    for _round in range(2 * (n + m) + 2):
        if not idx.size:
            break

        # Active weight per constraint (edges only cover live flows).
        active_weight = np.bincount(edge_cons, weights=edge_weight,
                                    minlength=m)

        # Growth headroom per constraint: remaining capacity shared over
        # the total active weight crossing it.
        step = math.inf
        if m:
            headroom = caps - used
            np.maximum(headroom, 0.0, out=headroom)
            ratio.fill(math.inf)
            np.divide(headroom, active_weight, out=ratio,
                      where=active_weight > 0.0)
            step = float(ratio.min())

        # Growth headroom per flow demand.
        if idxf.size:
            gap = (demands[idxf] - rates[idxf]) / weights[idxf]
            gap_min = float(gap.min())
            if gap_min < step:
                step = gap_min

        if not math.isfinite(step):
            # No binding constraint at all: unconstrained elastic flows.
            raise ValueError("elastic flow with no capacity constraint")

        if step > 0:
            rates[idx] += weights[idx] * step
            used += active_weight * step

        froze = False

        # Freeze demand-satisfied flows (clamping overshoot back out of
        # the running per-constraint usage).
        if idxf.size:
            reached = rates[idxf] + _ABS_EPSILON >= demand_floor[idxf]
            if reached.any():
                reached_idx = idxf[reached]
                overshoot = rates[reached_idx] - demands[reached_idx]
                np.maximum(overshoot, 0.0, out=overshoot)
                if overshoot.any():
                    over_full = np.zeros(n)
                    over_full[reached_idx] = overshoot
                    used -= np.bincount(
                        edge_cons,
                        weights=over_full[edge_flow] * edge_mult,
                        minlength=m,
                    )
                    rates[reached_idx] = demands[reached_idx]
                frozen[reached_idx] = True
                froze = True

        # Freeze flows on saturated constraints.
        saturated = used >= cap_stop
        if saturated.any():
            hit = saturated[edge_cons]
            if hit.any():
                frozen[edge_flow[hit]] = True
                froze = True

        if froze:
            idx = idx[~frozen[idx]]
            idxf = idx[finite_demand[idx]]
            live = ~frozen[edge_flow]
            edge_flow = edge_flow[live]
            edge_cons = edge_cons[live]
            edge_mult = edge_mult[live]
            edge_weight = edge_weight[live]

    return rates


def progressive_fill_array(
    flows: Sequence[FlowDemand],
    members: Mapping[str, List[int]],
    caps: Mapping[str, float],
) -> List[float]:
    """Vectorized drop-in for ``progressive_fill`` on a built problem.

    Converts the string-keyed ``(members, caps)`` structures from
    :func:`~repro.sim.bandwidth.build_problem` into flat arrays and runs
    :func:`_fill_arrays`.  Used by the stateless entry point for large
    instances; the resident solver skips this conversion entirely by
    keeping an :class:`InternedProblem` mirror.
    """
    if np is None:  # pragma: no cover - numpy-less installs
        raise RuntimeError("progressive_fill_array requires numpy")
    n = len(flows)
    weights = np.fromiter((f.weight for f in flows), dtype=np.float64, count=n)
    demands = np.fromiter((f.demand for f in flows), dtype=np.float64, count=n)
    cap_vec = np.empty(len(caps))
    edge_flow: List[int] = []
    edge_cons: List[int] = []
    edge_mult: List[float] = []
    for ci, (cid, flow_ids) in enumerate(members.items()):
        cap_vec[ci] = caps[cid]
        # Collapse repeated crossings into one weighted edge.
        counts: Dict[int, int] = {}
        for i in flow_ids:
            counts[i] = counts.get(i, 0) + 1
        for i, k in counts.items():
            edge_flow.append(i)
            edge_cons.append(ci)
            edge_mult.append(float(k))
    rates = _fill_arrays(
        weights,
        demands,
        cap_vec,
        np.asarray(edge_flow, dtype=np.int64),
        np.asarray(edge_cons, dtype=np.int64),
        np.asarray(edge_mult, dtype=np.float64),
    )
    return rates.tolist()


class InternedProblem:
    """Int-indexed, incrementally maintained mirror of the solver's problem.

    Flows and constraints are interned once, at mutation time; solves
    gather pre-built per-flow incidence arrays instead of re-hashing ids.
    The full-problem gather (every flow, used by full solves and bulk
    usage queries) is cached and invalidated by a structure version that
    bumps only when the incidence *structure* changes — demand, weight,
    and capacity updates write straight into the dense vectors.
    """

    _GROW = 16

    def __init__(self) -> None:
        if np is None:  # pragma: no cover - numpy-less installs
            raise RuntimeError("InternedProblem requires numpy")
        self._flow_slots: Dict[str, int] = {}
        self._free_flow_slots: List[int] = []
        self._flow_edges: List[Optional[Tuple["np.ndarray", "np.ndarray"]]] = []
        self.weights = np.zeros(self._GROW)
        self.demands = np.zeros(self._GROW)
        self.rates = np.zeros(self._GROW)

        self._cons_slots: Dict[str, int] = {}
        self._free_cons_slots: List[int] = []
        self.caps = np.zeros(self._GROW)

        #: Bumped whenever the incidence structure changes (flow added,
        #: removed, or re-linked; constraint added or removed).
        self.structure_version = 0
        self._full_cache: Optional[Tuple[int, tuple]] = None

    # -- interning -----------------------------------------------------------

    def _flow_slot(self, fid: str) -> int:
        slot = self._flow_slots.get(fid)
        if slot is None:
            if self._free_flow_slots:
                slot = self._free_flow_slots.pop()
            else:
                slot = len(self._flow_edges)
                self._flow_edges.append(None)
                if slot >= len(self.weights):
                    grow = max(2 * len(self.weights), slot + 1)
                    self.weights = np.resize(self.weights, grow)
                    self.demands = np.resize(self.demands, grow)
                    self.rates = np.resize(self.rates, grow)
            self.rates[slot] = 0.0
            self._flow_slots[fid] = slot
        return slot

    def _cons_slot(self, cid: str) -> int:
        slot = self._cons_slots.get(cid)
        if slot is None:
            if self._free_cons_slots:
                slot = self._free_cons_slots.pop()
            else:
                # No slot is free, so every allocated slot is live.
                slot = len(self._cons_slots)
                if slot >= len(self.caps):
                    self.caps = np.resize(self.caps, max(2 * len(self.caps), slot + 1))
            self._cons_slots[cid] = slot
        return slot

    def _bump(self) -> None:
        self.structure_version += 1
        self._full_cache = None

    # -- mutation mirror (driven by IncrementalMaxMinSolver) -----------------

    def set_capacity(self, cid: str, capacity: float) -> None:
        """Intern a physical constraint and store its capacity."""
        slot = self._cons_slot(cid)  # may rebind self.caps (growth)
        self.caps[slot] = capacity

    def remove_capacity(self, cid: str) -> None:
        """Forget a (by contract unused) physical constraint."""
        slot = self._cons_slots.pop(cid, None)
        if slot is not None:
            self._free_cons_slots.append(slot)
            self._bump()

    # Virtual constraints share the interned table; membership is resolved
    # at gather time from the solver's adjacency.
    def set_constraint_capacity(self, cid: str, capacity: float) -> None:
        """Install/update a virtual constraint's capacity (bumps structure:
        its membership may have changed with it)."""
        slot = self._cons_slot(cid)  # may rebind self.caps (growth)
        self.caps[slot] = capacity
        self._bump()

    remove_constraint = remove_capacity

    def set_flow(self, fid: str, links: Tuple[str, ...],
                 demand: float, weight: float) -> None:
        """Intern *fid* (new or re-linked) and pre-build its incidence."""
        slot = self._flow_slot(fid)
        self.weights[slot] = weight
        self.demands[slot] = demand
        counts: Dict[int, int] = {}
        for cid in links:
            ci = self._cons_slot(cid)
            counts[ci] = counts.get(ci, 0) + 1
        self._flow_edges[slot] = (
            np.fromiter(counts.keys(), dtype=np.int64, count=len(counts)),
            np.fromiter(counts.values(), dtype=np.float64, count=len(counts)),
        )
        self._bump()

    def set_flow_params(self, fid: str, demand: float, weight: float) -> None:
        """Update a flow's dense parameters (no structure bump)."""
        slot = self._flow_slots[fid]
        self.weights[slot] = weight
        self.demands[slot] = demand

    def remove_flow(self, fid: str) -> None:
        """Free a flow's slot."""
        slot = self._flow_slots.pop(fid, None)
        if slot is not None:
            self._flow_edges[slot] = None
            self.rates[slot] = 0.0
            self._free_flow_slots.append(slot)
            self._bump()

    def store_rates(self, fids: Sequence[str], rates: Sequence[float]) -> None:
        """Mirror scalar-path results into the dense rate vector."""
        for fid, rate in zip(fids, rates):
            self.rates[self._flow_slots[fid]] = rate

    # -- gathering -----------------------------------------------------------

    def _gather(
        self,
        fids: Sequence[str],
        virtual_edges: Sequence[Tuple[str, Sequence[str]]],
    ) -> tuple:
        """Build the local arrays for one (sub-)problem.

        Returns ``(slots, w, d, caps_local, edge_flow, edge_cons,
        edge_mult)`` with local flow indices following *fids* order and
        constraints densified to the ones actually crossed.
        """
        n = len(fids)
        local: Dict[str, int] = {}
        slots = np.empty(n, dtype=np.int64)
        parts_cons: List["np.ndarray"] = []
        parts_mult: List["np.ndarray"] = []
        parts_flow: List["np.ndarray"] = []
        for i, fid in enumerate(fids):
            slot = self._flow_slots[fid]
            slots[i] = slot
            local[fid] = i
            edges = self._flow_edges[slot]
            if edges is not None and len(edges[0]):
                parts_cons.append(edges[0])
                parts_mult.append(edges[1])
                parts_flow.append(np.full(len(edges[0]), i, dtype=np.int64))
        for cid, member_fids in virtual_edges:
            if not member_fids:
                continue
            cslot = self._cons_slots[cid]
            k = len(member_fids)
            parts_cons.append(np.full(k, cslot, dtype=np.int64))
            parts_mult.append(np.ones(k))
            parts_flow.append(
                np.fromiter((local[f] for f in member_fids),
                            dtype=np.int64, count=k)
            )
        if parts_cons:
            edge_cons_global = np.concatenate(parts_cons)
            edge_mult = np.concatenate(parts_mult)
            edge_flow = np.concatenate(parts_flow)
            ucons, edge_cons = np.unique(edge_cons_global, return_inverse=True)
            caps_local = self.caps[ucons]
        else:
            edge_flow = np.empty(0, dtype=np.int64)
            edge_cons = np.empty(0, dtype=np.int64)
            edge_mult = np.empty(0)
            ucons = np.empty(0, dtype=np.int64)
            caps_local = np.empty(0)
        return (slots, self.weights[slots], self.demands[slots], caps_local,
                edge_flow, edge_cons, edge_mult, ucons)

    def _gather_full(
        self,
        fids: Sequence[str],
        virtual_edges: Sequence[Tuple[str, Sequence[str]]],
    ) -> tuple:
        """Cached :meth:`_gather` over the whole problem.

        Valid as long as the incidence structure is unchanged — any
        mutation that could alter *fids* or *virtual_edges* bumps
        :attr:`structure_version` and invalidates the cache, so weight,
        demand, and capacity refreshes reuse the gathered arrays.
        """
        if (self._full_cache is not None
                and self._full_cache[0] == self.structure_version):
            gathered = self._full_cache[1]
            slots = gathered[0]
            # Dense parameters may have moved since the gather.
            return (slots, self.weights[slots], self.demands[slots],
                    self.caps[gathered[7]], *gathered[4:])
        gathered = self._gather(fids, virtual_edges)
        self._full_cache = (self.structure_version, gathered)
        return gathered

    # -- solving -------------------------------------------------------------

    def solve(
        self,
        fids: Sequence[str],
        virtual_edges: Sequence[Tuple[str, Sequence[str]]],
        full: bool = False,
    ) -> List[float]:
        """Run the vectorized core over *fids*; returns rates in order.

        ``full=True`` marks the gather as covering the entire problem,
        enabling the structure-version cache.
        """
        gather = self._gather_full if full else self._gather
        slots, w, d, caps_local, edge_flow, edge_cons, edge_mult, _ = gather(
            fids, virtual_edges
        )
        rates = _fill_arrays(w, d, caps_local, edge_flow, edge_cons, edge_mult)
        self.rates[slots] = rates
        return rates.tolist()

class NullInternedProblem:
    """Inert stand-in used when numpy is unavailable.

    Accepts every mutation silently; the solver never routes a solve to it
    because :data:`HAVE_NUMPY` gates the array path.
    """

    structure_version = 0

    def set_capacity(self, cid: str, capacity: float) -> None:
        pass

    def remove_capacity(self, cid: str) -> None:
        pass

    remove_constraint = remove_capacity

    def set_constraint_capacity(self, cid: str, capacity: float) -> None:
        pass

    def set_flow(self, fid, links, demand, weight) -> None:
        pass

    def set_flow_params(self, fid, demand, weight) -> None:
        pass

    def remove_flow(self, fid) -> None:
        pass

    def store_rates(self, fids, rates) -> None:
        pass


def make_interned_problem():
    """The interned mirror appropriate for this interpreter."""
    return InternedProblem() if HAVE_NUMPY else NullInternedProblem()
