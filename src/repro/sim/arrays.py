"""Vectorized water-filling core for large components.

The scalar :func:`~repro.sim.bandwidth.progressive_fill` is the reference
implementation of weighted max-min water-filling, but it is a pure-Python
loop that costs O(rounds x constraints x membership).  This module holds
the numpy core for large problems:

* :func:`_fill_arrays` — the vectorized water-filling round: active
  weights, headroom, demand gaps, and freeze masks are computed with
  ``bincount``/segment operations over a flat edge list instead of nested
  Python loops.  Semantically identical to the scalar core (same epsilons,
  same freeze rules, same round bound); results agree within floating-point
  accumulation order (1e-6, enforced by the seeded property suite in
  ``tests/test_sim_arrays.py``).
* :func:`progressive_fill_array` — a drop-in vectorized replacement for
  ``progressive_fill`` on an already-built ``(members, caps)`` problem.
  Both cores take the same per-solve build, so the solver picks a core
  without keeping any state for either.

numpy overhead dominates for tiny problems (the constant cost of building
local arrays exceeds the whole scalar solve below a few dozen flows), and
chaos/churn workloads produce tiny components constantly — so the resident
solver picks the core *per component*, falling back to the scalar core
below :data:`DEFAULT_ARRAY_CROSSOVER`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence

import numpy as np

from .bandwidth import _ABS_EPSILON, _EPSILON, FlowDemand

#: Component size (flow count) at which the solver switches from the scalar
#: to the array core.  Measured break-even is ~256 flows (the scalar core
#: carries running usage/active-weight totals, so its rounds are cheap;
#: numpy's per-call constants only amortize once components get big): on
#: problems shaped like the 1k-flow benchmark instance (n flows over n/5
#: constraints, five seeds) the scalar/array time ratio is 1.03-1.11 at
#: 256 flows and 1.71-1.77 at 512.
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
    :func:`_fill_arrays`.  Every solve path that picks the array core
    calls it on the same build the scalar core would have taken.
    """
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

