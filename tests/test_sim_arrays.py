"""The water-filling core against a dense array reference, and the
resident solver's solve paths against each other.

:func:`array_fill` is a test-only reference core: weighted progressive
filling over a dense constraint x flow matrix that re-derives every load
and active weight each round, where the library's scalar
:func:`~repro.sim.bandwidth.progressive_fill` carries running totals.
The library core must match it within floating-point accumulation order
(1e-6 relative) on a seeded sweep of random problems — mixed
elastic/finite demands, virtual constraints, zero-capacity links,
repeated link crossings.  ``test_solver_certificate.py`` certifies both
cores as weighted max-min fair from the inputs alone.

The solver-level cases check that the resident solver's paths agree: its
per-component re-solves against the stateless ``max_min_fair_rates`` over
whole mutation streams, and its full first solve against the component
path that follows it.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from repro.sim import IncrementalMaxMinSolver
from repro.sim.bandwidth import (
    Constraint,
    FlowDemand,
    build_problem,
    max_min_fair_rates,
    progressive_fill,
)

N_SEEDS = 220

#: The core's tolerances: a flow within them of its demand, or a
#: constraint within them of its capacity, counts as reached.
EPS = 1e-9
ABS_EPS = 1e-9


def array_fill(flows, members, caps):
    """Reference weighted water-filling on a built ``(members, caps)``.

    Every round re-derives each constraint's load and active weight from
    a dense constraint x flow matrix (entries count repeated crossings),
    grows every active flow by its weight times the largest step no
    constraint or demand forbids, and freezes the flows that reached
    their demand or cross a saturated constraint.  A round that freezes
    nothing is a bug, not a reason to loop again.
    """
    n = len(flows)
    cids = list(members)
    crossings = np.zeros((len(cids), n))
    for row, cid in enumerate(cids):
        for i in members[cid]:
            crossings[row, i] += 1.0
    capacity = np.array([caps[cid] for cid in cids], dtype=float)
    weight = np.array([f.weight for f in flows], dtype=float)
    demand = np.array([f.demand for f in flows], dtype=float)
    rate = np.zeros(n)
    active = demand > ABS_EPS
    while active.any():
        growth = np.where(active, weight, 0.0)
        active_weight = crossings @ growth
        room = np.maximum(capacity - crossings @ rate, 0.0)
        binding = active_weight > ABS_EPS
        step = min(
            np.min(room[binding] / active_weight[binding], initial=math.inf),
            np.min(((demand - rate) / weight)[active], initial=math.inf),
        )
        if not math.isfinite(step):
            raise ValueError("elastic flow with no capacity constraint")
        rate = np.minimum(rate + growth * step, demand)
        saturated = crossings @ rate + ABS_EPS >= capacity * (1 - EPS)
        done = ((rate + ABS_EPS >= demand * (1 - EPS))
                | (crossings[saturated] > 0).any(axis=0))
        assert (active & done).any(), "a water-filling round froze no flow"
        active &= ~done
    return rate.tolist()


def random_problem(rng, n_flows=None):
    """A random solvable problem: flows, capacities, virtual constraints."""
    n_cons = rng.randint(2, 12)
    cons = [f"c{i}" for i in range(n_cons)]
    capacities = {}
    for cid in cons:
        # ~1 in 8 links has zero capacity (hard-down link).
        capacities[cid] = 0.0 if rng.random() < 0.125 else rng.uniform(5, 500)
    n_flows = n_flows if n_flows is not None else rng.randint(1, 40)
    flows = []
    for i in range(n_flows):
        hops = rng.randint(1, min(4, n_cons))
        links = tuple(rng.choice(cons) for _ in range(hops))  # repeats allowed
        roll = rng.random()
        if roll < 0.4:
            demand = math.inf                      # elastic
        elif roll < 0.5:
            demand = 0.0                           # parked flow
        else:
            demand = rng.uniform(0.5, 200)         # finite
        flows.append(FlowDemand(f"f{i}", links, demand=demand,
                                weight=rng.uniform(0.25, 4.0)))
    virtuals = []
    for v in range(rng.randint(0, 3)):
        bound = [f.flow_id for f in flows if rng.random() < 0.3]
        if bound:
            virtuals.append(Constraint(
                constraint_id=f"v{v}", capacity=rng.uniform(0, 150),
                member_flows=frozenset(bound),
            ))
    return flows, capacities, virtuals


def assert_rates_close(got, want, context=""):
    assert len(got) == len(want), context
    for i, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= 1e-6 * max(1.0, abs(w)), (
            f"{context}: flow index {i}: scalar={g!r} array={w!r}"
        )


# ---------------------------------------------------------------------------
# Core-level equivalence: progressive_fill vs the array reference.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_fill_cores_agree(seed):
    rng = random.Random(seed)
    flows, capacities, virtuals = random_problem(rng)
    members, caps = build_problem(flows, capacities, virtuals)
    scalar = progressive_fill(flows, members, caps)
    reference = array_fill(flows, members, caps)
    assert_rates_close(scalar, reference, context=f"seed {seed}")


def test_fill_cores_agree_large_instance():
    rng = random.Random(4242)
    flows, capacities, virtuals = random_problem(rng, n_flows=800)
    members, caps = build_problem(flows, capacities, virtuals)
    scalar = progressive_fill(flows, members, caps)
    reference = array_fill(flows, members, caps)
    assert_rates_close(scalar, reference, context="large instance")


def test_array_core_elastic_unconstrained_raises():
    """Both cores reject an elastic flow crossing no constraint."""
    flows = [FlowDemand("f0", (), demand=math.inf)]
    with pytest.raises(ValueError):
        progressive_fill(flows, {}, {})
    with pytest.raises(ValueError):
        array_fill(flows, {}, {})


def test_array_core_empty_problem():
    assert array_fill([], {}, {}) == []
    assert progressive_fill([], {}, {}) == []


def test_array_core_multiplicity():
    """A flow crossing a link twice consumes double capacity on it."""
    flows = [FlowDemand("f0", ("c0", "c0"), demand=math.inf)]
    members, caps = build_problem(flows, {"c0": 100.0})
    assert array_fill(flows, members, caps) == pytest.approx([50.0])
    assert progressive_fill(flows, members, caps) == pytest.approx([50.0])


# ---------------------------------------------------------------------------
# Solver-level equivalence: resident vs stateless over mutations.
# ---------------------------------------------------------------------------


def _apply_mutations(solver, rng_seed, rounds=30):
    """One deterministic mutation stream against *solver*, mirrored in
    plain dicts; returns ``(resident, stateless)`` rate maps for every
    snapshot, the second from ``max_min_fair_rates`` on the mirror."""
    rng = random.Random(rng_seed)
    links = [f"l{i}" for i in range(8)]
    capacities = {}
    for link in links:
        capacities[link] = 0.0 if rng.random() < 0.1 else rng.uniform(10, 400)
        solver.set_capacity(link, capacities[link])
    flows = {}
    virtuals = {}
    live = []
    snapshots = []

    def snapshot():
        snapshots.append((dict(solver.solve()), max_min_fair_rates(
            list(flows.values()), capacities, virtuals.values())))

    for step in range(rounds):
        action = rng.random()
        if action < 0.45 or not live:
            fid = f"f{step}"
            hops = tuple(rng.choice(links) for _ in range(rng.randint(1, 3)))
            demand = math.inf if rng.random() < 0.4 else rng.uniform(1, 120)
            flows[fid] = FlowDemand(fid, hops, demand=demand,
                                    weight=rng.uniform(0.5, 3))
            solver.set_flow(flows[fid])
            live.append(fid)
        elif action < 0.6:
            fid = live.pop(rng.randrange(len(live)))
            del flows[fid]
            solver.remove_flow(fid)
        elif action < 0.75:
            fid = rng.choice(live)
            demand = rng.uniform(1, 120)
            flows[fid] = dataclasses.replace(flows[fid], demand=demand)
            solver.set_flow_params(fid, demand=demand)
        elif action < 0.9:
            bound = frozenset(fid for fid in live if rng.random() < 0.5)
            if bound:
                virtuals["vcap"] = Constraint(
                    constraint_id="vcap", capacity=rng.uniform(5, 100),
                    member_flows=bound,
                )
                solver.set_constraint(virtuals["vcap"])
        else:
            virtuals.pop("vcap", None)
            solver.remove_constraint("vcap")
        if rng.random() < 0.5:
            snapshot()
    snapshot()
    return snapshots


@pytest.mark.parametrize("seed", range(40))
def test_solver_paths_agree_over_mutation_stream(seed):
    """The resident solver, re-solving only dirty components, and the
    stateless entry point, solving the mirrored problem from scratch,
    must emit the same rate snapshots throughout one mutation stream."""
    solver = IncrementalMaxMinSolver()
    snapshots = _apply_mutations(solver, seed)
    assert solver.stats.incremental_solves > 0
    for step, (resident, stateless) in enumerate(snapshots):
        assert set(resident) == set(stateless), f"seed {seed} snapshot {step}"
        for fid, want in stateless.items():
            assert abs(resident[fid] - want) <= 1e-6 * max(1.0, abs(want)), (
                f"seed {seed} snapshot {step} flow {fid}: "
                f"resident={resident[fid]!r} stateless={want!r}"
            )


# ---------------------------------------------------------------------------
# The full-solve path and the component path.
# ---------------------------------------------------------------------------


def test_incremental_component_path_pick_is_per_component():
    """The component path picks per component: each dirty component gets
    a fill of its own, and a clean one keeps its cached rates."""
    solver = IncrementalMaxMinSolver()
    solver.set_capacity("big", 100.0)
    solver.set_capacity("small", 50.0)
    solver.set_capacity("quiet", 30.0)
    for i in range(10):
        solver.set_flow(FlowDemand(f"b{i}", ("big",), demand=math.inf))
    for i in range(2):
        solver.set_flow(FlowDemand(f"s{i}", ("small",), demand=math.inf))
    solver.set_flow(FlowDemand("q", ("quiet",), demand=math.inf))
    solver.solve()
    solver.stats.reset()
    # Touch one flow in each of two components.
    solver.set_flow_params("b0", demand=50.0)
    solver.set_flow_params("s0", demand=10.0)
    rates = solver.solve()
    assert solver.stats.component_solves == 2
    assert solver.stats.scalar_fills == 2
    assert solver.stats.flows_resolved == 12
    assert solver.stats.flows_reused == 1
    assert rates["b0"] == pytest.approx(10.0)
    assert rates["s1"] == pytest.approx(40.0)
    assert rates["q"] == pytest.approx(30.0)


def test_rates_survive_path_switch():
    """Rates from the full first solve are handed back bit for bit by a
    component-path solve that dirties only another component."""
    solver = IncrementalMaxMinSolver()
    solver.set_capacity("a", 100.0)
    solver.set_capacity("b", 60.0)
    for i in range(6):
        solver.set_flow(FlowDemand(f"a{i}", ("a",), demand=math.inf,
                                   weight=1.0 + i / 3))
    solver.set_flow(FlowDemand("lone", ("b",), demand=math.inf))
    first = solver.solve()
    assert solver.stats.full_solves == 1
    solver.stats.reset()
    solver.set_flow_params("lone", demand=10.0)   # dirty only "b"
    second = solver.solve()
    assert solver.stats.incremental_solves == 1
    assert solver.stats.flows_resolved == 1
    assert solver.stats.flows_reused == 6
    for fid in (f"a{i}" for i in range(6)):
        assert second[fid] == first[fid]
    assert second["lone"] == 10.0


def test_zero_capacity_constraint_parks_flows_on_both_paths():
    """A flow crossing a zero-capacity link gets 0, on the first (full)
    solve and on an incremental one; its neighbour takes the capacity."""
    solver = IncrementalMaxMinSolver()
    solver.set_capacity("dead", 0.0)
    solver.set_capacity("live", 100.0)
    solver.set_flow(FlowDemand("f0", ("dead", "live"), demand=math.inf))
    solver.set_flow(FlowDemand("f1", ("live",), demand=math.inf))
    rates = solver.solve()
    assert solver.stats.full_solves == 1
    assert rates["f0"] == 0.0
    assert rates["f1"] == pytest.approx(100.0)
    solver.set_flow(FlowDemand("f2", ("live",), demand=math.inf))
    rates = solver.solve()
    assert solver.stats.incremental_solves == 1
    assert rates["f0"] == 0.0
    assert rates["f1"] == pytest.approx(50.0)
    assert rates["f2"] == pytest.approx(50.0)
