"""Scalar/array water-filling equivalence.

The vectorized core in ``repro.sim.arrays`` must produce the same rates as
the scalar reference within floating-point accumulation order (1e-6
relative).  This suite enforces that with a seeded property sweep over
randomly generated problems — mixed elastic/finite demands, virtual
constraints, zero-capacity links, repeated link crossings — plus
solver-level forced-core equivalence over whole mutation sequences (both
cores take the same per-solve build), core selection around the
crossover, and the stats counters that report which core ran.
"""

import math
import random

import pytest

from repro.sim import DEFAULT_ARRAY_CROSSOVER, IncrementalMaxMinSolver
from repro.sim.arrays import progressive_fill_array
from repro.sim.bandwidth import (
    Constraint,
    FlowDemand,
    build_problem,
    progressive_fill,
)

N_SEEDS = 220


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
            f"{context}: flow index {i}: array={g!r} scalar={w!r}"
        )


# ---------------------------------------------------------------------------
# Core-level equivalence: progressive_fill vs progressive_fill_array.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_fill_cores_agree(seed):
    rng = random.Random(seed)
    flows, capacities, virtuals = random_problem(rng)
    members, caps = build_problem(flows, capacities, virtuals)
    scalar = progressive_fill(flows, members, caps)
    vector = progressive_fill_array(flows, members, caps)
    assert_rates_close(vector, scalar, context=f"seed {seed}")


def test_fill_cores_agree_large_instance():
    rng = random.Random(4242)
    flows, capacities, virtuals = random_problem(rng, n_flows=800)
    members, caps = build_problem(flows, capacities, virtuals)
    scalar = progressive_fill(flows, members, caps)
    vector = progressive_fill_array(flows, members, caps)
    assert_rates_close(vector, scalar, context="large instance")


def test_array_core_elastic_unconstrained_raises():
    """Both cores reject an elastic flow crossing no constraint."""
    flows = [FlowDemand("f0", (), demand=math.inf)]
    with pytest.raises(ValueError):
        progressive_fill(flows, {}, {})
    with pytest.raises(ValueError):
        progressive_fill_array(flows, {}, {})


def test_array_core_empty_problem():
    assert progressive_fill_array([], {}, {}) == []


def test_array_core_multiplicity():
    """A flow crossing a link twice consumes double capacity on it."""
    flows = [FlowDemand("f0", ("c0", "c0"), demand=math.inf)]
    members, caps = build_problem(flows, {"c0": 100.0})
    assert progressive_fill_array(flows, members, caps) == pytest.approx([50.0])


# ---------------------------------------------------------------------------
# Solver-level equivalence: forced scalar vs forced array over mutations.
# ---------------------------------------------------------------------------


def _apply_mutations(solver, rng_seed, rounds=30):
    """One deterministic mutation stream against *solver*."""
    rng = random.Random(rng_seed)
    links = [f"l{i}" for i in range(8)]
    for link in links:
        solver.set_capacity(link, 0.0 if rng.random() < 0.1
                            else rng.uniform(10, 400))
    live = []
    snapshots = []
    for step in range(rounds):
        action = rng.random()
        if action < 0.45 or not live:
            fid = f"f{step}"
            hops = tuple(rng.choice(links) for _ in range(rng.randint(1, 3)))
            demand = math.inf if rng.random() < 0.4 else rng.uniform(1, 120)
            solver.set_flow(FlowDemand(fid, hops, demand=demand,
                                       weight=rng.uniform(0.5, 3)))
            live.append(fid)
        elif action < 0.6:
            solver.remove_flow(live.pop(rng.randrange(len(live))))
        elif action < 0.75:
            fid = rng.choice(live)
            solver.set_flow_params(fid, demand=rng.uniform(1, 120))
        elif action < 0.9:
            bound = frozenset(fid for fid in live if rng.random() < 0.5)
            if bound:
                solver.set_constraint(Constraint(
                    constraint_id="vcap", capacity=rng.uniform(5, 100),
                    member_flows=bound,
                ))
        else:
            solver.remove_constraint("vcap")
        if rng.random() < 0.5:
            snapshots.append(dict(solver.solve()))
    snapshots.append(dict(solver.solve()))
    return snapshots


@pytest.mark.parametrize("seed", range(40))
def test_solver_paths_agree_over_mutation_stream(seed):
    """Forced-scalar and forced-array solvers see identical mutation
    streams and must emit identical rate snapshots throughout."""
    scalar = IncrementalMaxMinSolver(array_crossover=10**9)
    vector = IncrementalMaxMinSolver(array_crossover=0)
    scalar_snaps = _apply_mutations(scalar, seed)
    vector_snaps = _apply_mutations(vector, seed)
    assert scalar.stats.array_fills == 0
    assert vector.stats.scalar_fills == 0
    assert vector.stats.array_fills > 0
    assert len(scalar_snaps) == len(vector_snaps)
    for step, (s, v) in enumerate(zip(scalar_snaps, vector_snaps)):
        assert set(s) == set(v), f"seed {seed} snapshot {step}"
        for fid, want in s.items():
            assert abs(v[fid] - want) <= 1e-6 * max(1.0, abs(want)), (
                f"seed {seed} snapshot {step} flow {fid}: "
                f"array={v[fid]!r} scalar={want!r}"
            )


# ---------------------------------------------------------------------------
# Core selection and the stats counters.
# ---------------------------------------------------------------------------


def _loaded(n_flows, crossover=None):
    solver = IncrementalMaxMinSolver(array_crossover=crossover)
    solver.set_capacity("c0", 100.0)
    solver.set_capacity("c1", 200.0)
    for i in range(n_flows):
        solver.set_flow(FlowDemand(f"f{i}", ("c0", "c1")[i % 2:i % 2 + 1],
                                   demand=math.inf))
    return solver


def test_default_crossover_picks_scalar_below_and_array_above():
    small = _loaded(DEFAULT_ARRAY_CROSSOVER - 1)
    small.solve()
    assert small.stats.scalar_fills == 1
    assert small.stats.array_fills == 0

    large = _loaded(DEFAULT_ARRAY_CROSSOVER)
    large.solve()
    assert large.stats.array_fills == 1
    assert large.stats.scalar_fills == 0


def test_incremental_component_path_pick_is_per_component():
    """One big component vectorizes while a small one stays scalar."""
    solver = IncrementalMaxMinSolver(array_crossover=8)
    solver.set_capacity("big", 100.0)
    solver.set_capacity("small", 50.0)
    for i in range(10):
        solver.set_flow(FlowDemand(f"b{i}", ("big",), demand=math.inf))
    for i in range(2):
        solver.set_flow(FlowDemand(f"s{i}", ("small",), demand=math.inf))
    solver.solve()
    solver.stats.reset()
    # Touch one flow in each component.
    solver.set_flow_params("b0", demand=50.0)
    solver.set_flow_params("s0", demand=10.0)
    rates = solver.solve()
    assert solver.stats.array_fills == 1
    assert solver.stats.scalar_fills == 1
    assert rates["s1"] == pytest.approx(40.0)


def test_rates_survive_path_switch():
    """Rates solved on one core are reused verbatim by the next solve."""
    solver = IncrementalMaxMinSolver(array_crossover=4)
    solver.set_capacity("a", 100.0)
    solver.set_capacity("b", 60.0)
    for i in range(6):
        solver.set_flow(FlowDemand(f"a{i}", ("a",), demand=math.inf))
    solver.set_flow(FlowDemand("lone", ("b",), demand=math.inf))
    first = solver.solve()          # array for "a" component, array/scalar mix
    solver.set_flow_params("lone", demand=10.0)   # dirty only the small one
    second = solver.solve()
    for fid in (f"a{i}" for i in range(6)):
        assert second[fid] == first[fid]


def test_zero_capacity_constraint_parks_flows_on_both_paths():
    for crossover in (0, 10**9):
        solver = IncrementalMaxMinSolver(array_crossover=crossover)
        solver.set_capacity("dead", 0.0)
        solver.set_capacity("live", 100.0)
        solver.set_flow(FlowDemand("f0", ("dead", "live"), demand=math.inf))
        solver.set_flow(FlowDemand("f1", ("live",), demand=math.inf))
        rates = solver.solve()
        assert rates["f0"] == 0.0
        assert rates["f1"] == pytest.approx(100.0)
