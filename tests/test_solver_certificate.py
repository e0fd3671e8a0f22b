"""A weighted max-min fairness certificate for both water-filling cores.

A feasible allocation is weighted max-min fair exactly when every flow
either gets its demand or crosses a saturated constraint on which its
rate per unit of weight is the largest of any member (its bottleneck).
:func:`certificate_failures` checks that from the inputs alone: it uses
neither ``build_problem`` nor anything inside the solver, so a defect the
library's scalar core shares with the array reference it is compared
against in ``test_sim_arrays.py``, which that comparison cannot see,
fails here.

Every case runs on both cores, each swapped in for every fill the solver
makes: the library's ``progressive_fill`` and the test-only
``array_fill``, so the reference is certified as well.  The cases: random
instances with weights, repeated crossings, zero-capacity links and
virtual constraints; incremental mutation streams; the 1k-flow benchmark
shape; and a fabric with per-tenant caps on one direction and on both,
tenant weights and per-flow rate caps, where the test derives each
flow's directed hops, effective demand and weight itself.
"""

import math
import random

import pytest

import repro.sim.solver as solver_module
from repro.sim import (
    Constraint,
    Engine,
    FabricNetwork,
    FlowDemand,
    IncrementalMaxMinSolver,
)
from repro.sim.bandwidth import progressive_fill
from repro.sim.rng import make_rng
from repro.topology import cascade_lake_2s, k_shortest_paths
from repro.units import Gbps

from .test_sim_arrays import array_fill, random_problem
from .test_sim_rate_readers import ENDPOINT_PAIRS, hop_ways

#: Relative tolerance of every comparison; the absolute term only lets
#: zero-capacity constraints and zero demands compare with 0.
REL = 1e-6
ABS = 1e-9
CORES = {"array": array_fill, "scalar": progressive_fill}


def certificate_failures(flows, capacities, virtuals, rates):
    """Why *rates* is not weighted max-min fair; empty when it is.

    Args:
        flows: ``(flow_id, constraint ids, demand, weight)`` per flow.  A
            constraint id may repeat: each crossing uses capacity.
        capacities: Capacity of every constraint a flow lists.
        virtuals: ``constraint id -> (capacity, member flow ids)``; a
            member counts once, and ids of absent flows are ignored.
        rates: ``flow id -> rate`` under test.
    """
    present = {fid for fid, _links, _demand, _weight in flows}
    cap = dict(capacities)
    crossings = {cid: {} for cid in capacities}
    for cid, (capacity, members) in virtuals.items():
        cap[cid] = capacity
        crossings[cid] = {fid: 1 for fid in members if fid in present}
    for fid, links, _demand, _weight in flows:
        for cid in links:
            crossings[cid][fid] = crossings[cid].get(fid, 0) + 1
    level = {fid: rates[fid] / weight for fid, _l, _d, weight in flows}

    failures = []
    saturated_top = {}
    for cid, members in crossings.items():
        usage = sum(rates[fid] * times for fid, times in members.items())
        if usage > cap[cid] * (1 + REL) + ABS:
            failures.append(f"{cid}: usage {usage!r} > capacity {cap[cid]!r}")
        if members and usage >= cap[cid] * (1 - REL) - ABS:
            saturated_top[cid] = max(level[fid] for fid in members)
    flow_cids = {fid: set() for fid in present}
    for cid, members in crossings.items():
        for fid in members:
            flow_cids[fid].add(cid)
    for fid, _links, demand, _weight in flows:
        rate = rates[fid]
        if rate < 0 or rate > demand * (1 + REL) + ABS:
            failures.append(f"{fid}: rate {rate!r} outside [0, {demand!r}]")
        if math.isfinite(demand) and rate >= demand * (1 - REL) - ABS:
            continue
        if not any(level[fid] >= saturated_top[cid] * (1 - REL) - ABS
                   for cid in flow_cids[fid] if cid in saturated_top):
            failures.append(f"{fid}: rate {rate!r} below demand {demand!r} "
                            f"with no bottleneck")
    return failures


def as_tuples(flows):
    return [(f.flow_id, f.links, f.demand, f.weight) for f in flows]


def as_virtuals(constraints):
    return {c.constraint_id: (c.capacity, c.member_flows)
            for c in constraints}


def _use_core(monkeypatch, core):
    """Make every fill the solver runs use *core*; returns the list each
    fill appends its flow count to."""
    fills = []
    fill = CORES[core]

    def counted(flows, members, caps):
        fills.append(len(flows))
        return fill(flows, members, caps)

    monkeypatch.setattr(solver_module, "progressive_fill", counted)
    return fills


def _solve(flows, capacities, constraints):
    solver = IncrementalMaxMinSolver()
    for cid, capacity in capacities.items():
        solver.set_capacity(cid, capacity)
    for flow in flows:
        solver.set_flow(flow)
    for constraint in constraints:
        solver.set_constraint(constraint)
    return solver.solve()


def _report(bad, total):
    shown = "; ".join(f"{where}: {failures[0]}" for where, failures in bad[:3])
    return f"{len(bad)} of {total} solves fail the certificate: {shown}"


# ---------------------------------------------------------------------------
# Random instances and incremental mutation streams.
# ---------------------------------------------------------------------------


RANDOM_SEEDS = 400


@pytest.mark.parametrize("core", CORES)
def test_random_instances(core, monkeypatch):
    fills = _use_core(monkeypatch, core)
    bad = []
    for seed in range(RANDOM_SEEDS):
        flows, capacities, virtuals = random_problem(random.Random(seed))
        rates = _solve(flows, capacities, virtuals)
        failures = certificate_failures(as_tuples(flows), capacities,
                                        as_virtuals(virtuals), rates)
        if failures:
            bad.append((f"seed {seed}", failures))
    assert fills, f"the {core} core never ran"
    assert not bad, _report(bad, RANDOM_SEEDS)


def _mutation_stream(solver, seed, steps=40):
    """Random mutations on *solver* and on a plain model of its inputs;
    yields ``(step, flows, capacities, virtuals, rates)`` after every
    solve."""
    rng = random.Random(seed)
    links = [f"l{i}" for i in range(8)]
    capacities = {}
    for link in links:
        capacities[link] = 0.0 if rng.random() < 0.1 else rng.uniform(10, 400)
        solver.set_capacity(link, capacities[link])
    flows = {}
    virtuals = {}

    def hops():
        return tuple(rng.choice(links) for _ in range(rng.randint(1, 3)))

    for step in range(steps):
        action = rng.random()
        if action < 0.35 or not flows:
            demand = math.inf if rng.random() < 0.4 else rng.uniform(1, 120)
            flow = FlowDemand(f"f{step}", hops(), demand=demand,
                              weight=rng.uniform(0.25, 4.0))
        elif action < 0.45:
            fid = rng.choice(sorted(flows))
            del flows[fid]
            solver.remove_flow(fid)
            flow = None
        elif action < 0.6:
            old = flows[rng.choice(sorted(flows))]
            flow = FlowDemand(old.flow_id, old.links,
                              demand=rng.uniform(0, 120),
                              weight=rng.uniform(0.25, 4.0))
        elif action < 0.7:
            old = flows[rng.choice(sorted(flows))]
            flow = FlowDemand(old.flow_id, hops(), demand=old.demand,
                              weight=old.weight)
        elif action < 0.8:
            link = rng.choice(links)
            capacities[link] = (0.0 if rng.random() < 0.2
                                else rng.uniform(10, 400))
            solver.set_capacity(link, capacities[link])
            flow = None
        elif action < 0.93:
            cid = rng.choice(("v0", "v1"))
            members = frozenset(f for f in sorted(flows) if rng.random() < 0.5)
            constraint = Constraint(cid, rng.uniform(0, 100), members)
            virtuals[cid] = constraint
            solver.set_constraint(constraint)
            flow = None
        else:
            cid = rng.choice(("v0", "v1"))
            virtuals.pop(cid, None)
            solver.remove_constraint(cid)
            flow = None
        if flow is not None:
            flows[flow.flow_id] = flow
            solver.set_flow(flow)
        if rng.random() < 0.6:
            yield (step, list(flows.values()), capacities, virtuals,
                   solver.solve())
    yield steps, list(flows.values()), capacities, virtuals, solver.solve()


STREAM_SEEDS = 60


@pytest.mark.parametrize("core", CORES)
def test_incremental_mutation_streams(core, monkeypatch):
    fills = _use_core(monkeypatch, core)
    bad = []
    total = 0
    for seed in range(STREAM_SEEDS):
        solver = IncrementalMaxMinSolver()
        for step, flows, capacities, virtuals, rates in _mutation_stream(
                solver, seed):
            total += 1
            failures = certificate_failures(
                as_tuples(flows), capacities,
                as_virtuals(virtuals.values()), rates)
            if failures:
                bad.append((f"seed {seed} step {step}", failures))
    assert fills, f"the {core} core never ran"
    assert not bad, _report(bad, total)


# ---------------------------------------------------------------------------
# The 1k-flow benchmark shape.
# ---------------------------------------------------------------------------


def _large_instance(seed, n_flows=1000, n_cons=200):
    """The shape of ``bench_sim_performance._large_instance``: 1k flows
    over 200 shared constraints, half of them elastic."""
    rng = make_rng(seed, "large")
    cons = [f"c{i}" for i in range(n_cons)]
    capacities = {c: rng.uniform(50, 500) for c in cons}
    flows = []
    for i in range(n_flows):
        links = tuple(rng.sample(cons, rng.randint(1, 4)))
        demand = math.inf if rng.random() < 0.5 else rng.uniform(1, 100)
        flows.append(FlowDemand(f"f{i}", links, demand=demand,
                                weight=rng.uniform(0.5, 4.0)))
    return flows, capacities


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("seed", [11, 12])
def test_large_instance(core, seed, monkeypatch):
    fills = _use_core(monkeypatch, core)
    flows, capacities = _large_instance(seed)
    rates = _solve(flows, capacities, ())
    assert fills, f"the {core} core never ran"
    failures = certificate_failures(as_tuples(flows), capacities, {}, rates)
    assert not failures, _report([(f"seed {seed}", failures)], 1)


# ---------------------------------------------------------------------------
# A fabric with tenant weights, per-flow rate caps and tenant link caps.
# ---------------------------------------------------------------------------


CAPPED_LINKS = ["pcie-nic0", "mesh0-0", "upi-socket0-socket1-0",
                "upi-socket0-socket1-1", "membus1-0"]
TENANT_WEIGHTS = {"t0": 1.0, "t1": 2.5, "t2": 0.5}


def fabric_problem(network, tenant_caps):
    """The fabric's solver inputs, derived here from its flows, topology
    and the caps this test installed."""
    flows = []
    capacities = {}
    hops_of = {}
    for flow in network.active_flows():
        hops = hop_ways(network, flow)
        for link_id, way in hops:
            capacities[(link_id, way)] = (
                network.topology.link(link_id).effective_capacity)
        hops_of[flow.flow_id] = (flow.tenant_id, hops)
        flows.append((flow.flow_id, tuple(hops),
                      min(flow.demand, flow.rate_cap),
                      flow.weight * TENANT_WEIGHTS[flow.tenant_id]))
    virtuals = {}
    for (tenant, link_id, direction), cap in tenant_caps.items():
        members = {fid for fid, (owner, hops) in hops_of.items()
                   if owner == tenant and any(
                       hop == link_id and direction in (None, way)
                       for hop, way in hops)}
        virtuals[("cap", tenant, link_id, direction)] = (cap, members)
    rates = {flow.flow_id: flow.current_rate
             for flow in network.active_flows()}
    return flows, capacities, virtuals, rates


@pytest.mark.parametrize("core", CORES)
def test_fabric_tenant_caps(core, monkeypatch):
    fills = _use_core(monkeypatch, core)
    bad = []
    total = 0
    for seed in range(12):
        rng = random.Random(seed)
        network = FabricNetwork(cascade_lake_2s(), Engine())
        routes = {pair: k_shortest_paths(network.topology, *pair, k=2)
                  for pair in ENDPOINT_PAIRS}
        for tenant, weight in TENANT_WEIGHTS.items():
            network.set_tenant_weight(tenant, weight)
        if rng.random() < 0.5:
            link = network.topology.link(rng.choice(CAPPED_LINKS))
            network.degrade_link(link.link_id,
                                 link.capacity * rng.choice((0.0, 0.1, 0.4)))
        # One cap on one direction and one on both, installed before any
        # flow arrives; the steps below add and change more.
        tenant_caps = {("t0", "upi-socket0-socket1-0", "fwd"): Gbps(20),
                       ("t1", "pcie-nic0", None): Gbps(25)}
        for (tenant, link_id, direction), cap in tenant_caps.items():
            network.set_link_caps(link_id, {tenant: cap},
                                  direction=direction)
        for step in range(24):
            action = rng.random()
            active = network.active_flows()
            if action < 0.5 or not active:
                pair = rng.choice(ENDPOINT_PAIRS)
                demand = (math.inf if rng.random() < 0.4
                          else Gbps(rng.uniform(1, 200)))
                network.start_transfer(
                    rng.choice(sorted(TENANT_WEIGHTS)),
                    rng.choice(routes[pair]), demand=demand,
                    weight=rng.uniform(0.5, 3.0))
            elif action < 0.6:
                network.cancel_flow(rng.choice(active).flow_id)
            elif action < 0.7:
                network.set_flow_rate_cap(rng.choice(active).flow_id,
                                          Gbps(rng.uniform(0, 60)))
            else:
                # One direction or both, and sometimes both kinds at once
                # on the same link.
                direction = rng.choice(("fwd", "rev", None))
                link_id = rng.choice(CAPPED_LINKS)
                caps = {tenant: Gbps(rng.uniform(0, 80))
                        for tenant in sorted(TENANT_WEIGHTS)
                        if rng.random() < 0.6}
                network.set_link_caps(link_id, caps, direction=direction)
                for tenant, cap in caps.items():
                    tenant_caps[(tenant, link_id, direction)] = cap
            if not network.active_flows():
                continue
            total += 1
            failures = certificate_failures(
                *fabric_problem(network, tenant_caps))
            if failures:
                bad.append((f"seed {seed} step {step}", failures))
    assert fills, f"the {core} core never ran"
    assert not bad, _report(bad, total)
