"""The arbiter's round against a recomputation that shares none of its cache.

``DynamicArbiter`` keeps a per-link signature cache, a quiescence
fingerprint and a record of the caps it emitted, all so that most rounds
can reuse earlier allocations and re-program only the caps that moved.
Seeded random streams drive a ``cascade_lake_2s`` fabric and an arbiter
through transfers starting and stopping, demand changes (and swaps, which
move usage between tenants at an unchanged total), cross-socket transfers
rerouted between the two UPI links, floors added and removed in one
direction or both, ceilings set and cleared, best-effort registrations
and unregistrations (of any tenant, floor holders included), stops that
lift every cap followed by a restart, link degradation and repair,
``degradation_aware`` and mode flips, and clock steps.

The test keeps its own model of floors, ceilings and roster, built from
the operations it performs.  Before each round it reads every tenant's
usage with ``tenant_link_rate`` (the round senses the fabric as it stands
when the round starts); after the round each returned allocation must
equal ``compute_caps`` on those reads, the model's floors, ceiling and
roster, and the capacity the topology reports.  Once the round's caps
have landed, the fabric must hold exactly the allocated cap for every
tenant, also after an unregistration or a stop lifted caps whose inputs
did not move.  Runs with the 10 us default decision latency and with 0.

A second, flowless stream starts no transfer, so every round takes the
arbiter's idle path; there ``compute_caps`` is no independent oracle,
because it shares its all-idle formula with the round.  So in the
work-conserving, demand-aware modes each cap is also checked against the
module docstring's rule worked out here: with nothing used, the spare
(plus every parked floor, when lending) is split equally, a tenant
without a floor holds that share or the 2% ramp allowance, whichever is
larger, and a floor holder its floor plus the share.
"""

import math
import random
from collections import Counter

import pytest

from repro.core import DynamicArbiter, compute_caps
from repro.sim import Engine, FabricNetwork
from repro.sim.network import SYSTEM_TENANT
from repro.topology import cascade_lake_2s, k_shortest_paths, shortest_path
from repro.units import Gbps, us

TENANTS = ["t0", "t1", "t2", "t3"]
#: Flow owners: the floor holders, a tenant that only ever runs best
#: effort, and the system tenant (which the arbiter never caps).
FLOW_TENANTS = TENANTS + ["be0", SYSTEM_TENANT]
#: Both directions over shared PCIe, mesh and UPI links.  The
#: cross-socket routes have a second path over the other UPI link.
ROUTES = [("nic0", "dimm0-0"), ("dimm0-0", "nic0"), ("nvme0", "dimm0-1"),
          ("nic0", "dimm1-0"), ("gpu0", "dimm1-1"), ("dimm1-1", "gpu0")]
#: Whole-Gbps values are exact in binary, so floor arithmetic is exact and
#: swapped demands give exactly the same total.
DEMANDS = [Gbps(10), Gbps(20), Gbps(40), math.inf]
FLOORS = [Gbps(10), Gbps(25), Gbps(50)]
CEILINGS = [0.5, 0.8, 1.0]
MODES = ("work_conserving", "lend_parked_floors", "demand_aware")
STEPS = 250
#: The flowless stream's roster pool: past 50 tenants on a link an equal
#: share of the whole link is under the 2% ramp allowance, so the
#: allowance binds.  The floor holders and the system tenant are in it.
ROSTER_POOL = TENANTS + [f"be{i}" for i in range(68)] + [SYSTEM_TENANT]
#: Up to most of a PCIe link, so floors often exceed capacity x ceiling.
FLOWLESS_FLOORS = [Gbps(10), Gbps(50), Gbps(200)]
FLOWLESS_STEPS = 150


def _directions(direction):
    return ("fwd", "rev") if direction is None else (direction,)


class ArbiterStream:
    """One seeded operation stream plus the model its operations imply."""

    floor_values = FLOORS

    def __init__(self, seed, decision_latency):
        self.rng = random.Random(seed)
        self.network = FabricNetwork(cascade_lake_2s(), Engine())
        self.arbiter = DynamicArbiter(self.network,
                                      decision_latency=decision_latency)
        topology = self.network.topology
        self.paths = [shortest_path(topology, src, dst)
                      for src, dst in ROUTES]
        self.alternates = {(src, dst): k_shortest_paths(topology, src, dst,
                                                        k=2)
                           for src, dst in ROUTES}
        self.links = sorted({link for paths in self.alternates.values()
                             for path in paths for link in path.links})
        # The model.  Per-key floor dicts gain and lose tenants in the
        # order the operations add and remove them.
        self.floors = {}    # (link, direction) -> {tenant: floor}
        self.grants = []    # (tenant, link, direction or None, bandwidth)
        self.ceilings = {}  # link -> {owner: ceiling}
        self.roster = set()
        self.nonzero_usage_rounds = 0
        self.reroutes = 0

    # -- operations --------------------------------------------------------

    def _flow(self):
        flows = self.network.active_flows()
        return self.rng.choice(flows) if flows else None

    def start(self):
        rng = self.rng
        self.network.start_transfer(
            rng.choice(FLOW_TENANTS), rng.choice(self.paths),
            size=rng.choice([None, 2e5, 2e6]), demand=rng.choice(DEMANDS))

    def cancel(self):
        flow = self._flow()
        if flow is not None:
            self.network.cancel_flow(flow.flow_id)

    def demand(self):
        flow = self._flow()
        if flow is not None:
            self.network.set_flow_demand(flow.flow_id,
                                         self.rng.choice(DEMANDS))

    def reroute(self):
        movable = [f for f in self.network.active_flows()
                   if len(self.alternates[(f.path.src, f.path.dst)]) > 1]
        if movable:
            flow = self.rng.choice(movable)
            routes = self.alternates[(flow.path.src, flow.path.dst)]
            other = next(p for p in routes if p.links != flow.path.links)
            self.network.reroute_flow(flow.flow_id, other)
            self.reroutes += 1

    def swap(self):
        flows = self.network.active_flows()
        if len(flows) >= 2:
            a, b = self.rng.sample(flows, 2)
            demand_a, demand_b = a.demand, b.demand
            with self.network.batch():
                self.network.set_flow_demand(a.flow_id, demand_b)
                self.network.set_flow_demand(b.flow_id, demand_a)

    def add_floor(self):
        rng = self.rng
        tenant, link = rng.choice(TENANTS), rng.choice(self.links)
        direction = rng.choice([None, "fwd", "rev"])
        bandwidth = rng.choice(self.floor_values)
        self.arbiter.add_floor(tenant, link, bandwidth, direction=direction)
        self.grants.append((tenant, link, direction, bandwidth))
        for way in _directions(direction):
            per_tenant = self.floors.setdefault((link, way), {})
            per_tenant[tenant] = per_tenant.get(tenant, 0.0) + bandwidth

    def remove_floor(self):
        if not self.grants:
            return
        tenant, link, direction, bandwidth = self.grants.pop(
            self.rng.randrange(len(self.grants)))
        self.arbiter.remove_floor(tenant, link, bandwidth,
                                  direction=direction)
        for way in _directions(direction):
            per_tenant = self.floors[(link, way)]
            remaining = per_tenant[tenant] - bandwidth
            if remaining:
                per_tenant[tenant] = remaining
            else:
                del per_tenant[tenant]
                if not per_tenant:
                    del self.floors[(link, way)]

    def ceiling(self):
        rng = self.rng
        link, owner = rng.choice(self.links), rng.choice(["o1", "o2"])
        if rng.random() < 0.6:
            value = rng.choice(CEILINGS)
            self.arbiter.set_utilization_ceiling(owner, link, value)
            self.ceilings.setdefault(link, {})[owner] = value
        else:
            self.arbiter.clear_utilization_ceiling(owner, link)
            owners = self.ceilings.get(link, {})
            owners.pop(owner, None)
            if not owners:
                self.ceilings.pop(link, None)

    def best_effort(self):
        tenant = self.rng.choice(TENANTS + ["be0"])
        self.arbiter.register_best_effort(tenant)
        self.roster.add(tenant)

    def unregister_any(self):
        # Lifts the tenant's caps on every link.  A floor holder off the
        # roster keeps its floors (the roster does not move), so the next
        # round must re-program its caps from the same inputs.
        tenant = self.rng.choice(TENANTS + ["be0"])
        self.arbiter.unregister_best_effort(tenant)
        self.roster.discard(tenant)

    def restart(self):
        # Lifts every cap; once started, the arbiter also runs its own
        # periodic rounds while the clock advances.
        self.arbiter.stop(lift_caps=True)
        self.arbiter.start()

    def degrade(self):
        link = self.rng.choice(self.links)
        if self.rng.random() < 0.6:
            capacity = self.network.topology.link(link).capacity
            self.network.degrade_link(
                link, capacity * self.rng.choice([0.25, 0.5]))
        else:
            self.network.degrade_link(link, None)

    def toggle_aware(self):
        self.arbiter.degradation_aware = not self.arbiter.degradation_aware

    def flip_mode(self):
        name = self.rng.choice(MODES)
        setattr(self.arbiter, name, not getattr(self.arbiter, name))

    def advance(self):
        engine = self.network.engine
        engine.run_until(engine.now + self.rng.choice([us(5), us(50),
                                                       1e-3]))

    OPERATIONS = [(start, 6), (cancel, 2), (demand, 3), (swap, 3),
                  (reroute, 2), (add_floor, 5), (remove_floor, 3), (ceiling, 2),
                  (best_effort, 1), (unregister_any, 1), (restart, 1),
                  (degrade, 1), (toggle_aware, 1), (flip_mode, 1),
                  (advance, 3)]

    def step(self):
        operations, weights = zip(*self.OPERATIONS)
        for op in self.rng.choices(operations, weights,
                                   k=self.rng.randint(1, 3)):
            op(self)
        self.check_round()

    # -- the oracle --------------------------------------------------------

    def _tenants(self, floors):
        return (set(floors) | self.roster) - {SYSTEM_TENANT}

    def check_round(self):
        network, arbiter = self.network, self.arbiter
        usages = {
            key: {tenant: network.tenant_link_rate(tenant, *key)
                  for tenant in self._tenants(floors)}
            for key, floors in self.floors.items()
        }
        allocations = arbiter.adjust_once()
        if any(any(u.values()) for u in usages.values()):
            self.nonzero_usage_rounds += 1

        keys = [tuple(a.link_id.split("|")) for a in allocations]
        assert sorted(keys) == sorted(self.floors)
        for key, allocation in zip(keys, allocations):
            link_id, _direction = key
            floors = self.floors[key]
            link = network.topology.link(link_id)
            capacity = (link.effective_capacity if arbiter.degradation_aware
                        else link.capacity)
            owners = self.ceilings.get(link_id)
            expected = compute_caps(
                capacity=capacity, floors=dict(floors), usages=usages[key],
                best_effort={t for t in self.roster if t not in floors},
                work_conserving=arbiter.work_conserving,
                utilization_ceiling=min(owners.values()) if owners else 1.0,
                lend_parked_floors=arbiter.lend_parked_floors,
                demand_aware=arbiter.demand_aware,
            )
            assert allocation.usages == usages[key], key
            assert allocation.floors == floors, key
            assert allocation.capacity == capacity, key
            assert allocation.caps == expected, key

        if arbiter.decision_latency > 0:
            engine = network.engine
            engine.run_until(engine.now + arbiter.decision_latency)
        for key, allocation in zip(keys, allocations):
            for tenant, cap in allocation.caps.items():
                assert network.tenant_link_cap(tenant, *key) == cap, \
                    (key, tenant)
        return keys, allocations


class FlowlessStream(ArbiterStream):
    """No transfers, a roster past 50 tenants and large floors."""

    floor_values = FLOWLESS_FLOORS

    def __init__(self, seed, decision_latency):
        super().__init__(seed, decision_latency)
        self.coverage = Counter()

    def register(self):
        for tenant in self.rng.sample(ROSTER_POOL, self.rng.randint(1, 6)):
            self.arbiter.register_best_effort(tenant)
            self.roster.add(tenant)

    def unregister(self):
        if self.roster:
            tenant = self.rng.choice(sorted(self.roster))
            self.arbiter.unregister_best_effort(tenant)
            self.roster.discard(tenant)

    OPERATIONS = [(ArbiterStream.add_floor, 5),
                  (ArbiterStream.remove_floor, 3),
                  (ArbiterStream.ceiling, 2), (register, 3), (unregister, 1),
                  (ArbiterStream.restart, 1),
                  (ArbiterStream.degrade, 1), (ArbiterStream.toggle_aware, 1),
                  (ArbiterStream.flip_mode, 1), (ArbiterStream.advance, 2)]

    def check_round(self):
        keys, allocations = super().check_round()
        arbiter = self.arbiter
        if not (arbiter.work_conserving and arbiter.demand_aware):
            self.coverage["other modes"] += 1
            return
        self.coverage["idle rule"] += 1
        for key, allocation in zip(keys, allocations):
            floors = self.floors[key]
            link = self.network.topology.link(key[0])
            owners = self.ceilings.get(key[0])
            ceiling = min(owners.values()) if owners else 1.0
            tenants = set(floors) | self.roster
            budget = allocation.capacity * ceiling
            reserved = sum(floors.values())
            spare = max(budget - reserved, 0.0)
            if arbiter.lend_parked_floors:
                spare += reserved
            share = spare / len(tenants)
            allowance = 0.02 * allocation.capacity
            assert allocation.caps.keys() == tenants, key
            for tenant, cap in allocation.caps.items():
                expected = (floors[tenant] + share if tenant in floors
                            else max(share, allowance))
                assert cap == pytest.approx(expected, rel=1e-9), \
                    (key, tenant)
            self.coverage.update({
                "allowance binds": share < allowance and bool(
                    self.roster - set(floors)),
                "system tenant on roster": SYSTEM_TENANT in self.roster,
                "floor holder off roster": bool(set(floors) - self.roster),
                "over-reserved": reserved > budget,
                "ceiling": ceiling < 1,
                "degradation-aware on a degraded link": (
                    arbiter.degradation_aware
                    and link.effective_capacity != link.capacity),
            })


@pytest.mark.parametrize("decision_latency", [us(10), 0.0],
                         ids=["10us", "0us"])
@pytest.mark.parametrize("seed", range(4))
def test_round_equals_fresh_recomputation(seed, decision_latency):
    stream = ArbiterStream(seed, decision_latency)
    for _ in range(STEPS):
        stream.step()
    # The stream exercised the live-fabric path, not only idle rounds.
    assert stream.nonzero_usage_rounds > STEPS // 4
    assert stream.reroutes > 0


@pytest.mark.parametrize("decision_latency", [us(10), 0.0],
                         ids=["10us", "0us"])
@pytest.mark.parametrize("seed", range(2))
def test_flowless_round_follows_the_idle_rule(seed, decision_latency):
    stream = FlowlessStream(seed, decision_latency)
    for _ in range(FLOWLESS_STEPS):
        stream.step()
    assert stream.nonzero_usage_rounds == 0
    # Every case the rule distinguishes came up, in the idle-rule modes
    # and outside them.
    for case in ("other modes", "idle rule", "allowance binds",
                 "system tenant on roster", "floor holder off roster",
                 "over-reserved", "ceiling",
                 "degradation-aware on a degraded link"):
        assert stream.coverage[case] > 0, (case, stream.coverage)
