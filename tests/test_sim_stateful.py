"""Stateful property testing of the fabric under random operation sequences.

Hypothesis drives random interleavings of flow starts/cancels/reroutes,
cap changes (one tenant, several tenants on one link, clears of one or
several), failures, and time advances against a live FabricNetwork, and
checks the global invariants after every step:

* no directed link carries more than its effective capacity;
* no flow exceeds its effective demand;
* per-tenant caps are respected, and the installed caps equal a dict
  model of the cap operations (a per-link cap or clear call re-solves
  exactly when it changed the model);
* each installed cap's solver constraint holds its value and exactly its
  tenant's active flows on the capped link and direction, found by a
  scan of the flows' paths, and a cap that binds no flow has none (the
  fabric updates memberships incrementally and relies on this);
* byte accounting is conserved (per-link totals equal the sum of per-
  tenant attributions, and directions sum to the total);
* the clock never moves backwards.
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.sim import Engine, FabricNetwork
from repro.topology import cascade_lake_2s, k_shortest_paths, shortest_path
from repro.units import Gbps

from .test_sim_network import cap_constraints_by_scan, solver_cap_constraints

TENANTS = ["t0", "t1", "t2"]
#: The cross-socket pairs have two paths (one per UPI link), so their
#: flows can be rerouted.
ENDPOINT_PAIRS = [("nic0", "dimm0-0"), ("dimm0-0", "nic0"),
                  ("nvme0", "dimm0-0"), ("nic0", "nvme0"),
                  ("nic0", "dimm1-0"), ("dimm1-0", "nic0")]
CAPPABLE_LINKS = ["pcie-nic0", "pcie-nvme0", "membus0-0",
                  "upi-socket0-socket1-0", "upi-socket0-socket1-1"]
DIRECTIONS = [None, "fwd", "rev"]
#: Few values, so a per-link call often re-asserts an installed cap.
CAP_VALUES = [0.0, Gbps(5), Gbps(20), Gbps(80), math.inf]

_TOL = 1 + 1e-6


class FabricMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.network = FabricNetwork(cascade_lake_2s(), Engine())
        self.flow_ids = []
        self.last_now = 0.0
        # The model: (tenant, link, direction) -> installed cap.
        self.caps = {}

    # -- operations --------------------------------------------------------

    @rule(pair=st.sampled_from(ENDPOINT_PAIRS),
          tenant=st.sampled_from(TENANTS),
          size=st.one_of(st.none(),
                         st.floats(min_value=1e3, max_value=1e9)),
          demand_gbps=st.one_of(st.just(math.inf),
                                st.floats(min_value=0.1, max_value=300)))
    def start_flow(self, pair, tenant, size, demand_gbps):
        demand = demand_gbps if math.isinf(demand_gbps) else Gbps(demand_gbps)
        path = shortest_path(self.network.topology, *pair)
        flow = self.network.start_transfer(tenant, path, size=size,
                                           demand=demand)
        self.flow_ids.append(flow.flow_id)

    @rule()
    def cancel_some_flow(self):
        active = [f for f in self.flow_ids if self.network.has_flow(f)]
        if active:
            self.network.cancel_flow(active[0])

    @rule(index=st.integers(min_value=0), choice=st.integers(min_value=0))
    def reroute_some_flow(self, index, choice):
        active = self.network.active_flows()
        if not active:
            return
        flow = active[index % len(active)]
        others = [path for path in k_shortest_paths(
                      self.network.topology, flow.path.src, flow.path.dst)
                  if path.links != flow.path.links]
        if others:
            self.network.reroute_flow(flow.flow_id,
                                      others[choice % len(others)])

    @rule(tenant=st.sampled_from(TENANTS),
          link=st.sampled_from(CAPPABLE_LINKS),
          cap_gbps=st.floats(min_value=0.1, max_value=300),
          direction=st.sampled_from(DIRECTIONS))
    def set_cap(self, tenant, link, cap_gbps, direction):
        self.network.set_tenant_link_cap(tenant, link, Gbps(cap_gbps),
                                         direction=direction)
        self.caps[(tenant, link, direction)] = Gbps(cap_gbps)

    @rule(link=st.sampled_from(CAPPABLE_LINKS),
          direction=st.sampled_from(DIRECTIONS),
          caps=st.dictionaries(st.sampled_from(TENANTS),
                               st.sampled_from(CAP_VALUES), min_size=1))
    def set_link_caps(self, link, direction, caps):
        changed = any(self.caps.get((tenant, link, direction)) != cap
                      for tenant, cap in caps.items())
        before = self.network.recompute_count
        self.network.set_link_caps(link, caps, direction=direction)
        for tenant, cap in caps.items():
            self.caps[(tenant, link, direction)] = cap
        assert self.network.recompute_count == before + changed

    @rule(link=st.sampled_from(CAPPABLE_LINKS),
          direction=st.sampled_from(DIRECTIONS))
    def reassert_link_caps(self, link, direction):
        # Re-sending a link's installed caps changes nothing, so it must
        # not re-solve.
        caps = {key[0]: cap for key, cap in self.caps.items()
                if key[1:] == (link, direction)}
        before = self.network.recompute_count
        self.network.set_link_caps(link, caps, direction=direction)
        assert self.network.recompute_count == before

    @rule(tenant=st.sampled_from(TENANTS),
          link=st.sampled_from(CAPPABLE_LINKS),
          direction=st.sampled_from(DIRECTIONS))
    def clear_link_cap(self, tenant, link, direction):
        self.network.clear_tenant_link_cap(tenant, link, direction=direction)
        self.caps.pop((tenant, link, direction), None)

    @rule(link=st.sampled_from(CAPPABLE_LINKS),
          direction=st.sampled_from(DIRECTIONS),
          tenants=st.lists(st.sampled_from(TENANTS), max_size=4))
    def clear_link_caps(self, link, direction, tenants):
        removed = any((tenant, link, direction) in self.caps
                      for tenant in tenants)
        before = self.network.recompute_count
        self.network.clear_link_caps(link, tenants, direction=direction)
        for tenant in tenants:
            self.caps.pop((tenant, link, direction), None)
        # One re-solve exactly when a listed cap was installed.
        assert self.network.recompute_count == before + removed

    @rule(tenant=st.sampled_from(TENANTS))
    def clear_caps(self, tenant):
        self.network.clear_tenant_caps(tenant)
        self.caps = {key: cap for key, cap in self.caps.items()
                     if key[0] != tenant}

    @rule(link=st.sampled_from(CAPPABLE_LINKS),
          factor=st.one_of(st.none(),
                           st.floats(min_value=0.05, max_value=1.0)))
    def degrade(self, link, factor):
        capacity = self.network.topology.link(link).capacity
        self.network.degrade_link(
            link, None if factor is None else capacity * factor
        )

    @rule(dt=st.floats(min_value=1e-6, max_value=0.05))
    def advance(self, dt):
        self.network.engine.run_until(self.network.engine.now + dt)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def clock_monotone(self):
        now = self.network.engine.now
        assert now >= self.last_now
        self.last_now = now

    @invariant()
    def no_link_oversubscribed(self):
        for link in self.network.topology.links():
            cap = link.effective_capacity
            for direction in ("fwd", "rev"):
                rate = self.network.link_rate(link.link_id, direction)
                assert rate <= cap * _TOL + 1e-6, (
                    f"{link.link_id}/{direction}: {rate} > {cap}"
                )

    @invariant()
    def no_flow_exceeds_demand(self):
        for flow in self.network.active_flows():
            assert flow.current_rate <= flow.effective_demand * _TOL + 1e-6

    @invariant()
    def caps_match_model(self):
        for tenant in TENANTS:
            for link in CAPPABLE_LINKS:
                for direction in DIRECTIONS:
                    assert (self.network.tenant_link_cap(tenant, link,
                                                         direction)
                            == self.caps.get((tenant, link, direction)))

    @invariant()
    def caps_respected(self):
        for tenant in TENANTS:
            for link in CAPPABLE_LINKS:
                for direction in DIRECTIONS:
                    cap = self.network.tenant_link_cap(tenant, link,
                                                       direction)
                    if cap is None:
                        continue
                    rate = self.network.tenant_link_rate(tenant, link,
                                                         direction)
                    assert rate <= cap * _TOL + 1e-6, (
                        f"{tenant}@{link}/{direction}: {rate} > cap {cap}"
                    )

    @invariant()
    def cap_constraints_match_flows(self):
        assert (solver_cap_constraints(self.network)
                == cap_constraints_by_scan(self.network))

    @invariant()
    def accounting_consistent(self):
        for link in self.network.topology.links():
            total = self.network.link_bytes(link.link_id)
            by_direction = (
                self.network.link_bytes(link.link_id, "fwd")
                + self.network.link_bytes(link.link_id, "rev")
            )
            assert by_direction == pytest.approx(total, rel=1e-9, abs=1e-3)
            by_tenant = sum(
                self.network.tenant_link_bytes(t, link.link_id)
                for t in TENANTS + ["_system"]
            )
            assert by_tenant == pytest.approx(total, rel=1e-9, abs=1e-3)


FabricMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None,
)
TestFabricStateful = FabricMachine.TestCase
