"""Max-min fair solver: fairness, demand limits, weights, constraints."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.bandwidth import (
    Constraint,
    FlowDemand,
    max_min_fair_rates,
)
from repro.topology import shortest_path

from .test_solver_certificate import as_tuples, as_virtuals, certificate_failures


def solve(flows, caps, extra=()):
    return max_min_fair_rates(flows, caps, extra)


class TestBasics:
    def test_empty(self):
        assert solve([], {}) == {}

    def test_single_elastic_flow_gets_bottleneck(self):
        flows = [FlowDemand("f", ("a", "b"))]
        rates = solve(flows, {"a": 10.0, "b": 4.0})
        assert rates["f"] == pytest.approx(4.0)

    def test_two_equal_flows_split(self):
        flows = [FlowDemand("f1", ("l",)), FlowDemand("f2", ("l",))]
        rates = solve(flows, {"l": 10.0})
        assert rates["f1"] == pytest.approx(5.0)
        assert rates["f2"] == pytest.approx(5.0)

    def test_demand_limited_flow_frees_capacity(self):
        flows = [FlowDemand("small", ("l",), demand=2.0),
                 FlowDemand("big", ("l",))]
        rates = solve(flows, {"l": 10.0})
        assert rates["small"] == pytest.approx(2.0)
        assert rates["big"] == pytest.approx(8.0)

    def test_weights_proportional(self):
        flows = [FlowDemand("w1", ("l",), weight=1.0),
                 FlowDemand("w3", ("l",), weight=3.0)]
        rates = solve(flows, {"l": 8.0})
        assert rates["w1"] == pytest.approx(2.0)
        assert rates["w3"] == pytest.approx(6.0)

    def test_zero_demand_gets_zero(self):
        flows = [FlowDemand("idle", ("l",), demand=0.0),
                 FlowDemand("busy", ("l",))]
        rates = solve(flows, {"l": 10.0})
        assert rates["idle"] == 0.0
        assert rates["busy"] == pytest.approx(10.0)

    def test_failed_link_gives_zero(self):
        flows = [FlowDemand("f", ("dead",))]
        rates = solve(flows, {"dead": 0.0})
        assert rates["f"] == 0.0

    def test_unknown_link_raises(self):
        with pytest.raises(KeyError):
            solve([FlowDemand("f", ("ghost",))], {"l": 1.0})

    def test_duplicate_flow_ids_raise(self):
        flows = [FlowDemand("f", ("l",)), FlowDemand("f", ("l",))]
        with pytest.raises(ValueError):
            solve(flows, {"l": 1.0})

    def test_elastic_flow_with_no_constraint_raises(self):
        with pytest.raises(ValueError):
            solve([FlowDemand("f", ())], {})


class TestMultiHop:
    def test_classic_parking_lot(self):
        """Long flow crosses both links; short flows cross one each."""
        flows = [
            FlowDemand("long", ("l1", "l2")),
            FlowDemand("s1", ("l1",)),
            FlowDemand("s2", ("l2",)),
        ]
        rates = solve(flows, {"l1": 10.0, "l2": 10.0})
        assert rates["long"] == pytest.approx(5.0)
        assert rates["s1"] == pytest.approx(5.0)
        assert rates["s2"] == pytest.approx(5.0)

    def test_bottleneck_migration(self):
        """Narrow second hop binds the long flow; short flow takes slack."""
        flows = [
            FlowDemand("long", ("wide", "narrow")),
            FlowDemand("short", ("wide",)),
        ]
        rates = solve(flows, {"wide": 10.0, "narrow": 2.0})
        assert rates["long"] == pytest.approx(2.0)
        assert rates["short"] == pytest.approx(8.0)


class TestVirtualConstraints:
    def test_tenant_cap_binds(self):
        flows = [FlowDemand("t1a", ("l",)), FlowDemand("t1b", ("l",)),
                 FlowDemand("t2", ("l",))]
        cap = Constraint("cap:t1", capacity=2.0,
                         member_flows=frozenset({"t1a", "t1b"}))
        rates = solve(flows, {"l": 12.0}, [cap])
        assert rates["t1a"] + rates["t1b"] == pytest.approx(2.0)
        assert rates["t2"] == pytest.approx(10.0)

    def test_constraint_without_members_rejected(self):
        with pytest.raises(ValueError):
            solve([FlowDemand("f", ("l",))], {"l": 1.0},
                  [Constraint("c", 1.0)])

    def test_constraint_id_collision_rejected(self):
        with pytest.raises(ValueError):
            solve([FlowDemand("f", ("l",))], {"l": 1.0},
                  [Constraint("l", 1.0, member_flows=frozenset({"f"}))])

    def test_constraint_over_absent_flows_ignored(self):
        flows = [FlowDemand("f", ("l",))]
        cap = Constraint("cap:x", 0.5, member_flows=frozenset({"ghost"}))
        rates = solve(flows, {"l": 4.0}, [cap])
        assert rates["f"] == pytest.approx(4.0)


class TestInvalidInputs:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            FlowDemand("f", ("l",), weight=-1.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            FlowDemand("f", ("l",), demand=-1.0)

    def test_negative_capacity_constraint_rejected(self):
        with pytest.raises(ValueError):
            Constraint("c", capacity=-1.0)


class TestUtilizations:
    """The fabric's utilization reader over the rates the solver gave."""

    def test_utilization_computation(self, minimal_net):
        path = shortest_path(minimal_net.topology, "nic0", "dimm0-0")
        flows = [minimal_net.start_transfer("t", path) for _ in range(2)]
        utils = minimal_net.link_utilizations()
        for link_id in path.links:
            capacity = minimal_net.topology.link(link_id).effective_capacity
            assert utils[link_id] == pytest.approx(
                sum(f.current_rate for f in flows) / capacity)
        assert max(utils[link_id] for link_id in path.links) == \
            pytest.approx(1.0)

    def test_zero_capacity_link(self, minimal_net):
        path = shortest_path(minimal_net.topology, "nic0", "dimm0-0")
        dead = path.links[0]
        minimal_net.set_link_up(dead, False)
        flow = minimal_net.start_transfer("t", path)
        assert flow.current_rate == 0.0
        assert minimal_net.link_utilizations()[dead] == 0.0


# -- property-based invariants ------------------------------------------------

link_names = ["a", "b", "c", "d"]


@st.composite
def solver_instances(draw):
    """Up to eight flows over four links, any of them down (zero capacity);
    a flow may cross a link more than once; weights in 0.1-10; and up to
    two tenant caps, each over a subset of the flows."""
    n_flows = draw(st.integers(min_value=1, max_value=8))
    caps = {
        name: draw(st.one_of(st.just(0.0),
                             st.floats(min_value=0.5, max_value=100.0)))
        for name in link_names
    }
    flows = []
    for i in range(n_flows):
        links = tuple(draw(st.lists(st.sampled_from(link_names), min_size=1,
                                    max_size=4)))
        demand = draw(st.one_of(
            st.just(math.inf),
            st.floats(min_value=0.0, max_value=50.0),
        ))
        weight = draw(st.floats(min_value=0.1, max_value=10.0))
        flows.append(FlowDemand(f"f{i}", links, demand=demand, weight=weight))
    flow_ids = [f.flow_id for f in flows]
    tenant_caps = [
        Constraint(f"cap{j}", draw(st.floats(min_value=0.0, max_value=50.0)),
                   frozenset(draw(st.sets(st.sampled_from(flow_ids),
                                          min_size=1))))
        for j in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    return flows, caps, tenant_caps


@settings(max_examples=200, deadline=None)
@given(solver_instances())
def test_solver_invariants(instance):
    """The weighted max-min certificate, checked from the inputs alone: no
    constraint oversubscribed, every rate in [0, demand], and every flow
    either at its demand or on a saturated constraint where its rate per
    unit of weight is the largest of any member."""
    flows, caps, tenant_caps = instance
    rates = max_min_fair_rates(flows, caps, tenant_caps)
    failures = certificate_failures(as_tuples(flows), caps,
                                    as_virtuals(tenant_caps), rates)
    assert not failures, failures


@settings(max_examples=100, deadline=None)
@given(solver_instances())
def test_solver_deterministic(instance):
    flows, caps, tenant_caps = instance
    first = max_min_fair_rates(flows, caps, tenant_caps)
    second = max_min_fair_rates(flows, caps, tenant_caps)
    assert first == second
