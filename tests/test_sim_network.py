"""FabricNetwork: flow lifecycle, fairness, accounting, failures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlowError, UnknownLinkError
from repro.sim import Engine, FabricNetwork, FlowState
from repro.topology import cascade_lake_2s, shortest_path
from repro.units import Gbps


def path_of(net, src, dst):
    return shortest_path(net.topology, src, dst)


class TestLifecycle:
    def test_start_and_complete(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        done = []
        flow = net.start_transfer("t", p, size=1e9,
                                  on_complete=lambda f: done.append(f))
        assert flow.state is FlowState.ACTIVE
        net.engine.run()
        assert flow.state is FlowState.COMPLETED
        assert done == [flow]
        assert flow.bytes_sent == pytest.approx(1e9)
        assert not net.has_flow(flow.flow_id)

    def test_completion_time_matches_rate(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        flow = net.start_transfer("t", p, size=Gbps(256))  # 1s at line rate
        net.engine.run()
        assert flow.duration == pytest.approx(1.0, rel=1e-6)

    def test_cancel(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        flow = net.start_transfer("t", p)
        net.engine.run_until(0.5)
        cancelled = net.cancel_flow(flow.flow_id)
        assert cancelled.state is FlowState.CANCELLED
        assert cancelled.bytes_sent > 0
        assert not net.has_flow(flow.flow_id)

    def test_duplicate_id_rejected(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        net.start_transfer("t", p, flow_id="dup")
        with pytest.raises(FlowError):
            net.start_transfer("t", p, flow_id="dup")

    def test_cancel_unknown_rejected(self, minimal_net):
        with pytest.raises(FlowError):
            minimal_net.cancel_flow("ghost")

    def test_unknown_link_in_path_rejected(self, minimal_net, cascade_net):
        foreign = path_of(cascade_net, "nic0", "dimm1-0")
        with pytest.raises(UnknownLinkError):
            minimal_net.start_transfer("t", foreign)

    def test_flow_listeners(self, minimal_net):
        net = minimal_net
        events = []
        net.on_flow_start(lambda f: events.append(("start", f.flow_id)))
        net.on_flow_complete(lambda f: events.append(("done", f.flow_id)))
        p = path_of(net, "nic0", "dimm0-0")
        f = net.start_transfer("t", p, size=1e6)
        net.engine.run()
        assert events == [("start", f.flow_id), ("done", f.flow_id)]


class TestFairness:
    def test_two_tenants_share_bottleneck(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        f1 = net.start_transfer("a", p)
        f2 = net.start_transfer("b", p)
        assert f1.current_rate == pytest.approx(f2.current_rate)
        assert f1.current_rate + f2.current_rate == \
            pytest.approx(Gbps(256), rel=1e-6)

    def test_full_duplex_directions_independent(self, minimal_net):
        net = minimal_net
        fwd = net.start_transfer("a", path_of(net, "nic0", "dimm0-0"))
        rev = net.start_transfer("b", path_of(net, "dimm0-0", "nic0"))
        assert fwd.current_rate == pytest.approx(Gbps(256), rel=1e-6)
        assert rev.current_rate == pytest.approx(Gbps(256), rel=1e-6)

    def test_tenant_weight_shifts_share(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        f1 = net.start_transfer("heavy", p)
        f2 = net.start_transfer("light", p)
        net.set_tenant_weight("heavy", 3.0)
        assert f1.current_rate == pytest.approx(3 * f2.current_rate, rel=1e-6)

    def test_demand_limited_flow(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        f = net.start_transfer("t", p, demand=Gbps(10))
        assert f.current_rate == pytest.approx(Gbps(10))

    def test_rates_rebalance_on_completion(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        small = net.start_transfer("a", p, size=1e6)
        big = net.start_transfer("b", p)
        assert big.current_rate == pytest.approx(Gbps(256) / 2, rel=1e-6)
        net.engine.run_until(1.0)
        assert small.state is FlowState.COMPLETED
        assert big.current_rate == pytest.approx(Gbps(256), rel=1e-6)


class TestCapsAndWeights:
    def test_tenant_link_cap(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        f = net.start_transfer("t", p)
        net.set_tenant_link_cap("t", "pcie-nic0", Gbps(32))
        assert f.current_rate == pytest.approx(Gbps(32), rel=1e-6)
        net.clear_tenant_link_cap("t", "pcie-nic0")
        assert f.current_rate == pytest.approx(Gbps(256), rel=1e-6)

    def test_cap_applies_to_tenant_aggregate(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        f1 = net.start_transfer("t", p)
        f2 = net.start_transfer("t", p)
        net.set_tenant_link_cap("t", "pcie-nic0", Gbps(32))
        assert f1.current_rate + f2.current_rate == \
            pytest.approx(Gbps(32), rel=1e-6)

    def test_clear_tenant_caps(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        f = net.start_transfer("t", p)
        net.set_tenant_link_cap("t", "pcie-nic0", Gbps(8))
        net.set_tenant_link_cap("t", "pcie-up0", Gbps(8)) \
            if net.topology.has_link("pcie-up0") else None
        net.clear_tenant_caps("t")
        assert f.current_rate == pytest.approx(Gbps(256), rel=1e-6)

    def test_flow_rate_cap(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        f = net.start_transfer("t", p)
        net.set_flow_rate_cap(f.flow_id, Gbps(16))
        assert f.current_rate == pytest.approx(Gbps(16), rel=1e-6)

    def test_set_flow_demand(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        f = net.start_transfer("t", p, demand=Gbps(10))
        net.set_flow_demand(f.flow_id, Gbps(40))
        assert f.current_rate == pytest.approx(Gbps(40), rel=1e-6)

    def test_invalid_cap_rejected(self, minimal_net):
        net = minimal_net
        flow = net.start_transfer("t", path_of(net, "nic0", "dimm0-0"))
        for cap in (-1.0, math.nan):
            with pytest.raises(ValueError):
                net.set_tenant_link_cap("t", "pcie-nic0", cap)
            with pytest.raises(ValueError):
                net.set_link_caps("pcie-nic0", {"t": cap})
        with pytest.raises(UnknownLinkError):
            net.set_tenant_link_cap("t", "ghost", 1.0)
        assert net.tenant_link_cap("t", "pcie-nic0") is None
        assert flow.current_rate == pytest.approx(Gbps(256), rel=1e-6)

    @pytest.mark.parametrize("call, error", [
        (lambda net, p, fid: net.start_transfer("x", p, weight=math.nan),
         FlowError),
        (lambda net, p, fid: net.start_transfer("x", p, weight=math.inf),
         FlowError),
        (lambda net, p, fid: net.start_transfer("x", p, size=math.nan),
         FlowError),
        (lambda net, p, fid: net.start_transfer("x", p, demand=math.nan),
         FlowError),
        (lambda net, p, fid: net.set_tenant_weight("t", math.nan),
         ValueError),
        (lambda net, p, fid: net.set_tenant_weight("t", math.inf),
         ValueError),
        (lambda net, p, fid: net.set_flow_demand(fid, math.nan), ValueError),
        (lambda net, p, fid: net.set_flow_rate_cap(fid, math.nan),
         ValueError),
        (lambda net, p, fid: net.degrade_link("pcie-nic0", -1.0), ValueError),
        (lambda net, p, fid: net.degrade_link("pcie-nic0", math.nan),
         ValueError),
    ], ids=["flow-weight-nan", "flow-weight-inf", "flow-size-nan",
            "flow-demand-nan", "tenant-weight-nan", "tenant-weight-inf",
            "set-demand-nan", "set-rate-cap-nan", "degrade-negative",
            "degrade-nan"])
    def test_rejected_input_leaves_fabric_usable(self, cascade_net, call,
                                                 error):
        net = cascade_net
        p = path_of(net, "nic0", "dimm0-0")
        held = net.start_transfer("t", p, demand=Gbps(10))
        with pytest.raises(error):
            call(net, p, held.flow_id)
        assert net.active_flows() == [held]
        assert held.current_rate == Gbps(10)
        fresh = net.start_transfer("t", p, demand=Gbps(20))
        assert fresh.current_rate == Gbps(20)
        assert held.current_rate == Gbps(10)


_CAP_VALUES = st.sampled_from([0.0, Gbps(2), Gbps(8), Gbps(16), math.inf])
_CAP_TENANTS = st.sampled_from(["a", "b", "c", "d"])


def _capped_net(with_flows, initial, direction):
    """A fresh fabric with *initial* caps on pcie-nic0 and, optionally,
    flows of every tenant across it in both directions."""
    net = FabricNetwork(cascade_lake_2s(), Engine())
    if with_flows:
        for tenant in ("a", "b", "c", "d", "e"):
            net.start_transfer(tenant, path_of(net, "nic0", "dimm0-0"))
            net.start_transfer(tenant, path_of(net, "dimm0-0", "nic0"),
                               demand=Gbps(40))
    with net.batch():
        for tenant, cap in initial.items():
            net.set_tenant_link_cap(tenant, "pcie-nic0", cap,
                                    direction=direction)
    return net


def cap_constraints_by_scan(net):
    """Every solver constraint the installed caps should give, worked out
    from the flows' paths: ``{cid: (cap, {flow ids})}`` for each cap that
    binds at least one flow."""
    expected = {}
    for flow in net.active_flows():
        for i, link_id in enumerate(flow.path.links):
            link = net.topology.link(link_id)
            way = "fwd" if flow.path.devices[i] == link.src else "rev"
            for direction in (way, None):
                key = (flow.tenant_id, link_id, direction)
                cap = net.tenant_link_cap(*key)
                if cap is not None:
                    expected.setdefault(net._cap_cid(key),
                                        (cap, set()))[1].add(flow.flow_id)
    return expected


def solver_cap_constraints(net):
    return {cid: (c.capacity, set(c.member_flows))
            for cid, c in net._solver._virtual.items()}


def _fabric_state(net):
    # Every installed cap as ((tenant, link, direction), cap), flattened
    # from the per-link maps in their order.
    caps = [((tenant, *link_key), cap)
            for link_key, installed in net._link_caps.items()
            for tenant, cap in installed.items()]
    return (caps, net.recompute_count,
            [(f.flow_id, f.current_rate) for f in net.active_flows()])


class TestLinkCaps:
    """One per-link call equals one per-tenant call per entry in a batch."""

    @settings(max_examples=60, deadline=None)
    @given(
        with_flows=st.booleans(),
        initial=st.dictionaries(_CAP_TENANTS, _CAP_VALUES),
        update=st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]),
                               _CAP_VALUES),
        direction=st.sampled_from([None, "fwd", "rev"]),
    )
    def test_matches_per_tenant_calls_in_a_batch(self, with_flows, initial,
                                                 update, direction):
        reference = _capped_net(with_flows, initial, direction)
        per_link = _capped_net(with_flows, initial, direction)
        with reference.batch():
            for tenant, cap in update.items():
                reference.set_tenant_link_cap(tenant, "pcie-nic0", cap,
                                              direction=direction)
        per_link.set_link_caps("pcie-nic0", update, direction=direction)
        assert _fabric_state(per_link) == _fabric_state(reference)
        # A changed cap keeps its tracked membership; its constraint must
        # still hold the new value over exactly the flows it binds.
        assert solver_cap_constraints(per_link) == \
            cap_constraints_by_scan(per_link)
        # Re-asserting the same caps changes nothing and does not re-solve.
        before = _fabric_state(per_link)
        per_link.set_link_caps("pcie-nic0", update, direction=direction)
        assert _fabric_state(per_link) == before

    @pytest.mark.parametrize("with_flows", [False, True])
    def test_partial_failure_matches_per_tenant_calls(self, with_flows):
        update = {"a": Gbps(8), "b": math.nan, "c": Gbps(4)}
        reference = _capped_net(with_flows, {"c": Gbps(2)}, "rev")
        per_link = _capped_net(with_flows, {"c": Gbps(2)}, "rev")
        with pytest.raises(ValueError):
            with reference.batch():
                for tenant, cap in update.items():
                    reference.set_tenant_link_cap(tenant, "pcie-nic0", cap,
                                                  direction="rev")
        with pytest.raises(ValueError):
            per_link.set_link_caps("pcie-nic0", update, direction="rev")
        assert _fabric_state(per_link) == _fabric_state(reference)
        assert per_link.tenant_link_cap("a", "pcie-nic0", "rev") == Gbps(8)
        assert per_link.tenant_link_cap("c", "pcie-nic0", "rev") == Gbps(2)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_bad_cap_anywhere_on_a_flowless_fabric(self, bad, position):
        entries = [("a", Gbps(8)), ("c", Gbps(4))]
        entries.insert(position, ("b", bad))
        update = dict(entries)
        reference = _capped_net(False, {"c": Gbps(2)}, "fwd")
        per_link = _capped_net(False, {"c": Gbps(2)}, "fwd")
        with pytest.raises(ValueError):
            with reference.batch():
                for tenant, cap in update.items():
                    reference.set_tenant_link_cap(tenant, "pcie-nic0", cap,
                                                  direction="fwd")
        with pytest.raises(ValueError):
            per_link.set_link_caps("pcie-nic0", update, direction="fwd")
        assert _fabric_state(per_link) == _fabric_state(reference)
        assert per_link.tenant_link_cap("b", "pcie-nic0", "fwd") is None

    def test_caps_set_after_every_flow_left(self):
        # Flows that leave drop out of their caps' memberships, and a
        # membership left empty is deleted: once every flow has left, the
        # fabric holds no membership, so its next caps bind no flow and
        # install without a solver constraint.
        def drained():
            net = _capped_net(True, {"a": Gbps(2), "b": Gbps(8)}, None)
            assert net._cap_members
            for flow in net.active_flows():
                net.cancel_flow(flow.flow_id)
            assert net._cap_members == {}
            return net

        update = {"a": Gbps(16), "b": Gbps(4), "c": Gbps(4)}
        reference, per_link = drained(), drained()
        with reference.batch():
            for tenant, cap in update.items():
                reference.set_tenant_link_cap(tenant, "pcie-nic0", cap)
        per_link.set_link_caps("pcie-nic0", update)
        assert _fabric_state(per_link) == _fabric_state(reference)
        # Flows arriving afterwards run under their tenants' new caps.
        for net in (reference, per_link):
            path = path_of(net, "nic0", "dimm0-0")
            a = net.start_transfer("a", path)
            b = net.start_transfer("b", path)
            assert (a.current_rate, b.current_rate) == (Gbps(16), Gbps(4))
        assert _fabric_state(per_link) == _fabric_state(reference)


    def test_memberships_track_flows_without_empty_entries(self):
        # Each installed cap's membership is its tenant's live flows on
        # the link, whether the cap came before the flows or after, and a
        # cap that binds no flow has no entry and no solver constraint.
        net = _capped_net(True, {"a": Gbps(2)}, "fwd")
        net.set_link_caps("pcie-nic0", {"b": Gbps(8), "z": Gbps(4)},
                          direction="fwd")
        net.set_tenant_link_cap("a", "pcie-nic0", Gbps(3), direction="fwd")

        def check():
            expected = cap_constraints_by_scan(net)
            assert solver_cap_constraints(net) == expected
            assert {net._cap_cid(key): members
                    for key, members in net._cap_members.items()} == {
                cid: members for cid, (_cap, members) in expected.items()}

        check()
        assert ("z", "pcie-nic0", "fwd") not in net._cap_members
        for flow in net.active_flows("a"):
            net.cancel_flow(flow.flow_id)
        check()
        assert ("a", "pcie-nic0", "fwd") not in net._cap_members

    @settings(max_examples=60, deadline=None)
    @given(
        with_flows=st.booleans(),
        initial=st.dictionaries(_CAP_TENANTS, _CAP_VALUES),
        cleared=st.lists(st.sampled_from(["a", "b", "c", "d", "e"]),
                         max_size=5),
        direction=st.sampled_from([None, "fwd", "rev"]),
    )
    def test_clear_matches_per_tenant_calls_in_a_batch(
            self, with_flows, initial, cleared, direction):
        def build():
            net = _capped_net(with_flows, initial, direction)
            # A second caller's cap on the same link and direction, and
            # the same tenants capped the other way: none is listed, so
            # all must survive.
            other = "rev" if direction == "fwd" else "fwd"
            with net.batch():
                net.set_tenant_link_cap("other", "pcie-nic0", Gbps(3),
                                        direction=direction)
                for tenant in ("a", "b"):
                    net.set_tenant_link_cap(tenant, "pcie-nic0", Gbps(5),
                                            direction=other)
            return net

        reference, per_link = build(), build()
        with reference.batch():
            for tenant in cleared:
                reference.clear_tenant_link_cap(tenant, "pcie-nic0",
                                                direction=direction)
        per_link.clear_link_caps("pcie-nic0", cleared, direction=direction)
        assert _fabric_state(per_link) == _fabric_state(reference)
        assert per_link.tenant_link_cap("other", "pcie-nic0",
                                        direction) == Gbps(3)
        for tenant in initial:
            assert (per_link.tenant_link_cap(tenant, "pcie-nic0", direction)
                    is None) == (tenant in cleared)


class TestAccounting:
    def test_link_bytes_integrates_rate(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        net.start_transfer("t", p, demand=Gbps(80))
        net.engine.run_until(1.0)
        assert net.link_bytes("pcie-nic0") == pytest.approx(Gbps(80),
                                                            rel=1e-6)

    def test_per_direction_bytes(self, minimal_net):
        net = minimal_net
        net.start_transfer("t", path_of(net, "nic0", "dimm0-0"),
                           demand=Gbps(80))
        net.engine.run_until(1.0)
        fwd = net.link_bytes("pcie-nic0", "fwd")
        rev = net.link_bytes("pcie-nic0", "rev")
        assert fwd + rev == pytest.approx(net.link_bytes("pcie-nic0"))
        # only one direction carries traffic
        assert min(fwd, rev) == 0.0
        assert max(fwd, rev) == pytest.approx(Gbps(80), rel=1e-6)

    def test_tenant_attribution(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        net.start_transfer("a", p, demand=Gbps(40))
        net.start_transfer("b", p, demand=Gbps(40))
        net.engine.run_until(0.5)
        a = net.tenant_link_bytes("a", "pcie-nic0")
        b = net.tenant_link_bytes("b", "pcie-nic0")
        assert a == pytest.approx(b)
        assert a + b == pytest.approx(net.link_bytes("pcie-nic0"))

    def test_bytes_conserved_on_completion(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        net.start_transfer("t", p, size=5e9)
        net.engine.run()
        for link_id in p.links:
            assert net.link_bytes(link_id) == pytest.approx(5e9, rel=1e-9)

    def test_utilization(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        net.start_transfer("t", p, demand=Gbps(128))
        assert net.link_utilization("pcie-nic0") == pytest.approx(0.5,
                                                                  rel=1e-6)


class TestFailures:
    def test_degraded_link_shrinks_rates(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        f = net.start_transfer("t", p)
        net.degrade_link("pcie-nic0", Gbps(64))
        assert f.current_rate == pytest.approx(Gbps(64), rel=1e-6)
        net.degrade_link("pcie-nic0", None)
        assert f.current_rate == pytest.approx(Gbps(256), rel=1e-6)

    def test_down_link_stalls_flow(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        f = net.start_transfer("t", p, size=1e9)
        net.set_link_up("pcie-nic0", False)
        assert f.current_rate == 0.0
        net.engine.run_until(1.0)
        assert f.state is FlowState.ACTIVE  # stalled, not completed
        net.set_link_up("pcie-nic0", True)
        net.engine.run()
        assert f.state is FlowState.COMPLETED

    def test_latency_queries(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        idle = net.path_latency(p)
        net.start_transfer("x", p)
        loaded = net.path_latency(p)
        assert loaded > idle
        assert net.round_trip_latency(p) >= 2 * idle
