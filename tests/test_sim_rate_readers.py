"""The fabric's rate readers against a brute-force scan, bit for bit.

``link_rate``, ``tenant_link_rate``, ``tenant_link_rates``,
``link_utilization`` and ``link_utilizations`` answer from sums the fabric
keeps between changes.
Hypothesis drives random sequences of flow starts, cancels, reroutes,
demand changes, degrades and clock steps on a ``cascade_lake_2s`` fabric,
with and without coalesced re-solves, some of them inside ``batch()``.
After every step every reader, for every link, direction and tenant, must
equal (``==``, not approximately) a reference that scans the active flows
in order and sums ``current_rate * hops`` — so a sum kept past a change
of rates, flows or paths fails here.

``rate_version`` is checked against the same scan: after every step,
each link and direction whose scanned ``{tenant: rate}`` map differs
from the one scanned after the previous step must show a different
version, so a change that does not move its link's version fails here
without trusting the fabric's own bookkeeping.
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.errors import UnknownLinkError
from repro.sim import Engine, FabricNetwork
from repro.sim.flows import Flow
from repro.topology import cascade_lake_2s, k_shortest_paths
from repro.units import Gbps

TENANTS = ["t0", "t1", "t2"]
#: Asked for by the bulk tenant reader but never given a flow.
IDLE_TENANT = "t-idle"
#: Both directions; the cross-socket pairs have two routes (one per UPI
#: link), so their flows can be rerouted.
ENDPOINT_PAIRS = [("nic0", "dimm0-0"), ("dimm0-0", "nic0"),
                  ("nic0", "dimm1-0"), ("dimm1-0", "nic0"),
                  ("gpu0", "dimm1-1"), ("nvme0", "dimm0-1")]
DIRECTIONS = (None, "fwd", "rev")
DEGRADABLE = ["pcie-nic0", "pcie-up0", "mesh0-0", "upi-socket0-socket1-0",
              "membus1-0"]

_SIZES = st.one_of(st.none(), st.floats(min_value=1e4, max_value=1e7))
_DEMANDS = st.one_of(st.just(math.inf),
                     st.floats(min_value=0.5, max_value=200).map(Gbps))
_PICK = st.integers(min_value=0, max_value=63)

_START = st.tuples(st.just("start"), st.sampled_from(ENDPOINT_PAIRS),
                   st.sampled_from(TENANTS), _SIZES, _DEMANDS,
                   st.sampled_from([0.0, 1.0, Gbps(30)]))
_CANCEL = st.tuples(st.just("cancel"), _PICK)
_REROUTE = st.tuples(st.just("reroute"), _PICK)
_DEMAND = st.tuples(st.just("demand"), _PICK, _DEMANDS)
_DEGRADE = st.tuples(st.just("degrade"), st.sampled_from(DEGRADABLE),
                     st.one_of(st.none(),
                               st.floats(min_value=0.0, max_value=1.0)))
_MUTATION = st.one_of(_START, _CANCEL, _REROUTE, _DEMAND, _DEGRADE)


def hop_ways(network, flow):
    """*flow*'s hops as (link id, "fwd" or "rev") from its device path."""
    ways = []
    for i, link_id in enumerate(flow.path.links):
        src = network.topology.link(link_id).src
        ways.append((link_id, "fwd" if flow.path.devices[i] == src else "rev"))
    return ways


def scanned_rate(flows, link_id, direction, tenant_id=None):
    """One rate the slow way: every (flow, hops) in order, summing
    ``current_rate * hits`` with the flows that miss the link too."""
    total = 0.0
    for flow, ways in flows:
        if tenant_id is not None and flow.tenant_id != tenant_id:
            continue
        hits = sum(1 for hop, way in ways
                   if hop == link_id and direction in (None, way))
        total += flow.current_rate * hits
    return total


def scanned_utilization(network, flows, link_id, clamp=True):
    busiest = max(scanned_rate(flows, link_id, "fwd"),
                  scanned_rate(flows, link_id, "rev"))
    cap = network.topology.link(link_id).effective_capacity
    if cap <= 0:
        return 1.0 if busiest > 0 else 0.0
    return min(busiest / cap, 1.0) if clamp else busiest / cap


class RateReaderMachine(RuleBasedStateMachine):
    coalesce = False

    @initialize()
    def setup(self):
        self.network = FabricNetwork(cascade_lake_2s(), Engine(),
                                     coalesce_recompute=self.coalesce)
        topology = self.network.topology
        self.routes = {pair: k_shortest_paths(topology, *pair, k=2)
                       for pair in ENDPOINT_PAIRS}
        # (link, direction) -> (scanned {tenant: rate}, rate_version) as of
        # the previous check.
        self.seen = {}

    # -- operations ----------------------------------------------------------

    def _pick(self, index):
        active = self.network.active_flows()
        return active[index % len(active)] if active else None

    def _apply(self, op):
        kind = op[0]
        network = self.network
        if kind == "start":
            _, pair, tenant, size, demand, stale_rate = op
            # A flow handed in with a nonzero rate counts at that rate until
            # the next solve, for the scan and the fabric alike.
            flow = Flow(flow_id=network.new_flow_id(), tenant_id=tenant,
                        path=self.routes[pair][0], size=size, demand=demand,
                        current_rate=stale_rate)
            network.start_flow(flow)
            return
        if kind == "degrade":
            _, link_id, factor = op
            capacity = network.topology.link(link_id).capacity
            network.degrade_link(
                link_id, None if factor is None else capacity * factor)
            return
        flow = self._pick(op[1])
        if flow is None:
            return
        if kind == "cancel":
            network.cancel_flow(flow.flow_id)
        elif kind == "reroute":
            routes = self.routes[(flow.path.src, flow.path.dst)]
            other = [p for p in routes if p.links != flow.path.links]
            if other:
                network.reroute_flow(flow.flow_id, other[0])
        else:
            network.set_flow_demand(flow.flow_id, op[2])

    @rule(op=_MUTATION)
    def mutate(self, op):
        self._apply(op)
        self.check_readers()

    @rule(ops=st.lists(_MUTATION, min_size=1, max_size=4))
    def batched(self, ops):
        with self.network.batch():
            self.check_readers()
            for op in ops:
                self._apply(op)
                self.check_readers()
        self.check_readers()

    @rule(dt=st.floats(min_value=1e-7, max_value=2e-3))
    def advance(self, dt):
        self.network.engine.run_until(self.network.engine.now + dt)
        self.check_readers()

    # -- the oracle ------------------------------------------------------------

    def check_readers(self):
        network = self.network
        # Readers flush a pending coalesced solve; flush first so the scan
        # sees the rates the readers see.
        network.flush_recompute()
        flows = [(f, hop_ways(network, f)) for f in network.active_flows()]
        bulk = network.link_utilizations()
        raw = network.link_utilizations(clamp=False)
        for link_id in network.topology.link_ids():
            for direction in DIRECTIONS:
                assert network.link_rate(link_id, direction) == \
                    scanned_rate(flows, link_id, direction), \
                    (link_id, direction)
                for tenant in TENANTS:
                    assert network.tenant_link_rate(
                        tenant, link_id, direction) == scanned_rate(
                            flows, link_id, direction, tenant), \
                        (tenant, link_id, direction)
                asked = [IDLE_TENANT, *reversed(TENANTS)]
                rates = network.tenant_link_rates(link_id, direction, asked)
                assert list(rates) == asked
                assert rates == {
                    tenant: network.tenant_link_rate(tenant, link_id,
                                                     direction)
                    for tenant in asked}, (link_id, direction)
                assert rates[IDLE_TENANT] == 0.0
                scanned = {tenant: scanned_rate(flows, link_id, direction,
                                                tenant)
                           for tenant in TENANTS}
                version = network.rate_version(link_id, direction)
                before = self.seen.get((link_id, direction))
                if before is not None and before[0] != scanned:
                    assert version != before[1], (link_id, direction)
                self.seen[(link_id, direction)] = (scanned, version)
            utilization = network.link_utilization(link_id)
            assert utilization == scanned_utilization(network, flows, link_id)
            assert bulk[link_id] == utilization
            assert raw[link_id] == scanned_utilization(
                network, flows, link_id, clamp=False)


class CoalescedRateReaderMachine(RateReaderMachine):
    coalesce = True


_SETTINGS = settings(max_examples=30, stateful_step_count=25, deadline=None)
RateReaderMachine.TestCase.settings = _SETTINGS
CoalescedRateReaderMachine.TestCase.settings = _SETTINGS
TestRateReaders = RateReaderMachine.TestCase
TestRateReadersCoalesced = CoalescedRateReaderMachine.TestCase


def test_bulk_tenant_reader_rejects_unknown_link():
    network = FabricNetwork(cascade_lake_2s(), Engine())
    with pytest.raises(UnknownLinkError):
        network.tenant_link_rates("no-such-link", "fwd", TENANTS)
    with pytest.raises(UnknownLinkError):
        network.rate_version("no-such-link", "fwd")


def test_rate_version_flushes_a_coalesced_solve():
    # The version reader must see the rates a pending re-solve will give,
    # as the rate readers do.
    network = FabricNetwork(cascade_lake_2s(), Engine(),
                            coalesce_recompute=True)
    path = k_shortest_paths(network.topology, "nic0", "dimm0-0", k=1)[0]
    flow = network.start_transfer("t0", path, demand=Gbps(10))
    link_id, way = hop_ways(network, flow)[0]
    before = network.rate_version(link_id, way)
    network.set_flow_demand(flow.flow_id, Gbps(20))
    assert network.rate_version(link_id, way) != before
    assert network.tenant_link_rates(link_id, way,
                                     ["t0"]) == {"t0": Gbps(20)}


def test_bulk_tenant_reader_reads_zero_without_flows():
    network = FabricNetwork(cascade_lake_2s(), Engine())
    path = k_shortest_paths(network.topology, "nic0", "dimm0-0", k=1)[0]
    network.start_transfer("t0", path, demand=Gbps(10))
    rates = network.tenant_link_rates(path.links[0], None,
                                      ["t0", IDLE_TENANT])
    assert rates == {"t0": Gbps(10), IDLE_TENANT: 0.0}
