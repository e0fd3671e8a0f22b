"""Incremental solver: equivalence, batching, coalescing, facade."""

import math
import random

import pytest

from repro import Host
from repro.sim import Engine, FabricNetwork, IncrementalMaxMinSolver
from repro.sim.bandwidth import (
    Constraint,
    FlowDemand,
    max_min_fair_rates,
)
from repro.topology import cascade_lake_2s, minimal_host, shortest_path
from repro.units import Gbps


def path_of(net, src, dst):
    return shortest_path(net.topology, src, dst)


def assert_rates_close(incremental, reference, context=""):
    assert set(incremental) == set(reference), context
    for fid, want in reference.items():
        got = incremental[fid]
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (
            f"{context}: flow {fid}: incremental={got!r} scratch={want!r}"
        )


# ---------------------------------------------------------------------------
# Property test: incremental == from-scratch over random mutation sequences.
# ---------------------------------------------------------------------------


class _MirrorDriver:
    """Applies one random mutation stream to the incremental solver while
    mirroring the problem in plain dicts for the stateless reference."""

    LINKS = [f"l{i}|{d}" for i in range(12) for d in ("fwd", "rev")]
    CAP_IDS = ["cap0", "cap1", "cap2"]

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.solver = IncrementalMaxMinSolver()
        self.capacities = {}
        self.flows = {}       # insertion-ordered, mirrors solver order
        self.virtual = {}
        self.next_flow = 0
        for link_id in self.LINKS:
            cap = Gbps(self.rng.uniform(10, 400))
            self.capacities[link_id] = cap
            self.solver.set_capacity(link_id, cap)

    def add_flow(self):
        fid = f"f{self.next_flow}"
        self.next_flow += 1
        links = tuple(self.rng.choice(self.LINKS)
                      for _ in range(self.rng.randint(1, 4)))
        demand = (math.inf if self.rng.random() < 0.25
                  else Gbps(self.rng.uniform(0.5, 200)))
        weight = self.rng.choice([1.0, 1.0, 2.0, 0.5])
        flow = FlowDemand(fid, links, demand=demand, weight=weight)
        self.flows[fid] = flow
        self.solver.set_flow(flow)

    def remove_flow(self):
        if not self.flows:
            return
        fid = self.rng.choice(list(self.flows))
        del self.flows[fid]
        self.solver.remove_flow(fid)

    def reshape_flow(self):
        """Replace an existing flow (same id, possibly new links)."""
        if not self.flows:
            return
        fid = self.rng.choice(list(self.flows))
        links = tuple(self.rng.choice(self.LINKS)
                      for _ in range(self.rng.randint(1, 4)))
        flow = FlowDemand(fid, links,
                          demand=Gbps(self.rng.uniform(0.5, 200)),
                          weight=self.rng.choice([1.0, 2.0, 0.5]))
        self.flows[fid] = flow
        self.solver.set_flow(flow)

    def retune_flow(self):
        if not self.flows:
            return
        fid = self.rng.choice(list(self.flows))
        demand = Gbps(self.rng.uniform(0.5, 200))
        current = self.flows[fid]
        self.flows[fid] = FlowDemand(fid, current.links, demand=demand,
                                     weight=current.weight)
        self.solver.set_flow_params(fid, demand=demand)

    def resize_link(self):
        link_id = self.rng.choice(self.LINKS)
        cap = Gbps(self.rng.uniform(10, 400))
        self.capacities[link_id] = cap
        self.solver.set_capacity(link_id, cap)

    def set_cap(self):
        cid = self.rng.choice(self.CAP_IDS)
        pool = list(self.flows) or [f"f{self.next_flow}"]  # future flow ok
        members = frozenset(self.rng.sample(pool,
                                            self.rng.randint(1, len(pool))))
        constraint = Constraint(cid, Gbps(self.rng.uniform(1, 100)), members)
        self.virtual[cid] = constraint
        self.solver.set_constraint(constraint)

    def clear_cap(self):
        if not self.virtual:
            return
        cid = self.rng.choice(list(self.virtual))
        del self.virtual[cid]
        self.solver.remove_constraint(cid)

    def mutate(self):
        op = self.rng.choices(
            [self.add_flow, self.remove_flow, self.reshape_flow,
             self.retune_flow, self.resize_link, self.set_cap,
             self.clear_cap],
            weights=[5, 2, 2, 3, 2, 1, 1],
        )[0]
        op()

    def check(self, context):
        reference = max_min_fair_rates(
            list(self.flows.values()), self.capacities,
            list(self.virtual.values()),
        )
        assert_rates_close(self.solver.solve(), reference, context)


@pytest.mark.parametrize("seed", range(220))
def test_incremental_matches_from_scratch(seed):
    driver = _MirrorDriver(seed)
    for _ in range(driver.rng.randint(3, 8)):
        driver.add_flow()
    driver.check(f"seed={seed} initial")
    for step in range(driver.rng.randint(8, 25)):
        driver.mutate()
        if driver.rng.random() < 0.4:
            driver.check(f"seed={seed} step={step}")
    driver.check(f"seed={seed} final")
    # The whole point: at least one solve after warm-up reused cached work.
    stats = driver.solver.stats
    assert stats.full_solves == 1
    assert stats.incremental_solves + stats.noop_solves >= 1


def test_incremental_solver_reuses_untouched_components():
    solver = IncrementalMaxMinSolver()
    for g in range(4):
        solver.set_capacity(f"g{g}|fwd", Gbps(100))
        for i in range(3):
            solver.set_flow(FlowDemand(f"g{g}-f{i}", (f"g{g}|fwd",),
                                       demand=Gbps(80)))
    solver.solve()
    solver.stats.reset()
    solver.set_flow_params("g0-f0", demand=Gbps(10))
    solver.solve()
    assert solver.stats.incremental_solves == 1
    assert solver.stats.component_solves == 1
    assert solver.stats.flows_resolved == 3    # only group 0
    assert solver.stats.flows_reused == 9      # groups 1..3 cached
    # And a clean solve is free.
    solver.solve()
    assert solver.stats.noop_solves == 1


# ---------------------------------------------------------------------------
# Batching: k mutations inside network.batch() -> exactly one solve.
# ---------------------------------------------------------------------------


class TestBatching:
    def test_batch_of_adds_solves_once(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        before_solves = net.solver_stats.solve_calls
        before_recomputes = net.recompute_count
        with net.batch():
            for _ in range(7):
                net.start_transfer("t", p)
        assert net.solver_stats.solve_calls == before_solves + 1
        assert net.recompute_count == before_recomputes + 1
        assert len(net.active_flows()) == 7

    def test_batch_mixed_mutations_solve_once(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        flows = [net.start_transfer("t", p) for _ in range(3)]
        before = net.recompute_count
        with net.batch():
            net.cancel_flow(flows[0].flow_id)
            net.set_tenant_link_cap("t", p.links[0], Gbps(5))
            net.set_tenant_weight("t", 2.0)
            net.start_transfer("u", p)
        assert net.recompute_count == before + 1

    def test_batch_is_nestable(self, minimal_net):
        net = minimal_net
        p = path_of(net, "nic0", "dimm0-0")
        before = net.recompute_count
        with net.batch():
            net.start_transfer("t", p)
            with net.batch():
                net.start_transfer("t", p)
            # inner exit must not solve while the outer batch is open
            assert net.recompute_count == before
        assert net.recompute_count == before + 1

    def test_empty_batch_costs_nothing(self, minimal_net):
        net = minimal_net
        before = net.recompute_count
        with net.batch():
            pass
        assert net.recompute_count == before

    def test_batched_rates_match_unbatched(self):
        def run(batched):
            net = FabricNetwork(minimal_host(), Engine())
            p = shortest_path(net.topology, "nic0", "dimm0-0")
            if batched:
                with net.batch():
                    for i in range(5):
                        net.start_transfer("t", p, demand=Gbps(10 * (i + 1)),
                                           flow_id=f"f{i}")
            else:
                for i in range(5):
                    net.start_transfer("t", p, demand=Gbps(10 * (i + 1)),
                                       flow_id=f"f{i}")
            return {f.flow_id: f.current_rate for f in net.active_flows()}

        assert run(batched=True) == run(batched=False)


# ---------------------------------------------------------------------------
# Coalescing: N same-instant events -> one engine-timestamp-deferred solve.
# ---------------------------------------------------------------------------


class TestCoalescing:
    def _coalescing_net(self):
        engine = Engine()
        return FabricNetwork(minimal_host(), engine,
                             coalesce_recompute=True), engine

    def test_same_instant_events_cost_one_solve(self):
        net, engine = self._coalescing_net()
        p = path_of(net, "nic0", "dimm0-0")
        for _ in range(6):
            engine.schedule_at(0.1, lambda: net.start_transfer("t", p))
        engine.run_until(0.2)
        assert len(net.active_flows()) == 6
        assert net.recompute_count == 1

    def test_rate_query_flushes_pending_solve(self):
        net, engine = self._coalescing_net()
        p = path_of(net, "nic0", "dimm0-0")
        flow = net.start_transfer("t", p)
        # The solve is deferred, but observing a rate must not see stale 0s.
        assert net.link_rate(p.links[0]) > 0
        assert flow.current_rate > 0
        assert net.recompute_count == 1
        engine.run_until(0.1)
        assert net.recompute_count == 1  # the queued event was cancelled

    def test_coalesced_rates_match_eager(self):
        def run(coalesce):
            engine = Engine()
            net = FabricNetwork(minimal_host(), engine,
                                coalesce_recompute=coalesce)
            p = shortest_path(net.topology, "nic0", "dimm0-0")
            for i in range(4):
                engine.schedule_at(
                    0.1, lambda i=i: net.start_transfer(
                        "t", p, demand=Gbps(20 * (i + 1)), flow_id=f"f{i}")
                )
            engine.run_until(0.2)
            return {f.flow_id: f.current_rate for f in net.active_flows()}

        assert run(coalesce=True) == run(coalesce=False)


# ---------------------------------------------------------------------------
# The arbiter path: periodic enforcement reuses unchanged components.
# ---------------------------------------------------------------------------


def test_managed_run_never_resolves_from_scratch():
    host = Host(cascade_lake_2s(), decision_latency=0.0)
    host.register_tenant("hog")
    from repro import pipe
    host.submit(pipe("kv", "kv-tenant", src="nic0", dst="dimm0-0",
                     bandwidth=Gbps(50), bidirectional=True))
    p = path_of(host.network, "nic0", "dimm0-0")
    host.network.start_transfer("hog", p)
    host.run_until(0.05)
    stats = host.network.solver_stats
    assert stats.solve_calls > 2
    assert stats.full_solves <= 1  # only the very first solve is joint


def test_arbiter_steady_state_is_cheap():
    """Arbiter periods that re-apply an unchanged schedule cost no work."""
    from repro import pipe

    host = Host(cascade_lake_2s(), decision_latency=0.0,
                arbiter_period=0.001)
    host.register_tenant("hog")
    host.submit(pipe("kv", "kv-tenant", src="nic0", dst="dimm0-0",
                     bandwidth=Gbps(50), bidirectional=True))
    p = path_of(host.network, "nic0", "dimm0-0")
    host.network.start_transfer("hog", p)
    host.run_until(0.01)           # let enforcement reach steady state
    stats = host.network.solver_stats
    resolved_before = stats.flows_resolved
    full_before = stats.full_solves
    host.run_until(0.03)           # 20 more arbiter periods, no churn
    # Re-applying the unchanged schedule recomputes no flow rate at all:
    # idempotent cap writes never dirty a component.
    assert stats.flows_resolved == resolved_before
    assert stats.full_solves == full_before


# ---------------------------------------------------------------------------
# Satellites: clamp parameter, directed_capacities, Host facade.
# ---------------------------------------------------------------------------


class TestLinkUtilizationsClamp:
    @staticmethod
    def _read_past_stale_cap(net):
        """Saturate a link, then halve its capacity behind the solver's
        back: the fabric's rates now run past the link's (stale) cap."""
        net.start_transfer("t", path_of(net, "nic0", "dimm0-0"))
        link_id = next(link_id for link_id, util
                       in net.link_utilizations(clamp=False).items()
                       if util == pytest.approx(1.0))
        link = net.topology.link(link_id)
        link.degraded_capacity = link.capacity / 2
        return link_id

    def test_clamped_by_default(self, minimal_net):
        link_id = self._read_past_stale_cap(minimal_net)
        assert minimal_net.link_utilizations()[link_id] == 1.0
        assert minimal_net.link_utilization(link_id) == 1.0

    def test_unclamped_shows_oversubscription(self, minimal_net):
        link_id = self._read_past_stale_cap(minimal_net)
        util = minimal_net.link_utilizations(clamp=False)
        assert util[link_id] == pytest.approx(2.0)

    def test_monitor_collector_is_unclamped(self, minimal_net):
        from repro.monitor import HostMonitor

        monitor = HostMonitor(minimal_net)
        assert monitor.collector.clamp_utilization is False


class TestDirectedCapacities:
    def test_both_directions_of_every_link(self):
        topology = minimal_host()
        directed = topology.directed_capacities()
        links = topology.links()
        assert len(directed) == 2 * len(links)
        for link in links:
            assert directed[f"{link.link_id}|fwd"] == link.effective_capacity
            assert directed[f"{link.link_id}|rev"] == link.effective_capacity

    def test_advertised_ignores_degradation(self):
        topology = minimal_host()
        link = topology.links()[0]
        link.degraded_capacity = link.capacity / 2
        directed = topology.directed_capacities()
        spec = topology.directed_capacities(advertised=True)
        assert directed[f"{link.link_id}|fwd"] == link.capacity / 2
        assert spec[f"{link.link_id}|fwd"] == link.capacity

    def test_matches_network_solver_view(self):
        net = FabricNetwork(minimal_host(), Engine())
        p = shortest_path(net.topology, "nic0", "dimm0-0")
        net.start_transfer("t", p)
        expected = max_min_fair_rates(
            [FlowDemand("t", net._directed_links[
                net.active_flows()[0].flow_id])],
            net.topology.directed_capacities(),
        )
        assert net.active_flows()[0].current_rate == pytest.approx(
            expected["t"]
        )


class TestHostFacade:
    def test_bundles_engine_network_manager(self):
        host = Host(minimal_host())
        assert host.network.engine is host.engine
        assert host.network.topology is host.topology
        assert host.manager.network is host.network
        assert host.is_managed

    def test_run_until_advances_time(self):
        host = Host(minimal_host())
        host.run_until(0.25)
        assert host.now == pytest.approx(0.25)

    def test_submit_and_release(self):
        from repro import pipe

        host = Host(minimal_host(), decision_latency=0.0)
        placement = host.submit(pipe("p", "t", src="nic0", dst="dimm0-0",
                                     bandwidth=Gbps(10)))
        assert placement in host.placements()
        host.release("p")
        assert host.placements() == []

    def test_unmanaged_host_has_no_manager(self):
        host = Host(minimal_host(), managed=False)
        assert not host.is_managed
        with pytest.raises(RuntimeError):
            _ = host.manager
        # the bare fabric still works
        p = path_of(host.network, "nic0", "dimm0-0")
        host.network.start_transfer("t", p, size=1e9)
        host.run()
        assert host.network.active_flows() == []

    def test_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            Host(minimal_host(), 0.5)  # positional config rejected

    def test_shutdown_lifts_caps(self):
        from repro import pipe

        host = Host(minimal_host(), decision_latency=0.0)
        host.submit(pipe("p", "t", src="nic0", dst="dimm0-0",
                         bandwidth=Gbps(10)))
        host.run_until(0.01)
        host.shutdown()
        assert host.network.active_flows() == []
