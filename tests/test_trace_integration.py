"""Tracing wired through the live stack: hooks, Host surface, staleness."""

from __future__ import annotations

import math

from repro import Gbps, Host, HostMonitor, cascade_lake_2s, pipe
from repro.topology import minimal_host, shortest_path
from repro.trace import TRACER, TraceConfig, stop_tracing
from repro.workloads import KvStoreApp, RdmaLoopbackApp


def _traced_managed_run(sim_seconds: float = 0.05) -> Host:
    host = Host(cascade_lake_2s(), decision_latency=0.0,
                coalesce_recompute=True, trace=True)
    monitor = HostMonitor(host.network)
    monitor.start()
    KvStoreApp(host.network, "kv", nic="nic0", dimm="dimm0-0",
               request_rate=5_000, seed=1).start()
    RdmaLoopbackApp(host.network, "hog", nic="nic0", dimm="dimm0-0").start()
    host.submit(pipe("kv-floor", "kv", src="nic0", dst="dimm0-0",
                     bandwidth=Gbps(80), bidirectional=True))
    host.run_until(sim_seconds)
    monitor.check()
    monitor.stop()
    host.shutdown()
    stop_tracing()
    return host


class TestInstrumentationHooks:
    def test_managed_run_covers_every_layer(self):
        host = _traced_managed_run()
        categories = TRACER.categories()
        # The acceptance bar: spans from >= 4 distinct categories.
        assert {"engine", "solver", "arbiter", "monitor"} <= categories
        assert {"network", "manager", "telemetry"} <= categories
        assert host.tracer is TRACER

    def test_engine_spans_carry_sim_time_and_queue_counter(self):
        _traced_managed_run()
        engine_spans = [s for s in TRACER.spans() if s.category == "engine"]
        assert engine_spans
        assert all("t" in (s.args or {}) for s in engine_spans)
        tracks = {c.track for c in TRACER.counters()}
        assert "engine.queue_depth" in tracks
        assert "network.active_flows" in tracks

    def test_solver_spans_tag_dirty_counts(self):
        _traced_managed_run()
        solves = [s for s in TRACER.spans()
                  if s.category == "solver" and s.name == "solve"]
        assert solves
        for span in solves:
            assert {"flows", "dirty_flows", "dirty_constraints",
                    "kind"} <= set(span.args)
        kinds = {s.args["kind"] for s in solves}
        assert "full" in kinds  # the first solve of the session
        incrementals = [s for s in solves if s.args["kind"] == "incremental"]
        assert incrementals, "churny run must exercise incremental solves"
        assert all("components" in s.args for s in incrementals)

    def test_arbiter_and_manager_spans_tagged(self):
        _traced_managed_run()
        spans = TRACER.spans()
        adjusts = [s for s in spans
                   if s.category == "arbiter" and s.name == "adjust"]
        enforces = [s for s in spans
                    if s.category == "arbiter" and s.name == "enforce"]
        admits = [s for s in spans
                  if s.category == "manager" and s.name == "admit"]
        assert adjusts and enforces and admits
        assert admits[0].args["tenant"] == "kv"
        assert admits[0].args["outcome"] == "admitted"
        assert enforces[0].args["caps"] > 0

    def test_monitor_probe_round_spans(self):
        _traced_managed_run()
        rounds = [s for s in TRACER.spans()
                  if s.category == "monitor" and s.name == "probe_round"]
        assert rounds
        assert all(s.args["pairs"] >= 2 for s in rounds)

    def test_batch_flush_instants(self):
        _traced_managed_run()
        # Managed runs flush every coalesced solve via rate queries before
        # the deferred event fires, so only batch_flush shows up here; the
        # coalesced path is covered below.
        names = {i.name for i in TRACER.instants()}
        assert "batch_flush" in names

    def test_coalesced_flush_instant_fires_without_queries(self):
        host = Host(minimal_host(), managed=False,
                    coalesce_recompute=True, trace=True)
        path = shortest_path(host.topology, "nic0", "dimm0-0")
        host.network.start_transfer("t", path, demand=Gbps(10))
        # No rate query intervenes, so the deferred solve runs as the
        # scheduled coalesced event and emits its instant.
        host.run_until(0.01)
        stop_tracing()
        names = {i.name for i in TRACER.instants()}
        assert "coalesced_flush" in names

    def test_trace_config_category_filter_end_to_end(self):
        host = Host(minimal_host(), managed=False,
                    trace=TraceConfig(categories={"solver"}))
        path = shortest_path(host.topology, "nic0", "dimm0-0")
        host.network.start_transfer("t", path, demand=Gbps(10))
        host.run_until(0.01)
        stop_tracing()
        assert TRACER.categories() == {"solver"}

    def test_untraced_run_records_nothing(self):
        host = Host(minimal_host(), managed=False)
        path = shortest_path(host.topology, "nic0", "dimm0-0")
        host.network.start_transfer("t", path, demand=Gbps(10))
        host.run_until(0.01)
        assert len(TRACER) == 0
        assert host.tracer is None


class TestHostSurface:
    def test_solver_stats_passthrough(self):
        host = Host(minimal_host(), managed=False)
        path = shortest_path(host.topology, "nic0", "dimm0-0")
        host.network.start_transfer("t", path, demand=Gbps(10))
        assert host.solver_stats is host.network.solver_stats
        assert host.solver_stats.solve_calls >= 1

    def test_recompute_count_passthrough(self):
        host = Host(minimal_host(), managed=False)
        path = shortest_path(host.topology, "nic0", "dimm0-0")
        before = host.recompute_count
        host.network.start_transfer("t", path, demand=Gbps(10))
        assert host.recompute_count == host.network.recompute_count
        assert host.recompute_count > before

    def test_repr_managed(self):
        host = Host(minimal_host())
        host.submit(pipe("p", "tenant", src="nic0", dst="dimm0-0",
                         bandwidth=Gbps(10)))
        text = repr(host)
        assert text.startswith("Host(")
        assert "tenants=1" in text and "intents=1" in text
        assert "recomputes=" in text

    def test_repr_unmanaged_and_traced(self):
        host = Host(minimal_host(), managed=False, trace=True)
        stop_tracing()
        text = repr(host)
        assert "unmanaged" in text and "traced" in text


class TestLinkUtilizationsStaleness:
    """Regression: bulk utilization queries must flush coalesced solves."""

    def test_coalesced_burst_never_yields_stale_utilizations(self):
        host = Host(minimal_host(), managed=False, coalesce_recompute=True)
        network = host.network
        path = shortest_path(host.topology, "nic0", "dimm0-0")
        # A same-instant burst of flow starts: the re-solve is deferred to
        # a coalesced engine event that has NOT run yet.
        for _ in range(5):
            network.start_transfer("t", path, demand=Gbps(50))
        utils = network.link_utilizations()
        loaded = [u for u in utils.values() if u > 0.0]
        assert loaded, (
            "bulk utilizations returned all-zero for an active burst — "
            "the coalesced re-solve was not flushed"
        )

    def test_matches_per_link_queries(self):
        host = Host(minimal_host(), managed=False, coalesce_recompute=True)
        network = host.network
        path = shortest_path(host.topology, "nic0", "dimm0-0")
        for _ in range(3):
            network.start_transfer("t", path, demand=Gbps(40))
        bulk = network.link_utilizations()
        for link in host.topology.links():
            assert bulk[link.link_id] == network.link_utilization(
                link.link_id)

    def test_unclamped_exposes_oversubscription(self):
        host = Host(minimal_host(), managed=False)
        network = host.network
        path = shortest_path(host.topology, "nic0", "dimm0-0")
        network.start_transfer("t", path, demand=Gbps(50))
        # Degrade a path link far below the flow's current rate, then ask
        # for utilizations before any rate query re-solves: the clamped
        # view saturates at 1.0, the unclamped view shows the overshoot.
        victim = path.links[0]
        network.topology.link(victim).degraded_capacity = Gbps(1)
        raw = network.link_utilizations(clamp=False)
        clamped = network.link_utilizations()
        assert clamped[victim] <= 1.0
        assert raw[victim] >= clamped[victim]
        assert all(not math.isnan(v) for v in raw.values())

    def test_zero_capacity_link_conventions(self):
        host = Host(minimal_host(), managed=False)
        network = host.network
        path = shortest_path(host.topology, "nic0", "dimm0-0")
        network.start_transfer("t", path, demand=Gbps(10))
        victim = path.links[0]
        network.degrade_link(victim, 0.0)
        utils = network.link_utilizations()
        # Fully-degraded link with flows mapped on it reads 1.0 (failed),
        # matching the stateless helper's convention.
        assert utils[victim] in (0.0, 1.0)
