"""Simulator performance: the cost of simulating a managed host.

Not a paper experiment — this measures the *reproduction's own* hot paths
with real repeated timing (pytest-benchmark's bread and butter), so
regressions in the solver, engine, or router show up in CI:

* max-min solve with 100 flows over the cascade topology;
* churn on 500 flows: incremental component re-solve vs from-scratch;
* discrete-event engine throughput (events/second);
* path enumeration on the DGX-like host;
* one full co-location second (KV + loopback + arbiter) of simulated time;
* tracing overhead: the ``repro.trace`` disabled fast path must cost
  <= 2% on engine dispatch vs an uninstrumented engine (CI-enforced),
  and enabled tracing is timed for the record.
"""

import gc
import heapq
import time

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from common import fresh_network

from repro.core import HostNetworkManager, pipe
from repro.sim import Engine, IncrementalMaxMinSolver
from repro.sim.bandwidth import FlowDemand, max_min_fair_rates
from repro.sim.rng import make_rng
from repro.topology import cascade_lake_2s, dgx_like, k_shortest_paths
from repro.units import Gbps
from repro.workloads import KvStoreApp, RdmaLoopbackApp


def _solver_instance(n_flows=100, seed=1):
    topology = cascade_lake_2s()
    link_ids = [l.link_id for l in topology.links()]
    capacities = topology.directed_capacities()
    rng = make_rng(seed, "perf")
    flows = []
    for i in range(n_flows):
        links = tuple(
            f"{rng.choice(link_ids)}|{rng.choice(['fwd', 'rev'])}"
            for _ in range(rng.randint(2, 5))
        )
        flows.append(FlowDemand(f"f{i}", links,
                                demand=Gbps(rng.uniform(1, 200))))
    return flows, capacities


def test_solver_100_flows(benchmark):
    flows, capacities = _solver_instance()
    rates = benchmark(max_min_fair_rates, flows, capacities)
    assert len(rates) == 100


def _large_instance(n_flows=1000, n_cons=200, seed=11):
    """1k flows over 200 shared constraints: one big connected component,
    far larger than any workload builds (the largest an experiment hands
    the solver is 67 flows).

    Demands sit well below fair share for many flows (units are arbitrary;
    only ratios matter to the solver), so freezing happens level by level
    across many water-filling rounds — the round count, not the flow
    count alone, is what the scalar core pays for.
    """
    rng = make_rng(seed, "large")
    cons = [f"c{i}" for i in range(n_cons)]
    capacities = {c: rng.uniform(50, 500) for c in cons}
    flows = []
    for i in range(n_flows):
        links = tuple(rng.sample(cons, rng.randint(1, 4)))
        demand = float("inf") if rng.random() < 0.5 else rng.uniform(1, 100)
        flows.append(FlowDemand(f"f{i}", links, demand=demand,
                                weight=rng.uniform(0.5, 4.0)))
    return flows, capacities


def _solve_large(flows, capacities):
    solver = IncrementalMaxMinSolver()
    for cid, cap in capacities.items():
        solver.set_capacity(cid, cap)
    for f in flows:
        solver.set_flow(f)
    return solver.solve()


def test_solver_1k_flows_scalar(benchmark):
    flows, capacities = _large_instance()
    rates = benchmark(_solve_large, flows, capacities)
    assert len(rates) == len(flows)


def _churn_instance(groups=50, flows_per_group=10, links_per_group=8, seed=7):
    """500 flows across 50 disjoint link groups.

    Tenants on a managed host cluster on their own device neighbourhoods
    (socket-local NIC<->DIMM paths), so the flow/constraint graph decomposes;
    disjoint groups model that, and are exactly what lets the incremental
    solver skip the other 49 components when one flow churns.
    """
    rng = make_rng(seed, "churn")
    capacities = {}
    flows = []
    for g in range(groups):
        group_links = [f"g{g}-l{j}|fwd" for j in range(links_per_group)]
        for link_id in group_links:
            capacities[link_id] = Gbps(100)
        for i in range(flows_per_group):
            links = tuple(rng.choice(group_links)
                          for _ in range(rng.randint(2, 4)))
            flows.append(FlowDemand(f"g{g}-f{i}", links,
                                    demand=Gbps(rng.uniform(1, 80))))
    return flows, capacities


def _loaded_incremental_solver(flows, capacities):
    solver = IncrementalMaxMinSolver()
    for cid, cap in capacities.items():
        solver.set_capacity(cid, cap)
    for f in flows:
        solver.set_flow(f)
    solver.solve()  # pay the initial full solve outside the timed region
    return solver


def test_churn_500_flows_incremental(benchmark):
    flows, capacities = _churn_instance()
    solver = _loaded_incremental_solver(flows, capacities)
    victim = flows[0]

    def churn_once():
        solver.remove_flow(victim.flow_id)
        solver.solve()
        solver.set_flow(victim)
        return solver.solve()

    rates = benchmark(churn_once)
    assert len(rates) == len(flows)
    assert solver.stats.full_solves == 1  # only the warm-up


def test_churn_500_flows_from_scratch(benchmark):
    flows, capacities = _churn_instance()
    without_victim = flows[1:]

    def churn_once():
        max_min_fair_rates(without_victim, capacities)
        return max_min_fair_rates(flows, capacities)

    rates = benchmark(churn_once)
    assert len(rates) == len(flows)


def test_churn_incremental_speedup():
    """CI-enforced floor: incremental churn beats from-scratch >= 3x."""
    flows, capacities = _churn_instance()
    solver = _loaded_incremental_solver(flows, capacities)
    victim = flows[0]
    without_victim = flows[1:]
    rounds = 30

    start = time.perf_counter()
    for _ in range(rounds):
        solver.remove_flow(victim.flow_id)
        solver.solve()
        solver.set_flow(victim)
        incremental_rates = solver.solve()
    incremental_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(rounds):
        max_min_fair_rates(without_victim, capacities)
        scratch_rates = max_min_fair_rates(flows, capacities)
    scratch_elapsed = time.perf_counter() - start

    for fid, rate in scratch_rates.items():
        assert abs(incremental_rates[fid] - rate) < 1e-6 * max(rate, 1.0)
    speedup = scratch_elapsed / incremental_elapsed
    assert speedup >= 3.0, (
        f"incremental churn only {speedup:.1f}x faster than from-scratch "
        f"({incremental_elapsed * 1e3 / rounds:.3f}ms vs "
        f"{scratch_elapsed * 1e3 / rounds:.3f}ms per churn)"
    )


def test_engine_event_throughput(benchmark):
    def run_10k_events():
        engine = Engine()
        state = {"count": 0}

        def tick():
            state["count"] += 1
            if state["count"] < 10_000:
                engine.schedule_in(1e-6, tick)

        engine.schedule_in(1e-6, tick)
        engine.run()
        return state["count"]

    count = benchmark(run_10k_events)
    assert count == 10_000


def test_path_enumeration_dgx(benchmark):
    topology = dgx_like()
    paths = benchmark(k_shortest_paths, topology, "gpu0", "dimm1-0", 6)
    assert paths


class _UninstrumentedEngine(Engine):
    """`Engine.step` with the tracing dispatch stripped out.

    The "no-tracer baseline" for the overhead contract: same heappop /
    cancelled-skip / clock-advance / live-event-accounting / dispatch
    sequence, minus the ``TRACER.enabled`` guard.  It keeps the
    ``_cancelled_in_queue`` and ``queued`` bookkeeping so the contract
    measures *tracing* overhead in isolation, not the (separately
    measured, ~0.4%) cost of O(1) ``pending_events()`` accounting.
    """

    def step(self):
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            event.queued = False
            self.clock.advance_to(event.time)
            self._events_processed += 1
            event.callback()
            return True
        return False


def _run_event_chain(engine, n_events):
    state = {"count": 0}

    def tick():
        state["count"] += 1
        if state["count"] < n_events:
            engine.schedule_in(1e-6, tick)

    engine.schedule_in(1e-6, tick)
    engine.run()
    assert state["count"] == n_events


def _sliced_overhead(n_events, slices):
    """One trial: CPU-time overhead of ``Engine`` over the baseline.

    Both engines run the same event chain in *slices* alternating slices
    (which side goes first alternates too), so CPU-frequency and
    allocator drift hit both sides equally, and each side's
    ``time.process_time`` is summed over its slices, so time the process
    spends descheduled counts for neither.
    """
    totals = {_UninstrumentedEngine: 0.0, Engine: 0.0}
    order = [_UninstrumentedEngine, Engine]
    gc.collect()
    for _ in range(slices):
        for factory in order:
            engine = factory()
            start = time.process_time()
            _run_event_chain(engine, n_events)
            totals[factory] += time.process_time() - start
        order.reverse()
    return totals[Engine] / totals[_UninstrumentedEngine] - 1.0


def test_tracing_disabled_overhead():
    """CI-enforced contract: tracing-disabled overhead <= 2%.

    The instrumented engine with the tracer disabled must stay within 2%
    of the uninstrumented baseline on pure event dispatch — the hottest
    instrumented path in the simulator.  Measured as
    ``bench_slo_overhead.py`` measures its contract: each trial times the
    two engines in interleaved slices of CPU time
    (:func:`_sliced_overhead`), and the bound applies to the lowest of
    three trials (noise only ever inflates a trial).
    """
    from repro.trace import TRACER

    assert not TRACER.enabled, "tracer must be disabled for this benchmark"
    # Short slices interleave finely: on a shared 2-core VM, trials of 24
    # slices of 5,000 events spread from -8% to +9%, trials of 600
    # slices of 200 events within about 1.5 points.
    n_events, slices = 200, 600
    _sliced_overhead(n_events, 20)  # warm both paths outside the trials
    overheads = [_sliced_overhead(n_events, slices) for _ in range(3)]
    best = min(overheads)
    assert best <= 0.02, (
        f"tracing-disabled dispatch is {best * 100:.2f}% slower than the "
        f"no-tracer baseline (trials: "
        f"{[f'{o * 100:.2f}%' for o in overheads]}, {slices} slices of "
        f"{n_events} events per side); the disabled fast path must stay "
        f"within 2%"
    )


def test_tracing_enabled_event_throughput(benchmark):
    """Dispatch throughput with tracing ON (for the perf trajectory).

    Not a contract — enabled tracing pays for span + counter recording on
    every event; this keeps its cost visible in BENCH_sim_performance.
    """
    from repro.trace import TRACER, TraceConfig, start_tracing, stop_tracing

    def run_10k_traced():
        start_tracing(TraceConfig(capacity=4096))
        try:
            _run_event_chain(Engine(), 10_000)
        finally:
            stop_tracing()
        return len(TRACER)

    records = benchmark(run_10k_traced)
    assert records == 4096  # ring stayed bounded while recording 20k+


def test_managed_colocation_second(benchmark):
    def simulate_one_second():
        network = fresh_network()
        manager = HostNetworkManager(network, decision_latency=0.0)
        manager.register_tenant("hog")
        manager.submit(pipe("kv-pipe", "kv", src="nic0", dst="dimm0-0",
                            bandwidth=Gbps(50), bidirectional=True))
        KvStoreApp(network, "kv", nic="nic0", dimm="dimm0-0",
                   request_rate=10_000, seed=1).start()
        RdmaLoopbackApp(network, "hog", nic="nic0", dimm="dimm0-0",
                        streams=4).start()
        network.engine.run_until(1.0)
        manager.shutdown()
        return network.engine.events_processed

    events = benchmark.pedantic(simulate_one_second, rounds=3, iterations=1)
    assert events > 10_000
