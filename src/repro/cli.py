"""Command-line interface: ``python -m repro <command>``.

Operator-style entry points over the simulated host, mirroring how the
paper's tooling would be driven in production:

* ``describe [--preset P]`` — print a preset's topology summary;
* ``ping SRC DST`` — hostping between two devices;
* ``trace SRC DST`` — hosttrace with per-hop latency attribution;
* ``trace SCENARIO`` — run a canned scenario with the
  :mod:`repro.trace` profiler enabled and write a Perfetto-loadable
  ``trace_event`` JSON (open it at ``ui.perfetto.dev``);
* ``perf SRC DST`` — hostperf achievable-bandwidth probe;
* ``drill [--failure ...]`` — inject a failure under load, run the
  monitor, print detection + localization + diagnosis;
* ``chaos run [--seed N --faults K]`` — seeded randomized fault campaign
  against a resilient host, audited by the invariant oracle (exit 1 on
  any violation);
* ``fleet run [--hosts N --policy P --seed S --clock C]`` — drive a
  multi-host fleet through a seeded churn workload under the cluster
  scheduler (``--clock event`` by default; ``lockstep`` for the
  reference discipline);
* ``fleet replay [--trace FILE --hosts N --policy P --compare]`` —
  replay a datacenter trace (Alibaba-style CSV/JSON, or a seeded
  synthesized one when no file is given) against the fleet and print a
  rejection/JCT/SLO report, optionally comparing every policy on
  byte-identical load and writing a machine-readable JSON report;
  ``--faults K`` injects a seeded host-fault schedule during the
  replay, turning the report into an SLO-under-failure study;
  ``--slo`` arms continuous latency probes and appends the burn-rate
  monitor's report;
* ``fleet slo [--hosts N --seed S --clock C]`` — the
  seeded latency-regression scenario: a host's links silently degrade
  under churn, the multi-window burn-rate alert names it, and the
  fleet live-migrates its sessions until attainment recovers (exit 1
  when the injected regression fails to produce a committed
  latency-driven migration);
* ``fleet chaos [--hosts N --seed S --fault-rate R]`` — seeded
  fleet-scale fault campaign (crashes, degrades, partitions) under
  churn with self-healing evacuation, audited by the fleet invariant
  oracle (exit 1 on any violation);
* ``fleet describe [--hosts N]`` — print a fresh fleet's layout;
* ``presets`` — list available host presets.

All commands run against a freshly built simulated host (optionally with
background load), so they work anywhere the library is installed.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from .diagnostics import hostperf, hostping, hosttrace, troubleshoot
from .errors import MonitorError, TopologyError
from .monitor import FailureInjector, HostMonitor
from .sim import Engine, FabricNetwork
from .topology import PRESETS, load_preset
from .units import us
from .workloads import KvStoreApp


def _build_network(preset: str, load: bool) -> FabricNetwork:
    network = FabricNetwork(load_preset(preset), Engine())
    if load:
        from .topology.elements import DeviceType

        nics = network.topology.devices(DeviceType.NIC)
        dimms = network.topology.devices(DeviceType.DIMM)
        if nics and dimms:
            app = KvStoreApp(network, "bg", nic=nics[0].device_id,
                             dimm=dimms[0].device_id, request_rate=10_000,
                             seed=0)
            app.start()
            network.engine.run_until(0.05)
    return network


def cmd_presets(_args: argparse.Namespace) -> int:
    """List the shipped host presets with their sizes."""
    for name in sorted(PRESETS):
        topo = load_preset(name)
        print(f"{name:<18} {len(topo.devices())} devices, "
              f"{len(topo.links())} links")
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    """Print the selected preset's topology summary or ASCII tree."""
    topology = load_preset(args.preset)
    if args.tree:
        from .topology.render import render_tree

        print(render_tree(topology))
    else:
        print(topology.describe())
    return 0


def cmd_ping(args: argparse.Namespace) -> int:
    """hostping between two devices on a fresh simulated host."""
    network = _build_network(args.preset, args.load)
    try:
        report = hostping(network, args.src, args.dst, count=args.count)
    except (MonitorError, TopologyError) as exc:
        print(f"ping: {exc}", file=sys.stderr)
        return 2
    print(report.describe())
    return 0


#: Canned workloads for ``trace SCENARIO`` (profiling-trace mode).
TRACE_SCENARIOS = ("quickstart", "churn")


def cmd_trace(args: argparse.Namespace) -> int:
    """Two modes sharing one verb, like ``perf trace``:

    * ``trace SRC DST`` — hosttrace per-hop latency attribution;
    * ``trace SCENARIO`` — record a profiling trace of the simulator
      itself while it runs a canned scenario.
    """
    if args.dst is not None:
        network = _build_network(args.preset, args.load)
        try:
            report = hosttrace(network, args.src, args.dst)
        except TopologyError as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 2
        print(report.describe())
        return 0
    if args.src not in TRACE_SCENARIOS:
        print(f"trace: {args.src!r} is neither 'SRC DST' devices nor a "
              f"scenario ({'/'.join(TRACE_SCENARIOS)})", file=sys.stderr)
        return 2
    # The churn scenario spawns transfers forever: an infinite run never
    # returns, and a NaN or negative one poisons the clock.
    if not 0 < args.sim_seconds < math.inf:
        print(f"trace: --sim-seconds must be finite and > 0, "
              f"got {args.sim_seconds}", file=sys.stderr)
        return 2
    return _cmd_trace_scenario(args)


def _cmd_trace_scenario(args: argparse.Namespace) -> int:
    """Run a scenario under the tracer; write Perfetto JSON + summaries."""
    from .host import Host
    from .monitor import HostMonitor
    from .topology.elements import DeviceType
    from .topology.routing import shortest_path
    from .trace import (
        TRACER,
        TraceConfig,
        flame_summary,
        profile,
        render_profile,
        stop_tracing,
        write_chrome_trace,
    )
    from .units import Gbps

    topology = load_preset(args.preset)
    nics = topology.devices(DeviceType.NIC)
    dimms = topology.devices(DeviceType.DIMM)
    if not nics or not dimms:
        print(f"preset {args.preset!r} lacks a NIC/DIMM pair to load",
              file=sys.stderr)
        return 1
    nic, dimm = nics[0].device_id, dimms[0].device_id

    TRACER.configure(TraceConfig())
    host = Host(topology, coalesce_recompute=True, decision_latency=0.0,
                trace=True)
    monitor = HostMonitor(host.network)
    monitor.start()
    try:
        from .workloads import KvStoreApp, RdmaLoopbackApp

        if args.src == "quickstart":
            # The README walkthrough: a KV store, a loopback aggressor,
            # and the intent that protects the former from the latter.
            KvStoreApp(host.network, "kv-tenant", nic=nic, dimm=dimm,
                       request_rate=20_000, seed=1).start()
            RdmaLoopbackApp(host.network, "loopback-tenant",
                            nic=nic, dimm=dimm).start()
            host.register_tenant("loopback-tenant")
            host.submit(pipe_intent("kv-guarantee", "kv-tenant",
                                    nic, dimm, Gbps(100)))
        else:  # churn: short finite transfers arriving every millisecond
            path = shortest_path(topology, nic, dimm)
            host.submit(pipe_intent("churn-floor", "churn-tenant",
                                    nic, dimm, Gbps(50)))

            def spawn() -> None:
                host.network.start_transfer(
                    "churn-tenant", path, size=500_000.0,
                    demand=Gbps(80), tags={"app": "churn"},
                )

            host.engine.schedule_every(0.001, spawn, label="churn-spawn",
                                       first_delay=0.0)
        host.run_until(args.sim_seconds)
        monitor.check()
    finally:
        stop_tracing()
        monitor.stop()
        host.shutdown()

    out = args.out or f"trace-{args.src}.json"
    events = write_chrome_trace(TRACER, out)
    categories = ", ".join(sorted(TRACER.categories()))
    print(f"recorded {len(TRACER)} records ({events} trace events) "
          f"over {args.sim_seconds}s simulated; categories: {categories}")
    print(f"wrote {out} — open it at https://ui.perfetto.dev")
    print()
    print(flame_summary(TRACER))
    print()
    print(render_profile(profile(TRACER)))
    return 0


def pipe_intent(intent_id: str, tenant: str, src: str, dst: str,
                bandwidth: float):
    """A bidirectional pipe intent (tiny helper for the scenarios)."""
    from .core import pipe

    return pipe(intent_id, tenant, src=src, dst=dst, bandwidth=bandwidth,
                bidirectional=True)


def cmd_perf(args: argparse.Namespace) -> int:
    """hostperf achievable-bandwidth probe."""
    network = _build_network(args.preset, args.load)
    try:
        report = hostperf(network, args.src, args.dst,
                          duration=args.duration)
    except (MonitorError, TopologyError) as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 2
    print(report.describe())
    return 0


def cmd_drill(args: argparse.Namespace) -> int:
    """Inject a failure under load; print detection, localization, and
    the automated diagnosis."""
    network = _build_network(args.preset, load=True)
    monitor = HostMonitor(network)
    monitor.start()
    network.engine.run_until(network.engine.now + 0.05)
    monitor.record_baseline()

    injector = FailureInjector(network)
    if args.failure == "switch":
        from .topology.elements import DeviceType

        switches = network.topology.devices(DeviceType.PCIE_SWITCH)
        if not switches:
            print("preset has no PCIe switch to fail", file=sys.stderr)
            return 1
        failure = injector.degrade_switch(switches[0].device_id,
                                          capacity_factor=0.1,
                                          extra_latency=us(5))
    elif args.failure == "link-down":
        link = network.topology.links()[0]
        failure = injector.fail_link(link.link_id)
    else:
        link = network.topology.links()[0]
        failure = injector.degrade_link(link.link_id, capacity_factor=0.1,
                                        extra_latency=us(5))
    print(f"[injected] {failure.kind.value} on {failure.target}")

    network.engine.run_until(network.engine.now + 0.1)
    report = monitor.check()
    print(report.describe())
    suspect = report.top_link_suspect()
    if suspect is not None:
        link = network.topology.link(suspect.element_id)
        diagnosis = troubleshoot(network, link.src, link.dst)
        print(diagnosis.describe())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos run``: a seeded fault campaign with the invariant oracle.

    Exit code 0 when every invariant held and the fabric restored
    bit-exact; 1 when the campaign found violations; 2 on bad arguments.
    """
    if args.faults < 1:
        print(f"chaos: --faults must be >= 1, got {args.faults}",
              file=sys.stderr)
        return 2
    if args.intents < 1:
        print(f"chaos: --intents must be >= 1, got {args.intents}",
              file=sys.stderr)
        return 2
    from .resilience import ChaosConfig, run_campaign

    config = ChaosConfig(seed=args.seed, faults=args.faults,
                         workload_intents=args.intents)
    report = run_campaign(load_preset(args.preset), config)
    print(report.describe())
    if args.events:
        for event in report.events:
            print(f"  {event.time:.6f}s {event.kind:<7} "
                  f"{event.failure_kind} on {event.target}")
    return 0 if report.passed else 1


def _make_fleet(args: argparse.Namespace):
    """A Fleet from the shared ``fleet`` CLI options."""
    from .fleet import Fleet

    return Fleet(
        args.preset,
        hosts=args.hosts,
        policy=args.policy,
        max_attempts=args.max_attempts,
        rebalance_threshold=args.rebalance_threshold,
        clock=args.clock,
    )


def cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet run``: seeded churn against a multi-host cluster;
    ``fleet replay``: datacenter-trace replay with an SLO/JCT report;
    ``fleet slo``: the seeded latency-regression closed-loop scenario;
    ``fleet chaos``: seeded fault campaign with the fleet oracle;
    ``fleet describe``: print a fresh fleet's layout."""
    if args.hosts < 1:
        print(f"fleet: --hosts must be >= 1, got {args.hosts}",
              file=sys.stderr)
        return 2
    max_attempts = getattr(args, "max_attempts", None)
    if max_attempts is not None and max_attempts < 1:
        print(f"fleet: --max-attempts must be >= 1, got {max_attempts}",
              file=sys.stderr)
        return 2
    threshold = getattr(args, "rebalance_threshold", None)
    if threshold is not None and not threshold >= 0:
        print(f"fleet: --rebalance-threshold must be >= 0, got {threshold}",
              file=sys.stderr)
        return 2
    domains = getattr(args, "domains", None)
    if domains is not None and domains < 1:
        print(f"fleet: --domains must be >= 1, got {domains}",
              file=sys.stderr)
        return 2
    if args.fleet_command == "chaos":
        return _cmd_fleet_chaos(args)
    if args.fleet_command == "slo":
        return _cmd_fleet_slo(args)
    if args.fleet_command == "describe":
        fleet = _make_fleet(args)
        try:
            print(fleet.describe())
        finally:
            fleet.shutdown()
        return 0
    if args.fleet_command == "replay":
        return _cmd_fleet_replay(args)

    from .errors import FleetError
    from .fleet import FleetChurnConfig, run_churn

    try:
        config = FleetChurnConfig(seed=args.seed, horizon=args.horizon,
                                  arrival_rate=args.arrival_rate,
                                  drain=args.drain)
    except FleetError as exc:
        print(f"fleet run: {exc}", file=sys.stderr)
        return 2
    fleet = _make_fleet(args)
    try:
        report = run_churn(fleet, config)
        print(report.describe())
        print()
        print(fleet.describe())
    finally:
        fleet.shutdown()
    return 0


def _cmd_fleet_chaos(args: argparse.Namespace) -> int:
    """``fleet chaos``: one seeded fleet fault campaign, oracle-audited.

    ``--fault-rate`` is faults per simulated second; the schedule length
    is ``max(1, round(rate * horizon))``.  Exit 0 when the invariant
    oracle stayed green throughout, 1 on any violation, 2 on bad args.
    """
    # Both sizes the fault schedule before the config can check them.
    for flag, value in (("--fault-rate", args.fault_rate),
                        ("--horizon", args.horizon)):
        if not 0 < value < math.inf:
            print(f"fleet chaos: {flag} must be finite and > 0, "
                  f"got {value}", file=sys.stderr)
            return 2
    from .errors import FleetError
    from .fleet import FleetChaosConfig, run_fleet_campaign

    faults = max(1, round(args.fault_rate * args.horizon))
    try:
        config = FleetChaosConfig(
            seed=args.seed, hosts=args.hosts, topology=args.preset,
            policy=args.policy, clock=args.clock,
            failure_domains=args.domains, horizon=args.horizon,
            faults=faults,
        )
    except FleetError as exc:
        print(f"fleet chaos: {exc}", file=sys.stderr)
        return 2
    report = run_fleet_campaign(config)
    print(report.describe())
    if args.report is not None:
        import json

        payload = dict(report.outcome_dict(), clock=args.clock,
                       hosts=args.hosts, passed=report.passed)
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.report}")
    return 0 if report.passed else 1


def _cmd_fleet_slo(args: argparse.Namespace) -> int:
    """``fleet slo``: one seeded latency-regression run, closed loop.

    Exit 0 when the loop closed (or no regression was injected), 1 when
    an injected regression produced no committed latency-driven
    migration, 2 on bad arguments.
    """
    from .errors import SloError
    from .slo import LatencyRegressionConfig, run_latency_regression
    from .units import us

    try:
        config = LatencyRegressionConfig(
            seed=args.seed, hosts=args.hosts, horizon=args.horizon,
            arrival_rate=args.arrival_rate, bound=us(args.bound),
            probe_period=args.probe_period,
            sample_stride=args.sample_stride,
            degrade_at=args.degrade_at,
            degrade_factor=args.degrade_factor,
            restore_at=args.restore_at, max_moves=args.max_moves)
    except SloError as exc:
        print(f"fleet slo: {exc}", file=sys.stderr)
        return 2
    report = run_latency_regression(config, clock=args.clock)
    print(report.describe())
    injected = args.degrade_factor < 1.0
    closed = report.first_migration_time is not None
    return 0 if (not injected or closed) else 1


def _fault_schedule(args: argparse.Namespace, horizon: float):
    """A seeded fault schedule over the replay fleet's host ids.

    Built from a standalone :class:`FleetHealth` (same ``hostNN`` naming
    the fleet uses), so ``--compare`` replays the identical storm
    against every policy's fresh fleet.
    """
    from .fleet import FleetFaultConfig, FleetHealth, generate_fault_schedule

    health = FleetHealth([f"host{i:02d}" for i in range(args.hosts)],
                         domains=args.domains)
    config = FleetFaultConfig(seed=args.seed, faults=args.faults,
                              horizon=horizon)
    return generate_fault_schedule(config, health)


def _cmd_fleet_replay(args: argparse.Namespace) -> int:
    """``fleet replay``: one trace, one (or every) policy, one report."""
    if args.faults < 0:
        print(f"fleet replay: --faults must be >= 0, got {args.faults}",
              file=sys.stderr)
        return 2
    from .workloads.cluster_traces import (
        IngestConfig,
        ReplayConfig,
        SynthTraceConfig,
        compare_policies,
        load_trace,
        replay_trace,
        synthesize_trace,
    )

    from .errors import WorkloadError
    from .slo import SloConfig
    from .units import us

    try:
        config = ReplayConfig(slo_stretch=args.slo_stretch,
                              retry=not args.no_retry,
                              samples=args.samples)
        synth = None if args.trace is not None else SynthTraceConfig(
            seed=args.seed, tasks=args.tasks, tenants=args.tenants,
            horizon=args.horizon,
        )
    except WorkloadError as exc:
        print(f"fleet replay: {exc}", file=sys.stderr)
        return 2
    try:
        slo = (SloConfig.default(bound=us(args.slo_bound))
               if args.slo else None)
    except ValueError as exc:  # SloObjective's own check
        print(f"fleet replay: --slo-bound: {exc}", file=sys.stderr)
        return 2
    if synth is None:
        try:
            trace = load_trace(
                args.trace,
                IngestConfig(time_scale=args.time_scale),
                fmt=args.format,
            )
        except (OSError, WorkloadError) as exc:
            print(f"fleet replay: cannot load {args.trace!r}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        trace = synthesize_trace(synth)
    print(trace.describe())

    schedule = None
    if args.faults > 0:
        if args.hosts < 2:
            print("fleet replay: --faults needs --hosts >= 2 (somewhere "
                  "to evacuate to)", file=sys.stderr)
            return 2
        schedule = _fault_schedule(args, trace.horizon)
        print()
        print(schedule.describe())
    if args.slo and args.compare:
        print("fleet replay: --slo reports on one fleet; it does not "
              "combine with --compare", file=sys.stderr)
        return 2
    if args.compare:
        from .fleet import PLACEMENT_POLICIES

        comparison = compare_policies(
            trace, sorted(PLACEMENT_POLICIES),
            topology=args.preset, hosts=args.hosts, clock=args.clock,
            max_attempts=args.max_attempts, config=config,
            faults=schedule,
            rebalance_threshold=args.rebalance_threshold,
            failure_domains=args.domains,
        )
        print()
        print(comparison.describe())
        payload = comparison.to_json()
    else:
        from .fleet import Fleet

        fleet = Fleet(args.preset, hosts=args.hosts, policy=args.policy,
                      clock=args.clock, max_attempts=args.max_attempts,
                      rebalance_threshold=args.rebalance_threshold,
                      failure_domains=args.domains, slo=slo)
        try:
            report = replay_trace(fleet, trace, config, faults=schedule)
            slo_text = (fleet.slo.describe()
                        if fleet.slo is not None else None)
        finally:
            fleet.shutdown()
        print()
        print(report.describe())
        if slo_text is not None:
            print()
            print(slo_text)
        payload = report.to_json()
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"\nwrote {args.report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="hostnet: manageable intra-host network tooling "
                    "(simulated)",
    )
    parser.add_argument("--preset", default="cascade_lake_2s",
                        choices=sorted(PRESETS), help="host preset")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("presets", help="list host presets")
    describe = sub.add_parser("describe", help="print the preset's topology")
    describe.add_argument("--tree", action="store_true",
                          help="render as an ASCII tree with link specs")

    for name, helptext in (("ping", "round-trip latency probe"),
                           ("trace", "per-hop latency breakdown (SRC DST) "
                                     "or profile a scenario (quickstart|"
                                     "churn) into Perfetto JSON"),
                           ("perf", "achievable bandwidth probe")):
        p = sub.add_parser(name, help=helptext)
        if name == "trace":
            p.add_argument("src", help="source device (with DST), "
                                       "or a scenario name")
            p.add_argument("dst", nargs="?")
        else:
            p.add_argument("src")
            p.add_argument("dst")
        p.add_argument("--load", action="store_true",
                       help="add background KV load first")
        if name == "ping":
            p.add_argument("--count", type=int, default=8)
        if name == "perf":
            p.add_argument("--duration", type=float, default=0.05)
        if name == "trace":
            p.add_argument("--out", default=None,
                           help="profiling-trace output path "
                                "(default trace-<scenario>.json)")
            p.add_argument("--sim-seconds", type=float, default=0.15,
                           help="simulated seconds to run the scenario")

    drill = sub.add_parser("drill", help="failure-injection drill")
    drill.add_argument("--failure", default="switch",
                       choices=["switch", "link-degrade", "link-down"])

    chaos = sub.add_parser("chaos", help="chaos campaign harness")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run", help="run one seeded fault campaign with invariant checks"
    )
    chaos_run.add_argument("--seed", type=int, default=0,
                           help="campaign seed (fully deterministic)")
    chaos_run.add_argument("--faults", type=int, default=20,
                           help="number of failures to inject")
    chaos_run.add_argument("--intents", type=int, default=6,
                           help="base workload size")
    chaos_run.add_argument("--events", action="store_true",
                           help="print the full inject/repair timeline")

    from .fleet import FLEET_CLOCKS, PLACEMENT_POLICIES

    fleet = sub.add_parser("fleet", help="multi-host cluster layer")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run", help="seeded churn workload under the cluster scheduler"
    )
    fleet_replay = fleet_sub.add_parser(
        "replay", help="replay a datacenter trace (or a synthesized "
                       "one) with an SLO/JCT report"
    )
    fleet_slo = fleet_sub.add_parser(
        "slo", help="seeded latency-regression scenario: burn-rate "
                    "alert names the silently degraded host, the fleet "
                    "migrates its sessions away, attainment recovers"
    )
    fleet_chaos = fleet_sub.add_parser(
        "chaos", help="seeded fleet fault campaign (crashes/degrades/"
                      "partitions) under churn, audited by the fleet "
                      "invariant oracle"
    )
    fleet_describe = fleet_sub.add_parser(
        "describe", help="print a fresh fleet's layout"
    )
    for p in (fleet_run, fleet_replay, fleet_chaos, fleet_describe):
        p.add_argument("--hosts", type=int,
                       default=8 if p is fleet_chaos else 4,
                       help="number of hosts in the fleet")
        p.add_argument("--policy", default="best-fit",
                       type=lambda s: s.replace("_", "-"),
                       choices=sorted(PLACEMENT_POLICIES),
                       help="placement policy (underscore spellings "
                            "accepted)")
        p.add_argument("--clock", default="event",
                       choices=sorted(FLEET_CLOCKS),
                       help="fleet clock discipline: 'event' wakes only "
                            "hosts with pending work (fast, default); "
                            "'lockstep' advances every host each quantum "
                            "(reference)")
    for p in (fleet_run, fleet_replay, fleet_describe):
        p.add_argument("--rebalance-threshold", type=float, default=None,
                       help="peak-reserved skew that triggers a rebalance "
                            "move (default: disabled)")
    for p in (fleet_run, fleet_describe):
        p.add_argument("--max-attempts", type=int, default=None,
                       help="per-intent host-probe bound (default: all)")
    fleet_run.add_argument("--seed", type=int, default=0,
                           help="workload seed (fully deterministic)")
    fleet_run.add_argument("--horizon", type=float, default=0.25,
                           help="simulated seconds of churn")
    fleet_run.add_argument("--arrival-rate", type=float, default=2000.0,
                           help="intent arrivals per simulated second")
    fleet_run.add_argument("--drain", action="store_true",
                           help="release every live session at horizon "
                                "end (un-truncated utilization stats)")
    # Replay bounds probing by default: at fleet scale the *ranking*
    # should decide placement, not an O(hosts) probe sweep per reject.
    fleet_replay.add_argument("--max-attempts", type=int, default=8,
                              help="per-intent host-probe bound "
                                   "(default: 8)")
    fleet_replay.add_argument("--trace", default=None,
                              help="trace file (Alibaba-style CSV, raw "
                                   "JSON rows, or a serialized "
                                   "ClusterTrace); omit to synthesize")
    fleet_replay.add_argument("--format", default="auto",
                              choices=["auto", "csv", "json"],
                              help="trace file format (default: by "
                                   "extension)")
    fleet_replay.add_argument("--time-scale", type=float, default=1.0,
                              help="compress ingested timestamps by this "
                                   "factor (real traces span hours)")
    fleet_replay.add_argument("--seed", type=int, default=0,
                              help="synthesizer seed (fully "
                                   "deterministic)")
    fleet_replay.add_argument("--tasks", type=int, default=10_000,
                              help="synthesized task count")
    fleet_replay.add_argument("--tenants", type=int, default=128,
                              help="synthesized tenant pool size")
    fleet_replay.add_argument("--horizon", type=float, default=20.0,
                              help="synthesized arrival horizon "
                                   "(simulated seconds)")
    fleet_replay.add_argument("--slo-stretch", type=float, default=1.5,
                              help="SLO bound as a multiple of task "
                                   "duration (default: 1.5)")
    fleet_replay.add_argument("--no-retry", action="store_true",
                              help="make every first rejection final")
    fleet_replay.add_argument("--samples", type=int, default=32,
                              help="host-utilization sampling points")
    fleet_replay.add_argument("--compare", action="store_true",
                              help="replay once per policy on "
                                   "byte-identical load and print the "
                                   "comparison table")
    fleet_replay.add_argument("--faults", type=int, default=0,
                              help="inject this many seeded host faults "
                                   "over the trace horizon (0 = none); "
                                   "with --compare every policy endures "
                                   "the identical storm")
    fleet_replay.add_argument("--domains", type=int, default=1,
                              help="failure domains to spread hosts over")
    fleet_replay.add_argument("--slo", action="store_true",
                              help="arm continuous latency probes and "
                                   "append the burn-rate monitor's "
                                   "report")
    fleet_replay.add_argument("--slo-bound", type=float, default=200.0,
                              metavar="US",
                              help="probe latency bound in microseconds "
                                   "(with --slo; default: 200)")
    fleet_replay.add_argument("--report", default=None,
                              help="write the machine-readable JSON "
                                   "report here")

    fleet_slo.add_argument("--hosts", type=int, default=4,
                           help="number of hosts in the fleet")
    fleet_slo.add_argument("--clock", default="event",
                           choices=sorted(FLEET_CLOCKS),
                           help="fleet clock discipline (bit-identical "
                                "outcome either way)")
    fleet_slo.add_argument("--seed", type=int, default=0,
                           help="churn seed (fully deterministic)")
    fleet_slo.add_argument("--horizon", type=float, default=0.12,
                           help="simulated seconds")
    fleet_slo.add_argument("--arrival-rate", type=float, default=2000.0,
                           help="intent arrivals per simulated second")
    fleet_slo.add_argument("--bound", type=float, default=200.0,
                           metavar="US",
                           help="objective latency bound in microseconds")
    fleet_slo.add_argument("--probe-period", type=float, default=0.002,
                           help="seconds between probe sweeps")
    fleet_slo.add_argument("--sample-stride", type=int, default=1,
                           help="sample every k-th placement per sweep")
    fleet_slo.add_argument("--degrade-at", type=float, default=0.04,
                           help="when the target host's links silently "
                                "degrade")
    fleet_slo.add_argument("--degrade-factor", type=float, default=0.05,
                           help="remaining capacity fraction (1.0 "
                                "injects no regression)")
    fleet_slo.add_argument("--restore-at", type=float, default=None,
                           help="optional repair instant")
    fleet_slo.add_argument("--max-moves", type=int, default=4,
                           help="migration budget per alert")

    fleet_chaos.add_argument("--seed", type=int, default=0,
                             help="campaign seed (fully deterministic)")
    fleet_chaos.add_argument("--fault-rate", type=float, default=40.0,
                             help="fault injections per simulated second "
                                  "(schedule length = rate * horizon)")
    fleet_chaos.add_argument("--horizon", type=float, default=0.3,
                             help="simulated seconds of churn")
    fleet_chaos.add_argument("--domains", type=int, default=4,
                             help="failure domains to spread hosts over")
    fleet_chaos.add_argument("--report", default=None,
                             help="write the machine-readable JSON "
                                  "outcome here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "presets": cmd_presets,
        "describe": cmd_describe,
        "ping": cmd_ping,
        "trace": cmd_trace,
        "perf": cmd_perf,
        "drill": cmd_drill,
        "chaos": cmd_chaos,
        "fleet": cmd_fleet,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
