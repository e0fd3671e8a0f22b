"""Outside-in per-layer tracing: wrap each layer's public entry points.

The program is not changed.  :class:`LayerTracer` replaces the entry
points named in :data:`ENTRY_POINTS` with wrappers that count calls and
measure *self time* — time inside a wrapped call that no nested wrapped
call covers — per layer.  It also keeps every instance of the classes in
:data:`COUNTER_SOURCES`, whose public counters (solver stats, recompute
counts, arbiter rounds, scheduler probes, fault and recovery counters)
are summed into the per-layer metrics at the end of the run.

Code that runs under a wrapped call but belongs to no wrapped entry
point counts toward the caller's layer: scheduled callbacks run under
``Engine.step``, so their unwrapped code is engine self time.  Time in
no wrapped call at all is the driver's (the benchmark loop and the
entry point's own bookkeeping).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: layer -> (module, wrapped "Class.method" or function names).  A
#: method is also wrapped on every subclass in the same module that
#: overrides it.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("engine", "repro.sim.engine", ("Engine.step",)),
    ("solver", "repro.sim.solver", ("IncrementalMaxMinSolver.solve",)),
    ("fabric", "repro.sim.network", (
        "FabricNetwork.start_transfer", "FabricNetwork.set_tenant_link_cap",
        "FabricNetwork.link_rate", "FabricNetwork.tenant_link_rate",
        "FabricNetwork.link_utilizations")),
    ("latency", "repro.sim.latency", ("LatencyModel.path_latency",)),
    ("arbiter", "repro.core.arbiter", ("DynamicArbiter.adjust_once",)),
    ("manager", "repro.core.manager", (
        "HostNetworkManager.submit", "HostNetworkManager.try_submit",
        "HostNetworkManager.release", "HostNetworkManager.reinstate")),
    ("clock", "repro.fleet.clock", (
        "FleetClock.advance_to", "FleetClock.wake", "FleetClock.notify")),
    ("scheduler", "repro.fleet.scheduler", (
        "ClusterScheduler.try_submit", "ClusterScheduler.release")),
    ("telemetry", "repro.fleet.telemetry", (
        "FleetTelemetry.headroom", "FleetTelemetry.headrooms",
        "FleetTelemetry.matrix", "FleetTelemetry.invalidate")),
    ("migration", "repro.fleet.migration", (
        "MigrationPlanner.migrate", "MigrationPlanner.relieve_latency")),
    ("faults", "repro.fleet.faults", ("FleetFaultInjector.advance_to",)),
    ("invariants", "repro.fleet.invariants", ("check_fleet_invariants",)),
    ("slo", "repro.slo.monitor", (
        "FleetSloMonitor.ingest", "FleetSloMonitor.evaluate")),
)

LAYERS: Tuple[str, ...] = tuple(layer for layer, _m, _n in ENTRY_POINTS)

#: Classes whose instances' public counters feed the per-layer metrics.
COUNTER_SOURCES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.network", "FabricNetwork"),
    ("repro.sim.solver", "IncrementalMaxMinSolver"),
    ("repro.core.arbiter", "DynamicArbiter"),
    ("repro.core.manager", "HostNetworkManager"),
    ("repro.fleet.scheduler", "ClusterScheduler"),
    ("repro.fleet.faults", "FleetFaultInjector"),
    ("repro.fleet.recovery", "FleetRecoveryController"),
)


def _cap_calls_flowless(network, *_args, **_kwargs) -> int:
    return 0 if network.active_flows() else 1


def _samples_folded(_monitor, samples, *_args, **_kwargs) -> int:
    return len(samples)


#: Extra tallies taken from a wrapped call's arguments, before the call.
TALLIES: Dict[str, Tuple[str, Callable[..., int]]] = {
    "fabric.set_tenant_link_cap": ("fabric.cap_calls_flowless",
                                   _cap_calls_flowless),
    "slo.ingest": ("slo.samples", _samples_folded),
}

#: Faults the injector applied (its ``skipped`` count is left out).
FAULT_ACTIONS = ("crashes", "recoveries", "degrades", "restores",
                 "partitions", "heals")


class LayerTracer:
    """Counts and self times per layer, for one traced run.

    Args:
        meter: The pass's :class:`~workloads.Meter`; while its
            ``in_setup`` is set, wrapped calls pass straight through, so
            set-up stays out of the per-layer figures as it stays out of
            ``run_s``.  Self times are read from its clock, which leaves
            out the reference kernel's checkpoints.
    """

    def __init__(self, meter) -> None:
        self.meter = meter
        #: "layer.method" -> every call; "layer.method.outer" -> calls not
        #: nested inside another call of the same layer.
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.instances: Dict[str, List[object]] = defaultdict(list)
        # One frame per active wrapped call: [layer, time covered by
        # nested wrapped calls].
        self._stack: List[list] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point and instance constructor (for the rest
        of this process: a traced pass runs in a process of its own)."""
        for layer, module_name, names in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            for name in names:
                if "." in name:
                    class_name, method = name.split(".")
                    base = getattr(module, class_name)
                    classes = {cls for cls in vars(module).values()
                               if isinstance(cls, type)
                               and issubclass(cls, base)
                               and method in vars(cls)}
                    for cls in sorted(classes, key=lambda c: c.__name__):
                        setattr(cls, method, self._wrap(
                            layer, method, vars(cls)[method]))
                else:
                    original = getattr(module, name)
                    wrapped = self._wrap(layer, name, original)
                    # Modules that imported the function by name hold
                    # their own reference; replace every one of them.
                    for other_name, other in list(sys.modules.items()):
                        if (other_name.split(".")[0] == "repro"
                                and getattr(other, name, None) is original):
                            setattr(other, name, wrapped)
        for module_name, class_name in COUNTER_SOURCES:
            cls = getattr(importlib.import_module(module_name), class_name)
            cls.__init__ = self._register(class_name, cls.__init__)

    def _register(self, class_name: str, init):
        instances = self.instances[class_name]

        @functools.wraps(init)
        def register(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)
        return register

    def _wrap(self, layer: str, method: str, fn):
        key = f"{layer}.{method}"
        outer_key = f"{key}.outer"
        tally = TALLIES.get(key)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        meter, clock = self.meter, self.meter.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if meter.in_setup:
                return fn(*args, **kwargs)
            calls[key] += 1
            if not stack or stack[-1][0] != layer:
                calls[outer_key] += 1
            if tally is not None:
                calls[tally[0]] += tally[1](*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
        return wrapper

    # -- results -----------------------------------------------------------

    def _sum(self, class_name: str, read: Callable[[object], float]) -> float:
        return sum(read(obj) for obj in self.instances[class_name])

    def counters(self) -> Dict[str, float]:
        """Every per-layer count and ratio (deterministic for a seed)."""
        calls = self.calls
        solves = calls["solver.solve"]
        resolved = self._sum("IncrementalMaxMinSolver",
                             lambda s: s.stats.flows_resolved)
        reused = self._sum("IncrementalMaxMinSolver",
                           lambda s: s.stats.flows_reused)
        rounds = self._sum("DynamicArbiter", lambda a: a.adjustments)
        skipped = self._sum("DynamicArbiter",
                            lambda a: a.skipped_adjustments)
        scheduler_submits = calls["scheduler.try_submit"]
        probes = self._sum("ClusterScheduler", lambda s: s.probe_count)
        faults = {kind: self._sum("FleetFaultInjector",
                                  lambda f, k=kind: f.counters()[k])
                  for kind in FAULT_ACTIONS}
        return {
            "engine.events": calls["engine.step"],
            "solver.solves": solves,
            "solver.component_solves": self._sum(
                "IncrementalMaxMinSolver",
                lambda s: s.stats.component_solves),
            "solver.flows_resolved": resolved,
            "solver.fills": self._sum(
                "IncrementalMaxMinSolver",
                lambda s: s.stats.scalar_fills + s.stats.array_fills),
            "solver.reuse_ratio": (reused / (reused + resolved)
                                   if reused + resolved else 0.0),
            "fabric.flows_started": calls["fabric.start_transfer"],
            "fabric.cap_calls": calls["fabric.set_tenant_link_cap"],
            "fabric.cap_calls_flowless": calls["fabric.cap_calls_flowless"],
            "fabric.recomputes": self._sum("FabricNetwork",
                                           lambda n: n.recompute_count),
            "fabric.rate_reads": (calls["fabric.link_rate"]
                                  + calls["fabric.tenant_link_rate"]
                                  + calls["fabric.link_utilizations"]),
            "latency.calls": calls["latency.path_latency"],
            "arbiter.rounds": rounds,
            "arbiter.skip_ratio": skipped / rounds if rounds else 0.0,
            "manager.submits": (calls["manager.submit.outer"]
                                + calls["manager.try_submit.outer"]),
            "manager.admits": self._sum(
                "HostNetworkManager", lambda m: m.admission.admitted_count),
            "manager.releases": calls["manager.release"],
            "clock.advances": calls["clock.advance_to.outer"],
            "clock.wakes": calls["clock.wake"],
            "scheduler.submits": scheduler_submits,
            "scheduler.probes_per_submit": (probes / scheduler_submits
                                            if scheduler_submits else 0.0),
            "telemetry.reads": (calls["telemetry.headroom"]
                                + calls["telemetry.headrooms"]
                                + calls["telemetry.matrix"]),
            "telemetry.invalidations": calls["telemetry.invalidate"],
            "migration.moves": calls["migration.migrate"],
            "faults.events": sum(faults.values()),
            "faults.crashes": faults["crashes"],
            "faults.degrades": faults["degrades"],
            "faults.partitions": faults["partitions"],
            "recovery.evacuated": self._sum(
                "FleetRecoveryController", lambda r: r.counters()["evacuated"]),
            "invariants.audits": calls["invariants.check_fleet_invariants"],
            "slo.samples": calls["slo.samples"],
            "slo.evaluations": calls["slo.evaluate"],
        }

    def self_times(self, run_s: float) -> Dict[str, float]:
        """``<layer>.self_s`` for every layer plus the driver's share."""
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0)
               for layer in LAYERS}
        out["driver.self_s"] = max(0.0, run_s - sum(out.values()))
        return out

