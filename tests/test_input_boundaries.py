"""Typed errors at public input boundaries: NaN, ±inf, negative, zero.

Every case below is a value that a constructor or CLI flag used to
accept (and then hang on, poison a clock with, or crash on with an
untyped error).  A library case must raise the module's typed error
from its constructor; a CLI case must exit 2 with a message naming the
bad value.  The arbiter's floor changes and the fabric's cap clears
must also raise before they change anything.  CLI cases call
``repro.cli.main`` in this process under a
time limit (a timer signal raises in the main thread), so a regression
that hangs fails the test instead of stalling the suite; one fleet and
one host case also run ``python -m repro`` in a fresh interpreter.
"""

import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Host, cascade_lake_2s, pipe
from repro.cli import main
from repro.core import DynamicArbiter
from repro.errors import (
    ArbiterError,
    ClockError,
    FleetError,
    ResilienceError,
    SimulationError,
    SloError,
    UnknownLinkError,
    WorkloadError,
)
from repro.fleet import (
    FleetChaosConfig,
    FleetChurnConfig,
    FleetFaultConfig,
    FleetRecoveryConfig,
    MigrationPlanner,
)
from repro.resilience import ChaosConfig, RecoveryConfig
from repro.sim import (
    Constraint,
    Engine,
    FabricNetwork,
    FlowDemand,
    IncrementalMaxMinSolver,
)
from repro.slo import LatencyRegressionConfig, SloConfig, SloObjective
from repro.units import Gbps, us
from repro.workloads.cluster_traces import (
    ClusterTask,
    IngestConfig,
    ReplayConfig,
    SynthTraceConfig,
    ingest_csv,
)
from repro.workloads.cluster_traces.schema import rebase_and_scale

from .test_cluster_traces import FIXTURE

NAN = math.nan
INF = math.inf
CLI_TIMEOUT_S = 60


def _host_run_until_nan():
    host = Host(cascade_lake_2s())
    try:
        host.run_until(NAN)
    finally:
        host.shutdown()


def _solver_set_capacity(value):
    IncrementalMaxMinSolver().set_capacity("a", value)


def _planner(rebalance_threshold):
    # The threshold is checked before the planner touches its fleet.
    MigrationPlanner(None, None, rebalance_threshold=rebalance_threshold)


def _ingest_row(start, end):
    # One bad row beside a good one: a NaN start used to pass the
    # end <= start filter, and rebasing then made every arrival NaN.
    ingest_csv("task_name,job_name,status,start_time,end_time,"
               "plan_cpu,plan_mem\n"
               f"t1,j1,Terminated,{start},{end},100,1\n"
               "t2,j1,Terminated,86400,86412,100,1\n")


def _host(**kwargs):
    Host(cascade_lake_2s(), **kwargs).shutdown()


def _schedule(method, value):
    # A NaN time used to be queued and fire with ``engine.now`` = nan.
    engine = Engine()
    engine.run_until(1.0)
    getattr(engine, method)(value, lambda: None)


def _schedule_every(**kwargs):
    Engine().schedule_every(kwargs.pop("period", 1e-3), lambda: None,
                            **kwargs)


def _reschedule(period):
    Engine().schedule_every(1e-3, lambda: None).reschedule(period)


_TASK = {"task_id": "t", "job_id": "j", "tenant_id": "u", "arrival": 0.0,
         "duration": 1.0, "bandwidth": Gbps(1)}


def _cases():
    rates = ("horizon", "arrival_rate", "mean_holding")
    for field in rates:
        for value in (NAN, INF, -5.0, 0.0):
            yield pytest.param(FleetChurnConfig, {field: value}, FleetError,
                               id=f"churn-{field}={value}")
    for field in rates:
        # A horizon <= 0 was already rejected.
        for value in ((NAN, INF) if field == "horizon"
                      else (NAN, INF, -5.0, 0.0)):
            yield pytest.param(FleetChaosConfig, {field: value}, FleetError,
                               id=f"chaos-{field}={value}")
    for field in rates:
        # The degrade-time check already rejected every other horizon.
        for value in ((INF,) if field == "horizon"
                      else (NAN, INF, -5.0, 0.0)):
            yield pytest.param(LatencyRegressionConfig, {field: value},
                               SloError, id=f"slo-scenario-{field}={value}")
    for value in (NAN, INF, -1.0, 0.0):
        yield pytest.param(SynthTraceConfig, {"horizon": value},
                           WorkloadError, id=f"synth-horizon={value}")
    for field in ("slo_stretch", "retry_backoff_fraction",
                  "retry_backoff_growth"):
        yield pytest.param(ReplayConfig, {field: NAN}, WorkloadError,
                           id=f"replay-{field}=nan")
    for value in (NAN, INF, -1.0):
        yield pytest.param(ReplayConfig, {"max_wait_fraction": value},
                           WorkloadError,
                           id=f"replay-max_wait_fraction={value}")
    yield pytest.param(SloObjective, {"name": "o", "bound": NAN},
                       ValueError, id="slo-objective-bound=nan")
    for value in (NAN, INF):
        yield pytest.param(SloObjective,
                           {"name": "o", "bound": us(100), "period": value},
                           ValueError, id=f"slo-objective-period={value}")
    for value in (NAN, INF):
        yield pytest.param(
            pipe, {"intent_id": "p", "tenant_id": "t", "src": "nic0",
                   "dst": "dimm0-0", "bandwidth": value},
            ValueError, id=f"pipe-bandwidth={value}")
    yield pytest.param(
        pipe, {"intent_id": "p", "tenant_id": "t", "src": "nic0",
               "dst": "dimm0-0", "bandwidth": Gbps(1), "latency_slo": NAN},
        ValueError, id="pipe-latency_slo=nan")
    yield pytest.param(_host_run_until_nan, {}, ClockError,
                       id="host-run_until=nan")
    # The solver's own boundary: a NaN demand used to be filled like an
    # elastic flow, and a NaN capacity failed only at the next solve.
    for value in (NAN, INF):
        yield pytest.param(FlowDemand, {"flow_id": "f", "links": ("a",),
                                        "weight": value},
                           ValueError, id=f"flow-demand-weight={value}")
    yield pytest.param(FlowDemand, {"flow_id": "f", "links": ("a",),
                                    "demand": NAN},
                       ValueError, id="flow-demand-demand=nan")
    yield pytest.param(Constraint, {"constraint_id": "c", "capacity": NAN},
                       ValueError, id="constraint-capacity=nan")
    yield pytest.param(_solver_set_capacity, {"value": NAN}, ValueError,
                       id="solver-set_capacity=nan")
    for value in (NAN, INF):
        yield pytest.param(SloConfig, {"probe_period": value}, SloError,
                           id=f"slo-config-probe_period={value}")
        yield pytest.param(LatencyRegressionConfig, {"probe_period": value},
                           SloError, id=f"slo-scenario-probe_period={value}")
    yield pytest.param(SloConfig, {"message_size": NAN}, SloError,
                       id="slo-config-message_size=nan")
    yield pytest.param(LatencyRegressionConfig, {"message_size": NAN},
                       SloError, id="slo-scenario-message_size=nan")
    yield pytest.param(LatencyRegressionConfig, {"restore_at": NAN},
                       SloError, id="slo-scenario-restore_at=nan")
    for field, value in (("tenants", 0), ("bound", NAN), ("bound", -1.0),
                         ("sample_stride", 0), ("degrade_factor", NAN),
                         ("degrade_factor", 0.0), ("degrade_factor", 2.0),
                         ("max_moves", -1)):
        yield pytest.param(LatencyRegressionConfig, {field: value},
                           SloError, id=f"slo-scenario-{field}={value}")
    for value in (NAN, INF):
        yield pytest.param(IngestConfig, {"time_scale": value},
                           WorkloadError, id=f"ingest-time_scale={value}")
        for field in ("time_scale", "bandwidth_scale"):
            yield pytest.param(rebase_and_scale, {"tasks": [], field: value},
                               WorkloadError,
                               id=f"rebase-{field}={value}")
    for value in (NAN, -1.0):
        yield pytest.param(_planner, {"rebalance_threshold": value},
                           FleetError,
                           id=f"planner-rebalance_threshold={value}")
    for value in (NAN, INF):
        yield pytest.param(FleetFaultConfig, {"horizon": value}, FleetError,
                           id=f"fault-horizon={value}")
    for field, value, name in (("degrade_factor", (NAN, 0.5), "nan,0.5"),
                               ("outage_fraction", (NAN, 0.3), "nan,0.3"),
                               ("crash_weight", NAN, "nan"),
                               ("crash_weight", -1.0, "-1.0")):
        yield pytest.param(FleetFaultConfig, {field: value}, FleetError,
                           id=f"fault-{field}={name}")
    yield pytest.param(FleetFaultConfig,
                       {"crash_weight": 0.0, "degrade_weight": 0.0,
                        "partition_weight": 0.0},
                       FleetError, id="fault-weights-all-zero")
    for field in ("retry_backoff", "backoff_growth", "retry_timeout"):
        yield pytest.param(FleetRecoveryConfig, {field: NAN}, FleetError,
                           id=f"recovery-{field}=nan")
    # Counts: these used to fail only inside the run (a FleetError from
    # the fleet or fault schedule, or an untyped ValueError from
    # ``randrange`` with no tenants).
    for field, value in (("failure_domains", 0), ("failure_domains", -2),
                         ("faults", -1), ("max_attempts", 0),
                         ("tenants", 0)):
        yield pytest.param(FleetChaosConfig, {field: value}, FleetError,
                           id=f"chaos-{field}={value}")
    # The churn mix: fractions and bandwidth ranges used to run silently
    # (a NaN bandwidth surfaced only from intent construction).
    for field, value in (("tenants", 0),
                         ("large_fraction", NAN), ("large_fraction", 2.0),
                         ("bidirectional_fraction", NAN),
                         ("bidirectional_fraction", -1.0),
                         ("small_bandwidth", (NAN, Gbps(40))),
                         ("small_bandwidth", (Gbps(40), Gbps(5))),
                         ("small_bandwidth", (0.0, Gbps(5))),
                         ("large_bandwidth", (Gbps(120), INF))):
        yield pytest.param(FleetChurnConfig, {field: value}, FleetError,
                           id=f"churn-{field}={value}")
    # The trace boundary: each value below used to give tasks a NaN or
    # infinite arrival, duration or bandwidth.
    for start, end in (("nan", "86412"), ("86400", "nan"),
                       ("86400", "inf")):
        yield pytest.param(_ingest_row, {"start": start, "end": end},
                           WorkloadError,
                           id=f"ingest-start={start}-end={end}")
    for field in ("arrival", "duration", "bandwidth"):
        for value in (NAN, INF):
            yield pytest.param(ClusterTask, {**_TASK, field: value},
                               WorkloadError,
                               id=f"cluster-task-{field}={value}")
    for field, value in (("small_bandwidth", (NAN, Gbps(40))),
                         ("large_bandwidth", (Gbps(120), INF)),
                         ("large_fraction", NAN), ("large_fraction", 2.0),
                         ("bidirectional_fraction", -1.0),
                         ("mean_job_size", 0), ("mean_job_size", NAN),
                         ("mean_job_size", -1.0), ("mean_duration", NAN),
                         ("duration_sigma", NAN), ("job_stagger", NAN),
                         ("burst_cycles", -1)):
        yield pytest.param(SynthTraceConfig, {field: value}, WorkloadError,
                           id=f"synth-{field}={value}")
    # The host boundary: a NaN headroom or no candidate path rejected
    # every intent silently; a NaN or infinite start poisoned the clock.
    for value in (NAN, INF):
        yield pytest.param(_host, {"headroom": value}, ValueError,
                           id=f"host-headroom={value}")
        yield pytest.param(_host, {"start": value}, ClockError,
                           id=f"host-start={value}")
    for value in (0, -1):
        yield pytest.param(_host, {"candidate_paths": value}, ValueError,
                           id=f"host-candidate_paths={value}")
    # The engine: NaN compared false against every bound, so it was
    # queued as a time, delay or period.
    for method in ("schedule_at", "schedule_in"):
        yield pytest.param(_schedule, {"method": method, "value": NAN},
                           ClockError, id=f"engine-{method}=nan")
    yield pytest.param(_schedule_every, {"period": NAN}, SimulationError,
                       id="engine-schedule_every-period=nan")
    yield pytest.param(_schedule_every, {"jitter": NAN}, SimulationError,
                       id="engine-schedule_every-jitter=nan")
    yield pytest.param(_reschedule, {"period": NAN}, SimulationError,
                       id="engine-reschedule=nan")
    # The resilience configs had no checks at all.
    for field in ("tick_period", "flap_window", "quarantine_holddown",
                  "monitor_check_period"):
        for value in (NAN, INF, 0.0, -1.0):
            yield pytest.param(RecoveryConfig, {field: value},
                               ResilienceError,
                               id=f"recovery-config-{field}={value}")
    for field in ("flap_threshold", "retry_max_parked"):
        yield pytest.param(RecoveryConfig, {field: 0}, ResilienceError,
                           id=f"recovery-config-{field}=0")
    for value in (NAN, 0.0, -0.5, 1.5):
        yield pytest.param(RecoveryConfig, {"degrade_floor": value},
                           ResilienceError,
                           id=f"recovery-config-degrade_floor={value}")
    for field in ("warmup", "fault_spacing", "flap_period"):
        for value in (NAN, INF, 0.0, -1.0):
            yield pytest.param(ChaosConfig, {field: value}, ResilienceError,
                               id=f"chaos-config-{field}={value}")
    for field in ("faults", "settle_rounds", "workload_intents"):
        yield pytest.param(ChaosConfig, {field: 0}, ResilienceError,
                           id=f"chaos-config-{field}=0")
    for value, name in (((NAN, 0.04), "nan,0.04"), ((0.015, INF), "0.015,inf"),
                        ((0.0, 0.04), "0,0.04"),
                        ((0.04, 0.015), "0.04,0.015"), ((0.02,), "(0.02,)"),
                        (0.02, "0.02")):
        yield pytest.param(ChaosConfig, {"repair_delay": value},
                           ResilienceError,
                           id=f"chaos-config-repair_delay={name}")
    for value in (NAN, 0.0, 1.5):
        yield pytest.param(ChaosConfig, {"bandwidth_fraction": value},
                           ResilienceError,
                           id=f"chaos-config-bandwidth_fraction={value}")


CLI_CASES = [
    ("run", "--arrival-rate", "-5"),
    ("run", "--arrival-rate", "nan"),
    ("run", "--arrival-rate", "0"),
    ("run", "--horizon", "nan"),
    ("run", "--horizon", "inf"),
    ("chaos", "--horizon", "nan"),
    ("chaos", "--horizon", "inf"),
    ("chaos", "--fault-rate", "nan"),
    ("slo", "--arrival-rate", "nan"),
    ("slo", "--arrival-rate", "-5"),
    ("slo", "--horizon", "inf"),
    ("replay", "--horizon", "nan"),
    ("replay", "--slo-stretch", "nan"),
    ("slo", "--probe-period", "nan"),
    ("replay", "--time-scale", "nan"),
    ("replay", "--time-scale", "inf"),
    ("run", "--rebalance-threshold", "nan"),
    ("run", "--rebalance-threshold", "-1"),
    ("slo", "--bound", "nan"),
    ("slo", "--sample-stride", "0"),
    ("slo", "--degrade-factor", "nan"),
    ("slo", "--max-moves", "-1"),
    ("replay", "--slo-bound", "nan"),
    ("replay", "--domains", "0"),
    ("replay", "--faults", "-1"),
    ("chaos", "--domains", "0"),
]

#: Arguments a case needs before its flag is read at all.
CLI_EXTRA_ARGS = {"--time-scale": ("--trace", FIXTURE),
                  "--slo-bound": ("--slo",)}


@pytest.mark.parametrize("build, kwargs, error", _cases())
def test_constructor_rejects_bad_value(build, kwargs, error):
    with pytest.raises(error):
        build(**kwargs)


#: Floor changes the arbiter must reject, against one 1 Gbps floor of
#: "t" on pcie-nic0 fwd.  Each used to go through (a NaN floor, a floor
#: grown by a negative amount), to change a floor before raising (the
#: fwd floor deleted, then a raise on rev), or to bump the arbiter's
#: configuration and re-arm its parked task before raising.
BAD_FLOOR_CHANGES = [
    pytest.param("remove_floor", "t", NAN, "fwd", id="remove-nan"),
    pytest.param("remove_floor", "t", INF, "fwd", id="remove-inf"),
    pytest.param("remove_floor", "t", -Gbps(5), "fwd", id="remove-negative"),
    pytest.param("remove_floor", "t", 0.0, "fwd", id="remove-zero"),
    pytest.param("remove_floor", "t", Gbps(1), None,
                 id="remove-both-ways-floor-on-fwd-only"),
    pytest.param("remove_floor", "t", Gbps(1), "up",
                 id="remove-bad-direction"),
    pytest.param("remove_floor", "u", Gbps(1), "fwd",
                 id="remove-no-such-floor"),
    pytest.param("add_floor", "t", Gbps(1), "up", id="add-bad-direction"),
]


@pytest.mark.parametrize("method, tenant, bandwidth, direction",
                         BAD_FLOOR_CHANGES)
def test_arbiter_rejects_floor_change_untouched(method, tenant, bandwidth,
                                                direction):
    network = FabricNetwork(cascade_lake_2s(), Engine())
    arbiter = DynamicArbiter(network)
    arbiter.add_floor("t", "pcie-nic0", Gbps(1), direction="fwd")
    arbiter.start()
    network.engine.run_until(0.01)
    # Quiesced: the periodic task parked itself.
    assert network.engine.peek_time() is None
    with pytest.raises(ArbiterError):
        getattr(arbiter, method)(tenant, "pcie-nic0", bandwidth,
                                 direction=direction)
    assert arbiter.floors_on("pcie-nic0", "fwd") == {"t": Gbps(1)}
    assert arbiter.floors_on("pcie-nic0", "rev") == {}
    # Still parked, and the configuration did not move: the next round
    # is skipped.
    assert network.engine.peek_time() is None
    skipped = arbiter.skipped_adjustments
    arbiter.adjust_once()
    assert arbiter.skipped_adjustments == skipped + 1


CAP_CLEARS = {
    "clear_link_caps": lambda network, link, direction:
        network.clear_link_caps(link, ("t",), direction=direction),
    "clear_tenant_link_cap": lambda network, link, direction:
        network.clear_tenant_link_cap("t", link, direction=direction),
}


@pytest.mark.parametrize("clear", sorted(CAP_CLEARS))
@pytest.mark.parametrize("link, direction, error", [
    pytest.param("nope", "fwd", UnknownLinkError, id="unknown-link"),
    pytest.param("pcie-nic0", "up", ValueError, id="bad-direction"),
])
def test_fabric_cap_clear_rejects_bad_link_key(clear, link, direction,
                                               error):
    # set_link_caps rejects both; the clears used to skip them silently.
    network = FabricNetwork(cascade_lake_2s(), Engine())
    network.set_link_caps("pcie-nic0", {"t": Gbps(1)}, direction="fwd")
    with pytest.raises(error):
        CAP_CLEARS[clear](network, link, direction)
    assert network.tenant_link_cap("t", "pcie-nic0", "fwd") == Gbps(1)


#: Host-level subcommands: each case ends with the bad flag and value, or
#: with the bad device id.
HOST_CLI_CASES = [
    ("ping", "nic0", "dimm0-0", "--count", "0"),
    ("ping", "nic0", "dimm0-0", "--count", "-1"),
    ("ping", "nic0", "nope"),
    ("perf", "nic0", "nope"),
    ("trace", "nic0", "nope"),
    ("perf", "nic0", "dimm0-0", "--duration", "nan"),
    ("perf", "nic0", "dimm0-0", "--duration", "inf"),
    ("perf", "nic0", "dimm0-0", "--duration", "0"),
    ("perf", "nic0", "dimm0-0", "--duration", "-1"),
    ("trace", "churn", "--sim-seconds", "inf"),
    ("trace", "churn", "--sim-seconds", "nan"),
    ("trace", "churn", "--sim-seconds", "-1"),
    ("trace", "quickstart", "--sim-seconds", "nan"),
]


class CliHang(Exception):
    """A CLI case was still running when its time limit ran out."""


def _on_time_limit(signum, frame):
    raise CliHang(f"CLI case still running after {CLI_TIMEOUT_S} s")


@pytest.fixture
def run_cli(monkeypatch, capsys, tmp_path):
    """Run ``repro.cli.main(argv)`` in *tmp_path* under the time limit;
    return its exit code (a return value or ``SystemExit``) and stderr.
    Any other exception escapes and fails the test."""
    monkeypatch.chdir(tmp_path)

    def run(argv):
        previous = signal.signal(signal.SIGALRM, _on_time_limit)
        signal.setitimer(signal.ITIMER_REAL, CLI_TIMEOUT_S)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return code, capsys.readouterr().err

    return run


def _assert_rejected(code, stderr, name):
    assert code == 2, stderr[-400:]
    assert name in stderr.replace("-", "_")
    assert "Traceback" not in stderr


def _fleet_argv(command, flag, value):
    return ["fleet", command, *CLI_EXTRA_ARGS.get(flag, ()), flag, value]


def _bad_name(argv):
    # The message names the flag, or the device id that is not there.
    bad = argv[-2] if argv[-2].startswith("--") else argv[-1]
    return bad.lstrip("-").replace("-", "_")


@pytest.mark.parametrize("command, flag, value", CLI_CASES,
                         ids=["-".join(case) for case in CLI_CASES])
def test_fleet_cli_rejects_bad_value(command, flag, value, run_cli):
    _assert_rejected(*run_cli(_fleet_argv(command, flag, value)),
                     flag.lstrip("-").replace("-", "_"))


@pytest.mark.parametrize("argv", HOST_CLI_CASES,
                         ids=["-".join(case) for case in HOST_CLI_CASES])
def test_host_cli_rejects_bad_value(argv, run_cli):
    _assert_rejected(*run_cli(argv), _bad_name(argv))


#: One fleet and one host case (each once a hang) through ``python -m
#: repro`` in a fresh interpreter.
MODULE_CLI_CASES = [_fleet_argv("run", "--horizon", "nan"),
                    ["trace", "churn", "--sim-seconds", "inf"]]


@pytest.mark.parametrize("argv", MODULE_CLI_CASES,
                         ids=["-".join(case) for case in MODULE_CLI_CASES])
def test_module_cli_rejects_bad_value(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "repro", *argv], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    _assert_rejected(run.returncode, run.stderr, _bad_name(argv))
