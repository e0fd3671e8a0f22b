"""Typed errors at public input boundaries: NaN, ±inf, negative, zero.

Every case below is a value that a constructor or CLI flag used to
accept (and then hang on, poison a clock with, or crash on with an
untyped error).  A library case must raise the module's typed error
from its constructor; a CLI case must exit 2 with a message naming the
bad value.  CLI cases run in a fresh interpreter under a time limit, so
a regression that hangs fails the test instead of stalling the suite.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Host, cascade_lake_2s, pipe
from repro.errors import ClockError, FleetError, SloError, WorkloadError
from repro.fleet import FleetChaosConfig, FleetChurnConfig
from repro.slo import LatencyRegressionConfig, SloObjective
from repro.units import Gbps, us
from repro.workloads.cluster_traces import ReplayConfig, SynthTraceConfig

NAN = math.nan
INF = math.inf
CLI_TIMEOUT_S = 60


def _host_run_until_nan():
    host = Host(cascade_lake_2s())
    try:
        host.run_until(NAN)
    finally:
        host.shutdown()


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
]


@pytest.mark.parametrize("build, kwargs, error", _cases())
def test_constructor_rejects_bad_value(build, kwargs, error):
    with pytest.raises(error):
        build(**kwargs)


@pytest.mark.parametrize("command, flag, value", CLI_CASES,
                         ids=["-".join(case) for case in CLI_CASES])
def test_fleet_cli_rejects_bad_value(command, flag, value):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "repro", "fleet", command, flag, value],
        env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    assert run.returncode == 2, run.stderr[-400:]
    name = flag.lstrip("-").replace("-", "_")
    assert name in run.stderr.replace("-", "_")
    assert "Traceback" not in run.stderr
