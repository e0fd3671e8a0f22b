"""Latency-observability overhead: the <=2% sampled-probe contract.

DESIGN.md §16 and ISSUE satellite: continuous latency probing must be
cheap enough to leave on — the paper's cited line-rate histogram work
("Waiting at the front door") leans on *sampling* to bound overhead, and
``SloConfig``'s ``probe_period``/``sample_stride`` knobs are that bound.
This file holds the line in CI:

* ``test_slo_enabled_overhead`` — the floor assert.  The 16-host seeded
  churn run with a sampled probe config (period 20 ms, stride 8) must
  stay within **2%** of the identical run without SLO.  Measurement
  design matters more than the number here: whole-run wall-clock A/B on
  a busy CI box swings ±3-4%, far above the contract, so the harness
  (a) drives two *long-lived* fleets through the same pre-generated
  event stream in small interleaved time slices, alternating which
  fleet goes first, so CPU-frequency and allocator epochs and slice
  position hit both sides equally (fleet construction and teardown
  allocation storms stay outside the timed region),
  (b) accumulates ``time.process_time`` (background steals don't
  count), and (c) takes the minimum overhead over three independent
  trials (noise only ever inflates a trial).
* ``test_slo_disabled_is_free`` — the ~0% disabled claim, asserted
  structurally: a fleet built without ``slo=`` arms no probes, builds
  no monitor, and its advance path reduces to one ``is not None`` test
  per boundary, so the disabled run *is* the baseline the enabled gate
  compares against.
* timed benchmarks for the regression-gate artifact
  (``compare_benchmarks.py`` at 20% tolerance): the SLO-enabled churn
  run and the end-to-end seeded latency-regression scenario
  (detection -> alert -> cross-host migration), so the closed loop's
  absolute cost stays on the perf trajectory.

The gate's probe bound is deliberately loose (5 ms): alerts firing
would drag closed-loop *remediation* work (quarantine, migration) into
what must measure pure observability cost.
"""

import gc
import time

from repro.fleet import Fleet, FleetChurnConfig, run_churn
from repro.fleet.workload import generate_events
from repro.slo import LatencyRegressionConfig, SloConfig, run_latency_regression
from repro.units import us

HOSTS = 16
MAX_ATTEMPTS = 4
#: Same shape as bench_fleet_placement.py's CHURN run.
CHURN = FleetChurnConfig(seed=0, horizon=0.12, arrival_rate=4000.0,
                         mean_holding=0.05)
#: The sampled operating point the <=2% contract is quoted at.  The
#: bound is far above observed latencies so no alerts fire (see module
#: docstring); the knob ladder down to dense probing is in
#: EXPERIMENTS.md E19.
GATE_SLO = SloConfig.default(bound=us(5000), probe_period=0.02,
                             sample_stride=8)
OVERHEAD_LIMIT = 0.02
#: Slices per trial: one event each for CHURN's ~750 events.  On a shared
#: 2-core VM, alternating trials agreed within about a point here; at
#: 400 slices they spread up to 2.2 points, at 40 over several.
SLICES = 1000
SCENARIO = LatencyRegressionConfig(seed=0, hosts=4, horizon=0.08,
                                   arrival_rate=1500.0)


def _build(slo):
    return Fleet("cascade_lake_2s", hosts=HOSTS, policy="best-fit",
                 clock="event", max_attempts=MAX_ATTEMPTS, slo=slo)


def _churn_with_slo(slo):
    fleet = _build(slo)
    try:
        report = run_churn(fleet, CHURN)
        assert report.submitted > 300  # the workload actually ran
        if slo is not None:
            assert fleet.slo.histogram().total > 0  # probes actually ran
        return report.rejection_rate
    finally:
        fleet.shutdown()


def _sliced_overhead(slices=SLICES):
    """One trial: interleaved-slice CPU-time overhead of GATE_SLO.

    Both fleets take the same event stream in *slices* slices, and which
    fleet goes first alternates from slice to slice (as in
    ``bench_sim_performance._sliced_overhead``): a fleet always driven
    first reads about 3 points cheaper than the same work driven second.
    """
    fleets = (_build(None), _build(GATE_SLO))
    base, enabled = fleets
    try:
        events = generate_events(CHURN, base)
        size = (len(events) + slices - 1) // slices
        chunks = [events[i:i + size] for i in range(0, len(events), size)]
        gc.collect()
        totals = [0.0, 0.0]
        order = [0, 1]
        for chunk in chunks:
            for side in order:
                t0 = time.process_time()
                _drive_chunk(fleets[side], chunk)
                totals[side] += time.process_time() - t0
            order.reverse()
        assert enabled.slo.histogram().total > 0  # probes actually ran
        assert not enabled.slo.alerts  # pure observability cost
        return totals[1] / totals[0] - 1.0
    finally:
        base.shutdown()
        enabled.shutdown()


def _drive_chunk(fleet, chunk):
    for t, _seq, kind, payload in chunk:
        fleet.advance_to(t)
        if kind == "arrive":
            fleet.try_submit(payload)
        elif fleet.scheduler.has_intent(payload):
            fleet.release(payload)


def test_slo_enabled_overhead():
    """CI-enforced contract: sampled-probe overhead <= 2% on churn."""
    _sliced_overhead(slices=4)  # warm both paths outside the trials
    overheads = [_sliced_overhead() for _ in range(3)]
    best = min(overheads)
    assert best <= OVERHEAD_LIMIT, (
        f"SLO-enabled churn is {best * 100:.2f}% slower than the "
        f"identical run without slo= (trials: "
        f"{[f'{o * 100:.2f}%' for o in overheads]}); the sampled probe "
        f"config (period={GATE_SLO.probe_period}s, "
        f"stride={GATE_SLO.sample_stride}) must stay within "
        f"{OVERHEAD_LIMIT * 100:.0f}%"
    )


def test_slo_disabled_is_free():
    """Without ``slo=`` nothing is armed: no monitor, no probes, no
    per-boundary work beyond one None test — the disabled run is
    literally the enabled gate's baseline."""
    fleet = _build(None)
    try:
        assert fleet.slo is None
        for _host_id, host in fleet.hosts():
            assert host.slo_probe is None
    finally:
        fleet.shutdown()


def test_slo_enabled_churn_16_hosts(benchmark):
    """Absolute cost of the SLO-enabled churn run (for the 20% gate)."""
    benchmark.extra_info["probe_period"] = GATE_SLO.probe_period
    benchmark.extra_info["sample_stride"] = GATE_SLO.sample_stride
    rate = benchmark.pedantic(_churn_with_slo, args=(GATE_SLO,),
                              rounds=2, iterations=1)
    baseline = _churn_with_slo(None)
    assert rate == baseline, (
        f"arming slo= changed the churn outcome: rejection rate "
        f"{rate:.4%} vs {baseline:.4%} without probes — observability "
        f"must not perturb placement"
    )


def test_latency_regression_scenario(benchmark):
    """End-to-end closed loop: seeded degrade -> burn-rate alert ->
    cross-host migration (EXPERIMENTS.md E19's timed run)."""
    report = benchmark.pedantic(run_latency_regression, args=(SCENARIO,),
                                rounds=2, iterations=1)
    assert report.alerts, "the seeded regression must fire alerts"
    assert report.first_migration_time is not None, (
        "latency alerts must close the loop into cross-host migration"
    )
