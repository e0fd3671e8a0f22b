"""Fleet latency probes swept by the fleet clock on one grid.

A fleet host's probe schedules no engine event: the clock sweeps it at
each point of the grid ``epoch + k * period`` as it advances the host.
These tests pin what that must keep from the probes' old engine timers —
fleet control runs at the same instants with and without probes, a
crashed host catches up on every grid point it missed, and an idle host
is still swept — and what happens when a host's engine is run outside
the clock.
"""

import math
import random

import pytest

from repro import Fleet, Host
from repro.core import pipe
from repro.errors import SloError
from repro.fleet import FleetChurnConfig, run_churn
from repro.slo import SloConfig
from repro.slo.probe import LatencyProbe, SweepGrid
from repro.topology import cascade_lake_2s
from repro.units import Gbps

PERIOD = 0.002


def kv(intent_id, tenant="tA"):
    return pipe(intent_id, tenant, src="nic0", dst="dimm0-0",
                bandwidth=Gbps(50))


def grid(last):
    return [k * PERIOD for k in range(1, last + 1)]


def sample_times(fleet, host_id):
    return sorted({t for t, host, *_rest in fleet.slo.samples
                   if host == host_id})


def two_probed_hosts(clock):
    fleet = Fleet("cascade_lake_2s", hosts=2, clock=clock, policy="spread",
                  slo=SloConfig(probe_period=PERIOD, keep_samples=True))
    fleet.submit(kv("a"))
    fleet.submit(kv("b"))
    assert {p.host_id for p in fleet.placements()} == {"host00", "host01"}
    return fleet


@pytest.mark.parametrize("clock", ["event", "lockstep"])
def test_probes_leave_fleet_control_cadence_unchanged(clock):
    """Sweeps are not fleet boundaries: a rebalancing fleet calls
    ``planner.control()`` at the same instants, moves the same sessions
    and admits the same ones with probes armed as without."""

    def run(slo):
        fleet = Fleet("cascade_lake_2s", hosts=8, policy="first-fit",
                      max_attempts=1, rebalance_threshold=0.3,
                      clock=clock, slo=slo)
        calls = []
        control = fleet.planner.control

        def traced_control():
            calls.append(fleet.now)
            return control()

        fleet.planner.control = traced_control
        report = run_churn(fleet, FleetChurnConfig(
            seed=11, horizon=0.08, arrival_rate=1500.0))
        moves = [(r.time, r.kind, r.intent_id, r.src, r.dst, r.ok)
                 for r in fleet.planner.records]
        fleet.shutdown()
        return (calls, moves, report.placements,
                (report.admitted, report.rejected, report.released))

    plain = run(None)
    # No objective: probes sample, but no alert can move a session.
    probed = run(SloConfig(probe_period=0.0015))
    assert plain[1], "expected rebalance moves"
    assert probed == plain


@pytest.mark.parametrize("clock", ["event", "lockstep"])
def test_crashed_host_sweeps_every_missed_grid_point_at_reactivation(
        clock):
    fleet = two_probed_hosts(clock)
    fleet.advance_to(0.01)
    fleet.clock.deactivate("host01")
    fleet.advance_to(0.021)
    probe = fleet.host("host01").slo_probe
    assert probe._tick_index == 5  # frozen while crashed
    fleet.clock.reactivate("host01")
    assert probe._tick_index == 10
    fleet.advance_to(0.03)
    assert probe._tick_index == 15
    assert sample_times(fleet, "host01") == grid(15)
    assert sample_times(fleet, "host00") == grid(15)
    fleet.shutdown()


@pytest.mark.parametrize("clock", ["event", "lockstep"])
def test_idle_host_is_swept_without_engine_events(clock):
    fleet = Fleet("cascade_lake_2s", hosts=2, clock=clock,
                  slo=SloConfig(probe_period=PERIOD, keep_samples=True))
    fleet.submit(kv("a"))
    fleet.advance_to(0.02)
    idle = fleet.host("host01")
    assert not idle.placements()
    assert idle.engine.peek_time() is None  # the probe queued nothing
    assert idle.slo_probe._tick_index == 10
    assert sample_times(fleet, "host00") == grid(10)
    fleet.shutdown()


@pytest.mark.parametrize("clock", ["event", "lockstep"])
def test_host_run_outside_the_clock_skips_the_grid_points_it_passed(clock):
    """A fleet host's engine run past grid points outside the clock
    (``Host.run_until``) cannot be read at those instants any more: the
    clock skips them without raising, and the tick index still follows
    the grid, so stride sampling keeps its phase."""
    fleet = two_probed_hosts(clock)
    fleet.advance_to(0.004)
    fleet.host("host01").run_until(0.0101)
    fleet.advance_to(0.02)
    assert fleet.host("host01").slo_probe._tick_index == 10
    assert sample_times(fleet, "host01") == [
        t for t in grid(10) if not 0.004 < t <= 0.0101]
    assert sample_times(fleet, "host00") == grid(10)
    fleet.shutdown()


def test_sweep_grid_index_after_is_the_least_point_strictly_after():
    rng = random.Random(7)
    for _ in range(500):
        grid = SweepGrid(rng.choice([0.0, 0.001, rng.uniform(0.0, 5.0)]),
                         rng.choice([PERIOD, 0.0015, 1e-3 / 3,
                                     rng.uniform(1e-4, 0.1)]))
        point = grid.point(rng.randrange(1, 5000))
        for t in (point, math.nextafter(point, -math.inf),
                  math.nextafter(point, math.inf),
                  rng.uniform(grid.epoch - 1.0, point)):
            k = grid.index_after(t)
            assert k >= 1 and grid.point(k) > t
            assert k == 1 or grid.point(k - 1) <= t
            assert grid.after(t) == grid.point(k)


@pytest.mark.parametrize("clock", ["event", "lockstep"])
def test_fold_follows_the_grid_of_a_fleet_started_late(clock):
    """Probes of a fleet built at ``start`` sweep on
    ``start + k * period``; each advance folds every sweep at or before
    it, so no sample waits for a later boundary."""
    fleet = Fleet("cascade_lake_2s", hosts=1, start=0.001, clock=clock,
                  slo=SloConfig(probe_period=PERIOD, keep_samples=True))
    fleet.submit(kv("a"))
    points = [0.001 + k * PERIOD for k in range(1, 5)]
    assert fleet.host("host00").slo_probe.next_due == points[0]
    for t in (0.0045, 0.005, 0.0055, 0.006, 0.0065, 0.007, 0.0071):
        fleet.advance_to(t)
        folded = sorted({sample[0] for sample in fleet.slo.samples})
        assert folded == [p for p in points if p <= t], t
    fleet.shutdown()


@pytest.mark.parametrize("clock", ["event", "lockstep"])
def test_restarted_fleet_probe_resumes_on_the_grid_swept_once(clock):
    """What sweeps a fleet probe is fixed when it is built: restarting
    it arms no engine timer beside the clock, so each grid point after
    the restart is swept once."""
    fleet = two_probed_hosts(clock)
    fleet.advance_to(0.005)
    fleet.wake("host01")
    probe = fleet.host("host01").slo_probe
    probe.stop()
    probe.start()
    assert probe.next_due == 0.006
    fleet.advance_to(0.02)
    times = sorted(t for t, host, *_rest in fleet.slo.samples
                   if host == "host01")
    assert times == grid(10)  # one placement: one sample per sweep
    fleet.shutdown()


def test_timer_probe_refuses_a_clock_sweep():
    host = Host(cascade_lake_2s(), slo=SloConfig(probe_period=PERIOD))
    try:
        with pytest.raises(SloError):
            host.slo_probe.run_until(0.01)
        with pytest.raises(SloError):  # a grid must keep the config's period
            LatencyProbe(host.network, host.manager,
                         SloConfig(probe_period=PERIOD),
                         grid=SweepGrid(0.0, 2 * PERIOD))
    finally:
        host.shutdown()
