"""``repro.slo``: histograms, burn rates, probes, and the closed loop.

The subsystem's three contracts, pinned here:

* **mergeability** — fixed-ladder histograms fold identically however
  samples are partitioned into shards (hypothesis property);
* **determinism** — the latency-regression scenario's full signature
  (alerts, migrations, ledgers, histograms) is bit-identical across
  both fleet-clock disciplines;
* **the closed loop** — a seeded silent capacity degradation fires the
  fast-window burn-rate alert naming the offender, the fleet migrates
  its sessions away, and attainment recovers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core import pipe
from repro.errors import SloError
from repro.host import Host
from repro.slo import (
    BUCKET_COUNT,
    BurnRateTracker,
    FleetSloMonitor,
    LatencyHistogram,
    LatencyRegressionConfig,
    SloConfig,
    SloObjective,
    bucket_index,
    bucket_upper,
    merge_histograms,
    normalize_slo,
    run_latency_regression,
)
from repro.topology import cascade_lake_2s
from repro.units import Gbps, us


def small_config(seed=0, **kwargs):
    kwargs.setdefault("hosts", 4)
    kwargs.setdefault("horizon", 0.08)
    kwargs.setdefault("arrival_rate", 1500.0)
    return LatencyRegressionConfig(seed=seed, **kwargs)


# -- histograms --------------------------------------------------------------


class TestHistogram:
    def test_bucket_contract(self):
        # Every positive finite value sits at or under its bucket's
        # upper edge; degenerate inputs clamp instead of raising.
        for value in (1e-10, 1e-9, 3.7e-6, 0.25, 17.0, 1e6):
            assert value <= bucket_upper(bucket_index(value))
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0
        assert bucket_index(float("inf")) == BUCKET_COUNT - 1

    def test_percentile_is_conservative(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.record(us(10))
        hist.record(us(5000))
        assert hist.total == 100
        assert hist.percentile(50) <= us(20)
        assert hist.percentile(100) >= us(5000)

    def test_count_above_excludes_bound_bucket(self):
        hist = LatencyHistogram()
        hist.record(us(100), n=10)
        hist.record(us(100) * 1000, n=3)
        assert hist.count_above(us(100)) == 3

    def test_empty_percentile_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(99)

    def test_merge_is_addition(self):
        a, b, whole = (LatencyHistogram() for _ in range(3))
        for v in (us(1), us(10), us(100)):
            a.record(v)
            whole.record(v)
        for v in (us(10), us(1000)):
            b.record(v)
            whole.record(v)
        a.merge(b)
        assert a == whole
        assert a.signature() == whole.signature()

    @settings(max_examples=100, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-9, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            max_size=60),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
    )
    def test_sharded_fold_equals_single_process(self, samples, cuts):
        """The merge property: histograms folded shard-by-shard merge
        to exactly the histogram of the whole stream, for every
        partition of it (the fleet monitor merges its per-stream
        histograms into one scope this way)."""
        whole = LatencyHistogram()
        for v in samples:
            whole.record(v)
        bounds = sorted({min(c, len(samples)) for c in cuts})
        shards = []
        last = 0
        for cut in bounds + [len(samples)]:
            shard = LatencyHistogram()
            for v in samples[last:cut]:
                shard.record(v)
            shards.append({("t", "p"): shard})
            last = cut
        merged = merge_histograms(shards)
        if samples:
            assert merged[("t", "p")] == whole
        else:
            assert ("t", "p") not in merged or merged[("t", "p")] == whole


# -- objectives and burn rates -----------------------------------------------


class TestObjective:
    def test_windows_follow_the_sre_recipe(self):
        objective = SloObjective("o", us(200), period=14.4)
        fast, slow = objective.windows()
        assert fast.long == pytest.approx(0.02)
        assert fast.short == pytest.approx(0.02 / 12)
        assert fast.threshold == 36.0
        assert slow.long == pytest.approx(0.12)
        assert slow.threshold == 12.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SloObjective("", us(100))
        with pytest.raises(ValueError):
            SloObjective("o", 0.0)
        with pytest.raises(ValueError):
            SloObjective("o", us(100), percentile=100.0)
        with pytest.raises(ValueError):
            SloObjective("o", us(100), period=0.0)

    def test_scope_matching(self):
        scoped = SloObjective("o", us(100), tenant="tA",
                              path="nic:0->dimm:0")
        assert scoped.matches("tA", "nic:0->dimm:0")
        assert not scoped.matches("tB", "nic:0->dimm:0")
        assert not scoped.matches("tA", "gpu:0->dimm:0")


class TestBurnRate:
    def objective(self):
        # period=14.4 -> fast window 20ms (short ~1.7ms), slow 120ms.
        return SloObjective("o", us(100), period=14.4)

    def test_empty_window_is_evidence_of_nothing(self):
        tracker = BurnRateTracker(self.objective())
        assert tracker.burn_rate(1.0, 0.02) is None
        assert tracker.check(1.0) == []

    def test_all_bad_stream_fires_fast(self):
        tracker = BurnRateTracker(self.objective())
        for i in range(20):
            tracker.record(i * 0.001, good=0, bad=5)
        fired = tracker.check(0.019)
        names = [w.name for w, _, _ in fired]
        assert "fast" in names
        for window, burn_long, burn_short in fired:
            # 100% bad on a 1% budget burns at 100x.
            assert burn_long == pytest.approx(100.0)
            assert burn_short == pytest.approx(100.0)

    def test_conjunction_requires_short_window_too(self):
        # Bad history, but the short confirmation window has recovered:
        # no alert (this is what makes alerts reset quickly).
        tracker = BurnRateTracker(self.objective())
        for i in range(18):
            tracker.record(i * 0.001, good=0, bad=5)
        for i in range(18, 20):
            tracker.record(i * 0.001, good=5, bad=0)
        fired = tracker.check(0.019)
        # The long fast window still burns hot, but the short
        # confirmation window reads healthy: the fast page stays quiet.
        assert tracker.burn_rate(0.019, 0.02) > 36.0
        assert not any(w.name == "fast" for w, _, _ in fired)

    def test_cooldown_suppresses_refire(self):
        tracker = BurnRateTracker(self.objective())
        for i in range(20):
            tracker.record(i * 0.001, good=0, bad=5)
        assert any(w.name == "fast" for w, _, _ in tracker.check(0.019))
        tracker.record(0.0195, good=0, bad=5)
        assert not any(w.name == "fast"
                       for w, _, _ in tracker.check(0.0198))

    def test_negative_counts_rejected(self):
        tracker = BurnRateTracker(self.objective())
        with pytest.raises(ValueError):
            tracker.record(0.0, good=-1, bad=0)


# -- config plumbing ---------------------------------------------------------


class TestConfig:
    def test_validation(self):
        with pytest.raises(SloError):
            SloConfig(probe_period=0.0)
        with pytest.raises(SloError):
            SloConfig(sample_stride=0)
        with pytest.raises(SloError):
            SloConfig(message_size=-1.0)
        with pytest.raises(SloError):
            SloConfig(objectives=(SloObjective("dup", us(1)),
                                  SloObjective("dup", us(2))))

    def test_normalize(self):
        assert normalize_slo(None) is None
        assert normalize_slo(False) is None
        assert normalize_slo(True).objectives[0].name == "p99-latency"
        config = SloConfig.default()
        assert normalize_slo(config) is config
        objective = SloObjective("mine", us(50))
        assert normalize_slo(objective).objectives == (objective,)
        with pytest.raises(SloError):
            normalize_slo(42)


# -- the fleet monitor -------------------------------------------------------


class TestFleetSloMonitor:
    def feed(self, monitor, t0, host, count, value, period=0.001):
        monitor.ingest((t0 + i * period, host, "tA", "nic:0->dimm:0",
                        value) for i in range(count))

    def test_arrival_order_does_not_matter(self):
        objective = SloObjective("o", us(100))
        samples = [(i * 0.001, f"host{i % 2}", "tA", "p", us(10 + i))
                   for i in range(40)]
        forward, backward = (FleetSloMonitor([objective])
                             for _ in range(2))
        forward.ingest(samples)
        backward.ingest(reversed(samples))
        forward.evaluate(0.05)
        backward.evaluate(0.05)
        assert forward.signature() == backward.signature()

    def test_alert_names_the_burning_host(self):
        monitor = FleetSloMonitor([SloObjective("o", us(100),
                                                period=14.4)])
        self.feed(monitor, 0.0, "good-host", 30, us(10))
        self.feed(monitor, 0.0, "bad-host", 30, us(10_000))
        alerts = monitor.evaluate(0.03)
        assert alerts
        assert {a.host_id for a in alerts} == {"bad-host"}
        assert monitor.alerts == alerts

    def test_latency_anomalies_surface(self):
        monitor = FleetSloMonitor([SloObjective("o", us(100))])
        self.feed(monitor, 0.0, "h", 10, us(10))
        self.feed(monitor, 0.01, "h", 10, us(50_000))
        monitor.evaluate(0.03)
        assert monitor.anomalies
        assert all(a.metric.startswith("latency.")
                   for a in monitor.anomalies)

    def test_attainment_and_achieved(self):
        objective = SloObjective("o", us(100))
        monitor = FleetSloMonitor([objective])
        assert monitor.attainment(objective) is None
        assert monitor.achieved(objective) is None
        self.feed(monitor, 0.0, "h", 99, us(10))
        self.feed(monitor, 0.1, "h", 1, us(100_000))
        monitor.evaluate(0.2)
        assert monitor.attainment(objective) == pytest.approx(0.99)
        assert monitor.achieved(objective) <= us(100)

    def test_host_clear_needs_positive_evidence(self):
        objective = SloObjective("o", us(100), period=14.4)
        monitor = FleetSloMonitor([objective])
        # Never sampled: nothing to clear on.
        assert not monitor.host_clear("ghost", 0.01)
        # Currently burning: not clear.
        self.feed(monitor, 0.0, "h", 30, us(10_000))
        monitor.evaluate(0.03)
        assert not monitor.host_clear("h", 0.03)
        # Healthy samples inside the fast window: clear.
        self.feed(monitor, 0.1, "h", 30, us(10))
        monitor.evaluate(0.13)
        assert monitor.host_clear("h", 0.13)
        # Silence (evacuated host, empty window): NOT clear.
        assert not monitor.host_clear("h", 1.0)


# -- host-local probe and sink -----------------------------------------------


class TestHostProbe:
    def test_probe_samples_and_histograms(self):
        host = Host(cascade_lake_2s(),
                    slo=SloConfig(probe_period=0.001))
        try:
            host.submit(pipe("i0", "tA", src="nic0", dst="dimm0-0",
                             bandwidth=Gbps(50)))
            host.run_until(0.02)
            delta = host.slo_probe.take_delta()
            assert delta
            times = [t for t, _, _, _ in delta]
            assert times == sorted(times)
            assert host.slo_probe.take_delta() == []  # drained
            assert host.slo_probe.histograms()
        finally:
            host.shutdown()

    def test_probe_grid_is_exact(self):
        """Probe fires sit on the exact epoch + k*period grid — no
        floating-point drift — so a tick coinciding with a fleet
        advance boundary runs under every clock discipline."""
        host = Host(cascade_lake_2s(),
                    slo=SloConfig(probe_period=0.002))
        try:
            host.submit(pipe("i0", "tA", src="nic0", dst="dimm0-0",
                             bandwidth=Gbps(50)))
            host.run_until(0.1)
            times = {t for t, _, _, _ in host.slo_probe.take_delta()}
            assert 20 * 0.002 in times  # == 0.04 bit-exactly
            assert all(t == k * 0.002 for k, t in
                       enumerate(sorted(times), start=1))
        finally:
            host.shutdown()

    def test_local_alert_feeds_recovery(self):
        # An unmeetable bound: every sample burns budget, the fast
        # window fires locally, and the recovery controller reacts.
        config = SloConfig(
            objectives=(SloObjective("tight", 1e-9, period=14.4),),
            probe_period=0.001)
        host = Host(cascade_lake_2s(), resilience=True, slo=config)
        try:
            host.submit(pipe("i0", "tA", src="nic0", dst="dimm0-0",
                             bandwidth=Gbps(50)))
            host.run_until(0.1)
            latency_actions = host.recovery.actions_of("latency")
            assert latency_actions
            assert "tight" in latency_actions[0].detail
        finally:
            host.shutdown()

    def test_double_start_rejected_and_stop_idempotent(self):
        host = Host(cascade_lake_2s(), slo=True)
        try:
            with pytest.raises(SloError):
                host.slo_probe.start()
            host.slo_probe.stop()
            host.slo_probe.stop()
        finally:
            host.shutdown()


# -- the closed loop ---------------------------------------------------------


class TestClosedLoop:
    def test_regression_alerts_then_migrates_then_recovers(self):
        report = run_latency_regression(small_config(seed=0))
        config = report.config
        # The alert fired, after the degrade, naming the target host.
        assert report.alerts
        assert report.first_alert_time > config.degrade_at
        assert all(a.host_id == report.target_host
                   for a in report.alerts)
        # The fleet moved sessions off the offender.
        committed = [m for m in report.slo_migrations if m[4]]
        assert committed
        assert all(m[2] == report.target_host
                   for m in report.slo_migrations)
        assert report.first_migration_time > report.first_alert_time
        # Attainment collapsed during the regression and recovered.
        assert report.attainment_before == pytest.approx(1.0)
        assert report.attainment_during < report.attainment_before
        assert report.attainment_after > report.attainment_during
        assert report.samples > 0

    def test_no_degradation_no_alerts(self):
        report = run_latency_regression(
            small_config(seed=0, degrade_factor=1.0))
        assert report.alerts == ()
        assert report.slo_migrations == ()
        assert report.attainment_before == pytest.approx(1.0)

    def test_bad_config_rejected(self):
        with pytest.raises(SloError):
            LatencyRegressionConfig(degrade_at=1.0, horizon=0.5)
        with pytest.raises(SloError):
            LatencyRegressionConfig(degrade_at=0.05, restore_at=0.01)


# -- cross-clock determinism -------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_lockstep_regression_matches_event_exactly(seed):
    """The exact probe grid keeps both clock disciplines bit-equal even
    when a probe tick coincides with a control instant."""
    event = run_latency_regression(small_config(seed), clock="event")
    lockstep = run_latency_regression(small_config(seed),
                                      clock="lockstep")
    assert event.signature() == lockstep.signature()


# -- CLI ---------------------------------------------------------------------


class TestCli:
    def test_fleet_slo(self, capsys):
        code = cli_main(["fleet", "slo", "--horizon", "0.08",
                         "--arrival-rate", "1500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "latency regression on" in out
        assert "alerts:" in out
        assert "slo migrations:" in out
        assert "attainment:" in out

    def test_fleet_slo_lockstep(self, capsys):
        code = cli_main(["fleet", "slo", "--horizon", "0.08",
                         "--arrival-rate", "1500", "--clock", "lockstep"])
        out = capsys.readouterr().out
        assert code == 0
        assert "slo migrations:" in out

    def test_fleet_slo_rejects_bad_args(self, capsys):
        code = cli_main(["fleet", "slo", "--degrade-at", "9.0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "degrade_at" in err

    def test_fleet_replay_slo(self, capsys):
        code = cli_main(["fleet", "replay", "--tasks", "200",
                         "--horizon", "1.5", "--slo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "slo: 1 objectives" in out
        assert "p99-latency" in out

    def test_fleet_replay_slo_compare_rejected(self, capsys):
        code = cli_main(["fleet", "replay", "--tasks", "50", "--slo",
                         "--compare"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--compare" in err
