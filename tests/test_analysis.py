"""Analysis helpers: fairness, SLO compliance, capacity reports."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    capacity_report,
    evaluate_objective,
    format_capacity_report,
    goodput_retention,
    isolation_scorecard,
    jain_index,
    slowdown,
    stranded_bandwidth,
    violation_episodes,
    violation_time_fraction,
    weighted_jain_index,
)
from repro.core import HostNetworkManager, pipe
from repro.slo import SloObjective
from repro.topology import shortest_path
from repro.units import Gbps


class TestJain:
    def test_equal_is_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_monopoly_is_one_over_n(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_index([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1.0, -1.0])

    @settings(max_examples=100)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1,
                    max_size=16))
    def test_bounds_property(self, allocations):
        index = jain_index(allocations)
        assert 1.0 / len(allocations) - 1e-9 <= index <= 1.0 + 1e-9

    def test_weighted_proportional_is_one(self):
        allocations = {"a": 20.0, "b": 10.0}
        weights = {"a": 2.0, "b": 1.0}
        assert weighted_jain_index(allocations, weights) == \
            pytest.approx(1.0)

    def test_weighted_detects_unfairness(self):
        allocations = {"a": 10.0, "b": 10.0}
        weights = {"a": 2.0, "b": 1.0}
        assert weighted_jain_index(allocations, weights) < 1.0


class TestInterferenceMetrics:
    def test_slowdown(self):
        assert slowdown(2.0, 20.0) == pytest.approx(10.0)

    def test_retention_capped(self):
        assert goodput_retention(10.0, 12.0) == 1.0
        assert goodput_retention(10.0, 5.0) == pytest.approx(0.5)

    def test_scorecard(self):
        card = isolation_scorecard(
            alone_latency=2.0,
            shared_latency={"unmanaged": 20.0, "hostnet": 2.5},
            alone_throughput=100.0,
            shared_throughput={"unmanaged": 20.0, "hostnet": 99.0},
        )
        assert card["unmanaged"]["slowdown"] == pytest.approx(10.0)
        assert card["hostnet"]["retention"] == pytest.approx(0.99)


class TestSlo:
    def test_full_compliance(self):
        report = evaluate_objective([1.0, 2.0, 3.0],
                                    SloObjective("o", 5.0))
        assert report.attainment == 1.0
        assert report.met

    def test_partial_compliance(self):
        report = evaluate_objective([1.0] * 98 + [10.0, 10.0],
                                    SloObjective("o", 5.0))
        assert report.attainment == pytest.approx(0.98)
        assert not report.met  # p99 lands on the bad tail

    def test_scoped_percentile(self):
        report = evaluate_objective([1.0] * 9 + [10.0],
                                    SloObjective("o", 5.0, percentile=50))
        assert report.met  # p50 is fine even though the tail is not
        assert report.worst == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_objective([], SloObjective("o", 1.0))

    def test_violation_episodes(self):
        series = [(0.0, 100.0), (1.0, 50.0), (2.0, 50.0), (3.0, 100.0),
                  (4.0, 40.0)]
        episodes = violation_episodes(series, floor=100.0)
        assert episodes == [(1.0, 3.0), (4.0, 4.0)]

    def test_violation_fraction(self):
        series = [(0.0, 100.0), (1.0, 0.0), (2.0, 100.0), (4.0, 100.0)]
        assert violation_time_fraction(series, floor=100.0) == \
            pytest.approx(0.25)

    def test_unordered_series_rejected(self):
        with pytest.raises(ValueError):
            violation_episodes([(1.0, 1.0), (0.5, 1.0)], floor=2.0)

    def test_short_series_no_violation(self):
        assert violation_time_fraction([(0.0, 0.0)], floor=1.0) == 0.0


class TestCapacity:
    def test_report_and_stranded(self, cascade_net):
        manager = HostNetworkManager(cascade_net, decision_latency=0.0)
        manager.submit(pipe("p", "kv", src="nic0", dst="dimm0-0",
                            bandwidth=Gbps(100)))
        rows = capacity_report(manager)
        by_id = {r.link_id: r for r in rows}
        assert by_id["pcie-nic0"].reserved == pytest.approx(Gbps(100))
        # nothing driven yet: the whole reservation is stranded
        stranded = stranded_bandwidth(manager)
        assert stranded["pcie-nic0"] == pytest.approx(Gbps(100))
        # drive it: stranding disappears
        path = shortest_path(cascade_net.topology, "nic0", "dimm0-0")
        cascade_net.start_transfer("kv", path, demand=Gbps(100))
        assert "pcie-nic0" not in stranded_bandwidth(manager)

    def test_format_report(self, cascade_net):
        manager = HostNetworkManager(cascade_net, decision_latency=0.0)
        manager.submit(pipe("p", "kv", src="nic0", dst="dimm0-0",
                            bandwidth=Gbps(10)))
        text = format_capacity_report(capacity_report(manager), limit=3)
        assert "pcie" in text
        assert "G" in text
