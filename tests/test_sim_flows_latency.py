"""Flow lifecycle objects and the analytic latency model."""

import math
import random

import pytest

from repro.errors import FlowError
from repro.sim import LatencyModel
from repro.sim.flows import Flow, FlowState
from repro.topology import cascade_lake_2s, shortest_path
from repro.units import kib, ns


#: Same-socket and cross-socket routes, both directions.
ROUND_TRIP_PAIRS = [("nic0", "dimm0-0"), ("dimm0-0", "nic0"),
                    ("nic0", "dimm1-0"), ("gpu0", "dimm1-1"),
                    ("dimm1-1", "gpu0")]


def _formula(model, topology, path, rho, size):
    """One-way latency as the module docstring states it: every hop's base
    latency inflated by ``alpha * rho / (1 - rho)`` (rho clamped to
    [0, rho_cap]), plus *size* over the path's bottleneck residual, each
    hop's residual being its free capacity but at least
    ``min_residual_fraction`` of it; ``inf`` across a down hop."""
    total = 0.0
    residual = math.inf
    for link_id in path.links:
        link = topology.link(link_id)
        capacity = link.effective_capacity
        if capacity <= 0:
            return math.inf
        clamped = min(max(rho[link_id], 0.0), model.rho_cap)
        total += link.effective_latency * (
            1.0 + model.alpha * clamped / (1.0 - clamped))
        residual = min(residual, max(capacity * (1.0 - rho[link_id]),
                                     capacity * model.min_residual_fraction))
    if size > 0 and path.links:
        total += size / residual
    return total


@pytest.fixture(scope="module")
def topo():
    return cascade_lake_2s()


@pytest.fixture
def path(topo):
    return shortest_path(topo, "nic0", "dimm0-0")


def make_flow(path, **overrides):
    defaults = dict(flow_id="f0", tenant_id="t0", path=path)
    defaults.update(overrides)
    return Flow(**defaults)


class TestFlow:
    def test_initial_state(self, path):
        f = make_flow(path)
        assert f.state is FlowState.PENDING
        assert f.bytes_sent == 0.0
        assert f.remaining_bytes == math.inf

    def test_finite_remaining(self, path):
        f = make_flow(path, size=100.0)
        f.bytes_sent = 30.0
        assert f.remaining_bytes == pytest.approx(70.0)
        assert f.is_finite

    def test_effective_demand_combines_cap(self, path):
        f = make_flow(path, demand=10.0, rate_cap=4.0)
        assert f.effective_demand == 4.0

    def test_duration_and_throughput(self, path):
        f = make_flow(path, size=100.0)
        f.started_at, f.finished_at, f.bytes_sent = 1.0, 3.0, 100.0
        assert f.duration == pytest.approx(2.0)
        assert f.throughput() == pytest.approx(50.0)

    def test_duration_none_before_finish(self, path):
        f = make_flow(path)
        f.started_at = 1.0
        assert f.duration is None
        assert f.throughput() is None

    @pytest.mark.parametrize("size", [0.0, math.nan])
    def test_invalid_size(self, path, size):
        with pytest.raises(FlowError):
            make_flow(path, size=size)

    @pytest.mark.parametrize("weight", [0.0, math.nan, math.inf])
    def test_invalid_weight(self, path, weight):
        with pytest.raises(FlowError):
            make_flow(path, weight=weight)

    @pytest.mark.parametrize("demand", [-1.0, math.nan])
    def test_invalid_demand(self, path, demand):
        with pytest.raises(FlowError):
            make_flow(path, demand=demand)


class TestLatencyModel:
    def test_zero_load_is_base(self, topo, path):
        model = LatencyModel()
        latency = model.path_latency(topo, path, lambda _: 0.0)
        assert latency == pytest.approx(path.base_latency)

    def test_inflation_monotone_in_utilization(self, topo, path):
        model = LatencyModel()
        lats = [
            model.path_latency(topo, path, lambda _, r=rho: r)
            for rho in (0.0, 0.5, 0.9, 0.99)
        ]
        assert lats == sorted(lats)

    def test_inflation_bounded_by_rho_cap(self):
        model = LatencyModel(alpha=1.0, rho_cap=0.98)
        assert model.inflation(5.0) == model.inflation(0.98)
        assert model.inflation(0.98) == pytest.approx(49.0)

    def test_negative_utilization_clamped(self):
        model = LatencyModel()
        assert model.inflation(-0.5) == 0.0

    def test_message_size_adds_serialization(self, topo, path):
        model = LatencyModel()
        small = model.path_latency(topo, path, lambda _: 0.0, 0.0)
        big = model.path_latency(topo, path, lambda _: 0.0, kib(64))
        expected_serialization = kib(64) / path.bottleneck_capacity
        assert big - small == pytest.approx(expected_serialization)

    def test_down_link_infinite(self, topo, path):
        broken = topo.copy()
        broken.link(path.links[0]).up = False
        model = LatencyModel()
        assert math.isinf(model.path_latency(broken, path, lambda _: 0.0))

    def test_round_trip_is_two_one_ways(self, topo, path):
        model = LatencyModel()
        one = model.path_latency(topo, path, lambda _: 0.0)
        rt = model.round_trip(topo, path, lambda _: 0.0)
        assert rt == pytest.approx(2 * one)
        # Distinct request and response sizes, utilizations below 0 and
        # past rho_cap, a down hop in every fourth case and the empty
        # path in two: the round trip must equal the module docstring's
        # one-way formula for each leg, summed, bit for bit.
        for seed in range(16):
            rng = random.Random(seed)
            pair = (("nic0", "nic0") if seed in (5, 11)
                    else rng.choice(ROUND_TRIP_PAIRS))
            route = shortest_path(topo, *pair)
            topology = topo.copy()
            if seed % 4 == 0:
                topology.link(rng.choice(route.links)).up = False
            rho = {link_id: rng.choice([-0.5, 0.0, rng.random(), 0.98,
                                        0.995, 1.0, 1.7])
                   for link_id in route.links}
            model = LatencyModel(
                alpha=rng.choice([0.5, 1.0, 3.0]),
                min_residual_fraction=rng.choice([0.02, 0.1]))
            request = kib(rng.randint(1, 8))
            response = kib(rng.randint(9, 64))
            expected = (_formula(model, topology, route, rho, request)
                        + _formula(model, topology, route, rho, response))
            got = model.round_trip(topology, route, rho.__getitem__,
                                   request, response)
            assert got == expected, seed
            assert math.isinf(got) == (seed % 4 == 0), seed

    def test_extra_latency_included(self, topo, path):
        broken = topo.copy()
        broken.link(path.links[0]).extra_latency = ns(500)
        model = LatencyModel()
        healthy = model.path_latency(topo, path, lambda _: 0.0)
        degraded = model.path_latency(broken, path, lambda _: 0.0)
        assert degraded - healthy == pytest.approx(ns(500))

    def test_residual_floor_keeps_latency_finite(self, topo, path):
        model = LatencyModel(min_residual_fraction=0.02)
        latency = model.path_latency(topo, path, lambda _: 1.0, kib(4))
        assert math.isfinite(latency)
