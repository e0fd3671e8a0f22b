"""The latency probe's path-latency reuse, checked against fresh walks.

A probe sweep keeps each path's latency for as long as its sweep key (the
model's parameters, the topology's link-state fingerprint and, on a fabric
with flows, the re-solve count) stands still.  The oracle here shares
none of that logic: after every sweep it recomputes each sample with
:meth:`LatencyModel.path_latency` over the fabric's per-link
:meth:`~repro.sim.network.FabricNetwork.link_utilization`, and compares
bit for bit.  A seeded stream mixes every kind of change a sample can see:
link degrades and restores, links going down and up, direct writes to a
link's ``extra_latency``, ``degraded_capacity`` and ``base_latency``
behind the fabric, transfers that start, finish or are cancelled, tenant
caps, and writes to the model's ``alpha``.
"""

import math
import random
import struct

import pytest

from repro import Fleet, Host
from repro.core import pipe
from repro.slo import SloConfig
from repro.topology.presets import cascade_lake_2s
from repro.topology.routing import shortest_path
from repro.units import Gbps, us

PERIOD = 0.0005
INTENTS = [
    ("kv0", "t0", "nic0", "dimm0-0"),
    ("kv1", "t1", "nic0", "dimm1-0"),
    ("st0", "t2", "nvme0", "dimm0-0"),
    ("st1", "t3", "nvme0", "dimm1-0"),
]
ENDPOINTS = [(src, dst) for _iid, _tenant, src, dst in INTENTS]


def _bits(value):
    return struct.pack("<d", value)


def checked(probe, failures):
    """Wrap *probe*'s sweep: after each one, compare every new sample
    with a fresh walk (stride 1 samples every placement, in order)."""
    sweep = probe._tick
    network, manager, config = probe.network, probe.manager, probe.config

    def tick():
        before = len(probe._delta)
        sweep()
        samples = probe._delta[before:]
        placements = manager.placements()
        assert len(samples) == len(placements)
        for sample, placement in zip(samples, placements):
            fresh = config.model.path_latency(
                network.topology, placement.candidate.paths[0],
                network.link_utilization, config.message_size)
            if _bits(sample[3]) != _bits(fresh):
                failures.append((sample[0], placement.intent.intent_id,
                                 sample[3], fresh))

    probe._tick = tick


class Stream:
    """Seeded mutations of one host's fabric, topology and model."""

    def __init__(self, host, rng, model):
        self.host = host
        self.rng = rng
        self.model = model
        self.network = host.network
        self.topology = host.topology
        self.paths = [shortest_path(self.topology, src, dst)
                      for src, dst in ENDPOINTS]
        self.links = sorted({link for path in self.paths
                             for link in path.links})
        self.base = {link: self.topology.link(link).base_latency
                     for link in self.links}
        self.ops = [self.degrade, self.restore, self.link_down,
                    self.link_up, self.write_extra_latency,
                    self.write_degraded_capacity, self.write_base_latency,
                    self.start_flow, self.start_flow, self.cancel_flow,
                    self.set_caps, self.write_alpha, self.write_alpha]
        # Standing load, so that most samples read a utilization above 0.
        for path in self.paths:
            self.network.start_transfer("bg", path, demand=Gbps(60))

    def step(self):
        self.rng.choice(self.ops)()

    def _link(self):
        return self.rng.choice(self.links)

    def degrade(self):
        link = self._link()
        capacity = self.topology.link(link).capacity
        self.network.degrade_link(link, capacity * self.rng.choice(
            [0.05, 0.25, 0.5]))

    def restore(self):
        self.network.degrade_link(self._link(), None)

    def link_down(self):
        if self.rng.random() < 0.3:
            self.network.set_link_up(self._link(), False)

    def link_up(self):
        for link in self.links:
            self.network.set_link_up(link, True)

    def write_extra_latency(self):
        self.topology.link(self._link()).extra_latency = self.rng.choice(
            [0.0, us(1), us(5)])

    def write_degraded_capacity(self):
        link = self.topology.link(self._link())
        link.degraded_capacity = self.rng.choice(
            [None, link.capacity * 0.1, link.capacity * 0.6])

    def write_base_latency(self):
        link = self._link()
        self.topology.link(link).base_latency = self.base[link] * (
            self.rng.choice([1.0, 1.5, 3.0]))

    def start_flow(self):
        path = self.rng.choice(self.paths)
        tenant = self.rng.choice(["t0", "t1", "t2", "t3", "bg"])
        size = self.rng.choice([None, 2e5, 1e6, 5e6])
        demand = self.rng.choice([math.inf, Gbps(20), Gbps(120)])
        self.network.start_transfer(tenant, path, size=size, demand=demand)

    def cancel_flow(self):
        flows = self.network.active_flows()
        if flows:
            self.network.cancel_flow(self.rng.choice(flows).flow_id)

    def set_caps(self):
        link = self._link()
        tenant = self.rng.choice(["t0", "t2", "bg"])
        self.network.set_link_caps(
            link, {tenant: self.rng.choice([Gbps(5), Gbps(40), Gbps(90)])},
            direction=self.rng.choice(["fwd", "rev"]))

    def write_alpha(self):
        self.model.alpha = self.rng.choice([0.5, 1.0, 2.0, 4.0])


def _config():
    return SloConfig(probe_period=PERIOD, sample_stride=1,
                     message_size=float(1 << 16))


@pytest.mark.parametrize("seed", range(6))
def test_standalone_probe_reuse_matches_fresh_walks(seed):
    rng = random.Random(seed)
    config = _config()
    host = Host(cascade_lake_2s(), slo=config)
    failures = []
    checked(host.slo_probe, failures)
    for intent_id, tenant, src, dst in INTENTS:
        host.submit(pipe(intent_id, tenant, src=src, dst=dst,
                         bandwidth=Gbps(20)))
    stream = Stream(host, rng, config.model)
    t = 0.0
    sweeps = 0
    for _ in range(120):
        # Mutate between grid points, then run across the next one.
        for _ in range(rng.randint(0, 3)):
            stream.step()
        t += PERIOD * rng.choice([0.5, 1.0, 1.5])
        host.run_until(t)
        sweeps = host.slo_probe._tick_index
    host.shutdown()
    assert sweeps >= 100
    assert failures == []


@pytest.mark.parametrize("seed", range(4))
def test_fleet_probe_reuse_matches_fresh_walks(seed):
    rng = random.Random(1000 + seed)
    config = _config()
    fleet = Fleet("cascade_lake_2s", hosts=2, slo=config)
    failures = []
    for _host_id, host in fleet.hosts():
        checked(host.slo_probe, failures)
    for intent_id, tenant, src, dst in INTENTS:
        fleet.submit(pipe(intent_id, tenant, src=src, dst=dst,
                          bandwidth=Gbps(20)))
    streams = {host_id: Stream(host, rng, config.model)
               for host_id, host in fleet.hosts()}
    t = 0.0
    for _ in range(100):
        host_id = rng.choice(sorted(streams))
        fleet.wake(host_id)
        for _ in range(rng.randint(0, 3)):
            streams[host_id].step()
        fleet.notify(host_id)
        t += PERIOD * rng.choice([0.5, 1.0, 1.5])
        fleet.advance_to(t)
    ticks = [host.slo_probe._tick_index for _h, host in fleet.hosts()]
    fleet.shutdown()
    assert min(ticks) >= 90
    assert failures == []
