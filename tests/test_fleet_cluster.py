"""The Fleet facade: construction, lockstep clock, remapping, delegation."""

import pytest

from repro.errors import ClockError, FleetError, UnknownHostError
from repro.fleet import Fleet
from repro.core import pipe
from repro.topology import cascade_lake_2s, minimal_host
from repro.units import Gbps


def small_fleet(**kwargs):
    kwargs.setdefault("hosts", 3)
    return Fleet("cascade_lake_2s", **kwargs)


def kv(intent_id="kv", tenant="tA", bandwidth=Gbps(50)):
    return pipe(intent_id, tenant, src="nic0", dst="dimm0-0",
                bandwidth=bandwidth)


# -- construction ------------------------------------------------------------


def test_default_host_ids_and_len():
    fleet = small_fleet()
    assert fleet.host_ids() == ["host00", "host01", "host02"]
    assert len(fleet) == 3


def test_explicit_host_ids_are_sorted_into_deterministic_order():
    fleet = Fleet("minimal", host_ids=["zeta", "alpha"])
    assert fleet.host_ids() == ["alpha", "zeta"]


def test_rejects_shared_topology_instance():
    with pytest.raises(FleetError, match="factory"):
        Fleet(cascade_lake_2s(), hosts=2)


def test_accepts_topology_factory():
    fleet = Fleet(minimal_host, hosts=2)
    assert len(fleet) == 2
    a = fleet.host("host00").topology
    b = fleet.host("host01").topology
    assert a is not b  # each host got a fresh instance


def test_rejects_bad_quantum_and_duplicate_and_empty_ids():
    with pytest.raises(FleetError, match="clock_quantum"):
        Fleet("minimal", hosts=1, clock_quantum=0.0)
    with pytest.raises(FleetError, match="duplicate"):
        Fleet("minimal", host_ids=["a", "a"])
    with pytest.raises(FleetError, match="at least one"):
        Fleet("minimal", hosts=0)


@pytest.mark.parametrize("quantum", [float("nan"), float("inf")])
def test_rejects_non_finite_quantum(quantum):
    with pytest.raises(FleetError, match="clock_quantum"):
        Fleet("minimal", hosts=1, clock_quantum=quantum)


@pytest.mark.parametrize("attempts", [0, -3])
def test_rejects_max_attempts_below_one(attempts):
    with pytest.raises(FleetError, match="max_attempts"):
        Fleet("minimal", hosts=2, max_attempts=attempts)


def test_unknown_host_raises():
    fleet = small_fleet()
    with pytest.raises(UnknownHostError):
        fleet.host("nope")


# -- the fleet clock ---------------------------------------------------------


def test_advance_to_rejects_going_backwards():
    fleet = small_fleet()
    fleet.advance_to(0.01)
    with pytest.raises(ClockError):
        fleet.advance_to(0.005)


def test_planner_controls_once_per_quantum_boundary():
    fleet = small_fleet(clock_quantum=0.002, clock="lockstep")
    boundaries = []
    original = fleet.planner.control
    fleet.planner.control = lambda: (boundaries.append(fleet.now),
                                     original())
    fleet.advance_to(0.01)
    assert len(boundaries) == 5  # 0.002, 0.004, ..., 0.010


def test_event_clock_leaves_idle_hosts_behind_until_woken():
    fleet = small_fleet(clock="event")
    fleet.advance_to(0.02)
    assert fleet.now == pytest.approx(0.02)
    # Hosts run periodic tasks (arbiter/monitor may be off in defaults),
    # but whatever their local clocks read, wake() must land them on
    # fleet time exactly.
    fleet.wake("host01")
    assert fleet.host("host01").now == pytest.approx(0.02)


def test_unknown_clock_name_rejected():
    with pytest.raises(FleetError, match="unknown fleet clock"):
        small_fleet(clock="metronome")


# -- remapping ---------------------------------------------------------------


def test_remap_is_identity_on_homogeneous_fleet():
    fleet = small_fleet()
    intent = kv()
    assert fleet.remap_intent(intent, "host01") is intent


def test_canonical_device_key_vocabulary():
    fleet = small_fleet()
    assert fleet.canonical_device_key("nic0") == "nic:0"
    assert fleet.canonical_device_key("nic1") == "nic:1"
    assert fleet.canonical_device_key("dimm0-0") == "dimm:0"
    assert fleet.canonical_device_key("missing") is None


# -- delegation --------------------------------------------------------------


def test_submit_release_placements_roundtrip():
    fleet = small_fleet()
    placed = fleet.submit(kv())
    assert placed.intent_id == "kv"
    assert placed.tenant_id == "tA"
    assert [p.intent_id for p in fleet.placements()] == ["kv"]
    fleet.release("kv")
    assert fleet.placements() == []


def test_describe_names_every_host():
    fleet = small_fleet()
    fleet.submit(kv())
    text = fleet.describe()
    for host_id in fleet.host_ids():
        assert host_id in text
    assert "ClusterScheduler" in text and "FleetTelemetry" in text
    assert "Fleet(hosts=3" in repr(fleet)


def test_shutdown_stops_resilient_hosts():
    fleet = small_fleet(resilience=True)
    for _host_id, host in fleet.hosts():
        assert host.recovery is not None
    fleet.advance_to(0.01)
    fleet.shutdown()
    fleet.shutdown()  # idempotent: a second call is a no-op
