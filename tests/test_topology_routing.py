"""Path enumeration, selection, and transit rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoPathError
from repro.topology import (
    cascade_lake_2s,
    dgx_like,
    enumerate_paths,
    k_shortest_paths,
    make_path,
    shortest_path,
    widest_path,
)


@pytest.fixture(scope="module")
def cascade():
    return cascade_lake_2s()


@pytest.fixture(scope="module")
def dgx():
    return dgx_like()


class TestMakePath:
    def test_latency_and_bottleneck(self, cascade):
        p = make_path(cascade, ("nic0", "pcisw0", "rc0-0"),
                      ("pcie-nic0", "pcie-up0"))
        nic_link = cascade.link("pcie-nic0")
        up_link = cascade.link("pcie-up0")
        assert p.base_latency == pytest.approx(
            nic_link.base_latency + up_link.base_latency
        )
        assert p.bottleneck_capacity == pytest.approx(
            min(nic_link.capacity, up_link.capacity)
        )

    def test_trivial_path(self, cascade):
        p = make_path(cascade, ("nic0",), ())
        assert p.hop_count == 0
        assert p.bottleneck_capacity == float("inf")

    def test_shape_mismatch_rejected(self, cascade):
        with pytest.raises(ValueError):
            make_path(cascade, ("nic0", "pcisw0"), ())

    def test_wrong_link_rejected(self, cascade):
        with pytest.raises(ValueError):
            make_path(cascade, ("nic0", "pcisw0"), ("pcie-up0",))

    def test_uses_helpers(self, cascade):
        p = shortest_path(cascade, "nic0", "dimm0-0")
        assert p.uses_device("socket0")
        assert p.uses_link("pcie-nic0")
        assert not p.uses_link("eth0")


class TestEnumeration:
    def test_no_duplicate_paths(self, dgx):
        paths = enumerate_paths(dgx, "gpu0", "dimm1-0")
        keys = [p.links for p in paths]
        assert len(keys) == len(set(keys))

    def test_endpoint_devices_never_transit(self, dgx):
        for p in enumerate_paths(dgx, "gpu0", "dimm1-0", max_paths=32):
            for device_id in p.devices[1:-1]:
                dtype = dgx.device(device_id).device_type.value
                assert dtype not in ("gpu", "nvme_ssd", "dimm", "external")

    def test_nic_transit_only_next_to_external(self, dgx):
        # gpu0 -> external legitimately transits nic0/nic1
        paths = enumerate_paths(dgx, "gpu0", "external", max_paths=32)
        assert paths, "expected at least one path to external"
        for p in paths:
            for i, device_id in enumerate(p.devices[1:-1], start=1):
                if dgx.device(device_id).device_type.value == "nic":
                    neighbors = {p.devices[i - 1], p.devices[i + 1]}
                    assert "external" in neighbors

    def test_same_device_trivial(self, cascade):
        paths = enumerate_paths(cascade, "nic0", "nic0")
        assert len(paths) == 1 and paths[0].hop_count == 0


class TestSelection:
    def test_shortest_is_minimal_latency(self, dgx):
        best = shortest_path(dgx, "gpu0", "dimm0-0")
        for p in enumerate_paths(dgx, "gpu0", "dimm0-0"):
            assert best.base_latency <= p.base_latency + 1e-15

    def test_widest_is_maximal_bottleneck(self, dgx):
        widest = widest_path(dgx, "gpu0", "dimm0-0")
        for p in enumerate_paths(dgx, "gpu0", "dimm0-0", prefer="capacity"):
            assert widest.bottleneck_capacity >= p.bottleneck_capacity - 1e-6

    def test_k_shortest_ordering(self, dgx):
        paths = k_shortest_paths(dgx, "gpu0", "dimm1-0", k=4)
        latencies = [p.base_latency for p in paths]
        assert latencies == sorted(latencies)
        assert len(paths) <= 4

    def test_no_path_raises(self, cascade):
        cascade2 = cascade.copy()
        cascade2.link("pcie-nic0").up = False
        with pytest.raises(NoPathError):
            shortest_path(cascade2, "nic0", "dimm0-0")

    def test_down_parallel_link_skipped(self):
        topo = cascade_lake_2s()
        # two UPI links; kill one, path must use the other
        topo.link("upi-socket0-socket1-0").up = False
        p = shortest_path(topo, "dimm0-0", "dimm1-0")
        assert "upi-socket0-socket1-1" in p.links

    def test_degraded_link_avoided_by_widest(self):
        topo = cascade_lake_2s()
        topo.link("upi-socket0-socket1-0").degraded_capacity = 1e9
        p = widest_path(topo, "dimm0-0", "dimm1-0")
        assert "upi-socket0-socket1-0" not in p.links


@settings(max_examples=25, deadline=None)
@given(pair=st.sampled_from([
    ("nic0", "dimm0-0"), ("nic0", "gpu0"), ("gpu0", "nvme0"),
    ("nic1", "dimm1-0"), ("gpu1", "dimm0-0"), ("nvme1", "external"),
]))
def test_paths_are_simple_and_connected_property(pair):
    topo = cascade_lake_2s()
    src, dst = pair
    for p in enumerate_paths(topo, src, dst, max_paths=16):
        # simple: no repeated devices
        assert len(set(p.devices)) == len(p.devices)
        # connected: each link joins consecutive devices
        for i, link_id in enumerate(p.links):
            link = topo.link(link_id)
            assert {p.devices[i], p.devices[i + 1]} == {link.src, link.dst}
        assert p.src == src and p.dst == dst


def test_route_cache_keys_on_base_latency():
    """Enumerations are shared process-wide between topologies with the
    same link-state fingerprint, and a path's ``base_latency`` (and so
    the order paths come in) depends on every link's base latency: two
    topologies that differ only there must not share enumerations."""
    reference = [(p.links, p.base_latency)
                 for p in k_shortest_paths(cascade_lake_2s(), "nic0",
                                           "dimm1-0")]
    slow = cascade_lake_2s()
    slow.link("upi-socket0-socket1-0").base_latency = 1.4e-6
    slowed = [(p.links, p.base_latency)
              for p in k_shortest_paths(slow, "nic0", "dimm1-0")]
    again = [(p.links, p.base_latency)
             for p in k_shortest_paths(cascade_lake_2s(), "nic0", "dimm1-0")]
    assert again == reference
    assert slowed != reference
    assert all(latency == pytest.approx(4.5e-7)
               for _links, latency in reference)
