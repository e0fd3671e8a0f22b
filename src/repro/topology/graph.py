"""The :class:`HostTopology` graph: devices + links with query helpers.

A thin, validated wrapper around :mod:`networkx` that keeps device/link
objects authoritative (the graph stores only ids) and exposes the queries
the rest of the library needs: neighbors, incident links, NUMA locality,
and class-based filtering.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx

from ..errors import (
    DuplicateElementError,
    UnknownDeviceError,
    UnknownLinkError,
)
from .elements import Device, DeviceType, Link, LinkClass


class HostTopology:
    """A mutable intra-host network topology.

    Devices are nodes, links are undirected edges (capacity is enforced per
    direction at the flow layer).  Multiple parallel links between the same
    device pair are supported (e.g. two UPI links between sockets), which is
    why links are addressed by id rather than by endpoint pair.
    """

    def __init__(self, name: str = "host") -> None:
        self.name = name
        self._devices: Dict[str, Device] = {}
        self._links: Dict[str, Link] = {}
        # MultiGraph because dual-socket boxes commonly have 2-3 UPI links.
        self._graph = nx.MultiGraph()
        # Path-enumeration cache (see routing.enumerate_paths), guarded by
        # a link-state fingerprint rather than a version counter so it
        # stays correct even when Link objects are mutated directly.
        self._route_cache: Dict[tuple, tuple] = {}
        self._route_cache_state: Optional[tuple] = None

    # -- construction ------------------------------------------------------

    def add_device(self, device: Device) -> Device:
        """Register *device*; raises :class:`DuplicateElementError` on reuse."""
        if device.device_id in self._devices:
            raise DuplicateElementError(f"device already exists: {device.device_id!r}")
        self._devices[device.device_id] = device
        self._graph.add_node(device.device_id)
        return device

    def add_link(self, link: Link) -> Link:
        """Register *link* between two existing devices."""
        if link.link_id in self._links:
            raise DuplicateElementError(f"link already exists: {link.link_id!r}")
        for end in (link.src, link.dst):
            if end not in self._devices:
                raise UnknownDeviceError(end)
        self._links[link.link_id] = link
        self._graph.add_edge(link.src, link.dst, key=link.link_id)
        return link

    def remove_link(self, link_id: str) -> Link:
        """Remove and return the link with *link_id*."""
        link = self.link(link_id)
        self._graph.remove_edge(link.src, link.dst, key=link_id)
        del self._links[link_id]
        return link

    # -- lookup ------------------------------------------------------------

    def device(self, device_id: str) -> Device:
        """Return the device with *device_id* or raise :class:`UnknownDeviceError`."""
        try:
            return self._devices[device_id]
        except KeyError:
            raise UnknownDeviceError(device_id) from None

    def link(self, link_id: str) -> Link:
        """Return the link with *link_id* or raise :class:`UnknownLinkError`."""
        try:
            return self._links[link_id]
        except KeyError:
            raise UnknownLinkError(link_id) from None

    def has_device(self, device_id: str) -> bool:
        """Whether a device with *device_id* exists."""
        return device_id in self._devices

    def has_link(self, link_id: str) -> bool:
        """Whether a link with *link_id* exists."""
        return link_id in self._links

    # -- iteration ---------------------------------------------------------

    def devices(self, device_type: Optional[DeviceType] = None) -> List[Device]:
        """All devices, optionally filtered by :class:`DeviceType`."""
        if device_type is None:
            return list(self._devices.values())
        return [d for d in self._devices.values() if d.device_type == device_type]

    def links(self, link_class: Optional[LinkClass] = None) -> List[Link]:
        """All links, optionally filtered by :class:`LinkClass`."""
        if link_class is None:
            return list(self._links.values())
        return [l for l in self._links.values() if l.link_class == link_class]

    def device_ids(self) -> Iterator[str]:
        """Iterate over all device ids."""
        return iter(self._devices)

    def link_ids(self) -> Iterator[str]:
        """Iterate over all link ids."""
        return iter(self._links)

    def endpoints(self) -> List[Device]:
        """Devices that can originate/sink application flows."""
        return [d for d in self._devices.values() if d.is_endpoint]

    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._devices

    # -- adjacency ---------------------------------------------------------

    def incident_links(self, device_id: str) -> List[Link]:
        """Links incident to *device_id*."""
        self.device(device_id)  # validate
        result = []
        for _, _, key in self._graph.edges(device_id, keys=True):
            result.append(self._links[key])
        return result

    def neighbors(self, device_id: str) -> List[str]:
        """Device ids adjacent to *device_id* (deduplicated)."""
        self.device(device_id)
        return list(self._graph.neighbors(device_id))

    def links_between(self, a: str, b: str) -> List[Link]:
        """All parallel links between devices *a* and *b*."""
        self.device(a)
        self.device(b)
        if not self._graph.has_edge(a, b):
            return []
        return [self._links[key] for key in self._graph[a][b]]

    def degree(self, device_id: str) -> int:
        """Number of links incident to *device_id*."""
        return len(self.incident_links(device_id))

    # -- route cache -------------------------------------------------------

    #: Route caches shared across instances, keyed by (name, fingerprint).
    #: The fingerprint captures full structure and link state, so the many
    #: identical hosts of a fleet pay for each (src, dst) enumeration once
    #: process-wide instead of once per host.
    _SHARED_ROUTE_CACHES: Dict[tuple, Dict[tuple, tuple]] = {}
    _SHARED_ROUTE_CACHE_LIMIT = 128

    def link_state_fingerprint(self) -> Tuple[tuple, ...]:
        """Every link's structure and state, in one hashable value.

        Endpoints pin the structure (two topologies agreeing on every
        link's id and ends enumerate identical paths); health, capacity,
        and degradation each change which paths are viable or what their
        baked-in bottleneck is; base latency sets each path's
        ``base_latency`` and so the order paths are enumerated in, and
        with the injected extra latency it sets what a path's probe
        reads.  Both the route cache and the latency probe's reuse key
        (:class:`~repro.slo.probe.LatencyProbe`) rest on it.
        """
        return tuple(
            (link_id, link.src, link.dst, link.up, link.capacity,
             link.degraded_capacity, link.base_latency, link.extra_latency)
            for link_id, link in self._links.items()
        )

    def _route_cache_get(self, key: tuple) -> Optional[tuple]:
        """Cached enumeration for *key*, swapping caches when stale."""
        state = self.link_state_fingerprint()
        if state != self._route_cache_state:
            self._route_cache_state = state
            shared = HostTopology._SHARED_ROUTE_CACHES
            cache = shared.get((self.name, state))
            if cache is None:
                if len(shared) >= HostTopology._SHARED_ROUTE_CACHE_LIMIT:
                    shared.clear()
                cache = shared.setdefault((self.name, state), {})
            self._route_cache = cache
        return self._route_cache.get(key)

    def _route_cache_put(self, key: tuple, paths: tuple) -> None:
        self._route_cache[key] = paths

    # -- NUMA / locality ---------------------------------------------------

    def socket_of(self, device_id: str) -> Optional[int]:
        """NUMA socket index of *device_id*, or ``None`` if unattached."""
        return self.device(device_id).socket

    def same_socket(self, a: str, b: str) -> bool:
        """Whether both devices are attached to the same (non-None) socket."""
        sa, sb = self.socket_of(a), self.socket_of(b)
        return sa is not None and sa == sb

    def sockets(self) -> List[int]:
        """Sorted list of distinct socket indices present in the topology."""
        found = {d.socket for d in self._devices.values() if d.socket is not None}
        return sorted(found)

    # -- graph views -------------------------------------------------------

    @property
    def graph(self) -> nx.MultiGraph:
        """The underlying :class:`networkx.MultiGraph` (ids only)."""
        return self._graph

    def healthy_subgraph(self) -> nx.MultiGraph:
        """A copy of the graph containing only links that are up."""
        sub = nx.MultiGraph()
        sub.add_nodes_from(self._graph.nodes)
        for link in self._links.values():
            if link.up:
                sub.add_edge(link.src, link.dst, key=link.link_id)
        return sub

    def is_connected(self) -> bool:
        """Whether every device can reach every other over up links."""
        if len(self._devices) <= 1:
            return True
        return nx.is_connected(self.healthy_subgraph())

    # -- capacity summaries --------------------------------------------------

    def total_capacity(self, link_class: Optional[LinkClass] = None) -> float:
        """Sum of effective capacities (bytes/s), optionally per link class."""
        return sum(l.effective_capacity for l in self.links(link_class))

    def directed_capacities(self, advertised: bool = False) -> Dict[str, float]:
        """Per-direction constraint capacities, keyed ``<link_id>|fwd/rev``.

        Links are full duplex, so the flow layer enforces capacity per
        direction under these ids (the solver's physical constraint
        namespace).  By default effective (degradation-aware) capacities
        are returned; ``advertised=True`` uses the spec-sheet values.
        """
        capacities: Dict[str, float] = {}
        for link in self._links.values():
            cap = link.capacity if advertised else link.effective_capacity
            capacities[f"{link.link_id}|fwd"] = cap
            capacities[f"{link.link_id}|rev"] = cap
        return capacities

    def describe(self) -> str:
        """Multi-line human-readable summary of the topology."""
        lines = [f"HostTopology {self.name!r}: "
                 f"{len(self._devices)} devices, {len(self._links)} links"]
        by_type: Dict[DeviceType, int] = {}
        for d in self._devices.values():
            by_type[d.device_type] = by_type.get(d.device_type, 0) + 1
        for dtype in sorted(by_type, key=lambda t: t.value):
            lines.append(f"  {dtype.value}: {by_type[dtype]}")
        by_class: Dict[LinkClass, int] = {}
        for l in self._links.values():
            by_class[l.link_class] = by_class.get(l.link_class, 0) + 1
        for lclass in sorted(by_class, key=lambda c: c.value):
            lines.append(f"  links[{lclass.value}]: {by_class[lclass]}")
        return "\n".join(lines)

    def copy(self) -> "HostTopology":
        """Deep-ish copy: new topology with copied Link objects (Devices are
        immutable and shared)."""
        clone = HostTopology(self.name)
        for device in self._devices.values():
            clone.add_device(device)
        for link in self._links.values():
            clone.add_link(
                Link(
                    link_id=link.link_id,
                    src=link.src,
                    dst=link.dst,
                    link_class=link.link_class,
                    capacity=link.capacity,
                    base_latency=link.base_latency,
                    degraded_capacity=link.degraded_capacity,
                    extra_latency=link.extra_latency,
                    up=link.up,
                )
            )
        return clone
