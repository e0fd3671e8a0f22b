"""Latency model: base propagation plus utilization-dependent queueing.

Small operations (RDMA reads, KV requests, heartbeat probes) are not worth
fluid-modelling as flows; their latency is computed analytically from the
current fabric state:

``latency(path, size) = sum_l base_l * (1 + inflation(rho_l)) + size / avail``

where ``rho_l`` is link *l*'s instantaneous utilization and ``avail`` is the
residual bandwidth at the path bottleneck.  The inflation term is an
M/M/1-style ``alpha * rho / (1 - rho)`` curve, capped so a fully saturated
link yields a large-but-finite latency — matching the measured behaviour
that PCIe/memory-bus congestion inflates tail latency by one to two orders
of magnitude (Agarwal'22, Hostping'23) rather than diverging.

A round trip is ``latency(path, request) + latency(path, response)``: both
legs cross the same links at the same instant, so one walk over the path
serves both, and only the serialization terms differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..topology.graph import HostTopology
from ..topology.routing import Path


@dataclass
class LatencyModel:
    """Tunable queueing-inflation parameters.

    Attributes:
        alpha: Scale of the queueing term (dimensionless).
        rho_cap: Utilization is clamped to this value before the ``1/(1-rho)``
            pole, bounding worst-case inflation at
            ``alpha * rho_cap / (1 - rho_cap)``.
        min_residual_fraction: Fraction of a link's capacity assumed reachable
            by a small probe even on a saturated link (fair-share floor).
    """

    alpha: float = 1.0
    rho_cap: float = 0.98
    min_residual_fraction: float = 0.02

    def inflation(self, utilization: float) -> float:
        """Multiplicative queueing-delay factor for a link at *utilization*."""
        rho = min(max(utilization, 0.0), self.rho_cap)
        return self.alpha * rho / (1.0 - rho)

    def link_latency(self, base_latency: float, utilization: float) -> float:
        """One-way latency of a link at the given utilization."""
        return base_latency * (1.0 + self.inflation(utilization))

    def path_latency(
        self,
        topology: HostTopology,
        path: Path,
        utilization_of: Callable[[str], float],
        message_size: float = 0.0,
    ) -> float:
        """One-way latency of *message_size* bytes along *path* right now.

        ``utilization_of`` maps a link id to instantaneous utilization in
        [0, 1] (typically ``FabricNetwork.link_utilization``).  Returns
        ``inf`` if any link on the path is down.
        """
        walk = self._walk(topology, path, utilization_of)
        if walk is None:
            return math.inf
        total, residual = walk
        if message_size > 0 and path.links:
            total += message_size / residual
        return total

    def round_trip(
        self,
        topology: HostTopology,
        path: Path,
        utilization_of: Callable[[str], float],
        request_size: float = 0.0,
        response_size: float = 0.0,
    ) -> float:
        """Round-trip latency for a request/response over *path* and back.

        Equals ``path_latency(request_size) + path_latency(response_size)``
        bit for bit, from one walk over the path.
        """
        walk = self._walk(topology, path, utilization_of)
        if walk is None:
            return math.inf
        total, residual = walk
        forward = backward = total
        if path.links:
            if request_size > 0:
                forward += request_size / residual
            if response_size > 0:
                backward += response_size / residual
        return forward + backward

    def _walk(
        self,
        topology: HostTopology,
        path: Path,
        utilization_of: Callable[[str], float],
    ) -> Optional[Tuple[float, float]]:
        """Summed inflated hop latencies of *path* and its bottleneck
        residual bandwidth, or ``None`` when a hop is down."""
        total = 0.0
        residual = math.inf
        # Hot path: every latency-probe sample lands here, so the
        # inflation/link_latency composition is inlined (identical
        # arithmetic, two fewer calls per hop).
        alpha = self.alpha
        rho_cap = self.rho_cap
        floor_fraction = self.min_residual_fraction
        link_of = topology.link
        for link_id in path.links:
            link = link_of(link_id)
            cap = link.effective_capacity
            if cap <= 0:
                return None
            rho = utilization_of(link_id)
            clamped = rho
            if clamped < 0.0:
                clamped = 0.0
            if clamped > rho_cap:
                clamped = rho_cap
            total += link.effective_latency * (
                1.0 + alpha * clamped / (1.0 - clamped))
            free = max(cap * (1.0 - rho), cap * floor_fraction)
            if free < residual:
                residual = free
        return total, residual


DEFAULT_LATENCY_MODEL = LatencyModel()
