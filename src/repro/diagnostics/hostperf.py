"""``hostperf`` — intra-host iperf: measure achievable path bandwidth.

Launches a real elastic probe flow between two devices, runs the simulation
for the measurement window, and reports the achieved rate.  Because the
probe is a genuine flow, it competes fairly with (and perturbs) background
traffic — exactly like iperf on a production network, which is why the
toolkit runs it last during automated troubleshooting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import MonitorError
from ..sim.network import SYSTEM_TENANT, FabricNetwork
from ..topology.routing import Path, shortest_path, widest_path
from ..units import format_bandwidth


@dataclass(frozen=True)
class PerfReport:
    """Result of one :func:`hostperf` run.

    Attributes:
        src / dst: Measured device pair.
        path: Fabric path probed.
        duration: Measurement window (seconds).
        bytes_moved: Probe bytes transferred in the window.
        achieved_rate: bytes_moved / duration.
        bottleneck_capacity: The path's spec bottleneck for comparison.
    """

    src: str
    dst: str
    path: Path
    duration: float
    bytes_moved: float
    achieved_rate: float
    bottleneck_capacity: float

    @property
    def efficiency(self) -> float:
        """Achieved rate as a fraction of the spec bottleneck."""
        if self.bottleneck_capacity <= 0:
            return 0.0
        return self.achieved_rate / self.bottleneck_capacity

    def describe(self) -> str:
        """iperf-style human-readable output."""
        return (
            f"HOSTPERF {self.src} -> {self.dst} via {self.path}\n"
            f"achieved {format_bandwidth(self.achieved_rate)} over "
            f"{self.duration:.3f}s "
            f"({self.efficiency:.0%} of spec bottleneck "
            f"{format_bandwidth(self.bottleneck_capacity)})"
        )


def hostperf(
    network: FabricNetwork,
    src: str,
    dst: str,
    duration: float = 0.05,
    demand: Optional[float] = None,
    use_widest_path: bool = False,
) -> PerfReport:
    """Measure achievable bandwidth from *src* to *dst*.

    Args:
        network: The live fabric.
        duration: Measurement window in simulated seconds (the engine is
            advanced by this much).
        demand: Probe offered rate; ``None`` means elastic (grab the full
            fair share).
        use_widest_path: Probe the max-capacity path instead of the
            min-latency path.
    """
    if not 0 < duration < math.inf:
        raise MonitorError(f"duration must be finite and > 0, got {duration}")
    pick = widest_path if use_widest_path else shortest_path
    path = pick(network.topology, src, dst)
    flow = network.start_transfer(
        SYSTEM_TENANT, path, size=None,
        demand=demand if demand is not None else float("inf"),
        tags={"app": "hostperf"},
    )
    start = network.engine.now
    network.engine.run_until(start + duration)
    cancelled = network.cancel_flow(flow.flow_id)
    moved = cancelled.bytes_sent
    return PerfReport(
        src=src, dst=dst, path=path, duration=duration,
        bytes_moved=moved, achieved_rate=moved / duration,
        bottleneck_capacity=path.bottleneck_capacity,
    )
