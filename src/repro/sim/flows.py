"""Flow objects: the unit of bandwidth consumption in the fluid model."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..errors import FlowError
from ..topology.routing import Path


class FlowState(enum.Enum):
    """Lifecycle of a flow."""

    PENDING = "pending"  # created, not yet started on the fabric
    ACTIVE = "active"  # consuming bandwidth
    COMPLETED = "completed"  # finite flow transferred all its bytes
    CANCELLED = "cancelled"  # stopped before completion


@dataclass
class Flow:
    """A bandwidth-consuming transfer along a fixed path.

    Attributes:
        flow_id: Unique id.
        tenant_id: Owning tenant (``"_system"`` for infrastructure traffic
            like telemetry shipping and heartbeats).
        path: The :class:`~repro.topology.routing.Path` traversed.
        size: Total bytes to move, or ``None`` for an unbounded (persistent)
            flow that runs until cancelled.
        demand: Maximum useful rate in bytes/s (application offered load);
            ``inf`` means elastic (take any fair share available).
        weight: Max-min fairness weight.
        rate_cap: Runtime cap imposed by the arbiter (bytes/s); combined
            with demand as ``min(demand, rate_cap)``.
        on_complete: Callback fired when a finite flow finishes.
        tags: Free-form labels (application name, operation type ...).
    """

    flow_id: str
    tenant_id: str
    path: Path
    size: Optional[float] = None
    demand: float = math.inf
    weight: float = 1.0
    rate_cap: float = math.inf
    on_complete: Optional[Callable[["Flow"], None]] = None
    tags: Dict[str, str] = field(default_factory=dict)

    # Mutable runtime state (managed by FabricNetwork).
    state: FlowState = FlowState.PENDING
    current_rate: float = 0.0
    bytes_sent: float = 0.0
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def __post_init__(self) -> None:
        # Negated comparisons so that NaN fails each check too.
        if self.size is not None and not self.size > 0:
            raise FlowError(f"flow {self.flow_id!r}: size must be > 0 or None")
        if not self.demand >= 0:
            raise FlowError(f"flow {self.flow_id!r}: demand must be >= 0")
        if not 0 < self.weight < math.inf:
            raise FlowError(
                f"flow {self.flow_id!r}: weight must be finite and > 0")

    @property
    def effective_demand(self) -> float:
        """Offered load after applying the arbiter's rate cap."""
        return min(self.demand, self.rate_cap)

    @property
    def remaining_bytes(self) -> float:
        """Bytes left to transfer (``inf`` for unbounded flows)."""
        if self.size is None:
            return math.inf
        return max(self.size - self.bytes_sent, 0.0)

    @property
    def is_finite(self) -> bool:
        """Whether the flow has a fixed size."""
        return self.size is not None

    @property
    def duration(self) -> Optional[float]:
        """Completion time minus start time, when both are known."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def throughput(self) -> Optional[float]:
        """Average achieved rate over the flow's lifetime (bytes/s)."""
        d = self.duration
        if d is None or d <= 0:
            return None
        return self.bytes_sent / d

    def __str__(self) -> str:
        return (f"Flow({self.flow_id} tenant={self.tenant_id} "
                f"{self.path.src}->{self.path.dst} state={self.state.value})")
