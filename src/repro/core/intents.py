"""Performance targets: the application intent the manager interprets.

§3.2: "The manageable intra-host network needs to 'interpret' the
application intent (i.e., performance targets) into a set of low-level
requirements based on a resource model."  An intent names *what the tenant
wants* (bandwidth between endpoints, or aggregate bandwidth at an endpoint,
optionally with a latency SLO) without saying anything about paths or
links — those are the interpreter's and scheduler's business.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional


class IntentKind(enum.Enum):
    """The resource-model flavour of an intent (§3.2 Q1, [16]).

    PIPE — a guarantee between a specific source/destination pair
    (conservative: reserves along one concrete path).
    HOSE — an aggregate ingress+egress guarantee at one endpoint,
    regardless of peers (more flexible, admits denser packing).
    """

    PIPE = "pipe"
    HOSE = "hose"


@dataclass(frozen=True)
class PerformanceTarget:
    """One tenant's declared performance intent.

    Attributes:
        intent_id: Unique id.
        tenant_id: The requesting tenant.
        kind: :class:`IntentKind`.
        bandwidth: Guaranteed floor in bytes/s.
        src: Source device (PIPE) or the endpoint (HOSE).
        dst: Destination device (PIPE only; must be ``None`` for HOSE).
        latency_slo: Optional round-trip latency bound in seconds; candidate
            paths whose zero-load RTT exceeds it are rejected at
            interpretation time.
        work_conserving: Whether the tenant may use spare bandwidth beyond
            its floor when available.
        bidirectional: PIPE only — guarantee the floor in *both* directions
            of the path (request/response services need the return
            direction protected too).  HOSE intents are always
            bidirectional by definition.
    """

    intent_id: str
    tenant_id: str
    kind: IntentKind
    bandwidth: float
    src: str
    dst: Optional[str] = None
    latency_slo: Optional[float] = None
    work_conserving: bool = True
    bidirectional: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(
                f"intent {self.intent_id!r}: bandwidth must be finite "
                f"and > 0, got {self.bandwidth}"
            )
        if self.kind is IntentKind.PIPE and self.dst is None:
            raise ValueError(
                f"intent {self.intent_id!r}: PIPE intents need a dst"
            )
        if self.kind is IntentKind.HOSE and self.dst is not None:
            raise ValueError(
                f"intent {self.intent_id!r}: HOSE intents must not set dst"
            )
        if self.latency_slo is not None and not self.latency_slo > 0:
            raise ValueError(
                f"intent {self.intent_id!r}: latency_slo must be > 0"
            )


def pipe(intent_id: str, tenant_id: str, src: str, dst: str,
         bandwidth: float, latency_slo: Optional[float] = None,
         work_conserving: bool = True,
         bidirectional: bool = False) -> PerformanceTarget:
    """Convenience constructor for a PIPE intent."""
    return PerformanceTarget(
        intent_id=intent_id, tenant_id=tenant_id, kind=IntentKind.PIPE,
        bandwidth=bandwidth, src=src, dst=dst, latency_slo=latency_slo,
        work_conserving=work_conserving, bidirectional=bidirectional,
    )


def hose(intent_id: str, tenant_id: str, endpoint: str, bandwidth: float,
         latency_slo: Optional[float] = None,
         work_conserving: bool = True) -> PerformanceTarget:
    """Convenience constructor for a HOSE intent."""
    return PerformanceTarget(
        intent_id=intent_id, tenant_id=tenant_id, kind=IntentKind.HOSE,
        bandwidth=bandwidth, src=endpoint, dst=None, latency_slo=latency_slo,
        work_conserving=work_conserving,
    )
