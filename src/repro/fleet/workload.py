"""Deterministic fleet churn workloads.

One seeded generator shared by the ``python -m repro fleet run`` CLI, the
``bench_fleet_placement`` regression gate, and the determinism tests, so
all three drive byte-identical event sequences for a given config.

The workload is the paper's multi-tenant cloud at fleet scale: tenants
"come and go" as a marked Poisson process of performance intents.  Sizes
are deliberately bimodal — a churning crowd of small pipes plus a heavy
tail of near-link-capacity ones — because that is the regime where
placement policy decides the rejection rate: packers that keep contiguous
per-link headroom admit the big intents that blind placement strands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.intents import PerformanceTarget, pipe
from ..errors import FleetError
from ..sim.rng import make_rng
from ..topology.elements import DeviceType
from ..units import Gbps
from .cluster import Fleet


@dataclass(frozen=True)
class FleetChurnConfig:
    """Knobs for one seeded churn run.

    Attributes:
        seed: Master seed; everything derives from it.
        tenants: Size of the tenant pool intents are drawn from.
        horizon: Simulated seconds of churn.
        arrival_rate: Intent arrivals per simulated second (fleet-wide).
        mean_holding: Mean intent lifetime (exponential).  By default
            sessions outliving the horizon are simply never released,
            which truncation-biases utilization and lifetime stats; see
            ``drain``.
        small_bandwidth: (lo, hi) bytes/s of the churning crowd.
        large_bandwidth: (lo, hi) bytes/s of the heavy tail.
        large_fraction: Probability an arrival is heavy-tail.
        bidirectional_fraction: Probability a pipe guards both directions.
        drain: When ``True``, every session still live at the horizon is
            released exactly at horizon end, so ``released`` equals
            ``admitted`` and end-of-run per-host counts measure policy,
            not truncation.  The arrival/size draws are unchanged — a
            drained run admits and rejects identically to an undrained
            one with the same seed.
    """

    seed: int = 0
    tenants: int = 12
    horizon: float = 0.4
    arrival_rate: float = 4000.0
    mean_holding: float = 0.08
    small_bandwidth: Tuple[float, float] = (Gbps(5), Gbps(40))
    large_bandwidth: Tuple[float, float] = (Gbps(120), Gbps(200))
    large_fraction: float = 0.2
    bidirectional_fraction: float = 0.25
    drain: bool = False

    def __post_init__(self) -> None:
        check_churn_rates(self.horizon, self.arrival_rate,
                          self.mean_holding)
        check_count("tenants", self.tenants)
        for name in ("large_fraction", "bidirectional_fraction"):
            value = getattr(self, name)
            if not 0 <= value <= 1:  # also rejects NaN
                raise FleetError(f"{name} must be in [0, 1], got {value}")
        for name in ("small_bandwidth", "large_bandwidth"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi < math.inf:
                raise FleetError(
                    f"{name} must be finite with 0 < lo <= hi, "
                    f"got ({lo}, {hi})")


def check_churn_rates(horizon: float, arrival_rate: float,
                      mean_holding: float) -> None:
    """Raise :class:`FleetError` unless the churn stream's horizon,
    arrival rate and mean holding time are finite and > 0 (anything else
    makes the arrival loop never reach the horizon, or divide by zero)."""
    for name, value in (("horizon", horizon),
                        ("arrival_rate", arrival_rate),
                        ("mean_holding", mean_holding)):
        if not 0 < value < math.inf:
            raise FleetError(
                f"{name} must be finite and > 0, got {value}")


def check_count(name: str, value: int, minimum: int = 1) -> None:
    """Raise :class:`FleetError` unless the count *value* is >= *minimum*."""
    if not value >= minimum:
        raise FleetError(f"{name} must be >= {minimum}, got {value}")


@dataclass
class FleetChurnReport:
    """Outcome of one churn run.

    Attributes:
        config: The driving config.
        submitted / admitted / rejected / released: Intent counters.
        migrations: Committed cross-host moves during the run.
        placements: Final ``(intent_id, host_id)`` pairs, sorted — the
            determinism signature two same-seed runs must agree on.
        per_host: Final intent count per host.
    """

    config: FleetChurnConfig
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    released: int = 0
    migrations: int = 0
    placements: List[Tuple[str, str]] = field(default_factory=list)
    per_host: Dict[str, int] = field(default_factory=dict)

    @property
    def rejection_rate(self) -> float:
        """Rejected fraction of all placement decisions."""
        return self.rejected / self.submitted if self.submitted else 0.0

    def describe(self) -> str:
        """Human-readable run summary."""
        lines = [
            f"churn: {self.submitted} intents over "
            f"{self.config.horizon:g}s (seed={self.config.seed}): "
            f"{self.admitted} admitted, {self.rejected} rejected "
            f"({self.rejection_rate:.1%}), {self.released} released, "
            f"{self.migrations} migrations"
        ]
        for host_id in sorted(self.per_host):
            lines.append(f"  {host_id}: {self.per_host[host_id]} "
                         f"intents at end")
        return "\n".join(lines)


def generate_events(config: FleetChurnConfig,
                    fleet: Fleet) -> List[Tuple[float, int, str, object]]:
    """The run's full event list: ``(time, seq, kind, payload)`` sorted.

    ``kind`` is ``"arrive"`` (payload: the intent) or ``"depart"``
    (payload: the intent id).  Endpoints are drawn from the fleet's
    *reference* topology — NIC/GPU sources into DIMM sinks, the paper's
    canonical I/O-to-memory pipes — and remapped per host at admission.
    """
    reference = fleet.reference_topology
    sources = sorted(
        d.device_id for t in (DeviceType.NIC, DeviceType.GPU)
        for d in reference.devices(t)
    )
    sinks = sorted(d.device_id for d in reference.devices(DeviceType.DIMM))
    if not sources or not sinks:
        raise FleetError(
            f"reference topology {reference.name!r} lacks NIC/GPU sources "
            f"or DIMM sinks for the churn workload"
        )

    rng = make_rng(config.seed, "fleet-churn")
    events: List[Tuple[float, int, str, object]] = []
    t = 0.0
    seq = 0
    index = 0
    while True:
        t += rng.expovariate(config.arrival_rate)
        if t >= config.horizon:
            break
        if rng.random() < config.large_fraction:
            lo, hi = config.large_bandwidth
        else:
            lo, hi = config.small_bandwidth
        intent = pipe(
            f"i{index:05d}",
            f"t{rng.randrange(config.tenants):02d}",
            src=rng.choice(sources),
            dst=rng.choice(sinks),
            bandwidth=rng.uniform(lo, hi),
            bidirectional=rng.random() < config.bidirectional_fraction,
        )
        events.append((t, seq, "arrive", intent))
        seq += 1
        departure = t + rng.expovariate(1.0 / config.mean_holding)
        if departure < config.horizon:
            events.append((departure, seq, "depart", intent.intent_id))
            seq += 1
        elif config.drain:
            # Clamp to the horizon instead of dropping: the RNG draw
            # above happens either way, so drained and undrained runs
            # stay event-for-event identical until the horizon.
            events.append((config.horizon, seq, "depart",
                           intent.intent_id))
            seq += 1
        index += 1
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def run_churn(fleet: Fleet,
              config: Optional[FleetChurnConfig] = None) -> FleetChurnReport:
    """Drive *fleet* through one seeded churn run.

    The fleet advances to each event time under whatever clock discipline
    it was built with (event-driven by default — same seeded results as
    lockstep, without waking idle hosts); arrivals go through the cluster
    scheduler (rejections are final — no retry — so the rejection rate
    cleanly measures the placement policy), departures release whatever
    is still placed, wherever migration may have moved it.
    """
    config = config or FleetChurnConfig()
    report = FleetChurnReport(config=config)
    for time, _seq, kind, payload in generate_events(config, fleet):
        fleet.advance_to(time)
        if kind == "arrive":
            intent: PerformanceTarget = payload
            report.submitted += 1
            if fleet.try_submit(intent) is not None:
                report.admitted += 1
            else:
                report.rejected += 1
        else:
            intent_id: str = payload
            if fleet.scheduler.has_intent(intent_id):
                fleet.release(intent_id)
                report.released += 1
    fleet.advance_to(config.horizon)
    report.migrations = len(fleet.planner.migrations(ok_only=True))
    report.placements = [
        (p.intent_id, p.host_id) for p in fleet.placements()
    ]
    for _intent_id, host_id in report.placements:
        report.per_host[host_id] = report.per_host.get(host_id, 0) + 1
    return report
