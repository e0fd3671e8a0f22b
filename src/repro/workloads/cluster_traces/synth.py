"""Seeded synthesis of cluster traces in the normalized schema.

When no real trace file is given, the replay harness still needs
datacenter-*shaped* load — not the steady Poisson stream of the fleet
churn generator, but what public task tables actually look like:

* **bursty arrivals** — a sinusoidally modulated Poisson process (the
  diurnal swell every cluster trace shows), sampled by thinning so the
  draw count per accepted arrival is deterministic;
* **job structure** — tasks arrive in jobs (geometric sizes, small
  arrival stagger within a job) owned by one tenant, so tenant load is
  correlated the way real tenants are;
* **bimodal demand** — a churning crowd of small pipes plus a heavy tail
  near link capacity, the regime where placement policy decides the
  rejection rate (same rationale as ``FleetChurnConfig``);
* **heavy-tailed durations** — lognormal service times, so JCT
  percentiles have a tail worth reporting.

Everything derives from one seed: the same config is guaranteed to emit
a byte-identical :meth:`ClusterTrace.to_json`, which is what lets two
policies (or two clock disciplines, or two PRs) be compared on provably
identical load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ...errors import WorkloadError
from ...sim.rng import make_rng
from ...units import Gbps
from .schema import ClusterTask, ClusterTrace


@dataclass(frozen=True)
class SynthTraceConfig:
    """Knobs for one synthesized trace.

    Attributes:
        seed: Master seed; the emitted trace is a pure function of this
            config.
        tasks: Target task count (the generator stops at exactly this
            many, so reports are comparable across configs).
        tenants: Tenant pool size; each job is owned by one tenant.
        horizon: Seconds of simulated arrivals (the last task may finish
            after it; replay drains naturally).
        mean_job_size: Mean tasks per job (geometric distribution).
        job_stagger: Max seconds between consecutive task arrivals
            within one job.
        burst_cycles: Full diurnal-style cycles across the horizon.
        burst_amplitude: Arrival-rate modulation depth in [0, 1); 0 is a
            homogeneous Poisson process.
        mean_duration: Median-ish task duration (lognormal median).
        duration_sigma: Lognormal shape; higher = heavier JCT tail.
        small_bandwidth / large_bandwidth: (lo, hi) bytes/s of the two
            demand modes.
        large_fraction: Probability a task is heavy-tail.
        bidirectional_fraction: Probability a task's pipe guards both
            directions.
    """

    seed: int = 0
    tasks: int = 10_000
    tenants: int = 128
    horizon: float = 20.0
    mean_job_size: float = 3.0
    job_stagger: float = 0.01
    burst_cycles: int = 3
    burst_amplitude: float = 0.6
    mean_duration: float = 0.5
    duration_sigma: float = 0.8
    small_bandwidth: Tuple[float, float] = (Gbps(5), Gbps(40))
    large_bandwidth: Tuple[float, float] = (Gbps(120), Gbps(200))
    large_fraction: float = 0.15
    bidirectional_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.tasks < 1:
            raise WorkloadError(f"tasks must be >= 1, got {self.tasks}")
        if self.tenants < 1:
            raise WorkloadError(f"tenants must be >= 1, got {self.tenants}")
        # A NaN horizon never ends the arrival loop; an infinite one
        # makes every rate zero.
        if not 0 < self.horizon < math.inf:
            raise WorkloadError(
                f"horizon must be finite and > 0, got {self.horizon}")
        if not 0 <= self.burst_amplitude < 1:
            raise WorkloadError(
                f"burst_amplitude must be in [0, 1), got "
                f"{self.burst_amplitude}"
            )
        # Each check below is written so that NaN fails it.
        if not 1 <= self.mean_job_size < math.inf:
            # Every job has at least one task.
            raise WorkloadError(f"mean_job_size must be finite and >= 1, "
                                f"got {self.mean_job_size}")
        for name in ("job_stagger", "burst_cycles", "duration_sigma"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise WorkloadError(
                    f"{name} must be finite and >= 0, got {value}")
        if not 0 < self.mean_duration < math.inf:
            raise WorkloadError(f"mean_duration must be finite and > 0, "
                                f"got {self.mean_duration}")
        # The demand-mix rules of the fleet's churn config.
        for name in ("large_fraction", "bidirectional_fraction"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise WorkloadError(f"{name} must be in [0, 1], got {value}")
        for name in ("small_bandwidth", "large_bandwidth"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi < math.inf:
                raise WorkloadError(
                    f"{name} must be finite with 0 < lo <= hi, "
                    f"got ({lo}, {hi})")


def synthesize_trace(config: SynthTraceConfig) -> ClusterTrace:
    """Emit a normalized trace from seeded distributions.

    Job arrivals follow a non-homogeneous Poisson process with rate
    ``base * (1 + amplitude * sin(2*pi*cycles * t/horizon))``, sampled by
    thinning against the peak rate; each job then spawns a geometric
    number of tasks with a small stagger.  Generation stops at exactly
    ``config.tasks`` tasks.
    """
    rng = make_rng(config.seed, "cluster-trace-synth")
    # Base job-arrival rate sized so ~tasks arrive inside the horizon;
    # thinning below only reshapes arrivals in time, it does not change
    # their count, so the stop-at-N loop terminates with arrivals still
    # spread over most of the horizon.
    jobs_target = max(1.0, config.tasks / config.mean_job_size)
    base_rate = jobs_target / config.horizon
    peak_rate = base_rate * (1.0 + config.burst_amplitude)
    omega = 2.0 * math.pi * config.burst_cycles / config.horizon

    tasks: List[ClusterTask] = []
    t = 0.0
    job_index = 0
    while len(tasks) < config.tasks:
        t += rng.expovariate(peak_rate)
        if t >= config.horizon:
            # Wrap: bursty thinning can under-deliver inside one pass
            # (some candidates rejected); keep cycling the same seasonal
            # profile until the target count is reached.
            t -= config.horizon
        rate = base_rate * (1.0 + config.burst_amplitude
                            * math.sin(omega * t))
        if rng.random() * peak_rate > rate:
            continue  # thinned: this candidate is off-peak
        job_id = f"j{job_index:05d}"
        tenant_id = f"u{rng.randrange(config.tenants):03d}"
        job_index += 1
        size = 1 + min(
            int(rng.expovariate(1.0 / max(config.mean_job_size - 1.0,
                                          1e-9)))
            if config.mean_job_size > 1.0 else 0,
            64,  # cap pathological draws; keeps job sizes plausible
        )
        arrival = t
        for i in range(size):
            if len(tasks) >= config.tasks:
                break
            if i:
                arrival += rng.uniform(0.0, config.job_stagger)
            duration = config.mean_duration * math.exp(
                rng.gauss(0.0, config.duration_sigma)
            )
            duration = max(duration, config.mean_duration * 0.05)
            if rng.random() < config.large_fraction:
                lo, hi = config.large_bandwidth
            else:
                lo, hi = config.small_bandwidth
            tasks.append(ClusterTask(
                task_id=f"{job_id}/t{i:02d}",
                job_id=job_id,
                tenant_id=tenant_id,
                arrival=arrival,
                duration=duration,
                bandwidth=rng.uniform(lo, hi),
                cpu=round(rng.uniform(0.5, 8.0), 2),
                memory=round(rng.uniform(0.1, 4.0), 2),
                bidirectional=rng.random() < config.bidirectional_fraction,
            ))
    return ClusterTrace(
        tasks=tasks,
        name=f"synth-s{config.seed}-n{config.tasks}",
    )
