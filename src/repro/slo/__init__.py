"""``repro.slo`` — continuous latency observability with closed-loop SLOs.

The latency half of the paper's §3.1 monitoring questions: sampled
in-situ probes on session hot paths (:class:`LatencyProbe`, riding each
host's own engine), streaming mergeable per-tenant/per-path log-scale
histograms (:class:`LatencyHistogram` — per-stream shards merge
bit-identically by integer addition), declarative latency objectives with
Google-SRE-style multi-window multi-burn-rate alerting
(:class:`SloObjective`, :class:`BurnRateTracker`), and a fleet-side
evaluation point (:class:`FleetSloMonitor`) whose alerts close the loop:
host-local sinks re-place or degrade through the
:class:`~repro.resilience.controller.RecoveryController`, fleet sinks
live-migrate the offending host's sessions through
:meth:`~repro.fleet.migration.MigrationPlanner.relieve_latency`.

Arm it with ``Host(slo=...)`` or ``Fleet(slo=...)``; see
:func:`run_latency_regression` for the end-to-end story and DESIGN.md
§16 for the burn-rate math and determinism contract.
"""

from .histogram import (
    BUCKET_COUNT,
    BUCKET_FLOOR,
    BUCKET_GROWTH,
    LatencyHistogram,
    bucket_index,
    bucket_upper,
    merge_histograms,
)
from .monitor import FleetSloMonitor, SloSample
from .objective import (
    DEFAULT_BUDGET_PERIOD,
    BurnRateTracker,
    BurnRateWindow,
    SloAlert,
    SloObjective,
)
from .probe import LatencyProbe, SloConfig, normalize_slo
from .scenario import (
    LatencyRegressionConfig,
    LatencyRegressionReport,
    run_latency_regression,
)

__all__ = [
    "BUCKET_COUNT",
    "BUCKET_FLOOR",
    "BUCKET_GROWTH",
    "bucket_index",
    "bucket_upper",
    "merge_histograms",
    "LatencyHistogram",
    "DEFAULT_BUDGET_PERIOD",
    "BurnRateWindow",
    "BurnRateTracker",
    "SloAlert",
    "SloObjective",
    "SloConfig",
    "LatencyProbe",
    "normalize_slo",
    "FleetSloMonitor",
    "SloSample",
    "LatencyRegressionConfig",
    "LatencyRegressionReport",
    "run_latency_regression",
]
