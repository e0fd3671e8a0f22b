"""Mergeable fixed-bucket log-scale latency histograms.

The streaming substrate of the SLO subsystem ("Waiting at the front
door" shows per-flow latency histograms are feasible at line rate; we
keep their shape): a fixed geometric bucket ladder shared by every
histogram in the fleet, so per-stream histograms merge into a fleet
rollup by integer addition — no rebinning, no data-dependent bucket
boundaries, and therefore bit-identical results however the samples
were split across histograms before the merge.

The ladder spans 1 ns to ~18 s in 64 doubling buckets: finer than any
latency contrast the :mod:`repro.sim.latency` model produces, coarse
enough that a histogram is 64 ints.  Saturated-path probes return
``inf``; those land in the top bucket (and count against any bound).
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterable, List, Tuple

#: Lower edge of bucket 0, in seconds (1 ns).
BUCKET_FLOOR = 1e-9
#: Geometric growth factor between bucket edges.
BUCKET_GROWTH = 2.0
#: Number of buckets (top bucket also absorbs overflow and ``inf``).
BUCKET_COUNT = 64

_LOG_GROWTH = math.log(BUCKET_GROWTH)


# Memoized: a pure function of the value, and a probe stream repeats a
# few distinct values (each sample is bucketed by the probe's histogram
# and again by the fleet monitor's).  Equal keys share one result, which
# is exact here because equal floats fall in the same bucket.
@functools.lru_cache(maxsize=4096)
def bucket_index(value: float) -> int:
    """The bucket a latency sample falls in.

    Sub-floor (and non-positive) values clamp to bucket 0; overflow and
    ``inf`` clamp to the top bucket.  Pure function of the value — the
    fleet-wide bucketing contract every merge relies on.
    """
    if not value > BUCKET_FLOOR:
        return 0
    if math.isinf(value):
        return BUCKET_COUNT - 1
    index = int(math.log(value / BUCKET_FLOOR) / _LOG_GROWTH)
    return min(max(index, 0), BUCKET_COUNT - 1)


def bucket_upper(index: int) -> float:
    """Upper edge (seconds) of bucket *index*."""
    return BUCKET_FLOOR * BUCKET_GROWTH ** (index + 1)


class LatencyHistogram:
    """One stream's latency distribution in fixed log-scale buckets.

    Mergeable by construction: every instance uses the module-level
    ladder, so :meth:`merge` is element-wise integer addition and the
    result is independent of how samples were partitioned into shards
    — the property :meth:`~repro.slo.monitor.FleetSloMonitor.histogram`
    rests on when it merges per-(tenant, path) streams into one scope
    (asserted by hypothesis in ``tests/test_slo.py``).
    """

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * BUCKET_COUNT
        self.total = 0

    def record(self, value: float, n: int = 1) -> None:
        """Fold *n* observations of *value* (seconds) into the ladder."""
        self.counts[bucket_index(value)] += n
        self.total += n

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold *other*'s counts into this histogram (element-wise)."""
        counts = self.counts
        for i, c in enumerate(other.counts):
            counts[i] += c
        self.total += other.total

    def percentile(self, p: float) -> float:
        """Upper bucket edge at percentile *p* (conservative estimate).

        Returns the upper edge of the first bucket whose cumulative
        count reaches ``p%`` of the total — an over-estimate by at most
        one bucket width, which is the right bias for checking an SLO
        bound.  Raises ``ValueError`` on an empty histogram.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.total == 0:
            raise ValueError("percentile of an empty histogram")
        target = p / 100.0 * self.total
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= target and cumulative > 0:
                return bucket_upper(i)
        return bucket_upper(BUCKET_COUNT - 1)

    def count_above(self, bound: float) -> int:
        """Observations in buckets lying entirely above *bound*.

        Conservative in the other direction from :meth:`percentile`:
        the bucket containing *bound* is not counted, so a sample is
        only called bad when its whole bucket is.
        """
        first = bucket_index(bound) + 1
        return sum(self.counts[first:])

    def signature(self) -> Tuple[Tuple[int, int], ...]:
        """Sparse ``(bucket, count)`` tuple — the equivalence key two
        same-seed runs must agree on bit-for-bit."""
        return tuple((i, c) for i, c in enumerate(self.counts) if c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return self.counts == other.counts

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:
        return (f"LatencyHistogram(total={self.total}, "
                f"nonzero={sum(1 for c in self.counts if c)})")


def merge_histograms(
    parts: Iterable[Dict[Tuple[str, str], LatencyHistogram]],
) -> Dict[Tuple[str, str], LatencyHistogram]:
    """Merge per-(tenant, path) histogram maps from many sources."""
    merged: Dict[Tuple[str, str], LatencyHistogram] = {}
    for part in parts:
        for key, hist in part.items():
            target = merged.get(key)
            if target is None:
                merged[key] = target = LatencyHistogram()
            target.merge(hist)
    return merged
