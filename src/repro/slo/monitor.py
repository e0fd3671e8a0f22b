"""Fleet-side SLO evaluation over the merged probe-sample stream.

:class:`FleetSloMonitor` is the fleet-side fold point: per-host probes
emit raw ``(time, tenant, path, value)`` samples; ``Fleet.advance_to``
drains them — tagged with their host — into :meth:`ingest`, and
:meth:`evaluate` folds them into fleet-wide per-(tenant, path)
histograms and per-(objective, host) burn-rate trackers.

Determinism contract: samples are folded in sorted
``(time, host_id, tenant, path, value)`` order regardless of arrival
order, so histogram state, anomaly streams, and the alert log are
bit-identical across fleet-clock disciplines for a seeded run — the
property ``tests/test_slo.py`` pins.

Burn rates are tracked *per host* within each objective's scope: the
alert that fires names the host burning budget, which is exactly the
attribution the closed loop needs (the fleet's default sink hands the
offender to :meth:`MigrationPlanner.relieve_latency`).  Samples also
feed a :class:`~repro.monitor.anomaly.LatencyInflationDetector` per
objective, so latency regressions surface in the same anomaly
vocabulary as the bandwidth-side monitors.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..monitor.anomaly import Anomaly, LatencyInflationDetector
from .histogram import LatencyHistogram
from .objective import BurnRateTracker, SloAlert, SloObjective

#: One tagged probe sample: (time, host_id, tenant, path, value).
SloSample = Tuple[float, str, str, str, float]


class FleetSloMonitor:
    """Streaming fleet-wide SLO state: histograms, burn rates, alerts.

    Args:
        objectives: The :class:`SloObjective` set to evaluate.
        keep_samples: Retain every folded sample in :attr:`samples`
            (scenario analysis); off by default to bound memory.
    """

    def __init__(self, objectives: Iterable[SloObjective],
                 keep_samples: bool = False) -> None:
        self.objectives: Tuple[SloObjective, ...] = tuple(objectives)
        self.keep_samples = keep_samples
        #: Every alert ever fired, in order — the audit log and the
        #: cross-clock equivalence key.
        self.alerts: List[SloAlert] = []
        #: Latency anomalies surfaced into the monitor vocabulary.
        self.anomalies: List[Anomaly] = []
        #: Raw folded samples (only when ``keep_samples``).
        self.samples: List[SloSample] = []
        self._buffer: List[SloSample] = []
        self._histograms: Dict[Tuple[str, str], LatencyHistogram] = {}
        self._trackers: Dict[Tuple[str, str], BurnRateTracker] = {}
        self._totals: Dict[str, List[int]] = {
            o.name: [0, 0] for o in self.objectives}
        self._detectors = {
            o.name: LatencyInflationDetector(o.bound,
                                             metric_prefix="latency.")
            for o in self.objectives}
        self._metric_keys: Dict[Tuple[str, str], str] = {}
        self._listeners: List[Callable[[SloAlert], None]] = []

    def on_alert(self, listener: Callable[[SloAlert], None]) -> None:
        """Fire *listener* on every alert :meth:`evaluate` raises."""
        self._listeners.append(listener)

    # -- the fold ------------------------------------------------------------

    def ingest(self, samples: Iterable[SloSample]) -> None:
        """Buffer tagged probe samples for the next :meth:`evaluate`."""
        self._buffer.extend(samples)

    def evaluate(self, now: float) -> List[SloAlert]:
        """Fold buffered samples and fire due burn-rate alerts.

        Samples are sorted before folding so the result is independent
        of arrival order (drains run host by host); alerts fire in sorted
        (objective, host) order at time *now*.  Returns the new alerts.

        Only trackers that folded new samples this boundary are
        checked: a burn verdict cannot newly fire without fresh
        samples (the short confirmation window is narrower than any
        probe cadence, so it drains to ``None`` — evidence of nothing
        — between sample arrivals), and skipping idle trackers keeps
        per-boundary cost proportional to probe traffic, not fleet
        size.  The touched set derives from the sorted sample stream,
        so the alert log stays bit-identical across clock disciplines.
        """
        buffered = self._buffer
        self._buffer = []
        buffered.sort()
        touched = set()
        metric_keys = self._metric_keys
        for sample in buffered:
            t, host_id, tenant, path, value = sample
            key = (tenant, path)
            hist = self._histograms.get(key)
            if hist is None:
                self._histograms[key] = hist = LatencyHistogram()
            hist.record(value)
            metric = metric_keys.get(key)
            if metric is None:
                metric_keys[key] = metric = f"latency.{tenant}.{path}"
            if self.keep_samples:
                self.samples.append(sample)
            for objective in self.objectives:
                if not objective.matches(tenant, path):
                    continue
                tkey = (objective.name, host_id)
                tracker = self._trackers.get(tkey)
                if tracker is None:
                    self._trackers[tkey] = tracker = \
                        BurnRateTracker(objective)
                bad = objective.is_bad(value)
                tracker.record(t, 0 if bad else 1, 1 if bad else 0)
                touched.add(tkey)
                self._totals[objective.name][1 if bad else 0] += 1
                anomaly = self._detectors[objective.name].observe(
                    metric, t, value)
                if anomaly is not None:
                    self.anomalies.append(anomaly)
        fired: List[SloAlert] = []
        for name, host_id in sorted(touched):
            tracker = self._trackers[(name, host_id)]
            for window, burn_long, burn_short in tracker.check(now):
                fired.append(SloAlert(
                    time=now, objective=name, window=window.name,
                    host_id=host_id, burn_long=burn_long,
                    burn_short=burn_short, threshold=window.threshold))
        for alert in fired:
            self.alerts.append(alert)
            for listener in self._listeners:
                listener(alert)
        return fired

    # -- reads ---------------------------------------------------------------

    def histogram(self, tenant: Optional[str] = None,
                  path: Optional[str] = None) -> LatencyHistogram:
        """Merged histogram over every (tenant, path) stream in scope."""
        merged = LatencyHistogram()
        for (t, p), hist in self._histograms.items():
            if tenant is not None and t != tenant:
                continue
            if path is not None and p != path:
                continue
            merged.merge(hist)
        return merged

    def attainment(self, objective: SloObjective) -> Optional[float]:
        """Lifetime good-sample fraction in *objective*'s scope
        (``None`` before any sample)."""
        good, bad = self._totals[objective.name]
        total = good + bad
        return good / total if total else None

    def host_clear(self, host_id: str, now: float) -> bool:
        """Whether *host_id* shows positive evidence of health at *now*.

        True when every objective tracking the host has a fast-window
        burn rate that *exists* and sits at or below threshold.  An
        empty window (``None`` burn — e.g. a fully evacuated host emits
        no samples) is **not** clear: un-quarantining requires healthy
        samples, so silence after an evacuation cannot flap a
        still-degraded host back into service; overflow placements that
        land on it provide the probes that eventually clear it.
        """
        seen = False
        for (_name, tracked), tracker in self._trackers.items():
            if tracked != host_id:
                continue
            seen = True
            fast = tracker.objective.windows()[0]
            burn = tracker.burn_rate(now, fast.long)
            if burn is None or burn > fast.threshold:
                return False
        return seen

    def achieved(self, objective: SloObjective) -> Optional[float]:
        """The percentile the objective targets, as currently achieved
        over its scope (``None`` before any sample)."""
        merged = self.histogram(objective.tenant, objective.path)
        if merged.total == 0:
            return None
        return merged.percentile(objective.percentile)

    def signature(self) -> tuple:
        """Hashable (alerts, histograms) state — the bit-identical
        cross-clock equivalence key."""
        return (
            tuple(self.alerts),
            tuple(sorted((key, hist.signature())
                         for key, hist in self._histograms.items())),
        )

    def describe(self) -> str:
        """Operator-facing summary: one line per objective, then the
        most recent alerts."""
        lines = [f"slo: {len(self.objectives)} objectives, "
                 f"{sum(h.total for h in self._histograms.values())} "
                 f"samples over {len(self._histograms)} streams, "
                 f"{len(self.alerts)} alerts, "
                 f"{len(self.anomalies)} anomalies"]
        for objective in self.objectives:
            attainment = self.attainment(objective)
            achieved = self.achieved(objective)
            status = ("no samples" if attainment is None else
                      f"attainment={attainment:.2%}  "
                      f"p{objective.percentile:g}<="
                      f"{achieved * 1e6:.0f}us")
            lines.append(
                f"  {objective.name}: bound "
                f"{objective.bound * 1e6:.0f}us @ "
                f"p{objective.percentile:g}  {status}")
        for alert in self.alerts[-5:]:
            lines.append(f"  {alert.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"FleetSloMonitor(objectives={len(self.objectives)}, "
                f"streams={len(self._histograms)}, "
                f"alerts={len(self.alerts)})")
