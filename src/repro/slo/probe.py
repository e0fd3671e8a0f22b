"""Sampled in-situ latency probes over a host's placed sessions.

A :class:`LatencyProbe` rides a host's own event engine: every
``probe_period`` it walks the manager's placement ledger (striding to
bound overhead, the sampling knob the paper's line-rate histogram work
leans on), evaluates each sampled session's primary path against the
analytic :class:`~repro.sim.latency.LatencyModel` at the fabric's
*current* utilization and link state, and folds the result into
per-(tenant, path) :class:`~repro.slo.histogram.LatencyHistogram`
buckets.

Two consumption paths:

* the raw ``(time, tenant, path, value)`` samples accumulate in a delta
  buffer drained by :meth:`take_delta` — by ``Fleet.advance_to`` — and
  are folded fleet-side by :class:`~repro.slo.monitor.FleetSloMonitor`;
* when a listener is attached (a standalone managed host wiring alerts
  into its :class:`~repro.resilience.controller.RecoveryController`),
  the probe also evaluates its objectives' burn rates locally and fires
  :class:`~repro.slo.objective.SloAlert` callbacks itself.  Fleet
  hosts attach no listener, so they pay no tracker cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..errors import SloError
from ..sim.latency import LatencyModel
from ..units import us
from .histogram import LatencyHistogram
from .objective import BurnRateTracker, SloAlert, SloObjective


@dataclass(frozen=True)
class SloConfig:
    """Latency-observability knobs for one host (or a whole fleet).

    Attributes:
        objectives: The :class:`SloObjective` set evaluated over the
            probe stream.  May be empty (histograms only, no alerts).
        probe_period: Seconds between probe sweeps of the placement
            ledger.
        sample_stride: Sample every k-th placement per sweep, rotating
            the phase each tick so every session is still covered —
            the overhead/coverage trade-off knob.
        message_size: Probe transfer size in bytes; the serialization
            term is what makes capacity degradation visible on an
            otherwise idle fabric.
        model: The analytic latency model probes are evaluated against.
        keep_samples: Fleet-monitor knob — retain every raw sample for
            offline attainment analysis (scenario reports); off by
            default to bound memory.
    """

    objectives: Tuple[SloObjective, ...] = ()
    probe_period: float = 0.002
    sample_stride: int = 1
    message_size: float = float(1 << 20)
    model: LatencyModel = field(default_factory=LatencyModel)
    keep_samples: bool = False

    def __post_init__(self) -> None:
        # A NaN or infinite period never schedules a sweep in range.
        if not 0 < self.probe_period < math.inf:
            raise SloError(f"probe_period must be finite and > 0, "
                           f"got {self.probe_period}")
        if self.sample_stride < 1:
            raise SloError(
                f"sample_stride must be >= 1, got {self.sample_stride}")
        if not 0 <= self.message_size < math.inf:
            raise SloError(f"message_size must be finite and >= 0, "
                           f"got {self.message_size}")
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise SloError(f"duplicate objective names in {names}")

    @classmethod
    def default(cls, bound: float = us(200), **kwargs) -> "SloConfig":
        """A one-objective config: fleet-wide p99 under *bound*."""
        return cls(objectives=(SloObjective("p99-latency", bound),),
                   **kwargs)


def normalize_slo(
    slo: Union[None, bool, SloConfig, SloObjective],
) -> Optional[SloConfig]:
    """Coerce the ``slo=`` constructor argument to a config (or None).

    Accepts ``None``/``False`` (disabled), ``True`` (the default
    config), a full :class:`SloConfig`, or a single
    :class:`SloObjective`.
    """
    if slo is None or slo is False:
        return None
    if slo is True:
        return SloConfig.default()
    if isinstance(slo, SloConfig):
        return slo
    if isinstance(slo, SloObjective):
        return SloConfig(objectives=(slo,))
    raise SloError(
        f"slo= takes None, True, an SloConfig, or an SloObjective; "
        f"got {slo!r}")


class LatencyProbe:
    """Periodic sampled latency evaluation over one host's placements.

    Args:
        network: The host's :class:`~repro.sim.network.FabricNetwork`
            (engine, topology, and live link utilization).
        manager: The host's manager; its placement ledger is the probe
            target list.
        config: The :class:`SloConfig`.
    """

    def __init__(self, network, manager, config: SloConfig) -> None:
        # Imported here, not at module level: repro.slo must stay
        # importable before repro.fleet finishes initializing (fleet's
        # cluster module imports this package at its own module level).
        from ..fleet.telemetry import canonical_device_keys

        self.network = network
        self.manager = manager
        self.config = config
        self._keys = canonical_device_keys(network.topology)
        self._path_keys: Dict[Tuple[str, Optional[str]], str] = {}
        self._histograms: Dict[Tuple[str, str], LatencyHistogram] = {}
        self._delta: List[Tuple[float, str, str, float]] = []
        self._trackers = {o.name: BurnRateTracker(o)
                          for o in config.objectives}
        self._listeners: List[Callable[[SloAlert], None]] = []
        self._tick_index = 0
        self._epoch = 0.0
        self._fires = 0
        self._task = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic probe sweep on the host engine.

        Sweeps self-schedule on the exact grid ``epoch + k * period``
        (multiplication, never accumulation): a plain
        :meth:`~repro.sim.engine.Engine.schedule_every` loop drifts by a
        few ulps per fire, and a probe tick that lands within the fleet
        clock's epsilon of an advance boundary — but not bit-equal to it
        — executes under the event discipline and not under lockstep,
        breaking the cross-clock determinism contract.  On the exact
        grid a coinciding tick is bit-equal to the boundary and runs
        under every discipline identically.
        """
        if self._task is not None:
            raise SloError("latency probe already started")
        self._epoch = self.network.engine.now
        self._fires = 0
        self._schedule_next()

    def _schedule_next(self) -> None:
        self._fires += 1
        due = self._epoch + self._fires * self.config.probe_period
        self._task = self.network.engine.schedule_at(
            due, self._fire, label="slo-probe")

    def _fire(self) -> None:
        self._tick()
        self._schedule_next()

    def stop(self) -> None:
        """Cancel the probe sweep (idempotent)."""
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def on_alert(self, listener: Callable[[SloAlert], None]) -> None:
        """Fire *listener* on every locally-evaluated burn-rate alert.

        Attaching a listener is what switches local evaluation on;
        fleet hosts never attach one (the fleet monitor evaluates
        centrally over the merged stream instead).
        """
        self._listeners.append(listener)

    # -- the sweep -----------------------------------------------------------

    def _path_key(self, intent) -> str:
        """Fleet-portable ``"<type>:<i>-><type>:<j>"`` key for a
        session's endpoints (the same vocabulary intent remapping and
        headroom summaries use, so keys compare across hosts).
        Memoized per endpoint pair — one formatted key per sample is
        probe-sweep hot."""
        pair = (intent.src, intent.dst)
        key = self._path_keys.get(pair)
        if key is None:
            keys = self._keys
            src = keys.get(intent.src, intent.src)
            dst = (keys.get(intent.dst, intent.dst)
                   if intent.dst is not None else "*")
            self._path_keys[pair] = key = f"{src}->{dst}"
        return key

    def _tick(self) -> None:
        config = self.config
        network = self.network
        now = network.engine.now
        tick = self._tick_index
        self._tick_index = tick + 1
        stride = config.sample_stride
        model = config.model
        topology = network.topology
        listeners = self._listeners
        verdicts: Dict[str, List[int]] = {}
        placements = self.manager.placements()
        if stride > 1:
            sampled = [p for i, p in enumerate(placements)
                       if not (i + tick) % stride]
        else:
            sampled = placements
        if sampled:
            # One vectorized utilization query per sweep, restricted to
            # the links the sampled paths actually cross: the per-link
            # query is an O(flows) sweep (O(placements * flows) per
            # tick), and the full-fabric snapshot pays O(links) even
            # when the sweep touches two of them.
            links: set = set()
            for placement in sampled:
                links.update(placement.candidate.paths[0].links)
            utilization_of = network.link_utilizations(
                only=links).__getitem__
        for placement in sampled:
            intent = placement.intent
            value = model.path_latency(
                topology, placement.candidate.paths[0], utilization_of,
                config.message_size)
            path_key = self._path_key(intent)
            key = (intent.tenant_id, path_key)
            hist = self._histograms.get(key)
            if hist is None:
                self._histograms[key] = hist = LatencyHistogram()
            hist.record(value)
            self._delta.append((now, intent.tenant_id, path_key, value))
            if listeners:
                for objective in config.objectives:
                    if objective.matches(intent.tenant_id, path_key):
                        tally = verdicts.setdefault(objective.name, [0, 0])
                        tally[objective.is_bad(value)] += 1
        if not listeners:
            return
        for name, tracker in self._trackers.items():
            good, bad = verdicts.get(name, (0, 0))
            tracker.record(now, good, bad)
            for window, burn_long, burn_short in tracker.check(now):
                alert = SloAlert(
                    time=now, objective=name, window=window.name,
                    host_id="", burn_long=burn_long,
                    burn_short=burn_short, threshold=window.threshold)
                for listener in listeners:
                    listener(alert)

    # -- consumption ---------------------------------------------------------

    def take_delta(self) -> List[Tuple[float, str, str, float]]:
        """Drain the raw ``(time, tenant, path, value)`` samples
        accumulated since the last take."""
        if not self._delta:
            return []
        delta = self._delta
        self._delta = []
        return delta

    def histograms(self) -> Dict[Tuple[str, str], LatencyHistogram]:
        """The per-(tenant, path) histograms (live references)."""
        return self._histograms

    def signature(self) -> tuple:
        """Hashable histogram state — an equivalence-test key."""
        return tuple(sorted(
            (key, hist.signature())
            for key, hist in self._histograms.items()))
