"""Sampled in-situ latency probes over a host's placed sessions.

A :class:`LatencyProbe` sweeps a host on the exact grid
``epoch + k * probe_period``: at each grid point it walks the manager's
placement ledger (striding to bound overhead, the sampling knob the
paper's line-rate histogram work leans on), evaluates each sampled
session's primary path against the analytic
:class:`~repro.sim.latency.LatencyModel` at the fabric's *current*
utilization and link state, and folds the result into per-(tenant,
path) :class:`~repro.slo.histogram.LatencyHistogram` buckets.  A
standalone host's probe schedules one engine event per grid point; a
fleet host's probe is built on the fleet's one :class:`SweepGrid`,
schedules none, and the fleet clock runs its sweeps as it advances the
host (:meth:`LatencyProbe.run_until`).

A sweep pays only for what moved: each path's latency is kept, keyed by
its links, for as long as the sweep key stands still (the model's
parameters, the topology's link-state fingerprint and, on a fabric that
carries flows, its re-solve count), and only a miss walks the path.

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


class SweepGrid:
    """The exact sweep grid ``epoch + k * period``, k = 1, 2, ...

    Points are computed by multiplication, never accumulation: a plain
    :meth:`~repro.sim.engine.Engine.schedule_every` loop drifts by a few
    ulps per fire, and a sweep that lands within the fleet clock's
    epsilon of an advance boundary — but not bit-equal to it — would
    run under the event discipline and not under lockstep, breaking the
    cross-clock determinism contract.  On the exact grid a coinciding
    sweep is bit-equal to the boundary and runs under every discipline
    identically.  A fleet builds one grid and every reader of it — its
    hosts' probes, the event clock's sweep gate and the SLO fold gate —
    computes points with :meth:`point`.
    """

    __slots__ = ("epoch", "period")

    def __init__(self, epoch: float, period: float) -> None:
        self.epoch = epoch
        self.period = period

    def point(self, k: int) -> float:
        """The *k*-th grid point."""
        return self.epoch + k * self.period

    def index_after(self, t: float) -> int:
        """The least k >= 1 whose point lies strictly after *t*."""
        k = max(1, math.floor((t - self.epoch) / self.period) + 1)
        # The division may round either way; settle on the exact points.
        while self.point(k) <= t:
            k += 1
        while k > 1 and self.point(k - 1) > t:
            k -= 1
        return k

    def after(self, t: float) -> float:
        """The first grid point strictly after *t*."""
        return self.point(self.index_after(t))


class LatencyProbe:
    """Periodic sampled latency evaluation over one host's placements.

    Args:
        network: The host's :class:`~repro.sim.network.FabricNetwork`
            (engine, topology, and live link utilization).
        manager: The host's manager; its placement ledger is the probe
            target list.
        config: The :class:`SloConfig`.
        grid: The :class:`SweepGrid` a fleet clock sweeps this probe on
            through :meth:`run_until`; its period must be the config's.
            Without one (a standalone host) each :meth:`start` lays a
            grid from the engine's time and an engine timer sweeps it.
            Which of the two sweeps the probe is fixed for its life, so
            they can never both sweep it.
    """

    def __init__(self, network, manager, config: SloConfig,
                 grid: Optional[SweepGrid] = None) -> None:
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
        # Sweeps so far: the stride phase of the next one.
        self._tick_index = 0
        if grid is not None and grid.period != config.probe_period:
            raise SloError(f"grid period {grid.period} differs from "
                           f"probe_period {config.probe_period}")
        self._clocked = grid is not None
        self.grid = grid
        # The grid index of next_due.
        self._fires = 0
        #: Time of the next sweep on the grid (``inf`` while not armed).
        self.next_due = math.inf
        self._task = None
        # Each path's latency under the current sweep key, by its links.
        self._latency_key: Optional[tuple] = None
        self._latencies: Dict[Tuple[str, ...], float] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic probe sweep at the first grid point after
        the host engine's time now.

        A probe without a grid lays one from now and schedules one
        engine event per grid point.  A probe built on a fleet's grid
        schedules none and resumes on that grid: the fleet clock sweeps
        it through :meth:`run_until` as it advances the host.
        """
        if self.next_due != math.inf:
            raise SloError("latency probe already started")
        now = self.network.engine.now
        if not self._clocked:
            self.grid = SweepGrid(now, self.config.probe_period)
        self._fires = self.grid.index_after(now)
        self.next_due = self.grid.point(self._fires)
        if not self._clocked:
            self._schedule()

    def _next_grid_point(self) -> None:
        self._fires += 1
        self.next_due = self.grid.point(self._fires)

    def _schedule(self) -> None:
        self._task = self.network.engine.schedule_at(
            self.next_due, self._fire, label="slo-probe")

    def _fire(self) -> None:
        self._tick()
        self._next_grid_point()
        self._schedule()

    def run_until(self, t: float) -> int:
        """Run the host engine to *t*, sweeping at each grid point on
        the way (how the fleet clock advances a host whose probe is
        built on the fleet's grid).

        Each sweep runs after the host's own events at or before its
        grid point.  A grid point the engine was already run past
        outside the fleet clock (say by ``Host.run_until``) is skipped,
        since the host's state at that instant can no longer be read;
        its stride phase is still spent, so later sweeps sample the
        placements they would have.  Returns the number of host events
        processed.
        """
        processed = self.run_due(t)
        engine = self.network.engine
        if t >= engine.now:
            processed += engine.run_until(t)
        return processed

    def run_due(self, t: float) -> int:
        """Sweep every grid point at or before *t*, running the host
        engine to each one first; the engine stops at the last one.

        Returns the number of host events processed.
        """
        if not self._clocked:
            raise SloError("this probe is swept by its own engine timer; "
                           "only a probe built on a grid is swept here")
        engine = self.network.engine
        processed = 0
        while self.next_due <= t:
            due = self.next_due
            if due >= engine.now:
                processed += engine.run_until(due)
                self._tick()
            else:
                self._tick_index += 1
            self._next_grid_point()
        return processed

    def stop(self) -> None:
        """Cancel the probe sweep (idempotent)."""
        if self._task is not None:
            self._task.cancel()
            self._task = None
        self.next_due = math.inf

    def on_alert(self, listener: Callable[[SloAlert], None]) -> None:
        """Fire *listener* on every locally-evaluated burn-rate alert.

        Attaching a listener is what switches local evaluation on;
        fleet hosts without a recovery controller attach none (the
        fleet monitor evaluates centrally over the merged stream
        instead).
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

    def _path_latencies(self, sampled) -> Dict[Tuple[str, ...], float]:
        """The latency of each sampled placement's primary path right
        now, keyed by the path's links.

        A path's latency depends on the model's parameters, its links'
        state and the fabric's utilization of those links, and on
        nothing else.  The sweep key covers all three: the model's
        fields, the topology's link-state fingerprint, and the fabric's
        re-solve count once pending re-solves are flushed.  Every rate
        change is a re-solve (a flow's start, stop or reroute and a cap
        or weight change all re-solve), so while the count stands still
        no utilization moves.  A fabric with no flow reads 0 on every
        link whatever its history, so there a constant stands in and
        the kept latencies survive re-solves.  While the key stands
        still every kept value is what a fresh walk would return, bit
        for bit; only a miss walks its path.
        """
        network = self.network
        model = self.config.model
        network.flush_recompute()
        key = (tuple(vars(model).values()),
               network.topology.link_state_fingerprint(),
               network.recompute_count if network.active_flows() else None)
        latencies = self._latencies
        if key != self._latency_key:
            self._latency_key = key
            self._latencies = latencies = {}
        missed = {}
        for placement in sampled:
            path = placement.candidate.paths[0]
            if path.links not in latencies:
                missed[path.links] = path
        if missed:
            # One utilization query per sweep with a miss, restricted to
            # the links the missed paths cross: the full-fabric
            # snapshot pays O(links) even when the sweep touches two.
            links: set = set()
            for path in missed.values():
                links.update(path.links)
            utilization_of = network.link_utilizations(
                only=links).__getitem__
            topology = network.topology
            size = self.config.message_size
            for links_key, path in missed.items():
                latencies[links_key] = model.path_latency(
                    topology, path, utilization_of, size)
        return latencies

    def _tick(self) -> None:
        config = self.config
        now = self.network.engine.now
        tick = self._tick_index
        self._tick_index = tick + 1
        stride = config.sample_stride
        listeners = self._listeners
        verdicts: Dict[str, List[int]] = {}
        placements = self.manager.placements()
        # The placements at indices i with (i + tick) % stride == 0.
        sampled = (placements[(-tick) % stride::stride] if stride > 1
                   else placements)
        if sampled:
            latencies = self._path_latencies(sampled)
        for placement in sampled:
            intent = placement.intent
            value = latencies[placement.candidate.paths[0].links]
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
