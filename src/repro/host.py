"""The :class:`Host` session facade: one object for a managed host.

The historical quickstart wired four objects by hand::

    topology = cascade_lake_2s()
    engine = Engine()
    network = FabricNetwork(topology, engine)
    manager = HostNetworkManager(network)

:class:`Host` bundles that construction behind keyword-only configuration
and delegates the common verbs (``run_until``, ``submit``, ``release``,
``shutdown``), so a session is::

    host = Host(cascade_lake_2s())
    host.submit(pipe("kv", "tenantA", src="nic0", dst="dimm0-0",
                     bandwidth=Gbps(100)))
    host.run_until(1.0)

The constituent objects stay public attributes (``host.engine``,
``host.network``, ``host.manager``, ``host.topology``) — the facade adds
no state of its own, so advanced code can keep reaching inside.
"""

from __future__ import annotations

from typing import List, Optional, Union

from .core.intents import PerformanceTarget
from .core.manager import HostNetworkManager, Placement
from .core.scheduler import Scheduler
from .sim.engine import Engine
from .sim.latency import LatencyModel
from .sim.network import FabricNetwork
from .sim.solver import SolverStats
from .topology.graph import HostTopology
from .trace import TraceConfig, Tracer, start_tracing
from .units import us


class Host:
    """A simulated managed host: engine + fabric + resource manager.

    Args:
        topology: The host topology to simulate.
        start: Initial simulated time (seconds).
        latency_model: Queueing model override for the fabric.
        coalesce_recompute: Coalesce same-instant fabric re-solves (see
            :class:`~repro.sim.network.FabricNetwork`).
        managed: Construct the :class:`HostNetworkManager` (default).
            ``managed=False`` gives a bare engine + fabric for unmanaged
            experiments; ``manager`` access then raises.
        trace: Tracing for this session: ``True`` enables the process-wide
            tracer (:data:`repro.trace.TRACER`) with its current
            configuration; a :class:`~repro.trace.TraceConfig` reconfigures
            it first.  The tracer is process-global (one trace per run, as
            with Perfetto); it is exposed as :attr:`tracer`.
        resilience: Arm closed-loop failure recovery: ``True`` uses
            default :class:`~repro.resilience.controller.RecoveryConfig`;
            a config instance tunes it.  Builds and starts a
            :class:`~repro.monitor.monitor.HostMonitor` (:attr:`monitor`),
            a :class:`~repro.resilience.controller.RecoveryController`
            (:attr:`recovery`), and an
            :class:`~repro.core.admission.AdmissionRetryQueue`
            (:attr:`retry`) kicked on every release.
        slo: Arm continuous latency observability: ``True`` uses the
            default :class:`~repro.slo.probe.SloConfig`; a config (or a
            single :class:`~repro.slo.objective.SloObjective`) tunes it.
            Builds and starts a sampled
            :class:`~repro.slo.probe.LatencyProbe` (:attr:`slo_probe`)
            over the placement ledger; when ``resilience=`` is also
            armed, burn-rate alerts feed
            :meth:`~repro.resilience.controller.RecoveryController.
            handle_latency_alert` (re-place off the hot path, else
            degrade) — the host-local half of the §16 closed loop.
        scheduler / headroom / work_conserving / arbiter_period /
        decision_latency / candidate_paths / auto_start_arbiter:
            Forwarded to :class:`HostNetworkManager`.
    """

    def __init__(
        self,
        topology: HostTopology,
        *,
        start: float = 0.0,
        latency_model: Optional[LatencyModel] = None,
        coalesce_recompute: bool = False,
        managed: bool = True,
        trace: Union[bool, TraceConfig, None] = None,
        resilience=None,
        slo=None,
        scheduler: Optional[Scheduler] = None,
        headroom: float = 0.9,
        work_conserving: bool = True,
        arbiter_period: float = 0.001,
        decision_latency: float = us(10),
        candidate_paths: int = 4,
        auto_start_arbiter: bool = True,
    ) -> None:
        self.topology = topology
        self.tracer: Optional[Tracer] = None
        if trace:
            self.tracer = start_tracing(
                trace if isinstance(trace, TraceConfig) else None
            )
        self.engine = Engine(start=start)
        self.network = FabricNetwork(
            topology, self.engine,
            latency_model=latency_model,
            coalesce_recompute=coalesce_recompute,
        )
        self._manager: Optional[HostNetworkManager] = None
        if managed:
            self._manager = HostNetworkManager(
                self.network,
                scheduler=scheduler,
                headroom=headroom,
                work_conserving=work_conserving,
                arbiter_period=arbiter_period,
                decision_latency=decision_latency,
                candidate_paths=candidate_paths,
                auto_start_arbiter=auto_start_arbiter,
            )
        self.monitor = None
        self.recovery = None
        self.retry = None
        self.slo_probe = None
        if resilience:
            self._enable_resilience(resilience)
        if slo:
            self._enable_slo(slo)

    def _enable_resilience(self, resilience) -> None:
        """Build and arm the monitor / recovery / retry loop.

        *resilience* is ``True`` (defaults) or a
        :class:`~repro.resilience.controller.RecoveryConfig`.  Imported
        lazily: the chaos harness imports :class:`Host`, so a top-level
        import here would be circular.
        """
        from .core.admission import AdmissionRetryQueue
        from .monitor.monitor import HostMonitor
        from .resilience.controller import RecoveryConfig, RecoveryController

        if self._manager is None:
            raise RuntimeError(
                "resilience requires a managed host (managed=True)"
            )
        config = (resilience if isinstance(resilience, RecoveryConfig)
                  else RecoveryConfig())
        if config.monitor:
            self.monitor = HostMonitor(self.network, seed=config.seed)
            self.monitor.start()
            self.monitor.schedule_checks(config.monitor_check_period)
        self.recovery = RecoveryController(
            self._manager, monitor=self.monitor, config=config,
        )
        self.recovery.start()
        if config.retry:
            self.retry = AdmissionRetryQueue(
                self.engine, self._manager.submit,
                max_parked=config.retry_max_parked, seed=config.seed,
            )
            self._manager.on_release(lambda _intent_id: self.retry.kick())

    def _enable_slo(self, slo) -> None:
        """Build and arm the sampled latency probe.

        *slo* is ``True`` (defaults), an
        :class:`~repro.slo.probe.SloConfig`, or a single
        :class:`~repro.slo.objective.SloObjective`.  Imported lazily,
        like resilience, to keep :class:`Host` import-light.  The
        probe's local burn-rate evaluation only runs when a listener is
        attached — i.e. when this host also runs a recovery controller;
        fleet hosts leave evaluation to the fleet-side
        :class:`~repro.slo.monitor.FleetSloMonitor`.
        """
        from .slo.probe import LatencyProbe, normalize_slo

        if self._manager is None:
            raise RuntimeError("slo requires a managed host (managed=True)")
        config = normalize_slo(slo)
        self.slo_probe = LatencyProbe(self.network, self._manager, config)
        self.slo_probe.start()
        if self.recovery is not None:
            self.slo_probe.on_alert(self.recovery.handle_latency_alert)

    # -- constituent access --------------------------------------------------

    @property
    def manager(self) -> HostNetworkManager:
        """The resource manager (raises when built with ``managed=False``)."""
        if self._manager is None:
            raise RuntimeError(
                "Host was created with managed=False; no manager exists"
            )
        return self._manager

    @property
    def is_managed(self) -> bool:
        """Whether this host carries a resource manager."""
        return self._manager is not None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.engine.now

    @property
    def solver_stats(self) -> SolverStats:
        """The fabric's resident-solver cost counters (no reaching into
        ``host.network`` needed)."""
        return self.network.solver_stats

    @property
    def recompute_count(self) -> int:
        """How many times the fabric re-solved rates this session."""
        return self.network.recompute_count

    # -- delegation ----------------------------------------------------------

    def run_until(self, t: float, max_events: Optional[int] = None) -> int:
        """Advance simulated time to *t* (see :meth:`Engine.run_until`)."""
        return self.engine.run_until(t, max_events=max_events)

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the event queue (see :meth:`Engine.run`)."""
        return self.engine.run(max_events=max_events)

    def submit(self, intent: PerformanceTarget) -> Placement:
        """Submit a performance intent to the manager."""
        return self.manager.submit(intent)

    def try_submit(self, intent: PerformanceTarget) -> Optional[Placement]:
        """Like :meth:`submit` but returns ``None`` instead of raising."""
        return self.manager.try_submit(intent)

    def submit_with_retry(self, intent: PerformanceTarget,
                          deadline: Optional[float] = None,
                          ) -> Optional[Placement]:
        """Submit via the retry queue: park-and-retry instead of failing.

        Returns the placement on immediate admission, ``None`` when the
        intent was parked (it will be re-tried on backoff and on every
        release) or shed.  Requires ``resilience=`` with retry enabled.
        """
        if self.retry is None:
            raise RuntimeError(
                "no retry queue: construct Host with resilience=True "
                "(or a RecoveryConfig with retry enabled)"
            )
        return self.retry.submit(intent, deadline=deadline)

    def release(self, intent_id: str) -> None:
        """Withdraw an admitted intent."""
        self.manager.release(intent_id)

    def register_tenant(self, tenant_id: str) -> None:
        """Register a tenant with the manager."""
        self.manager.register_tenant(tenant_id)

    def placements(self) -> List[Placement]:
        """All current placements."""
        return self.manager.placements()

    def shutdown(self) -> None:
        """Stop recovery, retry, monitoring, probing, and the arbiter."""
        if self.slo_probe is not None:
            self.slo_probe.stop()
        if self.recovery is not None:
            self.recovery.stop()
        if self.retry is not None:
            self.retry.stop()
        if self.monitor is not None:
            self.monitor.stop()
        if self._manager is not None:
            self._manager.shutdown()

    def describe(self) -> str:
        """Human-readable session summary."""
        lines = [f"Host on {self.topology.name!r} @ t={self.now:.6f}s: "
                 f"{len(self.network.active_flows())} active flows"]
        if self._manager is not None:
            lines.append(self._manager.describe())
        else:
            lines.append("  (unmanaged: no resource manager)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        managed = (f"tenants={len(self._manager.tenants)}, "
                   f"intents={len(self._manager.placements())}"
                   if self._manager is not None else "unmanaged")
        traced = ", traced" if self.tracer is not None else ""
        return (f"Host({self.topology.name!r}, t={self.now:.6f}s, "
                f"flows={len(self.network.active_flows())}, "
                f"recomputes={self.recompute_count}, {managed}{traced})")
