"""The :class:`Fleet`: N managed hosts on one shared virtual clock.

The paper's manageability pieces are per-host, but its motivating
scenarios — multi-tenant clouds, tenants that come and go, migration under
a virtualized abstraction — only matter at datacenter scale.  ``Fleet``
composes many :class:`~repro.host.Host` sessions into one cluster:

* a :class:`~repro.fleet.clock.FleetClock` — by default the event-driven
  discipline (only hosts with pending work are woken; idle hosts
  fast-forward), with the original lockstep coordinator available as
  ``clock="lockstep"``;
* a :class:`~repro.fleet.telemetry.FleetTelemetry` rollup of
  push-invalidated per-host headroom summaries feeding
* a :class:`~repro.fleet.scheduler.ClusterScheduler` with pluggable
  placement policies ranked over a vectorized headroom matrix, and
* a :class:`~repro.fleet.migration.MigrationPlanner` that live-migrates
  placements between hosts, wired to each host's
  :class:`~repro.resilience.controller.RecoveryController` escalation
  hook when ``resilience=`` is armed.

Quick start::

    from repro import Fleet, pipe, Gbps

    fleet = Fleet("cascade_lake_2s", hosts=16, policy="best-fit")
    fleet.submit(pipe("kv", "tenantA", src="nic0", dst="dimm0-0",
                      bandwidth=Gbps(100)))
    fleet.advance_to(1.0)
    print(fleet.describe())
"""

from __future__ import annotations

import math
from dataclasses import replace as dataclass_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from ..core.intents import PerformanceTarget
from ..core.manager import Placement
from ..core.virtual import _device_mapping
from ..errors import FleetError, UnknownHostError
from ..host import Host
from ..monitor.failures import FailureInjector
from ..resilience.invariants import check_invariants
from ..slo.monitor import FleetSloMonitor, SloSample
from ..slo.objective import SloAlert
from ..slo.probe import normalize_slo
from ..topology.elements import LinkClass
from ..topology.graph import HostTopology
from ..topology.presets import load_preset
from .clock import FleetClock, make_clock
from .faults import FleetHealth
from .migration import MigrationPlanner
from .placement import PlacementPolicy
from .scheduler import ClusterScheduler, FleetPlacement
from .telemetry import FleetTelemetry, canonical_device_keys


class Fleet:
    """A cluster of simulated managed hosts under one scheduler.

    Args:
        topology: A preset name (each host gets a fresh instance) or a
            zero-argument factory returning a new :class:`HostTopology`
            per call.  A shared ``HostTopology`` *instance* is rejected:
            topologies carry mutable link state, so hosts must not share.
        hosts: How many hosts to build (ignored when *host_ids* given).
        host_ids: Explicit host ids; default ``host00..hostNN``.
        clock: ``"event"`` (default), ``"lockstep"``, or a
            :class:`~repro.fleet.clock.FleetClock` subclass.  The event
            clock wakes only hosts with pending work and produces results
            equivalent to lockstep on seeded workloads; lockstep advances
            every host each quantum and runs fleet control at every
            boundary unconditionally.
        clock_quantum: Lockstep granularity in simulated seconds, finite
            and > 0 (the event clock uses it when boundary cadence is
            required — rebalancing armed or recovery controllers
            attached).
        policy: Placement policy name or instance (see
            :data:`~repro.fleet.placement.PLACEMENT_POLICIES`).
        max_attempts: Per-intent host-probe bound forwarded to the
            scheduler (``None`` probes every host; otherwise >= 1).
        rebalance_threshold: Peak-reserved-fraction skew that triggers a
            rebalance move at a boundary; ``None`` (default) disables.
        failure_domains: How many failure domains to spread hosts over
            (round-robin by sorted host id).  The fault model crashes
            and partitions whole domains; placement avoids faulted
            domains.  Default 1 (no domain structure).
        start: Initial simulated time for every host.
        resilience: Forwarded to each :class:`Host`; when armed, each
            host's recovery controller escalates unrecoverable placements
            to the fleet's migration planner.
        slo: Arm fleet-wide latency observability: ``True`` uses the
            default :class:`~repro.slo.probe.SloConfig`; a config or a
            single :class:`~repro.slo.objective.SloObjective` tunes it.
            Every host runs a sampled
            :class:`~repro.slo.probe.LatencyProbe`, and
            :meth:`advance_to` folds the merged stream into :attr:`slo`, a
            :class:`~repro.slo.monitor.FleetSloMonitor` whose fast-window
            burn-rate alerts hand the offending host to
            :meth:`~repro.fleet.migration.MigrationPlanner
            .relieve_latency` — the fleet half of the DESIGN.md §16
            closed loop.
        slo_max_moves: Migration budget per latency alert (default 4).
        **host_kwargs: Remaining keywords forwarded to every
            :class:`Host` (``coalesce_recompute``, ``arbiter_period``,
            ``decision_latency``, ...).
    """

    def __init__(
        self,
        topology: Union[str, Callable[[], HostTopology]] = "cascade_lake_2s",
        hosts: int = 4,
        *,
        host_ids: Optional[Sequence[str]] = None,
        clock: Union[str, Type[FleetClock]] = "event",
        clock_quantum: float = 0.001,
        policy: Union[str, PlacementPolicy] = "best-fit",
        max_attempts: Optional[int] = None,
        rebalance_threshold: Optional[float] = None,
        failure_domains: int = 1,
        start: float = 0.0,
        resilience=None,
        slo=None,
        slo_max_moves: int = 4,
        **host_kwargs,
    ) -> None:
        if isinstance(topology, HostTopology):
            raise FleetError(
                "pass a preset name or a topology *factory*: hosts must "
                "not share one mutable HostTopology instance"
            )
        if isinstance(topology, str):
            preset = topology

            def factory() -> HostTopology:
                return load_preset(preset)
        else:
            factory = topology
        if not (math.isfinite(clock_quantum) and clock_quantum > 0):
            raise FleetError(
                f"clock_quantum must be finite and > 0, got {clock_quantum}"
            )
        ids = list(host_ids) if host_ids else [
            f"host{i:02d}" for i in range(hosts)
        ]
        if len(set(ids)) != len(ids):
            raise FleetError(f"duplicate host ids in {ids}")
        if not ids:
            raise FleetError("a fleet needs at least one host")
        if slo_max_moves < 0:
            raise FleetError(
                f"slo_max_moves must be >= 0, got {slo_max_moves}")
        slo_config = normalize_slo(slo)
        self._slo_max_moves = slo_max_moves
        if slo_config is not None:
            # Probes run host-side, so the config must reach every Host
            # constructor.
            host_kwargs["slo"] = slo_config
            #: Fleet-wide SLO state (None unless built with ``slo=``).
            self.slo: Optional[FleetSloMonitor] = FleetSloMonitor(
                slo_config.objectives,
                keep_samples=slo_config.keep_samples)
            # Every probe arms at fleet build (host time 0), so they all
            # fire on the same exact grid k * probe_period; advance
            # boundaries before the next grid point cannot have produced
            # samples and skip the drain/evaluate entirely.
            self._slo_period = slo_config.probe_period
            self._slo_fires = 0
            self._slo_next_due = slo_config.probe_period
        else:
            self.slo = None
        # Hosts soft-quarantined by the latency alert sink (telemetry-
        # faulted so placement ranks them last until their burn clears).
        self._slo_quarantined: set = set()

        #: The device-id vocabulary intents are written against.
        self.reference_topology = factory()
        self._reference_keys = canonical_device_keys(self.reference_topology)
        self.clock_quantum = clock_quantum
        self._host_ids = sorted(ids)
        self._hosts: Dict[str, Host] = {}
        self._mappings: Dict[str, Dict[str, str]] = {}
        # Fault-injection state: one injector per host, at most one
        # active degrade per host.
        self._injectors: Dict[str, FailureInjector] = {}
        self._degrade_failures: Dict[str, list] = {}
        self.telemetry = FleetTelemetry()
        for host_id in self._host_ids:
            host = Host(factory(), start=start, resilience=resilience,
                        **host_kwargs)
            self._hosts[host_id] = host
            self.telemetry.attach(host_id, host)
        self.health = FleetHealth(self._host_ids,
                                  domains=failure_domains)
        self.scheduler = ClusterScheduler(self, policy=policy,
                                          max_attempts=max_attempts)
        self.planner = MigrationPlanner(
            self, self.scheduler, rebalance_threshold=rebalance_threshold,
        )
        self.clock: FleetClock = make_clock(clock, self, clock_quantum,
                                            start)
        for host_id, host in self._hosts.items():
            if host.recovery is not None:
                host.recovery.on_escalation(
                    lambda intent_id, _links, hid=host_id:
                        self.planner.request_escalation(hid, intent_id)
                )
        if self.slo is not None:
            self.slo.on_alert(self._handle_slo_alert)

    # -- membership ----------------------------------------------------------

    def host(self, host_id: str) -> Host:
        """The :class:`Host` registered under *host_id*."""
        try:
            return self._hosts[host_id]
        except KeyError:
            raise UnknownHostError(host_id) from None

    def host_ids(self) -> List[str]:
        """All host ids, sorted — the fleet's deterministic order."""
        return list(self._host_ids)

    def hosts(self) -> List[Tuple[str, Host]]:
        """``(host_id, host)`` pairs in deterministic order."""
        return [(host_id, self._hosts[host_id])
                for host_id in self._host_ids]

    def require_host(self, host_id: str) -> None:
        """Raise :class:`UnknownHostError` unless *host_id* is a fleet
        member."""
        if host_id not in self._hosts:
            raise UnknownHostError(host_id)

    def __len__(self) -> int:
        return len(self._host_ids)

    # -- the shared clock ----------------------------------------------------

    @property
    def now(self) -> float:
        """Current fleet time (hosts may lag behind under the event
        clock until their next :meth:`wake`)."""
        return self.clock.now

    def advance_to(self, t: float) -> int:
        """Advance fleet time to *t*, running host work due before it.

        Under the event-driven clock only hosts with pending events are
        woken; idle hosts fast-forward (their local clocks catch up at
        the next fleet interaction).  Returns the number of host events
        processed.

        When ``slo=`` is armed this is also the SLO evaluation point:
        probe samples accumulated during the advance are drained from
        the hosts' probes, folded into :attr:`slo`, and due burn-rate
        alerts fire — into the default
        :meth:`~repro.fleet.migration.MigrationPlanner.relieve_latency`
        sink and any listeners.  Advances happen at the same fleet times
        under both clock disciplines, so evaluation (and therefore the
        alert log) is bit-identical across them.
        """
        processed = self.clock.advance_to(t)
        if self.slo is not None:
            now = self.clock.now
            if now >= self._slo_next_due:
                self.slo.ingest(self._drain_slo_samples())
                self.slo.evaluate(now)
                if self._slo_quarantined:
                    self._clear_slo_quarantine()
                # Advance the gate past every grid point now covers.
                # The fold itself already happened at the first boundary
                # at or after each grid point (probes buffer until
                # drained), so gating on the exact grid skips only
                # provably-empty drains and keeps the alert log
                # bit-identical across clock disciplines.
                fires, period = self._slo_fires, self._slo_period
                due = self._slo_next_due
                while due <= now:
                    fires += 1
                    due = (fires + 1) * period
                self._slo_fires = fires
                self._slo_next_due = due
        return processed

    def _clear_slo_quarantine(self) -> None:
        """Un-fault quarantined hosts whose burn demonstrably cleared.

        Clearing needs positive evidence — healthy samples in the fast
        window (see :meth:`FleetSloMonitor.host_clear`) — so a drained
        host stays quarantined until overflow placements probe it good
        again.  The fleet fault model's own telemetry marks are never
        clobbered: a host in a faulted domain stays marked.
        """
        for host_id in sorted(self._slo_quarantined):
            if self.slo.host_clear(host_id, self.now):
                self._slo_quarantined.discard(host_id)
                if host_id not in self.health.avoid_hosts():
                    self.telemetry.set_fault(host_id, False)

    def _drain_slo_samples(self) -> List[SloSample]:
        """Collect host-tagged probe samples accumulated since the last
        drain (the fold input for :attr:`slo`)."""
        samples: List[SloSample] = []
        for host_id in self._host_ids:
            probe = self._hosts[host_id].slo_probe
            if probe is None:  # pragma: no cover - armed fleets probe all
                continue
            for t, tenant, path, value in probe.take_delta():
                samples.append((t, host_id, tenant, path, value))
        return samples

    def _handle_slo_alert(self, alert: SloAlert) -> None:
        """Default alert sink: a fast-window burn on a named host drains
        its sessions toward headroom (DESIGN.md §16's closed loop).

        Slow-window alerts are advisory (they stay in the audit log but
        trigger no movement), matching the SRE playbook where only the
        fast burn pages.
        """
        if alert.window != "fast" or not alert.host_id:
            return
        if alert.host_id not in self._slo_quarantined:
            # Soft-quarantine: a telemetry-faulted host ranks last in
            # every placement policy, so new arrivals only land on it as
            # overflow while it burns budget.
            self._slo_quarantined.add(alert.host_id)
            self.telemetry.set_fault(alert.host_id, True)
        if self._slo_max_moves:
            self.planner.relieve_latency(
                alert.host_id, max_moves=self._slo_max_moves)

    def wake(self, host_id: str, t: Optional[float] = None) -> int:
        """Bring one host's local clock up to fleet time (or *t*).

        Called automatically before every fleet-surface interaction with
        the host; exposed for callers driving hosts directly.
        """
        return self.clock.wake(host_id, t)

    def notify(self, host_id: str) -> None:
        """Tell the clock *host_id* may have new pending events.

        Called after fleet-surface mutations (submit, release, migration
        legs) so events they schedule — arbiter enforcement, retries —
        run at their due time under the event-driven clock rather than at
        the host's next wake.
        """
        self.clock.notify(host_id)

    # -- intent remapping ----------------------------------------------------

    def canonical_device_key(self, device_id: str) -> Optional[str]:
        """The ``"<type>:<index>"`` key of a reference-topology device
        (``None`` when unknown) — the vocabulary
        :attr:`HostHeadroom.attach_free` is keyed by."""
        return self._reference_keys.get(device_id)

    def remap_intent(self, intent: PerformanceTarget,
                     host_id: str) -> PerformanceTarget:
        """Rewrite an intent's device ids for one host's topology.

        Devices map by (type, per-type index) against the reference
        topology — the n-th NIC in the reference vocabulary is the n-th
        NIC on every host — which is what lets one intent stream target a
        heterogeneous fleet.  On a homogeneous fleet the mapping is the
        identity and the original intent is returned unchanged.
        """
        mapping = self._mappings.get(host_id)
        if mapping is None:
            mapping = _device_mapping(self.reference_topology,
                                      self.host(host_id).topology)
            self._mappings[host_id] = mapping
        src = mapping.get(intent.src, intent.src)
        dst = (mapping.get(intent.dst, intent.dst)
               if intent.dst is not None else None)
        if src == intent.src and dst == intent.dst:
            return intent
        return dataclass_replace(intent, src=src, dst=dst)

    # -- delegation ----------------------------------------------------------

    def submit(self, intent: PerformanceTarget) -> FleetPlacement:
        """Admit *intent* somewhere in the fleet (see
        :meth:`ClusterScheduler.submit`)."""
        return self.scheduler.submit(intent)

    def try_submit(self,
                   intent: PerformanceTarget) -> Optional[FleetPlacement]:
        """Like :meth:`submit` but ``None`` on fleet-wide rejection."""
        return self.scheduler.try_submit(intent)

    def release(self, intent_id: str) -> None:
        """Withdraw a fleet-placed intent."""
        self.scheduler.release(intent_id)

    def migrate(self, intent_id: str, dst_host_id: str) -> FleetPlacement:
        """Live-migrate one placement (see :meth:`MigrationPlanner.migrate`)."""
        return self.planner.migrate(intent_id, dst_host_id)

    def placements(self) -> List[FleetPlacement]:
        """Every placement in the fleet."""
        return self.scheduler.placements()

    # -- per-host manager surface --------------------------------------------
    #
    # The scheduler, planner, recovery controller, fault injector, and
    # invariant oracle go through these instead of reaching into
    # host(host_id).manager: the fleet's one boundary between the
    # control plane and its hosts.

    def manager_try_submit(self, host_id: str,
                           intent: PerformanceTarget) -> Optional[Placement]:
        """``manager.try_submit`` on one host (``None`` on rejection)."""
        return self.host(host_id).manager.try_submit(intent)

    def manager_submit(self, host_id: str,
                       intent: PerformanceTarget) -> Placement:
        """``manager.submit`` on one host (raises on rejection)."""
        return self.host(host_id).manager.submit(intent)

    def manager_release(self, host_id: str, intent_id: str) -> None:
        """``manager.release`` on one host."""
        self.host(host_id).manager.release(intent_id)

    def manager_reinstate(self, host_id: str, placement: Placement) -> None:
        """``manager.reinstate`` on one host (migration rollback)."""
        self.host(host_id).manager.reinstate(placement)

    def manager_placement(self, host_id: str, intent_id: str) -> Placement:
        """``manager.placement`` on one host (raises when not placed)."""
        return self.host(host_id).manager.placement(intent_id)

    def collect_placements(
        self, bindings: Dict[str, str],
    ) -> List[Tuple[str, str, Placement]]:
        """``(intent_id, host_id, placement)`` for every binding, in
        intent-id order."""
        return [(iid, hid, self.host(hid).manager.placement(iid))
                for iid, hid in sorted(bindings.items())]

    # -- audit surface -------------------------------------------------------

    def placed_intents(self) -> Dict[str, List[str]]:
        """Intent ids each host's manager currently holds, in manager
        (insertion) order — the invariant oracle's ground truth."""
        return {host_id: [p.intent.intent_id
                          for p in host.manager.placements()]
                for host_id, host in self.hosts()}

    def reserved_total(self, host_id: str) -> float:
        """Total ledger reservation mass (bytes/s) on one host."""
        host = self.host(host_id)
        return sum(host.manager.ledger.reserved_map.values())

    def ledger_signatures(self) -> Dict[str, tuple]:
        """Each host's sorted reservation map as a hashable signature —
        the bit-identical equivalence key across clock disciplines."""
        return {
            host_id: tuple(sorted(host.manager.ledger.reserved_map.items()))
            for host_id, host in self.hosts()
        }

    def deep_audits(self, rate_tol: float = 1.0,
                    exclude: Sequence[str] = ()) -> List[tuple]:
        """Run the per-host fabric oracle on every non-excluded host.

        Returns ``(host_id, name, detail, time)`` violation tuples in
        global host order (stable within a host).
        """
        excluded = set(exclude)
        out = []
        for host_id, host in self.hosts():
            if host_id in excluded:
                continue
            for v in check_invariants(host.network,
                                      manager=host.manager,
                                      controller=host.recovery,
                                      rate_tol=rate_tol):
                out.append((host_id, v.name, v.detail, v.time))
        return out

    # -- fault-model surface -------------------------------------------------

    def degrade_host_links(self, host_id: str, factor: float) -> None:
        """Degrade every intra-host placement link to *factor* capacity
        (the fault injector's host-degrade primitive)."""
        host = self.host(host_id)
        injector = self._injectors.get(host_id)
        if injector is None:
            injector = FailureInjector(host.network)
            self._injectors[host_id] = injector
        failures = self._degrade_failures.setdefault(host_id, [])
        for link in host.topology.links():
            if (link.link_class is LinkClass.INTER_HOST
                    or link.capacity <= 0):
                continue
            failures.append(injector.degrade_link(link.link_id, factor))

    def restore_host_links(self, host_id: str) -> None:
        """Clear a previous :meth:`degrade_host_links` on *host_id*."""
        self.host(host_id)  # raises UnknownHostError
        injector = self._injectors.get(host_id)
        if injector is not None:
            for failure in self._degrade_failures.pop(host_id, []):
                injector.clear(failure)

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        """Shut down every host (recovery, retry, monitors, arbiters)."""
        for _host_id, host in self.hosts():
            host.shutdown()

    # -- reporting -----------------------------------------------------------

    def describe(self) -> str:
        """Human-readable fleet summary."""
        lines = [
            f"Fleet of {len(self)} hosts on "
            f"{self.reference_topology.name!r} @ t={self.now:.6f}s "
            f"(clock={self.clock.name}, "
            f"quantum={self.clock_quantum:g}s)"
        ]
        lines.append(self.scheduler.describe())
        lines.append(self.telemetry.describe())
        if self.slo is not None:
            lines.append(self.slo.describe())
        if self.planner.records:
            lines.append(self.planner.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Fleet(hosts={len(self)}, t={self.now:.6f}s, "
                f"clock={self.clock.name}, "
                f"policy={self.scheduler.policy.name}, "
                f"intents={len(self.scheduler.placements())})")
