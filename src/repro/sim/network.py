"""Live fabric state: active flows, fair-share rates, and accounting.

:class:`FabricNetwork` is the simulator's beating heart.  It owns the set of
active flows, recomputes the weighted max-min allocation whenever the flow
set or the topology changes, integrates per-link/per-tenant byte counters
over simulated time (the ground truth that telemetry later samples), and
schedules finite-flow completions on the engine.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple)

from ..errors import FlowError, UnknownLinkError
from ..trace.recorder import TRACER
from ..topology.graph import HostTopology
from ..topology.routing import Path
from .bandwidth import Constraint, FlowDemand
from .engine import Engine
from .events import Event
from .flows import Flow, FlowState
from .latency import DEFAULT_LATENCY_MODEL, LatencyModel
from .solver import IncrementalMaxMinSolver, SolverStats

#: Tenant id used for infrastructure traffic (telemetry, heartbeats).
SYSTEM_TENANT = "_system"

#: Bytes below which a finite flow is considered fully transferred.
_COMPLETION_SLACK = 1e-6

#: Minimum completion-event horizon (seconds).  Guards against the float
#: trap where a tiny remaining byte count yields an ETA below the clock's
#: representable resolution, re-firing the completion event at the same
#: timestamp forever.
_MIN_ETA = 1e-9

#: Direction suffixes for full-duplex constraint ids.
FORWARD = "fwd"
REVERSE = "rev"


def directed_id(link_id: str, direction: str) -> str:
    """Constraint id for one direction of a link (links are full duplex)."""
    return f"{link_id}|{direction}"


class FabricNetwork:
    """The simulated intra-host fabric carrying fluid flows.

    Args:
        topology: The host topology to run on.
        engine: The discrete-event engine driving simulated time.
        latency_model: Queueing model for analytic small-op latencies.
        coalesce_recompute: When ``True``, re-solves triggered by flow or
            cap events are deferred to a single engine event at the same
            simulated timestamp, so N same-instant events cost one solve
            instead of N.  Rate queries flush the pending solve, keeping
            observable rates consistent; only ``Flow.current_rate`` read
            directly between same-instant events can be stale.
    """

    def __init__(
        self,
        topology: HostTopology,
        engine: Engine,
        latency_model: Optional[LatencyModel] = None,
        coalesce_recompute: bool = False,
    ) -> None:
        self.topology = topology
        self.engine = engine
        self.latency_model = latency_model or DEFAULT_LATENCY_MODEL
        self.coalesce_recompute = coalesce_recompute

        self._flows: Dict[str, Flow] = {}
        # Each active flow's hops as (link_id, direction) pairs, and the
        # same hops as the solver's directed constraint ids.
        self._flow_hops: Dict[str, Tuple[Tuple[str, str], ...]] = {}
        self._directed_links: Dict[str, Tuple[str, ...]] = {}
        # Rate sums the readers look up, built on the first read after
        # the rates, the flow set or a path changed (see _rate_sums).
        self._rate_index: Optional[Dict[tuple, float]] = None
        # A counter per (link, direction), bumped whenever a flow on it
        # starts, stops, reroutes or gets a new rate: while a link's
        # counter stands still, every rate read on it returns what it
        # returned before (see rate_version).
        self._rate_versions: Dict[Tuple[str, str], int] = {}
        self._flow_seq = itertools.count()
        self._last_sync = engine.now
        self._completion_event: Optional[Event] = None

        # The resident incremental solver: flow/constraint mutations mark
        # components dirty; _solve() re-solves only those.
        self._solver = IncrementalMaxMinSolver()
        # Each link's capacity as last pushed into the solver (both
        # directions), so a re-solve writes only the ones that changed.
        self._pushed_capacity: Dict[str, float] = {}
        for link_id in topology.link_ids():
            self._push_capacity(link_id,
                                topology.link(link_id).effective_capacity)
        # Cached membership of each tenant-cap virtual constraint, keyed
        # (tenant, link, direction), so a flow's start, stop or reroute
        # updates only the caps on its own hops instead of rescanning
        # every flow.  For every installed cap the entry holds exactly the
        # tenant's active flows on the cap's directed links, and a cap
        # that binds no flow has no entry and no solver constraint:
        # _install_cap_constraint, _caps_track_flow and _drop_cap keep it
        # so, which is what lets a changed cap keep its membership
        # (set_link_caps) and a dropped one skip the solver (_drop_cap).
        self._cap_members: Dict[Tuple[str, str, Optional[str]], Set[str]] = {}

        # Recompute batching/coalescing.
        self._batch_depth = 0
        self._solve_pending = False
        self._pending_solve_event: Optional[Event] = None

        # Ground-truth accounting (telemetry samples these).
        self._link_bytes: Dict[str, float] = {
            link_id: 0.0 for link_id in topology.link_ids()
        }
        self._link_dir_bytes: Dict[str, float] = {}
        self._tenant_link_bytes: Dict[Tuple[str, str], float] = {}

        # Arbiter-injected state.  Installed caps are held as one
        # {tenant: cap} map per (link, direction), direction None for an
        # aggregate cap: the arbiter programs a link's caps in one call,
        # and a flow's caps are found on the maps of its own hops.
        self._tenant_weights: Dict[str, float] = {}
        self._link_caps: Dict[Tuple[str, Optional[str]],
                              Dict[str, float]] = {}

        # Observers.
        self._completion_listeners: List[Callable[[Flow], None]] = []
        self._start_listeners: List[Callable[[Flow], None]] = []
        self._link_state_listeners: List[Callable[[str, bool], None]] = []
        self._recompute_listeners: List[Callable[[], None]] = []
        self._recompute_queued_listeners: List[Callable[[], None]] = []
        self._recompute_count = 0

    # -- flow lifecycle ------------------------------------------------------

    def new_flow_id(self, prefix: str = "flow") -> str:
        """Generate a unique flow id."""
        return f"{prefix}-{next(self._flow_seq)}"

    def start_flow(self, flow: Flow) -> Flow:
        """Activate *flow* on the fabric and recompute rates."""
        if flow.flow_id in self._flows:
            raise FlowError(f"flow id already active: {flow.flow_id!r}")
        if flow.state is not FlowState.PENDING:
            raise FlowError(
                f"flow {flow.flow_id!r} must be PENDING, is {flow.state.value}"
            )
        for link_id in flow.path.links:
            if link_id not in self._link_bytes:
                raise UnknownLinkError(link_id)
        flow.state = FlowState.ACTIVE
        flow.created_at = flow.created_at or self.engine.now
        flow.started_at = self.engine.now
        self._place_flow(flow)
        self._bump_rate_versions(flow.flow_id)
        self._flows[flow.flow_id] = flow
        self._solver_set_flow(flow)
        self._caps_track_flow(flow, active=True)
        self._recompute()
        for listener in self._start_listeners:
            listener(flow)
        return flow

    def start_transfer(
        self,
        tenant_id: str,
        path: Path,
        size: Optional[float] = None,
        demand: float = math.inf,
        weight: float = 1.0,
        on_complete: Optional[Callable[[Flow], None]] = None,
        tags: Optional[Dict[str, str]] = None,
        flow_id: Optional[str] = None,
    ) -> Flow:
        """Convenience wrapper: build and start a flow in one call."""
        flow = Flow(
            flow_id=flow_id or self.new_flow_id(),
            tenant_id=tenant_id,
            path=path,
            size=size,
            demand=demand,
            weight=weight,
            on_complete=on_complete,
            tags=dict(tags or {}),
        )
        return self.start_flow(flow)

    def cancel_flow(self, flow_id: str) -> Flow:
        """Stop an active flow before completion."""
        flow = self._active_flow(flow_id)
        self._sync()
        flow.state = FlowState.CANCELLED
        flow.finished_at = self.engine.now
        flow.current_rate = 0.0
        self._drop_flow(flow)
        self._recompute()
        return flow

    def _active_flow(self, flow_id: str) -> Flow:
        try:
            return self._flows[flow_id]
        except KeyError:
            raise FlowError(f"flow not active: {flow_id!r}") from None

    def active_flows(self, tenant_id: Optional[str] = None) -> List[Flow]:
        """Currently active flows, optionally filtered by tenant."""
        flows = list(self._flows.values())
        if tenant_id is not None:
            flows = [f for f in flows if f.tenant_id == tenant_id]
        return flows

    def flow(self, flow_id: str) -> Flow:
        """Return the active flow with *flow_id*."""
        return self._active_flow(flow_id)

    def has_flow(self, flow_id: str) -> bool:
        """Whether *flow_id* is currently active."""
        return flow_id in self._flows

    def on_flow_complete(self, listener: Callable[[Flow], None]) -> None:
        """Register a callback fired for every finite-flow completion."""
        self._completion_listeners.append(listener)

    def on_flow_start(self, listener: Callable[[Flow], None]) -> None:
        """Register a callback fired whenever a flow becomes active."""
        self._start_listeners.append(listener)

    def on_link_state_change(self, listener: Callable[[str, bool], None]) -> None:
        """Register a callback fired when a link transitions up/down.

        Called as ``listener(link_id, up)`` only on *actual* transitions —
        re-asserting the current state does not fire.  The recovery layer
        uses this as its flap-detection signal.
        """
        self._link_state_listeners.append(listener)

    def on_recompute(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after every rate re-solve.

        Anything that changes what the fabric is carrying — flow starts,
        completions, cap changes, link failures, degradations — funnels
        through one recompute, so this is the single invalidation signal
        for caches derived from live fabric state (fleet telemetry).
        """
        self._recompute_listeners.append(listener)

    def on_recompute_queued(self, listener: Callable[[], None]) -> None:
        """Register a callback fired when a coalesced re-solve is queued.

        With ``coalesce_recompute`` on, a mutation queues one deferred
        re-solve and :meth:`on_recompute` listeners fire only when it
        runs.  This fires at queue time instead, so a cache can learn that
        :meth:`flush_recompute` would change something without flushing
        every fabric it tracks (fleet telemetry).
        """
        self._recompute_queued_listeners.append(listener)

    def reroute_flow(self, flow_id: str, path: Path) -> Flow:
        """Move an active flow onto *path*, preserving identity and bytes.

        The flow keeps its id, tenant, demand, weight, remaining size, and
        byte accounting; only its route changes.  Endpoints must match the
        current path (a re-route is a path repair, not a new transfer).
        The failure-recovery layer uses this to migrate traffic off dead or
        quarantined links without disturbing application state.
        """
        flow = self._active_flow(flow_id)
        for link_id in path.links:
            if link_id not in self._link_bytes:
                raise UnknownLinkError(link_id)
        if (path.src, path.dst) != (flow.path.src, flow.path.dst):
            raise FlowError(
                f"reroute of {flow_id!r} must keep endpoints "
                f"({flow.path.src!r} -> {flow.path.dst!r}), got "
                f"({path.src!r} -> {path.dst!r})"
            )
        self._sync()
        self._caps_track_flow(flow, active=False)
        self._bump_rate_versions(flow_id)
        flow.path = path
        self._place_flow(flow)
        self._bump_rate_versions(flow_id)
        self._solver_set_flow(flow)
        self._caps_track_flow(flow, active=True)
        self._recompute()
        return flow

    # -- arbiter hooks ---------------------------------------------------------

    def set_tenant_weight(self, tenant_id: str, weight: float) -> None:
        """Set the fairness weight multiplier for a tenant's flows."""
        if not 0 < weight < math.inf:
            raise ValueError(
                f"tenant weight must be finite and > 0, got {weight}")
        self._tenant_weights[tenant_id] = weight
        self._recompute()

    def set_tenant_link_cap(self, tenant_id: str, link_id: str,
                            cap: float,
                            direction: Optional[str] = None) -> None:
        """Cap a tenant's rate on one link (bytes/s).

        With *direction* (``"fwd"``/``"rev"``), only flows traversing the
        link that way count toward the cap; without it, the cap binds the
        tenant's aggregate over both directions.  Directional and
        aggregate caps may coexist (the solver honours all of them).
        """
        self.set_link_caps(link_id, {tenant_id: cap}, direction=direction)

    def set_link_caps(self, link_id: str, caps: Dict[str, float],
                      direction: Optional[str] = None) -> None:
        """Cap several tenants' rates on one link (bytes/s) at once.

        Equivalent to one :meth:`set_tenant_link_cap` per ``(tenant, cap)``
        entry, in *caps* order, inside :meth:`batch`: the link and the
        direction are validated once, each cap whose value changed is
        installed, and at most one re-solve is requested.  A cap that
        fails its check raises ``ValueError`` after the entries before it
        were installed (and their re-solve requested).
        """
        self._check_link_key(link_id, direction)
        if not caps:
            return
        link_key = (link_id, direction)
        installed = self._link_caps.get(link_key)
        if installed is None:
            installed = self._link_caps[link_key] = {}
        changed = False
        try:
            for tenant_id, cap in caps.items():
                if not cap >= 0:  # also rejects NaN
                    raise ValueError(f"cap must be >= 0, got {cap}")
                previous = installed.get(tenant_id)
                if previous == cap:
                    # Re-asserting the exact cap would rebuild an identical
                    # constraint and force a full re-solve; this no-op
                    # skip is what lets the fabric (and the arbiter's
                    # quiescence check) settle.
                    continue
                installed[tenant_id] = cap
                changed = True
                # Without flows the cap binds nothing: it gets a
                # membership and a solver constraint when a flow arrives
                # (_caps_track_flow).
                if self._flows:
                    key = (tenant_id, link_id, direction)
                    if previous is None:
                        self._install_cap_constraint(key)
                    else:
                        # An installed cap's membership is kept current
                        # (see _cap_members), so a new value only needs
                        # pushing.
                        self._push_cap_constraint(key)
        finally:
            if changed:
                self._recompute()
            elif not installed:
                del self._link_caps[link_key]

    def clear_tenant_link_cap(self, tenant_id: str, link_id: str,
                              direction: Optional[str] = None) -> None:
        """Remove a previously set per-tenant link cap (no-op if absent)."""
        self.clear_link_caps(link_id, (tenant_id,), direction=direction)

    def clear_link_caps(self, link_id: str, tenants: Iterable[str],
                        direction: Optional[str] = None) -> None:
        """Remove several tenants' caps on one link at once.

        Equivalent to one :meth:`clear_tenant_link_cap` per tenant, in
        *tenants* order, inside :meth:`batch`: absent caps are skipped,
        other tenants' caps on the link stay, and at most one re-solve is
        requested.
        """
        self._check_link_key(link_id, direction)
        installed = self._link_caps.get((link_id, direction))
        if installed is None:
            return
        removed = False
        for tenant_id in tenants:
            if tenant_id in installed:
                self._drop_cap(installed, (tenant_id, link_id, direction))
                removed = True
        if removed:
            self._recompute()

    def clear_tenant_caps(self, tenant_id: str) -> None:
        """Remove every cap for *tenant_id*."""
        stale = [(installed, (tenant_id, *link_key))
                 for link_key, installed in self._link_caps.items()
                 if tenant_id in installed]
        for installed, key in stale:
            self._drop_cap(installed, key)
        if stale:
            self._recompute()

    def _check_link_key(self, link_id: str,
                        direction: Optional[str]) -> None:
        if link_id not in self._link_bytes:
            raise UnknownLinkError(link_id)
        if direction not in (None, FORWARD, REVERSE):
            raise ValueError(f"direction must be fwd/rev/None, "
                             f"got {direction!r}")

    def _drop_cap(self, installed: Dict[str, float],
                  key: Tuple[str, str, Optional[str]]) -> None:
        """Take one installed cap off its link map and out of the solver."""
        tenant_id, link_id, direction = key
        del installed[tenant_id]
        if not installed:
            del self._link_caps[(link_id, direction)]
        # Only a cap that binds a flow has a solver constraint (see
        # _cap_members).
        if self._cap_members.pop(key, None) is not None:
            self._solver.remove_constraint(self._cap_cid(key))

    def set_flow_demand(self, flow_id: str, demand: float) -> None:
        """Change a flow's offered load (bytes/s) and re-solve."""
        flow = self._active_flow(flow_id)
        if not demand >= 0:  # also rejects NaN
            raise ValueError(f"demand must be >= 0, got {demand}")
        flow.demand = demand
        self._recompute()

    def set_flow_rate_cap(self, flow_id: str, cap: float) -> None:
        """Cap one flow's rate (bytes/s); ``inf`` removes the cap."""
        flow = self._active_flow(flow_id)
        if not cap >= 0:  # also rejects NaN
            raise ValueError(f"cap must be >= 0, got {cap}")
        flow.rate_cap = cap
        self._recompute()

    def tenant_link_cap(self, tenant_id: str, link_id: str,
                        direction: Optional[str] = None) -> Optional[float]:
        """The cap currently applied to (*tenant_id*, *link_id*,
        *direction*), if any."""
        installed = self._link_caps.get((link_id, direction))
        return None if installed is None else installed.get(tenant_id)

    # -- failures ----------------------------------------------------------------

    def degrade_link(self, link_id: str,
                     degraded_capacity: Optional[float]) -> None:
        """Silently degrade (or restore with ``None``) a link's capacity."""
        link = self.topology.link(link_id)
        if degraded_capacity is not None and not degraded_capacity >= 0:
            raise ValueError(
                f"degraded capacity must be >= 0 or None, "
                f"got {degraded_capacity}")
        link.degraded_capacity = degraded_capacity
        self._recompute()

    def set_link_up(self, link_id: str, up: bool) -> None:
        """Administratively raise/lower a link."""
        link = self.topology.link(link_id)
        changed = link.up != up
        link.up = up
        self._recompute()
        if changed:
            for listener in self._link_state_listeners:
                listener(link_id, up)

    # -- queries --------------------------------------------------------------

    def link_rate(self, link_id: str, direction: Optional[str] = None) -> float:
        """Instantaneous rate on *link_id* (bytes/s).

        With *direction* (``"fwd"``/``"rev"``) only that direction is
        counted; otherwise both directions are summed.
        """
        if link_id not in self._link_bytes:
            raise UnknownLinkError(link_id)
        self.flush_recompute()
        return self._rate_sums().get((link_id, direction), 0.0)

    def link_utilization(self, link_id: str) -> float:
        """Instantaneous utilization of *link_id* in [0, 1].

        Links are full duplex; utilization is the *busier direction's*
        share of per-direction capacity, which is what drives queueing.
        """
        if link_id not in self._link_bytes:
            raise UnknownLinkError(link_id)
        cap = self.topology.link(link_id).effective_capacity
        self.flush_recompute()
        sums = self._rate_sums()
        busiest = max(sums.get((link_id, FORWARD), 0.0),
                      sums.get((link_id, REVERSE), 0.0))
        if cap <= 0:
            return 1.0 if busiest > 0 else 0.0
        return min(busiest / cap, 1.0)

    def link_utilizations(self, clamp: bool = True,
                          only: Optional[Iterable[str]] = None,
                          ) -> Dict[str, float]:
        """Instantaneous utilization of *every* link in one pass.

        Like the other rate queries, this flushes any pending coalesced
        re-solve first, so a burst of same-instant flow events can never
        yield stale utilizations, and it reads the same rate sums, so each
        value equals :meth:`link_utilization`'s.  With ``clamp`` (the
        default) values are capped at 1.0; ``clamp=False`` exposes
        oversubscription.  ``only=`` restricts the result to the given
        link ids (the latency probe asks for just its sampled paths'
        links); values are identical to the unrestricted query's.
        """
        self.flush_recompute()
        sums = self._rate_sums()
        utilizations: Dict[str, float] = {}
        if only is None:
            wanted: Iterable[str] = self._link_bytes
        else:
            wanted = only
            for link_id in wanted:
                if link_id not in self._link_bytes:
                    raise UnknownLinkError(link_id)
        for link_id in wanted:
            busiest = max(sums.get((link_id, FORWARD), 0.0),
                          sums.get((link_id, REVERSE), 0.0))
            cap = self.topology.link(link_id).effective_capacity
            if cap <= 0:
                utilizations[link_id] = 1.0 if busiest > 0 else 0.0
            else:
                value = busiest / cap
                utilizations[link_id] = min(value, 1.0) if clamp else value
        return utilizations

    def tenant_link_rate(self, tenant_id: str, link_id: str,
                         direction: Optional[str] = None) -> float:
        """Instantaneous rate of one tenant on one link.

        With *direction*, only that direction's traversals count;
        otherwise both directions are summed.
        """
        if link_id not in self._link_bytes:
            raise UnknownLinkError(link_id)
        self.flush_recompute()
        return self._rate_sums().get((tenant_id, link_id, direction), 0.0)

    def tenant_link_rates(self, link_id: str, direction: Optional[str],
                          tenants: Iterable[str]) -> Dict[str, float]:
        """Instantaneous rate of each of *tenants* on one link, in one read.

        Each value equals :meth:`tenant_link_rate`'s for that tenant (both
        read the same sums); a tenant with no flow there reads ``0.0``.
        """
        if link_id not in self._link_bytes:
            raise UnknownLinkError(link_id)
        self.flush_recompute()
        sums = self._rate_sums()
        return {tenant: sums.get((tenant, link_id, direction), 0.0)
                for tenant in tenants}

    def rate_version(self, link_id: str, direction: Optional[str]) -> int:
        """A counter that moves whenever the rates on one link may have.

        It grows when a flow crossing *link_id* in *direction* (either
        way for ``None``) starts, stops, reroutes onto or off the link, or
        is given a different rate by a re-solve.  While it stands still,
        :meth:`tenant_link_rates` (and every other rate read on that
        link and direction) returns what it returned before, so a cache
        keyed on it never misses a change; it may move when the rates did
        not.
        """
        if link_id not in self._link_bytes:
            raise UnknownLinkError(link_id)
        self.flush_recompute()
        versions = self._rate_versions
        if direction is None:
            return (versions.get((link_id, FORWARD), 0)
                    + versions.get((link_id, REVERSE), 0))
        return versions.get((link_id, direction), 0)

    def link_bytes(self, link_id: str,
                   direction: Optional[str] = None) -> float:
        """Cumulative bytes carried by *link_id* up to now (ground truth).

        With *direction* (``"fwd"``/``"rev"``), only that direction —
        matching real per-direction rx/tx hardware counters.
        """
        self._sync()
        if link_id not in self._link_bytes:
            raise UnknownLinkError(link_id)
        if direction is None:
            return self._link_bytes[link_id]
        return self._link_dir_bytes.get(directed_id(link_id, direction), 0.0)

    def tenant_link_bytes(self, tenant_id: str, link_id: str) -> float:
        """Cumulative bytes of one tenant on one link (ground truth)."""
        self._sync()
        return self._tenant_link_bytes.get((tenant_id, link_id), 0.0)

    def path_latency(self, path: Path, message_size: float = 0.0) -> float:
        """Analytic one-way latency of a small op along *path* right now."""
        return self.latency_model.path_latency(
            self.topology, path, self.link_utilization, message_size
        )

    def round_trip_latency(self, path: Path, request_size: float = 0.0,
                           response_size: float = 0.0) -> float:
        """Analytic round-trip latency along *path* and back."""
        return self.latency_model.round_trip(
            self.topology, path, self.link_utilization,
            request_size, response_size,
        )

    @property
    def recompute_count(self) -> int:
        """How many times rates were re-solved (a cost/scale metric)."""
        return self._recompute_count

    # -- internals ----------------------------------------------------------------

    def _sync(self) -> None:
        """Integrate byte counters from the last sync point to now."""
        now = self.engine.now
        dt = now - self._last_sync
        if dt <= 0:
            return
        for flow in self._flows.values():
            moved = flow.current_rate * dt
            if moved <= 0:
                continue
            if flow.is_finite:
                moved = min(moved, flow.remaining_bytes)
            flow.bytes_sent += moved
            directed = self._directed_links[flow.flow_id]
            for link_id, dlink in zip(flow.path.links, directed):
                self._link_bytes[link_id] += moved
                self._link_dir_bytes[dlink] = (
                    self._link_dir_bytes.get(dlink, 0.0) + moved
                )
                key = (flow.tenant_id, link_id)
                self._tenant_link_bytes[key] = (
                    self._tenant_link_bytes.get(key, 0.0) + moved
                )
        self._last_sync = now

    def _rate_sums(self) -> Dict[tuple, float]:
        """Every flow's rate summed per link and per tenant on a link.

        Keys are ``(link_id, direction)`` and ``(tenant_id, link_id,
        direction)``, with ``direction=None`` summing both directions; a
        missing key means no rate.  Built in one pass over the flows in
        their order, adding each flow's ``current_rate * hops`` to every
        key it touches, so each sum takes the same additions, in the same
        order, as a scan of every flow would (the flows that miss a key
        add ``0.0``, which changes nothing).  Kept until the rates, the
        flow set or a path changes.
        """
        sums = self._rate_index
        if sums is not None:
            return sums
        sums = self._rate_index = {}
        for flow_id, flow in self._flows.items():
            hits: Dict[Tuple[str, Optional[str]], int] = {}
            for hop in self._flow_hops[flow_id]:
                both = (hop[0], None)
                hits[hop] = hits.get(hop, 0) + 1
                hits[both] = hits.get(both, 0) + 1
            rate = flow.current_rate
            tenant_id = flow.tenant_id
            for key, count in hits.items():
                amount = rate * count
                sums[key] = sums.get(key, 0.0) + amount
                tenant_key = (tenant_id, *key)
                sums[tenant_key] = sums.get(tenant_key, 0.0) + amount
        return sums

    # -- solver plumbing ----------------------------------------------------------

    def _place_flow(self, flow: Flow) -> None:
        """Record the hops of *flow*'s current path (start and reroute)."""
        hops = []
        for i, link_id in enumerate(flow.path.links):
            link = self.topology.link(link_id)
            direction = (FORWARD if flow.path.devices[i] == link.src
                         else REVERSE)
            hops.append((link_id, direction))
        self._flow_hops[flow.flow_id] = tuple(hops)
        self._directed_links[flow.flow_id] = tuple(
            directed_id(link_id, direction) for link_id, direction in hops)
        self._rate_index = None

    def _bump_rate_versions(self, flow_id: str) -> None:
        """Move the rate version of every hop of one flow's path."""
        versions = self._rate_versions
        for hop in self._flow_hops[flow_id]:
            versions[hop] = versions.get(hop, 0) + 1

    def _drop_flow(self, flow: Flow) -> None:
        """Take a stopped flow off the fabric (cancel and completion)."""
        self._caps_track_flow(flow, active=False)
        self._bump_rate_versions(flow.flow_id)
        del self._flows[flow.flow_id]
        del self._flow_hops[flow.flow_id]
        del self._directed_links[flow.flow_id]
        self._solver.remove_flow(flow.flow_id)
        self._rate_index = None

    @staticmethod
    def _cap_cid(key: Tuple[str, str, Optional[str]]) -> str:
        """Virtual constraint id for one tenant-cap key."""
        tenant_id, link_id, direction = key
        return f"cap:{tenant_id}:{link_id}:{direction or 'any'}"

    @staticmethod
    def _cap_wanted(key: Tuple[str, str, Optional[str]]) -> Set[str]:
        """Directed constraint ids a tenant-cap key binds against."""
        _tenant_id, link_id, direction = key
        if direction is None:
            return {directed_id(link_id, FORWARD),
                    directed_id(link_id, REVERSE)}
        return {directed_id(link_id, direction)}

    def _solver_set_flow(self, flow: Flow) -> None:
        """Mirror one fabric flow into the resident solver."""
        self._solver.set_flow(
            FlowDemand(
                flow_id=flow.flow_id,
                links=self._directed_links[flow.flow_id],
                demand=flow.effective_demand,
                weight=flow.weight * self._tenant_weights.get(
                    flow.tenant_id, 1.0
                ),
            )
        )

    def _push_cap_constraint(self, key: Tuple[str, str, Optional[str]]
                             ) -> None:
        """Sync one cap's membership set into the solver."""
        member = self._cap_members.get(key) or ()
        cid = self._cap_cid(key)
        if member:
            tenant_id, link_id, direction = key
            self._solver.set_constraint(
                Constraint(
                    constraint_id=cid,
                    capacity=self._link_caps[(link_id, direction)][tenant_id],
                    member_flows=frozenset(member),
                )
            )
        else:
            self._solver.remove_constraint(cid)

    def _install_cap_constraint(self, key: Tuple[str, str, Optional[str]]
                                ) -> None:
        """Build a newly installed cap's membership from every flow."""
        tenant_id = key[0]
        wanted = self._cap_wanted(key)
        members = {
            f.flow_id for f in self._flows.values()
            if f.tenant_id == tenant_id
            and wanted.intersection(self._directed_links[f.flow_id])
        }
        if members:
            self._cap_members[key] = members
        else:
            self._cap_members.pop(key, None)
        self._push_cap_constraint(key)

    def _caps_track_flow(self, flow: Flow, active: bool) -> None:
        """Maintain cap memberships as *flow* joins/leaves the fabric.

        The caps binding *flow* are its tenant's entries in the maps of
        its own hops: ``(link, direction)`` and the aggregate
        ``(link, None)`` per hop, each visited once, in hop order.
        """
        tenant_id = flow.tenant_id
        link_caps = self._link_caps
        for link_key in dict.fromkeys(
                key for link_id, direction in self._flow_hops[flow.flow_id]
                for key in ((link_id, direction), (link_id, None))):
            installed = link_caps.get(link_key)
            if installed is None or tenant_id not in installed:
                continue
            key = (tenant_id, *link_key)
            if active:
                self._cap_members.setdefault(key, set()).add(flow.flow_id)
            else:
                members = self._cap_members.get(key)
                if members is not None:
                    members.discard(flow.flow_id)
                    if not members:
                        del self._cap_members[key]
            self._push_cap_constraint(key)

    def _push_capacity(self, link_id: str, cap: float) -> None:
        """Set both directions' solver capacity for *link_id*."""
        self._solver.set_capacity(directed_id(link_id, FORWARD), cap)
        self._solver.set_capacity(directed_id(link_id, REVERSE), cap)
        self._pushed_capacity[link_id] = cap

    def _refresh_solver_inputs(self) -> None:
        """Re-sync capacities and flow parameters into the solver.

        Cheap O(links + flows) comparison scan: a capacity is pushed only
        when it differs from the one last pushed (the solver ignores
        unchanged flow parameters itself).  It keeps the incremental path
        correct even when topology links or flow demands are mutated
        directly rather than through the network's mutation methods.
        """
        pushed = self._pushed_capacity
        for link_id in self._link_bytes:
            cap = self.topology.link(link_id).effective_capacity
            if cap != pushed[link_id]:
                self._push_capacity(link_id, cap)
        solver = self._solver
        weights = self._tenant_weights
        for f in self._flows.values():
            solver.set_flow_params(
                f.flow_id,
                demand=f.effective_demand,
                weight=f.weight * weights.get(f.tenant_id, 1.0),
            )

    def _solve(self) -> None:
        """Re-solve dirty components and push rates onto the flows."""
        if not self._flows:
            # No flow has a rate to re-solve.  Capacity changes reach the
            # solver at the next solve with flows, which refreshes every
            # input first.
            return
        self._refresh_solver_inputs()
        rates = self._solver.solve()
        for flow_id, f in self._flows.items():
            rate = rates.get(flow_id, 0.0)
            if rate != f.current_rate:
                self._bump_rate_versions(flow_id)
            # Assigned even when equal, so a 0.0 never stays -0.0.
            f.current_rate = rate
        self._rate_index = None

    @property
    def solver_stats(self) -> SolverStats:
        """The resident solver's cost counters (benchmark/test hook)."""
        return self._solver.stats

    # -- recompute batching -------------------------------------------------------

    @contextmanager
    def batch(self) -> Iterator["FabricNetwork"]:
        """Defer re-solves: N mutations inside the block cost one solve.

        Nestable; the single recompute happens when the outermost block
        exits (and only if something inside requested one).  Time must not
        advance inside a batch — mutate state, don't run the engine.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._solve_pending:
                self._solve_pending = False
                if TRACER.enabled:
                    TRACER.instant("network", "batch_flush",
                                   {"t": self.engine.now})
                self._recompute_now()

    def _recompute(self) -> None:
        """Request a re-solve, honouring batching/coalescing modes."""
        if self._batch_depth > 0:
            self._sync()
            self._solve_pending = True
            return
        if self.coalesce_recompute:
            self._sync()
            if self._pending_solve_event is None:
                self._pending_solve_event = self.engine.schedule_now(
                    self._fire_pending_solve, label="coalesced-recompute",
                )
                for listener in self._recompute_queued_listeners:
                    listener()
            return
        self._recompute_now()

    def _recompute_now(self) -> None:
        """Sync accounting, re-solve rates, reschedule completion."""
        self._cancel_pending_solve()
        if TRACER.enabled:
            with TRACER.span("network", "recompute",
                             {"t": self.engine.now,
                              "active_flows": len(self._flows)}):
                self._sync()
                self._solve()
            TRACER.counter("network", "network.active_flows",
                           len(self._flows))
        else:
            self._sync()
            self._solve()
        self._recompute_count += 1
        self._schedule_completion()
        if self._recompute_listeners:
            for listener in self._recompute_listeners:
                listener()

    def _fire_pending_solve(self) -> None:
        self._pending_solve_event = None
        if TRACER.enabled:
            TRACER.instant("network", "coalesced_flush",
                           {"t": self.engine.now})
        self._recompute_now()

    def _cancel_pending_solve(self) -> None:
        if self._pending_solve_event is not None:
            self._pending_solve_event.cancel()
            self._pending_solve_event = None

    def flush_recompute(self) -> None:
        """Force a deferred (coalesced) re-solve to run immediately."""
        if self._pending_solve_event is not None:
            self._recompute_now()  # cancels the queued event itself

    def _schedule_completion(self) -> None:
        """Schedule the next finite-flow completion, if any."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        horizon = math.inf
        for flow in self._flows.values():
            if flow.is_finite and flow.current_rate > 0:
                eta = flow.remaining_bytes / flow.current_rate
                horizon = min(horizon, eta)
        if math.isinf(horizon):
            return
        self._completion_event = self.engine.schedule_in(
            max(horizon, _MIN_ETA), self._on_completion_tick,
            label="flow-completion",
        )

    def _on_completion_tick(self) -> None:
        """Complete every finite flow that has drained; then re-solve."""
        self._sync()
        finished = [
            f for f in self._flows.values()
            if f.is_finite and f.remaining_bytes <= max(
                _COMPLETION_SLACK, f.current_rate * _MIN_ETA
            )
        ]
        for flow in finished:
            flow.state = FlowState.COMPLETED
            flow.finished_at = self.engine.now
            flow.current_rate = 0.0
            flow.bytes_sent = float(flow.size)
            self._drop_flow(flow)
        self._recompute()
        for flow in finished:
            if flow.on_complete is not None:
                flow.on_complete(flow)
            for listener in self._completion_listeners:
                listener(flow)
