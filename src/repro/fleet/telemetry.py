"""Fleet-wide telemetry rollup: push-invalidated per-host headroom.

The cluster scheduler cannot afford to walk every link of every host on
every placement decision, and it does not need to: admission is decided by
the per-host reservation ledgers, which change only on submit/release.
:class:`FleetTelemetry` aggregates each host's ground truth — ledger
reservations against the admission budget, live ``link_utilizations()``,
link health, and the monitor's latest verdict — into one compact
:class:`HostHeadroom` summary per host.

Freshness is push-driven, not time-driven: at :meth:`~FleetTelemetry.attach`
the rollup subscribes to every signal that can change a summary — the
host manager's reservation changes
(:meth:`~repro.core.manager.HostNetworkManager.on_change`), the fabric's
rate re-solves (:meth:`~repro.sim.network.FabricNetwork.on_recompute`)
and queued coalesced re-solves
(:meth:`~repro.sim.network.FabricNetwork.on_recompute_queued`), and the
monitor's health verdicts — and adds the host to a *dirty set*.  The
fault mark (:meth:`~FleetTelemetry.set_fault`) and
:meth:`~FleetTelemetry.invalidate` add to it too.  Reads refresh only the
dirty hosts, so a summary an external caller sees is always current and a
placement decision costs O(hosts that changed); callers never choose when
to refresh.

For vectorized placement ranking the same summaries are exposed as one
resident :class:`HeadroomMatrix` — per-host columns of the
placement-relevant scalars in deterministic host-id order.  A refresh
rewrites its host's row in place, so the matrix never needs a rebuild
between attaches.
Inter-host wire links are excluded from the rollup itself (only their
health is counted), so the scalar and matrix views agree by construction.

This is the fleet-scale analogue of the paper's "fine-grained monitoring"
feeding the "holistic resource manager": per-host signals roll up into the
vectors a datacenter-level placement policy actually consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

import numpy as np

from ..errors import UnknownHostError
from ..host import Host
from ..sim.network import FORWARD, REVERSE
from ..topology.elements import DeviceType, LinkClass
from ..topology.graph import HostTopology


def canonical_device_keys(topology: HostTopology) -> Dict[str, str]:
    """Map device ids to fleet-portable ``"<type>:<index>"`` keys.

    The same (type, sorted per-type index) scheme intent remapping uses,
    so the n-th NIC of every host shares one key no matter what each
    host's topology calls it — which is what lets a policy compare one
    intent's attach links across a heterogeneous fleet.

    Memoized per topology instance, guarded by device count (devices are
    only ever added): telemetry, intent remapping, and every armed
    latency probe ask for the same map.
    """
    count = len(topology.devices())
    cached = getattr(topology, "_canonical_device_keys", None)
    if cached is not None and cached[0] == count:
        return cached[1]
    keys: Dict[str, str] = {}
    for dtype in DeviceType:
        for i, device_id in enumerate(
            sorted(d.device_id for d in topology.devices(dtype))
        ):
            keys[device_id] = f"{dtype.value}:{i}"
    topology._canonical_device_keys = (count, keys)
    return keys


@dataclass(frozen=True)
class HostHeadroom:
    """One host's placement-relevant state, summarized.

    All bandwidth figures are *admission* headroom — budget
    (``capacity * admission_headroom``) minus ledger reservations — not
    instantaneous flow rates: placement is a promise about reservations,
    and work-conserving traffic above the floors is free to burst.

    Attributes:
        host_id: The summarized host.
        updated_at: Host-clock time the summary was computed at.
        free_fraction_min: Worst directed link's free budget as a fraction
            of its capacity (can be negative under overcommit).
        free_fraction_mean: Mean free budget fraction over directed links.
        free_capacity_total: Sum of positive free budget over all directed
            links (bytes/s) — the coarse "how much fits here still".
        free_capacity_max_directed: Largest single directed link's free
            budget (bytes/s).  A pipe of bandwidth B cannot fit unless at
            least one link has B free, so this is the coarse viability
            test.
        free_capacity_min_directed: Smallest directed link's free budget
            (bytes/s, negative under overcommit).  When this is still ≥ B
            the host can take a B pipe on *any* path — no shared fabric
            link (UPI, memory bus) is anywhere near full — so it is the
            "probing this host will not be wasted" signal.
        attach_free: Free budget on each endpoint device's attach link
            (its most-constrained direction; the best link when a device
            has several), keyed by the canonical ``"<type>:<index>"``
            device key.  The attach link is where
            intra-host pipes actually bind — a 32 GB/s PCIe lane fills
            long before the memory bus behind it — so this is the signal
            that separates "this host is busy" from "this host cannot take
            *this* pipe".
        reserved_peak: Highest directed reserved/capacity fraction — the
            rebalancer's hot-spot metric.
        utilization_peak: Highest instantaneous link utilization (live
            flows, not reservations).
        placements: Number of admitted intents on the host.
        down_links: Links currently down.
        degraded_links: Links up but running below nominal capacity.
        healthy: The monitor's latest verdict (``True`` when unmonitored).
    """

    host_id: str
    updated_at: float
    free_fraction_min: float
    free_fraction_mean: float
    free_capacity_total: float
    free_capacity_max_directed: float
    free_capacity_min_directed: float
    reserved_peak: float
    utilization_peak: float
    placements: int
    down_links: int
    degraded_links: int
    healthy: bool
    attach_free: Mapping[str, float] = field(default_factory=dict)

    @property
    def available(self) -> bool:
        """Whether the host is a sane placement target at all."""
        return self.healthy and self.down_links == 0

    def can_fit(self, bandwidth: float,
                src_key: Optional[str] = None,
                dst_key: Optional[str] = None) -> bool:
        """Necessary (not sufficient) condition for a *bandwidth* pipe.

        With canonical endpoint keys the check is per attach link — the
        pipe's actual first/last hop must have the budget free; without
        them it falls back to the coarse any-link test.
        """
        if self.free_capacity_max_directed < bandwidth:
            return False
        for key in (src_key, dst_key):
            if key is None:
                continue
            free = self.attach_free.get(key)
            if free is not None and free < bandwidth:
                return False
        return True

    def has_path_slack(self, bandwidth: float) -> bool:
        """Sufficient condition: every directed link — so any path — has
        *bandwidth* free.  Probing a host that passes this cannot fail on
        a shared fabric link."""
        return self.free_capacity_min_directed >= bandwidth


class HeadroomMatrix:
    """Per-host headroom summaries as numpy columns.

    Rows are hosts in the order the summaries were given (the fleet's
    deterministic sorted-host-id order), so a stable sort over these
    columns reproduces the scalar policies' host-id tiebreak for free.
    Built from the same :class:`HostHeadroom` rollups the scalar path
    reads — in particular, inter-host wire links were already excluded
    when those were computed, so the two views cannot disagree.

    :class:`FleetTelemetry` keeps one matrix resident and rewrites a
    host's row (:meth:`set_row`) whenever it refreshes that host, so a
    matrix it returns reflects the fleet only until the next telemetry
    read: rank with it at once, do not hold it.

    Attributes:
        headrooms: The source summaries (for scalar fallback paths).
        host_ids: Row order.
        free_capacity_total / free_capacity_max_directed /
        free_capacity_min_directed / reserved_peak: Float columns.
        available: Boolean column (monitor verdict and link health).
    """

    def __init__(self, headrooms: Sequence[HostHeadroom]) -> None:
        self.headrooms = list(headrooms)
        self.host_ids = [h.host_id for h in self.headrooms]
        n = len(self.headrooms)
        self.free_capacity_total = np.fromiter(
            (h.free_capacity_total for h in self.headrooms), float, n)
        self.free_capacity_max_directed = np.fromiter(
            (h.free_capacity_max_directed for h in self.headrooms), float, n)
        self.free_capacity_min_directed = np.fromiter(
            (h.free_capacity_min_directed for h in self.headrooms), float, n)
        self.reserved_peak = np.fromiter(
            (h.reserved_peak for h in self.headrooms), float, n)
        self.available = np.fromiter(
            (h.available for h in self.headrooms), bool, n)
        self._attach: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.headrooms)

    def set_row(self, row: int, summary: HostHeadroom) -> None:
        """Overwrite row *row* with *summary*: the source summary, every
        float and bool column, and every attach column built so far (a
        missing key stays ``+inf``, as :meth:`attach_free` builds it)."""
        self.headrooms[row] = summary
        self.free_capacity_total[row] = summary.free_capacity_total
        self.free_capacity_max_directed[row] = (
            summary.free_capacity_max_directed)
        self.free_capacity_min_directed[row] = (
            summary.free_capacity_min_directed)
        self.reserved_peak[row] = summary.reserved_peak
        self.available[row] = summary.available
        attach_free = summary.attach_free
        for key, col in self._attach.items():
            col[row] = attach_free.get(key, math.inf)

    def attach_free(self, key: Optional[str]) -> np.ndarray:
        """Per-host free budget on attach link *key*.

        Hosts without the key get ``+inf`` — exactly the scalar
        :meth:`HostHeadroom.can_fit` behavior, where a missing attach key
        never disqualifies a host.  ``None`` (no canonical key) yields an
        all-``inf`` column for the same reason.
        """
        if key is None:
            return np.full(len(self.headrooms), math.inf)
        col = self._attach.get(key)
        if col is None:
            col = np.fromiter(
                (h.attach_free.get(key, math.inf) for h in self.headrooms),
                float, len(self.headrooms))
            self._attach[key] = col
        return col

    def fits(self, bandwidth: float, src_key: Optional[str] = None,
             dst_key: Optional[str] = None) -> np.ndarray:
        """Boolean column: :meth:`HostHeadroom.can_fit` per host."""
        ok = self.free_capacity_max_directed >= bandwidth
        if src_key is not None:
            ok = ok & (self.attach_free(src_key) >= bandwidth)
        if dst_key is not None:
            ok = ok & (self.attach_free(dst_key) >= bandwidth)
        return ok

    def has_path_slack(self, bandwidth: float) -> np.ndarray:
        """Boolean column: :meth:`HostHeadroom.has_path_slack` per host."""
        return self.free_capacity_min_directed >= bandwidth

    def avoid(self, hosts) -> np.ndarray:
        """Boolean column: host is in the *hosts* avoid-set.

        Empty set fast-path returns an all-``False`` column, so the
        common no-faults case costs one allocation, no membership tests.
        """
        if not hosts:
            return np.zeros(len(self.headrooms), dtype=bool)
        return np.fromiter(
            (host_id in hosts for host_id in self.host_ids),
            bool, len(self.headrooms))


class FleetTelemetry:
    """Push-invalidated per-host :class:`HostHeadroom` rollups.

    The events that change a summary (reservation changes, fabric
    re-solves run or queued, monitor verdicts, fault marks) add its host
    to a dirty set; a read refreshes only the dirty hosts it covers.

    Exactness: a host outside the dirty set has no queued re-solve (the
    queue-time signal would have dirtied it), so flushing it would change
    nothing and its cached summary is what a refresh would build.  Reads
    therefore see the same summaries, in the same refresh order, as
    flushing and checking every host on every read.
    """

    def __init__(self) -> None:
        self._hosts: Dict[str, Host] = {}
        self._cache: Dict[str, HostHeadroom] = {}
        self._dirty: Set[str] = set()
        self._monitor_healthy: Dict[str, bool] = {}
        # Hosts marked faulted by the fleet fault model (crashed or
        # degraded): reported unhealthy regardless of monitor verdict.
        self._faulted: set = set()
        self._device_keys: Dict[str, Dict[str, str]] = {}
        # host_id -> [(canonical endpoint key, [incident link ids])].
        # Topology *structure* is fixed for a host's lifetime (only link
        # state mutates), so the endpoint incidence never needs the graph
        # walk after attach.
        self._endpoint_links: Dict[str, List[tuple]] = {}
        # host_id -> [(link, link_id, capacity)] for placement-fabric
        # (intra-host, capacity > 0) links, and the full link list for
        # health counts — both fixed at attach for the same reason.
        self._intra_links: Dict[str, List[tuple]] = {}
        self._all_links: Dict[str, list] = {}
        self.refresh_count = 0
        # Sorted host ids and each one's matrix row; attach and detach
        # rebuild both and drop the resident matrix.
        self._order: List[str] = []
        self._row: Dict[str, int] = {}
        # Built on the first matrix() read after a membership change;
        # _refresh then rewrites a host's row in place.
        self._matrix: Optional[HeadroomMatrix] = None

    # -- membership ----------------------------------------------------------

    def attach(self, host_id: str, host: Host) -> None:
        """Start rolling up *host* under *host_id*.

        Subscribes to every signal that can change the host's summary, so
        reads never need to guess at staleness.
        """
        self._hosts[host_id] = host
        self._dirty.add(host_id)
        self._monitor_healthy[host_id] = True
        device_keys = canonical_device_keys(host.topology)
        self._device_keys[host_id] = device_keys
        self._endpoint_links[host_id] = [
            (device_keys[device.device_id],
             [link.link_id
              for link in host.topology.incident_links(device.device_id)])
            for device in host.topology.endpoints()
        ]
        self._all_links[host_id] = list(host.topology.links())
        self._intra_links[host_id] = [
            (link, link.link_id, link.capacity)
            for link in self._all_links[host_id]
            if link.link_class is not LinkClass.INTER_HOST
            and link.capacity > 0
        ]
        host.manager.on_change(
            lambda hid=host_id: self._mark_dirty(hid))
        host.network.on_recompute(
            lambda hid=host_id: self._mark_dirty(hid))
        host.network.on_recompute_queued(
            lambda hid=host_id: self._mark_dirty(hid))
        if host.monitor is not None:
            host.monitor.on_report(
                lambda report, hid=host_id: self._on_report(hid, report)
            )
        self._membership_changed()

    def detach(self, host_id: str) -> None:
        """Stop tracking *host_id* (subscriptions become no-ops)."""
        self._hosts.pop(host_id, None)
        self._cache.pop(host_id, None)
        self._dirty.discard(host_id)
        self._monitor_healthy.pop(host_id, None)
        self._faulted.discard(host_id)
        self._device_keys.pop(host_id, None)
        self._endpoint_links.pop(host_id, None)
        self._intra_links.pop(host_id, None)
        self._all_links.pop(host_id, None)
        self._membership_changed()

    def _membership_changed(self) -> None:
        self._order = sorted(self._hosts)
        self._row = {host_id: i for i, host_id in enumerate(self._order)}
        self._matrix = None

    def host_ids(self) -> List[str]:
        """Tracked host ids, sorted (the fleet's deterministic order)."""
        return list(self._order)

    def _mark_dirty(self, host_id: str) -> None:
        if host_id in self._hosts:
            self._dirty.add(host_id)

    def _on_report(self, host_id: str, report) -> None:
        self._monitor_healthy[host_id] = report.healthy
        # A verdict must reach the next placement decision immediately.
        self._mark_dirty(host_id)

    def set_fault(self, host_id: str, faulted: bool) -> None:
        """Mark *host_id* faulted (or clear the mark).

        The fleet fault model's signal into placement: a faulted host
        reports ``healthy=False`` — and hence ``available=False`` —
        until the mark is cleared, regardless of what its own monitor
        says.  Crashed hosts cannot run a monitor at all, and a degraded
        host's monitor may lag the fault; this mark is immediate.
        """
        if host_id not in self._hosts:
            raise UnknownHostError(host_id)
        if faulted:
            self._faulted.add(host_id)
        else:
            self._faulted.discard(host_id)
        self._mark_dirty(host_id)

    def is_faulted(self, host_id: str) -> bool:
        """Whether the fault model currently marks *host_id* faulted."""
        return host_id in self._faulted

    # -- the rollup ----------------------------------------------------------

    def headroom(self, host_id: str) -> HostHeadroom:
        """The current headroom summary of one host.

        Always current: recomputed lazily when any subscribed signal has
        marked the host dirty since the cached summary was built.
        """
        if host_id not in self._hosts:
            raise UnknownHostError(host_id)
        if host_id in self._dirty:
            return self._flush_and_refresh(host_id)
        return self._cache[host_id]

    def headrooms(self) -> List[HostHeadroom]:
        """Summaries for every host, in deterministic host-id order."""
        self._refresh_dirty()
        cache = self._cache
        return [cache[host_id] for host_id in self._order]

    def matrix(self) -> HeadroomMatrix:
        """Every host's summary as the resident :class:`HeadroomMatrix`.

        One matrix per telemetry instance (rebuilt only after an attach
        or detach): refreshes rewrite their host's row in place, so the
        returned matrix reflects the fleet only until the next telemetry
        read.
        """
        self._refresh_dirty()
        if self._matrix is None:
            cache = self._cache
            self._matrix = HeadroomMatrix(
                [cache[host_id] for host_id in self._order])
        return self._matrix

    def _refresh_dirty(self) -> None:
        """Refresh every dirty host, in sorted host-id order."""
        if self._dirty:
            for host_id in sorted(self._dirty):
                self._flush_and_refresh(host_id)

    def _flush_and_refresh(self, host_id: str) -> HostHeadroom:
        # A queued coalesced re-solve must run before the rollup reads
        # the fabric; only a dirty host can have one queued.
        self._hosts[host_id].network.flush_recompute()
        return self._refresh(host_id)

    def invalidate(self, host_id: Optional[str] = None) -> None:
        """Mark one host (or all) dirty, forcing recompute on next read.

        Subscriptions make explicit invalidation unnecessary for managed
        hosts; this remains for custom callers mutating host state behind
        the manager's back.
        """
        if host_id is None:
            self._dirty.update(self._hosts)
        else:
            self._mark_dirty(host_id)

    def _refresh(self, host_id: str) -> HostHeadroom:
        """Recompute and cache one host's summary from ground truth."""
        try:
            host = self._hosts[host_id]
        except KeyError:
            raise UnknownHostError(host_id) from None
        manager = host.manager
        reserved_map = manager.ledger.reserved_map
        budget_fraction = manager.admission.headroom

        # Health counts walk every link (the INTER_HOST wire to the
        # outside world is not placement fabric, but its health matters).
        down = 0
        degraded = 0
        for link in self._all_links[host_id]:
            if not link.up:
                down += 1
            elif link.effective_capacity < link.capacity:
                degraded += 1

        # The rollup proper walks only the intra-host placement fabric.
        # This is the hottest loop in fleet scheduling (one pass per
        # dirty host per placement decision), hence the raw-comparison
        # style over min()/max() calls and per-direction method calls.
        n_fracs = 0
        sum_fracs = 0.0
        min_frac = float("inf")
        free_total = 0.0
        free_max = 0.0
        free_min = float("inf")
        reserved_peak = 0.0
        link_free: Dict[str, float] = {}  # tightest direction per up link
        for link, link_id, capacity in self._intra_links[host_id]:
            if not link.up:
                continue
            budget = capacity * budget_fraction
            r_fwd = reserved_map.get((link_id, FORWARD), 0.0)
            r_rev = reserved_map.get((link_id, REVERSE), 0.0)
            free_fwd = budget - r_fwd
            free_rev = budget - r_rev
            if free_rev < free_fwd:
                lo, hi = free_rev, free_fwd
            else:
                lo, hi = free_fwd, free_rev
            n_fracs += 2
            sum_fracs += (free_fwd + free_rev) / capacity
            frac_lo = lo / capacity
            if frac_lo < min_frac:
                min_frac = frac_lo
            if free_fwd > 0.0:
                free_total += free_fwd
            if free_rev > 0.0:
                free_total += free_rev
            if hi > free_max:
                free_max = hi
            if lo < free_min:
                free_min = lo
            peak = (r_fwd if r_fwd > r_rev else r_rev) / capacity
            if peak > reserved_peak:
                reserved_peak = peak
            link_free[link_id] = lo

        attach_free: Dict[str, float] = {}
        for key, link_ids in self._endpoint_links[host_id]:
            frees = [
                link_free[link_id]
                for link_id in link_ids
                if link_id in link_free
            ]
            if frees:  # devices with no intra-host attach stay unkeyed
                attach_free[key] = max(frees)

        if host.network.active_flows():
            utilizations = host.network.link_utilizations()
            utilization_peak = max(utilizations.values(), default=0.0)
        else:
            utilization_peak = 0.0  # no flows: nothing to walk
        summary = HostHeadroom(
            host_id=host_id,
            updated_at=host.now,
            free_fraction_min=min_frac if n_fracs else 0.0,
            free_fraction_mean=sum_fracs / n_fracs if n_fracs else 0.0,
            free_capacity_total=free_total,
            free_capacity_max_directed=free_max,
            free_capacity_min_directed=free_min if n_fracs else 0.0,
            reserved_peak=reserved_peak,
            utilization_peak=utilization_peak,
            placements=len(manager.placements()),
            down_links=down,
            degraded_links=degraded,
            healthy=(self._monitor_healthy.get(host_id, True)
                     and host_id not in self._faulted),
            attach_free=attach_free,
        )
        self._cache[host_id] = summary
        self._dirty.discard(host_id)
        if self._matrix is not None:
            self._matrix.set_row(self._row[host_id], summary)
        self.refresh_count += 1
        return summary

    def describe(self) -> str:
        """Human-readable one-line-per-host rollup."""
        lines = [f"FleetTelemetry: {len(self._hosts)} hosts, "
                 f"{self.refresh_count} refreshes"]
        for summary in self.headrooms():
            flags = []
            if summary.down_links:
                flags.append(f"{summary.down_links} links down")
            if summary.degraded_links:
                flags.append(f"{summary.degraded_links} degraded")
            if not summary.healthy:
                flags.append("UNHEALTHY")
            lines.append(
                f"  {summary.host_id}: {summary.placements} placements, "
                f"free(min/mean)={summary.free_fraction_min:.2f}/"
                f"{summary.free_fraction_mean:.2f}, "
                f"peak reserved={summary.reserved_peak:.2f}"
                + (f" [{', '.join(flags)}]" if flags else "")
            )
        return "\n".join(lines)
