"""Fleet telemetry against a rollup recomputed from ground truth.

``FleetTelemetry`` refreshes only the hosts its signals have marked dirty
and serves everything else — ``headroom(h)``, ``headrooms()`` and the
resident ``HeadroomMatrix`` whose rows it rewrites in place — from cache.
This oracle does not trust that cache.  Hypothesis drives a 3-host fleet
(monitors armed) through admissions, releases, migrations, ledger changes
made behind the fleet's back, host degrades, link failures, fault marks,
flows started straight on a host's fabric (the only way to queue a
coalesced re-solve) and clock advances, with and without coalesced
re-solves.  Every step ends with one telemetry read, of a kind drawn per
step, so hosts stay dirty across steps until some read covers them.
Whatever the read returns must equal (``==``) a summary rebuilt in the
test from the ledger's ``reserved_map``, the admission budget, link
state, the fault mark, the monitor's last verdict, ``placements()`` and
``link_utilizations()`` — every matrix column, every attach column built
so far, and every policy's vectorized ranking against its scalar one.

The reference is read after the telemetry, so its own flush of a queued
re-solve cannot dirty a host before the telemetry looks.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro import Fleet, pipe
from repro.errors import MigrationError, NoPathError
from repro.fleet import PLACEMENT_POLICIES, make_policy
from repro.fleet.telemetry import HostHeadroom, canonical_device_keys
from repro.monitor import FailureInjector
from repro.sim.network import FORWARD, REVERSE
from repro.topology import shortest_path
from repro.topology.elements import LinkClass
from repro.units import Gbps

HOSTS = ["host00", "host01", "host02"]
TENANTS = ["t0", "t1", "t2"]
PAIRS = [("nic0", "dimm0-0"), ("dimm0-0", "nic0"), ("nic1", "dimm1-0"),
         ("gpu0", "dimm1-1"), ("nvme0", "dimm0-1"), ("gpu1", "dimm0-0")]
FAILABLE = ["pcie-nic0", "pcie-up0", "mesh0-0", "upi-socket0-socket1-0",
            "membus1-0", "eth0"]
#: One telemetry read per step: the full matrix, every summary, or one
#: host's summary (which leaves the other hosts dirty).
READS = ["matrix", "headrooms"] + HOSTS
#: Requests ranked on matrix reads, cycled so attach columns get built
#: one after another.
PROBES = [("nic0", "dimm0-0", Gbps(20), frozenset()),
          ("gpu0", "dimm1-1", Gbps(120), frozenset({"host01"})),
          ("nvme0", "dimm0-1", Gbps(5), frozenset()),
          ("nic1", "dimm1-0", Gbps(60), frozenset({"host00", "host02"})),
          ("gpu1", "dimm0-0", Gbps(200), frozenset())]

_PICK = st.integers(min_value=0, max_value=63)
_HOST = st.sampled_from(HOSTS)
_READ = st.sampled_from(READS)
_BANDWIDTH = st.floats(min_value=1, max_value=180).map(Gbps)


def reference_headroom(fleet, host_id, verdicts, faulted, updated_at):
    """*host_id*'s summary, rebuilt from ground truth in topology order.

    Sums run in the same order as the rollup's, so ``==`` holds.
    ``updated_at`` is passed in: it is when the cached summary was built,
    which ground truth does not record.
    """
    host = fleet.host(host_id)
    network = host.network
    network.flush_recompute()  # the fabric as it is after a queued re-solve
    manager = host.manager
    reserved = manager.ledger.reserved_map
    budget_fraction = manager.admission.headroom
    links = list(host.topology.links())
    down = sum(1 for link in links if not link.up)
    degraded = sum(1 for link in links
                   if link.up and link.effective_capacity < link.capacity)

    n_fracs = 0
    sum_fracs = 0.0
    free_total = 0.0
    lows, highs, fracs, peaks = [], [], [], []
    tightest = {}
    for link in links:
        if (link.link_class is LinkClass.INTER_HOST or link.capacity <= 0
                or not link.up):
            continue
        capacity = link.capacity
        budget = capacity * budget_fraction
        r_fwd = reserved.get((link.link_id, FORWARD), 0.0)
        r_rev = reserved.get((link.link_id, REVERSE), 0.0)
        free_fwd = budget - r_fwd
        free_rev = budget - r_rev
        n_fracs += 2
        sum_fracs += (free_fwd + free_rev) / capacity
        for free in (free_fwd, free_rev):
            if free > 0.0:
                free_total += free
        low = min(free_fwd, free_rev)
        lows.append(low)
        highs.append(max(free_fwd, free_rev))
        fracs.append(low / capacity)
        peaks.append(max(r_fwd, r_rev) / capacity)
        tightest[link.link_id] = low

    keys = canonical_device_keys(host.topology)
    attach_free = {}
    for device in host.topology.endpoints():
        frees = [tightest[link.link_id]
                 for link in host.topology.incident_links(device.device_id)
                 if link.link_id in tightest]
        if frees:
            attach_free[keys[device.device_id]] = max(frees)

    utilization_peak = (max(network.link_utilizations().values(),
                            default=0.0)
                        if network.active_flows() else 0.0)
    return HostHeadroom(
        host_id=host_id,
        updated_at=updated_at,
        free_fraction_min=min(fracs) if n_fracs else 0.0,
        free_fraction_mean=sum_fracs / n_fracs if n_fracs else 0.0,
        free_capacity_total=free_total,
        free_capacity_max_directed=max(highs, default=0.0),
        free_capacity_min_directed=min(lows) if n_fracs else 0.0,
        reserved_peak=max(peaks, default=0.0),
        utilization_peak=utilization_peak,
        placements=len(manager.placements()),
        down_links=down,
        degraded_links=degraded,
        healthy=verdicts.get(host_id, True) and host_id not in faulted,
        attach_free=attach_free,
    )


class TelemetryOracleMachine(RuleBasedStateMachine):
    coalesce = False

    @initialize()
    def setup(self):
        self.fleet = Fleet("cascade_lake_2s", hosts=len(HOSTS),
                           policy="best-fit", max_attempts=2,
                           resilience=True,
                           coalesce_recompute=self.coalesce)
        self.telemetry = self.fleet.telemetry
        # Ground truth the rollup may not be trusted for: the monitors'
        # last verdicts (recorded by a listener of our own) and the fault
        # marks this machine set.
        self.verdicts = {}
        self.faulted = set()
        for host_id in HOSTS:
            monitor = self.fleet.host(host_id).monitor
            monitor.on_report(
                lambda report, hid=host_id:
                    self.verdicts.__setitem__(hid, report.healthy))
        self.injectors = {host_id: FailureInjector(
            self.fleet.host(host_id).network) for host_id in HOSTS}
        self.failures = {host_id: [] for host_id in HOSTS}
        self.direct = []  # (host_id, intent_id) placed behind the fleet
        self.seq = 0
        self.reads = 0
        self.built_keys = set()

    def teardown(self):
        self.fleet.shutdown()

    def _next_id(self, prefix):
        self.seq += 1
        return f"{prefix}{self.seq}"

    def _placed(self):
        return sorted(self.fleet.scheduler.bindings())

    # -- fleet operations --------------------------------------------------

    @rule(pair=st.sampled_from(PAIRS), tenant=st.sampled_from(TENANTS),
          bandwidth=_BANDWIDTH, read=_READ)
    def try_submit(self, pair, tenant, bandwidth, read):
        self.fleet.try_submit(pipe(self._next_id("i"), tenant, *pair,
                                   bandwidth=bandwidth))
        self.check(read)

    @rule(pick=_PICK, read=_READ)
    def release(self, pick, read):
        placed = self._placed()
        if placed:
            self.fleet.release(placed[pick % len(placed)])
        self.check(read)

    @rule(pick=_PICK, dst=_HOST, read=_READ)
    def migrate(self, pick, dst, read):
        placed = self._placed()
        if placed:
            try:
                self.fleet.migrate(placed[pick % len(placed)], dst)
            except MigrationError:
                pass  # same host, or the destination rejected it
        self.check(read)

    @rule(host=_HOST, factor=st.floats(min_value=0.05, max_value=1.0),
          read=_READ)
    def degrade_host(self, host, factor, read):
        self.fleet.degrade_host_links(host, factor)
        self.check(read)

    @rule(host=_HOST, read=_READ)
    def restore_host(self, host, read):
        self.fleet.restore_host_links(host)
        self.check(read)

    @rule(host=_HOST, faulted=st.booleans(), read=_READ)
    def set_fault(self, host, faulted, read):
        self.telemetry.set_fault(host, faulted)
        if faulted:
            self.faulted.add(host)
        else:
            self.faulted.discard(host)
        self.check(read)

    @rule(dt=st.floats(min_value=1e-5, max_value=3e-3), read=_READ)
    def advance(self, dt, read):
        self.fleet.advance_to(self.fleet.now + dt)
        self.check(read)

    # -- host-local operations (each wakes the host first and notifies the
    # clock after, as every fleet-surface mutation does) -------------------

    @rule(host=_HOST, link=st.sampled_from(FAILABLE), read=_READ)
    def fail_link(self, host, link, read):
        network = self.fleet.host(host).network
        if network.topology.link(link).up:
            self.fleet.wake(host)
            self.failures[host].append(self.injectors[host].fail_link(link))
            self.fleet.notify(host)
        self.check(read)

    @rule(host=_HOST, read=_READ)
    def restore_link(self, host, read):
        if self.failures[host]:
            self.fleet.wake(host)
            self.injectors[host].clear(self.failures[host].pop(0))
            self.fleet.notify(host)
        self.check(read)

    @rule(host=_HOST, pair=st.sampled_from(PAIRS),
          tenant=st.sampled_from(TENANTS),
          size=st.one_of(st.none(), st.floats(min_value=1e4, max_value=1e8)),
          read=_READ)
    def start_flow(self, host, pair, tenant, size, read):
        network = self.fleet.host(host).network
        try:
            path = shortest_path(network.topology, *pair)
        except NoPathError:
            path = None  # a failed link cut every route
        if path is not None:
            self.fleet.wake(host)
            network.start_transfer(tenant, path, size=size)
            self.fleet.notify(host)
        self.check(read)

    @rule(host=_HOST, pair=st.sampled_from(PAIRS), bandwidth=_BANDWIDTH,
          read=_READ)
    def host_submit(self, host, pair, bandwidth, read):
        # A custom caller reserving behind the fleet's back: only the
        # manager's change signal can tell the telemetry.
        intent = pipe(self._next_id("d"), "direct", *pair,
                      bandwidth=bandwidth)
        self.fleet.wake(host)
        if self.fleet.host(host).manager.try_submit(intent) is not None:
            self.direct.append((host, intent.intent_id))
        self.fleet.notify(host)
        self.check(read)

    @rule(pick=_PICK, read=_READ)
    def host_release(self, pick, read):
        if self.direct:
            host, intent_id = self.direct.pop(pick % len(self.direct))
            manager = self.fleet.host(host).manager
            self.fleet.wake(host)
            if any(p.intent.intent_id == intent_id
                   for p in manager.placements()):
                manager.release(intent_id)
            self.fleet.notify(host)
        self.check(read)

    # -- the oracle --------------------------------------------------------

    def reference(self, host_id, summary):
        return reference_headroom(self.fleet, host_id, self.verdicts,
                                  self.faulted, summary.updated_at)

    def check_summary(self, summary):
        assert summary == self.reference(summary.host_id, summary), \
            summary.host_id

    def check(self, read):
        """One telemetry read of kind *read*, then the reference."""
        self.reads += 1
        telemetry = self.telemetry
        if read in HOSTS:
            self.check_summary(telemetry.headroom(read))
        elif read == "headrooms":
            summaries = telemetry.headrooms()
            assert [s.host_id for s in summaries] == HOSTS
            for summary in summaries:
                self.check_summary(summary)
        else:
            self.check_matrix(telemetry.matrix())

    def check_matrix(self, matrix):
        assert matrix is self.telemetry.matrix()  # one resident matrix
        src, dst, bandwidth, avoid = PROBES[self.reads % len(PROBES)]
        request = self.fleet.scheduler.request_for(
            pipe("probe", "t0", src, dst, bandwidth=bandwidth),
            avoid_hosts=avoid)
        summaries = self.telemetry.headrooms()  # all clean: a cache read
        for name in sorted(PLACEMENT_POLICIES):
            policy = make_policy(name)
            assert (policy.rank_matrix(request, matrix)
                    == policy.rank(request, summaries)), name
        self.built_keys.update(
            key for key in (request.src_key, request.dst_key)
            if key is not None)

        assert matrix.host_ids == HOSTS
        for row, host_id in enumerate(HOSTS):
            summary = matrix.headrooms[row]
            expected = self.reference(host_id, summary)
            assert summary == expected, host_id
            for column in ("free_capacity_total",
                           "free_capacity_max_directed",
                           "free_capacity_min_directed", "reserved_peak"):
                assert getattr(matrix, column)[row] == \
                    getattr(expected, column), (host_id, column)
            assert bool(matrix.available[row]) == expected.available
            for key in sorted(self.built_keys):
                assert matrix.attach_free(key)[row] == \
                    expected.attach_free.get(key, math.inf), (host_id, key)


class CoalescedTelemetryOracleMachine(TelemetryOracleMachine):
    coalesce = True


_SETTINGS = settings(max_examples=25, stateful_step_count=30, deadline=None)
TelemetryOracleMachine.TestCase.settings = _SETTINGS
CoalescedTelemetryOracleMachine.TestCase.settings = _SETTINGS
TestTelemetryOracle = TelemetryOracleMachine.TestCase
TestTelemetryOracleCoalesced = CoalescedTelemetryOracleMachine.TestCase
