"""The four benchmark workloads, each a seeded set-up plus a timed run.

Every workload is a function ``(seed, size, meter) -> Outcome``.  The
meter times set-up (host/fleet construction and input generation) apart
from the run, and times every admission call; the outcome carries the
simulated result the pinned digests are computed from, the number of
operations the driver issued, and the result of the workload's own
correctness checks.

Load is open-loop in simulated time: arrival streams are generated up
front from the seed, and one driver issues each call after the previous
one returns, so a rejection never slows later arrivals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro import Fleet, Host, cascade_lake_2s, pipe
from repro.fleet import FleetChaosConfig, run_fleet_campaign
from repro.slo import LatencyRegressionConfig, run_latency_regression
from repro.units import Gbps, kib
from repro.workloads.apps import KvStoreApp
from repro.workloads.cluster_traces import (
    ReplayConfig,
    SynthTraceConfig,
    replay_trace,
    synthesize_trace,
)

import speed

SIZES = ("full", "small")


class Meter:
    """Host-time accounting for one pass: set-up, run, admission calls.

    Every timing is the pass process's CPU time (:meth:`clock`): the
    simulator is single-threaded and never blocks, so CPU time is its
    host time minus the time it waits for a CPU — preemption stalls of
    a scheduler quantum land in a few millisecond-long admission calls
    and would decide the p99.  Each timing is also reported normalised
    by the reference kernel (``speed.py``), which runs before every
    :attr:`EVERY`-th admission call, around each set-up phase and at
    both ends of the pass.

    ``Fleet.__init__`` is timed at the call (the ``slo`` and ``chaos``
    entry points build their fleets internally) and so is every
    ``Fleet.try_submit``; :meth:`setup` times set-up done by the
    benchmark itself.  While a set-up phase runs, :attr:`in_setup` is
    set, so a layer tracer can leave that time out of the run.
    """

    EVERY = 40

    def __init__(self) -> None:
        self.timeline = speed.Timeline()
        self.clock = self.timeline.clock
        self.setup_s = 0.0
        #: Checkpoint index pairs that bracket each set-up phase.
        self.setup_marks: List[tuple] = []
        self.submit_s: List[float] = []
        #: The checkpoint each admission call ran after.
        self.submit_mark: List[int] = []
        self.in_setup = False

    def setup(self, build: Callable[[], object]) -> object:
        """Run *build* as set-up time and return its result."""
        if self.in_setup:
            return build()
        marks = self.timeline.marks
        self.timeline.checkpoint()
        self.in_setup = True
        start = self.clock()
        try:
            return build()
        finally:
            self.setup_s += self.clock() - start
            self.in_setup = False
            self.timeline.checkpoint()
            self.setup_marks.append((len(marks) - 2, len(marks) - 1))

    def submit(self, call: Callable[[], object]) -> object:
        """Run one admission call and record its host time."""
        if not self.in_setup and len(self.submit_s) % self.EVERY == 0:
            self.timeline.checkpoint()
        self.submit_mark.append(len(self.timeline.marks) - 1)
        start = self.clock()
        try:
            return call()
        finally:
            self.submit_s.append(self.clock() - start)

    def start(self) -> None:
        """Open the pass with its first checkpoint."""
        self.timeline.checkpoint()

    def finish(self) -> Dict[str, float]:
        """Close the pass; its timings, normalised and as CPU seconds
        (``cpu.*``).

        ``setup_s`` and ``run_s`` add up stretches between checkpoints,
        each divided by its own factor; each admission call is divided
        by the factor of the stretch it ran in.
        """
        timeline = self.timeline
        timeline.checkpoint()
        marks = timeline.marks
        total = marks[-1][0] - marks[0][0]
        setup = sum(timeline.normalised(a, b) for a, b in self.setup_marks)
        run_s = timeline.normalised(0, len(marks) - 1) - setup
        cpu_run_s = total - self.setup_s
        calls = [s / timeline.factor(mark)
                 for s, mark in zip(self.submit_s, self.submit_mark)]
        return {
            "setup_s": setup,
            "run_s": run_s,
            "submit_p50_us": percentile(calls, 50) * 1e6,
            "submit_p99_us": percentile(calls, 99) * 1e6,
            "cpu.setup_s": self.setup_s,
            "cpu.run_s": cpu_run_s,
            "cpu.submit_p50_us": percentile(self.submit_s, 50) * 1e6,
            "cpu.submit_p99_us": percentile(self.submit_s, 99) * 1e6,
            "cpu.reference_ms": cpu_run_s / run_s * speed.NOMINAL_S * 1e3,
            "checkpoints": len(marks),
        }

    def install(self) -> None:
        """Time every ``Fleet`` construction and ``Fleet.try_submit``."""
        meter = self
        build, admit = Fleet.__init__, Fleet.try_submit

        def timed_init(fleet, *args, **kwargs):
            meter.setup(lambda: build(fleet, *args, **kwargs))

        def timed_try_submit(fleet, intent):
            return meter.submit(lambda: admit(fleet, intent))

        Fleet.__init__ = timed_init
        Fleet.try_submit = timed_try_submit


@dataclass
class Outcome:
    """What one pass produced.

    Attributes:
        digest_source: JSON-able simulated outcome (pinned per seed).
        ops: Operations the driver issued (admission calls, releases,
            transfers, requests, campaign steps — see each workload).
        problems: Failed correctness checks, empty when the run is good.
        requirements: Failed checks that only a pinned seed must pass
            (a seed is pinned only when they hold).
        counters: Workload-level counts recorded alongside the layers'.
    """

    digest_source: Dict[str, object]
    ops: int
    problems: List[str] = field(default_factory=list)
    requirements: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)


def _check(problems: List[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (*q* in [0, 100]): always a sample."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100)
    return ordered[min(len(ordered), max(1, rank)) - 1]


# -- host: one managed host with live flows -----------------------------------

@dataclass(frozen=True)
class HostConfig:
    sessions: int
    session_rate: float  # arrivals per simulated second
    kv_rate: float  # KV requests per simulated second
    tenants: int = 8
    kv_bandwidth: float = Gbps(40)
    floor_range: tuple = (Gbps(2), Gbps(16))
    median_size: float = float(kib(512))


HOST_SIZES = {
    "full": HostConfig(sessions=1000, session_rate=2000.0, kv_rate=20_000.0),
    "small": HostConfig(sessions=60, session_rate=2000.0, kv_rate=20_000.0),
}

#: Session endpoints: I/O devices to and from memory (§2's traffic).
HOST_DEVICES = ("nic0", "nic1", "nvme0", "nvme1", "gpu0", "gpu1")
HOST_DIMMS = ("dimm0-0", "dimm0-1", "dimm1-0", "dimm1-1")


@dataclass(frozen=True)
class Session:
    time: float
    intent_id: str
    tenant: str
    src: str
    dst: str
    floor: float
    size: float


def host_sessions(config: HostConfig, seed: int) -> List[Session]:
    """The seeded open-loop session stream."""
    rng = random.Random(f"perfbench-host-{seed}")
    sessions = []
    t = 0.0
    lo, hi = config.floor_range
    for i in range(config.sessions):
        t += rng.expovariate(config.session_rate)
        device, dimm = rng.choice(HOST_DEVICES), rng.choice(HOST_DIMMS)
        src, dst = (device, dimm) if rng.random() < 0.5 else (dimm, device)
        sessions.append(Session(
            time=t, intent_id=f"s{i:05d}",
            tenant=f"t{rng.randrange(config.tenants)}", src=src, dst=dst,
            floor=rng.uniform(lo, hi),
            size=config.median_size * rng.lognormvariate(0.0, 0.6)))
    return sessions


def run_host(seed: int, size: str, meter: Meter) -> Outcome:
    config = HOST_SIZES[size]
    host, sessions = meter.setup(
        lambda: (Host(cascade_lake_2s()), host_sessions(config, seed)))
    problems: List[str] = []
    kv = pipe("kv", "kv", src="nic0", dst="dimm0-0",
              bandwidth=config.kv_bandwidth, bidirectional=True)
    _check(problems, meter.submit(lambda: host.try_submit(kv)) is not None,
           "host: the KV tenant's guaranteed pipe was rejected")
    app = KvStoreApp(host.network, "kv", nic="nic0", dimm="dimm0-0",
                     request_rate=config.kv_rate, seed=seed)
    app.start()

    live: Dict[str, bool] = {}
    released = [0]

    def finished(intent_id: str) -> Callable:
        def on_complete(_flow) -> None:
            host.release(intent_id)
            del live[intent_id]
            released[0] += 1
        return on_complete

    admitted = rejected = 0
    for s in sessions:
        host.run_until(s.time)
        intent = pipe(s.intent_id, s.tenant, src=s.src, dst=s.dst,
                      bandwidth=s.floor)
        placement = meter.submit(lambda: host.try_submit(intent))
        if placement is None:
            rejected += 1
            continue
        admitted += 1
        live[s.intent_id] = True
        host.network.start_transfer(
            s.tenant, placement.candidate.paths[0], size=s.size,
            on_complete=finished(s.intent_id))
    horizon = sessions[-1].time
    host.run_until(horizon)
    app.stop()
    ledger_at_horizon = sorted(host.manager.ledger.reserved_map.items())
    # Drain: every admitted transfer finishes at no less than its floor.
    deadline = horizon + 1.0
    while live and host.now < deadline:
        host.run_until(min(deadline, host.now + 0.001))
    host.run_until(host.now + 0.002)  # let in-flight KV responses land
    latencies = app.stats.latencies
    kv_requests = app.stats.ops_completed
    _check(problems, not live,
           f"host: {len(live)} transfers still running after the drain")
    _check(problems, released[0] == admitted,
           f"host: released {released[0]} of {admitted} admitted sessions")
    _check(problems, admitted + rejected == len(sessions),
           "host: an arriving session was neither admitted nor rejected")
    _check(problems, kv_requests > 0, "host: the KV tenant served nothing")
    ledger_final = sorted(host.manager.ledger.reserved_map.items())
    host.shutdown()
    return Outcome(
        digest_source={
            "sessions": {"arrived": len(sessions), "admitted": admitted,
                         "rejected": rejected, "released": released[0]},
            "ledger_at_horizon": ledger_at_horizon,
            "ledger_final": ledger_final,
            "kv": {"requests": kv_requests,
                   "p50": percentile(latencies, 50),
                   "p99": percentile(latencies, 99),
                   "max": max(latencies)},
        },
        # admission calls + transfers + releases + KV requests served
        ops=1 + len(sessions) + 2 * admitted + kv_requests,
        problems=problems,
        counters={"sessions_admitted": admitted,
                  "sessions_rejected": rejected},
    )


# -- replay: a 64-host fleet replaying a diurnal trace ------------------------

REPLAY_SIZES = {
    "full": dict(hosts=64, tasks=1000, tenants=96, horizon=4.0),
    "small": dict(hosts=8, tasks=120, tenants=16, horizon=0.5),
}


def run_replay(seed: int, size: str, meter: Meter) -> Outcome:
    shape = REPLAY_SIZES[size]
    hosts = shape["hosts"]
    fleet = Fleet("cascade_lake_2s", hosts=hosts, policy="best-fit",
                  max_attempts=8)
    synth = SynthTraceConfig(seed=seed, tasks=shape["tasks"],
                             tenants=shape["tenants"],
                             horizon=shape["horizon"])
    trace = meter.setup(lambda: synthesize_trace(synth))
    config = ReplayConfig()
    try:
        report = replay_trace(fleet, trace, config)
    finally:
        fleet.shutdown()
    problems: List[str] = []
    _check(problems, report.submitted == shape["tasks"],
           f"replay: {report.submitted} of {shape['tasks']} tasks arrived")
    _check(problems, report.released == report.admitted,
           f"replay: released {report.released} of {report.admitted}")
    _check(problems, report.admitted + report.rejected == report.submitted,
           "replay: a task was neither admitted nor finally rejected")
    _check(problems,
           len(report.utilization_samples) == config.samples * hosts,
           "replay: utilization sampling skipped a point")
    return Outcome(
        digest_source=report.outcome_dict(),
        # admission calls (arrivals and retries) + releases
        ops=report.submitted + report.retries + report.released,
        problems=problems,
        counters={"tasks_admitted": report.admitted,
                  "tasks_rejected": report.rejected,
                  "retries": report.retries},
    )


# -- slo: the latency-regression scenario on a 16-host fleet ------------------

SLO_SIZES = {
    "full": dict(hosts=16, horizon=0.5, arrival_rate=2400.0),
    "small": dict(hosts=4, horizon=0.12, arrival_rate=2000.0),
}


def _jsonable(value):
    """Tuples, dataclasses and floats into canonical JSON-able values."""
    if hasattr(value, "__dataclass_fields__"):
        return {name: _jsonable(getattr(value, name))
                for name in value.__dataclass_fields__}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def run_slo(seed: int, size: str, meter: Meter) -> Outcome:
    config = LatencyRegressionConfig(seed=seed, **SLO_SIZES[size])
    report = run_latency_regression(config)
    alerts, migrations, ledgers, histograms, counts = report.signature()
    fast = sum(1 for a in report.alerts if a.window == "fast")
    committed = sum(1 for m in report.slo_migrations if m[4])
    problems: List[str] = []
    _check(problems, report.samples > 0, "slo: the probes folded nothing")
    _check(problems, report.released <= report.admitted,
           "slo: released more sessions than were admitted")
    # Whether the degraded host's probes burn fast enough to alert
    # depends on which sessions it holds, so only pinned seeds must show
    # the closed loop.
    requirements: List[str] = []
    _check(requirements, fast >= 1, "slo: no fast-window burn alert fired")
    _check(requirements, committed >= 1,
           "slo: no latency-driven migration committed")
    return Outcome(
        digest_source={
            "alerts": _jsonable(alerts),
            "slo_migrations": _jsonable(migrations),
            "ledger_signatures": _jsonable(ledgers),
            "histogram_signature": _jsonable(histograms),
            "counts": _jsonable(counts),
        },
        # admission calls + releases + latency-driven migration attempts
        ops=report.admitted + report.rejected + report.released
        + len(report.slo_migrations),
        problems=problems,
        requirements=requirements,
        counters={"fast_alerts": fast, "slo_migrations": committed,
                  "probe_samples": report.samples},
    )


# -- chaos: fault campaigns over consecutive seeds ----------------------------

CHAOS_SIZES = {
    "full": dict(campaigns=4, hosts=16),
    "small": dict(campaigns=2, hosts=4, horizon=0.1),
}


def run_chaos(seed: int, size: str, meter: Meter) -> Outcome:
    shape = CHAOS_SIZES[size]
    problems: List[str] = []
    digest: Dict[str, object] = {}
    ops = 0
    totals = {"crashes": 0, "degrades": 0, "partitions": 0}
    campaigns = shape["campaigns"]
    # Consecutive campaign seeds, disjoint between input seeds.
    for campaign_seed in range(seed * campaigns, (seed + 1) * campaigns):
        report = run_fleet_campaign(FleetChaosConfig(
            seed=campaign_seed, hosts=shape["hosts"],
            horizon=shape.get("horizon", 0.3), deep_audits=True))
        _check(problems, report.passed,
               f"chaos: seed {campaign_seed} broke the fleet oracle: "
               + "; ".join(report.violations[:3]))
        digest[f"seed{campaign_seed}"] = report.outcome_dict()
        for kind in totals:
            totals[kind] += report.fault_counters.get(kind, 0)
        # admission calls + releases + fault actions + audits
        ops += (report.submitted + report.released + report.audits
                + sum(report.fault_counters.get(k, 0) for k in (
                    "crashes", "recoveries", "degrades", "restores",
                    "partitions", "heals")))
    for kind, count in totals.items():
        _check(problems, count >= 1, f"chaos: no {kind[:-1]} was applied")
    return Outcome(digest_source=digest, ops=ops, problems=problems,
                   counters=totals)


WORKLOADS: Dict[str, Callable[[int, str, Meter], Outcome]] = {
    "host": run_host,
    "replay": run_replay,
    "slo": run_slo,
    "chaos": run_chaos,
}


def config_of(workload: str, size: str) -> Dict[str, object]:
    """The workload's size configuration, for the run record."""
    table = {"host": HOST_SIZES, "replay": REPLAY_SIZES, "slo": SLO_SIZES,
             "chaos": CHAOS_SIZES}[workload]
    config = table[size]
    return _jsonable(config) if not isinstance(config, dict) else dict(config)
