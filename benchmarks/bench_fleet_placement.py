"""Fleet placement: the cost and the quality of cluster scheduling.

Timed hot paths feeding the regression gate (``compare_benchmarks.py``):

* seeded 16-host churn runs under the headroom-aware ``best-fit`` policy,
  once on the event-driven fleet clock (the default — only hosts with
  pending work are woken) and once on the lockstep reference discipline —
  the macro cost of the whole fleet layer (clock, push-invalidated
  telemetry, bounded probing, admission);
* a 256-host churn on the event clock — the scale the event discipline
  exists for, where lockstep's O(hosts x quanta) floor starts to bite;
* the scheduler's submit/release fast path and one push-invalidated
  headroom recompute — the micro costs a fleet pays per decision.

The suite also enforces the fleet layer's quality floor in-place: under a
bounded probe budget, headroom-aware placement must reject *fewer*
intents than blind first-fit on the identical seeded workload.  A change
that quietly breaks the telemetry rollup or the policy ranking shows up
here as a red build, not as a silently worse fleet.
"""

from repro.fleet import Fleet, FleetChurnConfig, run_churn
from repro.core import pipe
from repro.units import Gbps

HOSTS = 16
MAX_ATTEMPTS = 4
CHURN = FleetChurnConfig(seed=0, horizon=0.12, arrival_rate=4000.0,
                         mean_holding=0.05)

#: The 256-host run keeps total event count comparable (shorter horizon,
#: higher arrival rate) so it times clock overhead, not workload size.
BIG_HOSTS = 256
BIG_CHURN = FleetChurnConfig(seed=3, horizon=0.05, arrival_rate=8000.0,
                             mean_holding=0.03)

#: rejection rates observed by the timed runs, reused by the quality test
REJECTION = {}


def churn_rejection_rate(policy, clock="event", hosts=HOSTS, churn=CHURN):
    fleet = Fleet("cascade_lake_2s", hosts=hosts, policy=policy,
                  clock=clock, max_attempts=MAX_ATTEMPTS)
    report = run_churn(fleet, churn)
    fleet.shutdown()
    assert report.submitted > 300  # the workload actually ran
    return report.rejection_rate


def test_fleet_churn_16_hosts_best_fit(benchmark):
    REJECTION["best-fit"] = benchmark.pedantic(
        churn_rejection_rate, args=("best-fit",), rounds=2, iterations=1
    )


def test_fleet_churn_16_hosts_first_fit(benchmark):
    REJECTION["first-fit"] = benchmark.pedantic(
        churn_rejection_rate, args=("first-fit",), rounds=2, iterations=1
    )


def test_fleet_churn_16_hosts_lockstep(benchmark):
    """The lockstep reference on the identical workload.  Its rejection
    rate must match the event clock's bit-for-bit — the equivalence the
    seeded suite in tests/test_fleet_clock.py asserts per-ledger."""
    rate = benchmark.pedantic(
        churn_rejection_rate, args=("best-fit", "lockstep"),
        rounds=2, iterations=1,
    )
    assert rate == REJECTION["best-fit"], (
        f"lockstep rejected {rate:.1%} vs event {REJECTION['best-fit']:.1%}"
        " on the same seed — the clocks have diverged"
    )


def test_fleet_churn_256_hosts_event(benchmark):
    benchmark.pedantic(
        churn_rejection_rate,
        args=("best-fit",),
        kwargs={"hosts": BIG_HOSTS, "churn": BIG_CHURN},
        rounds=2, iterations=1,
    )


def test_headroom_aware_beats_first_fit():
    """The acceptance floor: best-fit must beat blind first-fit, with
    margin (not within noise of it), on the identical seeded churn."""
    best = REJECTION["best-fit"]
    first = REJECTION["first-fit"]
    assert best < first, (
        f"headroom-aware placement rejected {best:.1%} vs first-fit "
        f"{first:.1%} — the telemetry signal is not helping"
    )
    assert best < 0.5 * first, (
        f"expected a decisive gap, got best-fit {best:.1%} vs "
        f"first-fit {first:.1%}"
    )


def test_fleet_submit_release_fast_path(benchmark):
    fleet = Fleet("cascade_lake_2s", hosts=8, policy="best-fit",
                  max_attempts=4)
    intents = [
        pipe(f"i{i}", f"t{i % 4}", src="nic0", dst="dimm0-0",
             bandwidth=Gbps(20))
        for i in range(20)
    ]

    def submit_release_20():
        for intent in intents:
            fleet.submit(intent)
        for intent in intents:
            fleet.release(intent.intent_id)

    benchmark(submit_release_20)
    assert fleet.placements() == []


def test_fleet_telemetry_refresh(benchmark):
    """One push-invalidated headroom recompute: ``invalidate`` marks the
    host dirty and the next ``headroom`` read refreshes it (there is no
    refresh call)."""
    fleet = Fleet("cascade_lake_2s", hosts=1)
    for i in range(10):
        fleet.submit(pipe(f"i{i}", "tA", src="nic0", dst="dimm0-0",
                          bandwidth=Gbps(10)))
    telemetry = fleet.telemetry

    def invalidate_and_headroom():
        telemetry.invalidate("host00")
        return telemetry.headroom("host00")

    summary = benchmark(invalidate_and_headroom)
    assert summary.placements == 10
