#!/usr/bin/env python3
"""Fleet demo: headroom-aware placement and cross-host live migration.

The paper's building blocks are per-host; this demo is what they buy at
datacenter scale.  A :class:`repro.Fleet` runs eight managed hosts on one
lockstep clock; a seeded churn workload (tenants "come and go", §3.2)
lands on hosts picked by the headroom-aware cluster scheduler; then a NIC
uplink on a loaded host is failed, local recovery exhausts its options,
and the placement is *live-migrated* to a healthy host — release on the
source, admit on the destination, all-or-nothing.

Run:  python examples/fleet_demo.py
"""

from repro import FailureInjector, Fleet, Gbps, pipe
from repro.fleet import FleetChurnConfig, run_churn


def main() -> None:
    fleet = Fleet("cascade_lake_2s", hosts=8, policy="best-fit",
                  max_attempts=4, resilience=True)

    # A guaranteed tenant placed before the crowd arrives.
    guaranteed = fleet.submit(pipe("kv-slo", "kv-tenant", src="nic0",
                                   dst="dimm0-0", bandwidth=Gbps(120),
                                   bidirectional=True))
    print(f"guaranteed intent placed on {guaranteed.host_id}")

    # The churning crowd, admitted fleet-wide by the cluster scheduler.
    report = run_churn(fleet, FleetChurnConfig(seed=3, horizon=0.2,
                                               arrival_rate=1500.0))
    print()
    print(report.describe())

    # Fail the guaranteed tenant's NIC uplink on its current host.  Local
    # recovery finds no alternate path from that NIC and escalates; the
    # fleet's migration planner moves the placement to a healthy host.
    victim_id = fleet.scheduler.host_of("kv-slo")
    victim = fleet.host(victim_id)
    print(f"\nfailing pcie-nic0 on {victim_id} ...")
    FailureInjector(victim.network).fail_link("pcie-nic0")
    fleet.advance_to(fleet.now + 0.1)

    print()
    print(fleet.planner.describe())
    new_host = fleet.scheduler.host_of("kv-slo")
    print(f"\nguaranteed intent now on {new_host} "
          f"(was {victim_id})")

    print()
    print(fleet.describe())
    fleet.shutdown()


if __name__ == "__main__":
    main()
