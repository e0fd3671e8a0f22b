"""Outcomes must not depend on Python's string-hash seed.

Set and dict iteration over strings follows ``PYTHONHASHSEED``, so a
result that leans on set order would change from one interpreter to the
next.  This runs two seeded scenarios in fresh interpreters under two
hash seeds and compares SHA-256 digests of what they produce:

* one managed host with live flows and the arbiter: a KV tenant behind a
  guaranteed pipe plus admitted finite transfers, digesting the ledger,
  every transfer's completion time and the KV latencies;
* a small fleet replaying a synthesized trace, digesting its report;
* a fabric where tenant caps on one direction and on both bind flows of
  unequal weight, digesting every flow's rate after every step;
* one stateless solve where tenant caps bind flows of unequal weight.

The water-filling core sums a cap's member weights in list order, so a
member list built in set order rounds differently under each seed: the
fabric scenario checks the incremental solver's component build, the
stateless solve ``build_problem``.

Run directly (``python tests/test_hash_seed.py``), the module prints the
four digests.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import repro
from repro import Fleet, Host, cascade_lake_2s, pipe
from repro.sim import (Constraint, Engine, FabricNetwork, FlowDemand,
                       max_min_fair_rates)
from repro.topology import k_shortest_paths
from repro.units import Gbps, kib
from repro.workloads.apps import KvStoreApp
from repro.workloads.cluster_traces import (
    ReplayConfig, SynthTraceConfig, replay_trace, synthesize_trace)


def host_outcome():
    rng = random.Random("hash-seed-host")
    host = Host(cascade_lake_2s())
    host.try_submit(pipe("kv", "kv", src="nic0", dst="dimm0-0",
                         bandwidth=Gbps(40), bidirectional=True))
    app = KvStoreApp(host.network, "kv", nic="nic0", dimm="dimm0-0",
                     request_rate=20_000.0, seed=1)
    app.start()
    finished = {}
    t = 0.0
    for i in range(40):
        t += rng.expovariate(2000.0)
        host.run_until(t)
        device = rng.choice(("nic0", "nic1", "nvme0", "gpu0", "gpu1"))
        dimm = rng.choice(("dimm0-0", "dimm0-1", "dimm1-0", "dimm1-1"))
        src, dst = (device, dimm) if rng.random() < 0.5 else (dimm, device)
        intent = pipe(f"s{i}", f"t{rng.randrange(6)}", src=src, dst=dst,
                      bandwidth=rng.uniform(Gbps(2), Gbps(16)))
        placement = host.try_submit(intent)
        if placement is None:
            continue

        def done(flow, intent_id=intent.intent_id):
            finished[intent_id] = flow.finished_at
            host.release(intent_id)

        host.network.start_transfer(
            intent.tenant_id, placement.candidate.paths[0],
            size=kib(512) * rng.lognormvariate(0.0, 0.6), on_complete=done)
    host.run_until(t + 0.05)
    app.stop()
    ledger = sorted(host.manager.ledger.reserved_map.items())
    host.shutdown()
    return {"ledger": ledger, "finished": sorted(finished.items()),
            "kv_latencies": app.stats.latencies}


def replay_outcome():
    fleet = Fleet("cascade_lake_2s", hosts=4, policy="best-fit",
                  max_attempts=4)
    trace = synthesize_trace(SynthTraceConfig(seed=3, tasks=60, tenants=12,
                                              horizon=0.3))
    try:
        return replay_trace(fleet, trace, ReplayConfig()).outcome_json()
    finally:
        fleet.shutdown()


def fabric_outcome():
    rng = random.Random("hash-seed-caps")
    network = FabricNetwork(cascade_lake_2s(), Engine())
    pairs = [("nic0", "dimm0-0"), ("dimm0-0", "nic0"), ("nic0", "dimm1-0"),
             ("dimm1-0", "nic0"), ("gpu0", "dimm1-1"), ("nvme0", "dimm0-1")]
    routes = {pair: k_shortest_paths(network.topology, *pair, k=2)
              for pair in pairs}
    capped = ["pcie-nic0", "mesh0-0", "upi-socket0-socket1-0",
              "upi-socket0-socket1-1", "membus1-0"]
    tenants = ("t0", "t1", "t2")
    rates = []
    for _step in range(60):
        action = rng.random()
        active = network.active_flows()
        if action < 0.5 or not active:
            network.start_transfer(
                rng.choice(tenants), rng.choice(routes[rng.choice(pairs)]),
                weight=rng.uniform(0.2, 3.0))
        elif action < 0.6:
            network.cancel_flow(rng.choice(active).flow_id)
        else:
            caps = {tenant: Gbps(rng.uniform(5, 80)) for tenant in tenants
                    if rng.random() < 0.7}
            network.set_link_caps(rng.choice(capped), caps,
                                  direction=rng.choice(("fwd", "rev", None)))
        rates.append([(flow.flow_id, flow.current_rate)
                      for flow in network.active_flows()])
    return rates


def solver_outcome():
    rng = random.Random("hash-seed-solver")
    capacities = {f"l{i}": rng.uniform(10.0, 100.0) for i in range(4)}
    flows = [FlowDemand(f"f{i}", (rng.choice(sorted(capacities)),),
                        weight=rng.uniform(0.2, 3.0)) for i in range(40)]
    caps = [Constraint(f"cap{j}", rng.uniform(5.0, 50.0),
                       frozenset(f.flow_id for f in flows
                                 if rng.random() < 0.5))
            for j in range(3)]
    return max_min_fair_rates(flows, capacities, caps)


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _start_under(hash_seed):
    """Run this module as a script, printing its digests, in a fresh
    interpreter under *hash_seed*."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.Popen([sys.executable, __file__], env=env,
                            stdout=subprocess.PIPE, text=True)


def test_outcomes_do_not_depend_on_the_hash_seed():
    runs = [_start_under(seed) for seed in (0, 4242)]
    try:
        outputs = [run.communicate(timeout=120)[0] for run in runs]
    finally:
        for run in runs:
            run.kill()  # no-op for a run that has finished
            run.communicate()
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (out.split() for out in outputs)
    assert len(first) == 4
    assert first == second


if __name__ == "__main__":
    print(digest(host_outcome()))
    print(digest(replay_outcome()))
    print(digest(fabric_outcome()))
    print(digest(solver_outcome()))
