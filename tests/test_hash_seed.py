"""Outcomes must not depend on Python's string-hash seed.

Set and dict iteration over strings follows ``PYTHONHASHSEED``, so a
result that leans on set order would change from one interpreter to the
next.  This runs two seeded scenarios in fresh interpreters under two
hash seeds and compares SHA-256 digests of what they produce:

* one managed host with live flows and the arbiter: a KV tenant behind a
  guaranteed pipe plus admitted finite transfers, digesting the ledger,
  every transfer's completion time and the KV latencies;
* a small fleet replaying a synthesized trace, digesting its report.

Run directly (``python tests/test_hash_seed.py``), the module prints the
two digests.
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
    assert len(first) == 2
    assert first == second


if __name__ == "__main__":
    print(digest(host_outcome()))
    print(digest(replay_outcome()))
