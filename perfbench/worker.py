"""Run benchmark passes, one fresh single-threaded process per pass.

    python3 perfbench/worker.py

``run.py`` starts this server and writes one pass request per line to
its standard input (a JSON object: workload, seed, size, traced).  The
server imports the program once and forks a child per request; the
child runs the pass and the server prints its result as one JSON line:
set-up and run host time and admission-call percentiles (normalised by
the reference kernel, and as CPU time), peak resident memory, the
outcome digest and, traced, the per-layer counters and self times.

The server itself never runs a workload, so every child starts from the
same just-imported state with cold program caches, and no pass shares a
process with another — without paying the interpreter start and the
imports once per pass.  The server is single-threaded (BLAS threads are
pinned to 1 by ``run.py``), which is what makes forking it safe.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import digests  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def run_pass(workload: str, seed: int, size: str, traced: bool) -> dict:
    meter = workloads.Meter()
    meter.install()
    tracer = None
    if traced:
        tracer = layers.LayerTracer(meter)
        tracer.install()
    result = {"workload": workload, "seed": seed, "size": size,
              "config": workloads.config_of(workload, size),
              "traced": traced, "error": None}
    meter.start()
    try:
        outcome = workloads.WORKLOADS[workload](seed, size, meter)
    except Exception:  # a raising pass is a failed pass, reported
        result["error"] = traceback.format_exc(limit=8)
        result["ops"] = max(1, len(meter.submit_s))
        return result
    result.update(meter.finish())
    result.update(
        submit_calls=len(meter.submit_s),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=outcome.ops,
        problems=outcome.problems,
        requirements=outcome.requirements,
        counters=outcome.counters,
        digest=digests.digest(outcome.digest_source),
    )
    if tracer is not None:
        result["layers"] = {**tracer.counters(), "driver.ops": outcome.ops,
                            **tracer.self_times(result["cpu.run_s"])}
    return result


def main() -> int:
    """Answer each request line on stdin with one pass in a forked child."""
    for line in sys.stdin:
        request = json.loads(line)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            # A full collection touches every tracked object, so the
            # copy-on-write faults of the inherited heap are paid here
            # rather than inside the timed set-up and run.
            gc.collect()
            try:
                result = run_pass(**request)
            except BaseException:  # report anything; the child exits next
                result = {"error": traceback.format_exc(), "ops": 1}
            with os.fdopen(write_end, "w") as out:
                out.write(json.dumps(result))
            os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            payload = pipe.read()
        _pid, status = os.waitpid(pid, 0)
        if not payload:
            payload = json.dumps({"error": f"pass exited with {status}",
                                  "ops": 1})
        print(payload, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
