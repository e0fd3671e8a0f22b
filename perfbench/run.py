#!/usr/bin/env python3
"""Benchmark the program from outside: four workloads, pinned outcomes.

    python3 perfbench/run.py                       # every workload, table
    python3 perfbench/run.py --workload replay --seed 3 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --compare A.json B.json
    python3 perfbench/run.py --pin --seed 0        # re-pin the digests

Each pass of a workload runs in its own fresh, single-threaded process
(forked by the ``worker.py`` server) with ``PYTHONHASHSEED`` pinned.  A
run at ``--seed n`` covers the workload's input seeds ``3n``, ``3n+1``
and ``3n+2``, alternating passes among them for ``--seconds``; each
metric is the median over an input seed's passes, averaged over the
three:

* ``--trace 0`` — the end-to-end metrics (set-up, run, peak memory,
  admission-call host time) from untraced passes, each timing
  normalised by a reference kernel run along the pass (``speed.py``);
* ``--trace 1`` — the per-layer counters and self times from traced
  passes of input seed ``3n``, plus untraced passes of it to measure
  the tracing overhead.

Every pass's simulated outcome must match the other passes' of its input
seed and, at a pinned input seed, the digest in ``pinned.json``
(``--seed 0``'s input seeds are pinned); a mismatch, a raising call
or a failed check marks the run incorrect and exits 1.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every run also writes a run record under
``.perfbench/records`` at the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import digests  # noqa: E402
import records  # noqa: E402

WORKLOADS = ("host", "replay", "slo", "chaos")
#: ``PYTHONHASHSEED`` for every worker: the ``host`` workload's counters
#: and digest depend on set iteration order (see README.md).
HASH_SEED = "0"
DEFAULT_SEED = 0
#: Input seeds per ``--seed``: one input's cost and tail depend on its
#: draw, so a run averages over several.
INPUTS_PER_SEED = 3
#: Two passes per input seed at least, so that each one's determinism
#: is checked.
MIN_PASSES_PER_INPUT = 2
#: Each run must end well inside the three minutes a run may take.
RUN_DEADLINE_S = 170.0
#: ``personality(2)`` flag that turns off address-space randomisation.
ADDR_NO_RANDOMIZE = 0x0040000
RECORDS = ROOT / ".perfbench" / "records"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("submit_p50_us", "us"),
    ("submit_p99_us", "us"),
)

#: Per-layer metrics in layer order (engine first, driver last).
PER_LAYER = (
    ("engine.events", "count"), ("engine.self_s", "s"),
    ("solver.solves", "count"), ("solver.component_solves", "count"),
    ("solver.flows_resolved", "count"), ("solver.fills", "count"),
    ("solver.reuse_ratio", "ratio"), ("solver.self_s", "s"),
    ("fabric.flows_started", "count"), ("fabric.cap_calls", "count"),
    ("fabric.cap_calls_flowless", "count"), ("fabric.recomputes", "count"),
    ("fabric.rate_reads", "count"), ("fabric.self_s", "s"),
    ("latency.calls", "count"), ("latency.self_s", "s"),
    ("arbiter.rounds", "count"), ("arbiter.skip_ratio", "ratio"),
    ("arbiter.self_s", "s"),
    ("manager.submits", "count"), ("manager.admits", "count"),
    ("manager.releases", "count"), ("manager.self_s", "s"),
    ("clock.advances", "count"), ("clock.wakes", "count"),
    ("clock.self_s", "s"),
    ("scheduler.submits", "count"),
    ("scheduler.probes_per_submit", "ratio"), ("scheduler.self_s", "s"),
    ("telemetry.reads", "count"), ("telemetry.invalidations", "count"),
    ("telemetry.self_s", "s"),
    ("migration.moves", "count"), ("migration.self_s", "s"),
    ("faults.events", "count"), ("recovery.evacuated", "count"),
    ("faults.self_s", "s"),
    ("invariants.audits", "count"), ("invariants.self_s", "s"),
    ("slo.samples", "count"), ("slo.evaluations", "count"),
    ("slo.self_s", "s"),
    ("driver.ops", "count"), ("driver.self_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
)


# -- passes ------------------------------------------------------------------

def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def fixed_layout() -> None:
    """Turn off address-space randomisation for the process about to
    start (Linux ``personality(ADDR_NO_RANDOMIZE)``).

    Object addresses decide where in the caches the program's objects
    fall and how object-keyed dictionaries collide, so every server
    would otherwise bring its own speed: on the recording VM the
    medians of six servers' normalised ``replay`` passes varied by 4%
    (coefficient of variation) with randomisation and by about 1%
    without.  Where the call is refused, layouts stay random and the
    runs only spread more.
    """
    try:
        personality = ctypes.CDLL(None).personality
    except (OSError, AttributeError):
        return
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    personality(ADDR_NO_RANDOMIZE)


class PassServer:
    """A ``worker.py`` server process: one forked child per pass.

    The server runs in its own session so that a pass that overruns the
    deadline is killed together with the server, and with a fixed
    address-space layout (:func:`fixed_layout`).
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT,
            env=worker_env(), text=True, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True, preexec_fn=fixed_layout)

    def run(self, workload: str, seed: int, size: str, traced: bool,
            timeout: float) -> dict:
        """One pass; a crash or an overrun becomes an ``error`` pass."""
        request = {"workload": workload, "seed": seed, "size": size,
                   "traced": traced}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return self._died()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(timeout, 1.0))
        if not ready:
            self.kill()
            return {"error": f"pass timed out after {timeout:.0f}s",
                    "ops": 1}
        line = self.proc.stdout.readline()
        return json.loads(line) if line else self._died()

    def _died(self) -> dict:
        self.kill()
        return {"error": "worker exited "
                         f"{self.proc.returncode}: "
                         + self.proc.stderr.read().strip()[-2000:],
                "ops": 1}

    def kill(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()

    def close(self) -> None:
        """Let the server exit after its last pass, and wait for it."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
        self.proc.stdout.close()
        self.proc.stderr.close()


def input_seeds(seed: int, traced: bool) -> List[int]:
    """The workload input seeds a run at *seed* covers (a traced run
    covers the first only, so its passes count the same work)."""
    first = seed * INPUTS_PER_SEED
    return [first] if traced else list(range(first, first + INPUTS_PER_SEED))


def run_passes(server: PassServer, workload: str, inputs: List[int],
               size: str, traced: bool, budget: float,
               deadline: float) -> List[dict]:
    """Passes alternating over *inputs* until the next one would overrun
    *budget* seconds."""
    passes: List[dict] = []
    minimum = MIN_PASSES_PER_INPUT * len(inputs)
    start = time.monotonic()
    while True:
        left = deadline - time.monotonic()
        seed = inputs[len(passes) % len(inputs)]
        passes.append({"seed": seed,
                       **server.run(workload, seed, size, traced, left)})
        if passes[-1].get("error"):
            break
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= minimum and elapsed + per_pass > budget:
            break
        if time.monotonic() + 2 * per_pass > deadline:
            break
    return passes


def by_input(passes: List[dict]) -> Dict[int, List[dict]]:
    groups: Dict[int, List[dict]] = {}
    for p in passes:
        groups.setdefault(p["seed"], []).append(p)
    return groups


# -- summaries ---------------------------------------------------------------

def end_to_end(passes: List[dict]) -> Dict[str, dict]:
    """Each metric's median over an input seed's passes, averaged over
    the input seeds; normalised, and as CPU time.

    Admission-call percentiles are taken within each pass (at least a
    thousand calls, so p99 has ten or more beyond it), then the median
    pass is taken, so one disturbed pass cannot move the tail.
    """
    groups = list(by_input([p for p in passes if not p.get("error")])
                  .values())

    def summary(key: str) -> float:
        return statistics.fmean(statistics.median(p[key] for p in group)
                                for group in groups)

    out = {}
    for name, _unit in END_TO_END:
        out[name] = {"value": summary(name),
                     "n": sum(len(group) for group in groups),
                     "inputs": len(groups)}
        if f"cpu.{name}" in groups[0][0]:
            out[name]["cpu"] = summary(f"cpu.{name}")
    for name in ("submit_p50_us", "submit_p99_us"):
        out[name]["calls"] = min(p["submit_calls"]
                                 for group in groups for p in group)
    return out


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """Counters of the first traced pass, self times as medians.

    Self times are CPU seconds, so coverage compares them with the
    traced passes' CPU ``run_s``; the overhead compares normalised
    ``run_s``, as the end-to-end metric is.
    """
    good = [p for p in traced if not p.get("error")]
    layers = dict(good[0]["layers"])
    for name in layers:
        if name.endswith(".self_s"):
            layers[name] = statistics.median(p["layers"][name] for p in good)
    traced_cpu = statistics.median(p["cpu.run_s"] for p in good)
    traced_run = statistics.median(p["run_s"] for p in good)
    plain = [p for p in untraced if not p.get("error")]
    untraced_run = statistics.median(p["run_s"] for p in plain)
    layers["trace.coverage"] = 1.0 - layers["driver.self_s"] / traced_cpu
    layers["trace.overhead"] = traced_run / untraced_run - 1.0
    layers["trace.run_s"] = traced_cpu
    return layers


def check(workload: str, passes: List[dict],
          pinned: Dict[str, Dict[str, Dict[str, str]]],
          pinning: bool = False) -> dict:
    """Failures, digest agreement and the pinned-digest verdicts.

    The passes of one input seed must agree; a pinned input seed (or
    one being pinned) must match its pinned digest and meet the
    workload's pinned-seed requirements.
    """
    problems: List[str] = []
    attempted = sum(p.get("ops", 1) for p in passes)
    failed = 0
    found: Dict[str, Dict[str, str]] = {}
    verdicts: Dict[str, str] = {}
    for seed, group in by_input(passes).items():
        expected = pinned.get(workload, {}).get(str(seed))
        strict = pinning or expected is not None
        for p in group:
            if p.get("error"):
                bad = [p["error"].strip().splitlines()[-1]]
            else:
                bad = p["problems"] + (p["requirements"] if strict else [])
            if bad:
                failed += p.get("ops", 1)
                problems.extend(f"input seed {seed}: {b}" for b in bad)
        outcomes = [p["digest"] for p in group if "digest" in p]
        if not outcomes:
            continue
        reference = found[str(seed)] = outcomes[0]
        for index, other in enumerate(outcomes[1:], 1):
            if other["*"] != reference["*"]:
                field = digests.first_difference(reference, other)
                problems.append(f"{workload}: input seed {seed}, pass "
                                f"{index} diverged from its first pass at "
                                f"field {field!r}")
                failed = attempted
        verdicts[str(seed)] = "not pinned"
        if expected is not None:
            field = digests.first_difference(expected, reference)
            if field is None:
                verdicts[str(seed)] = "matches the pinned digest"
            else:
                verdicts[str(seed)] = f"MISMATCH at field {field!r}"
                problems.append(f"{workload}: input seed {seed} digest "
                                f"differs from the pinned one at field "
                                f"{field!r}")
                failed = attempted
    return {"attempted": max(attempted, 1), "failed": failed,
            "problems": problems, "digests": found, "pinned": verdicts}


# -- one workload ------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 size: str) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    pinned = digests.load_pinned() if size == "full" else {}
    inputs = input_seeds(seed, traced)
    server = PassServer()
    try:
        if traced:
            untraced = run_passes(server, workload, inputs, size, False,
                                  seconds / 2, deadline)
            traced_passes = run_passes(server, workload, inputs, size, True,
                                       seconds / 2, deadline)
            passes = untraced + traced_passes
        else:
            untraced = passes = run_passes(server, workload, inputs, size,
                                           False, seconds, deadline)
            traced_passes = []
    finally:
        server.close()
    verdict = check(workload, passes, pinned)
    problems = verdict["problems"]
    result = {
        "schema": records.SCHEMA, "workload": workload, "seed": seed,
        "inputs": inputs, "size": size, "seconds": seconds, "trace": traced,
        "hash_seed": HASH_SEED, "machine": records.machine(),
        "git": records.git_state(ROOT),
        "config": next((p["config"] for p in passes if "config" in p), None),
        "attempted": verdict["attempted"], "digests": verdict["digests"],
        "pinned": verdict["pinned"],
        "passes": [{k: v for k, v in p.items() if k != "digest"}
                   for p in passes],
    }
    good = [p for p in traced_passes if not p.get("error")]
    if traced and good and any(not p.get("error") for p in untraced):
        if len({json.dumps({k: v for k, v in p["layers"].items()
                            if not k.endswith("self_s")}, sort_keys=True)
                for p in good}) > 1:
            problems.append(
                f"{workload}: two traced passes counted different work")
        layers = per_layer(traced_passes, untraced)
        result["per_layer"] = {name: {"value": layers[name], "unit": unit}
                               for name, unit in PER_LAYER}
        result["counters"] = {k: v for k, v in layers.items()
                              if not k.endswith("self_s")
                              and not k.startswith("trace.")}
        result["traced_run_s"] = layers["trace.run_s"]
    elif not traced and any(not p.get("error") for p in passes):
        stats = end_to_end(passes)
        result["metrics"] = {name: {"unit": unit, **stats[name]}
                             for name, unit in END_TO_END}
    else:
        problems.append(f"{workload}: too few passes completed to measure")
    # A wrong outcome fails every operation; a raising pass only its own.
    failed = verdict["failed"] or (result["attempted"] if problems else 0)
    result.update(correct=not problems, failed=failed, problems=problems)
    return result


# -- output ------------------------------------------------------------------

def describe(result: dict) -> List[str]:
    ok = [p for p in result["passes"] if not p.get("error")]
    kernel = ""
    if ok:
        kernel = (", reference kernel " + format(statistics.median(
            p["cpu.reference_ms"] for p in ok), ".3f") + " ms")
    lines = [f"perfbench {result['workload']} seed={result['seed']} "
             f"trace={int(result['trace'])} size={result['size']}: "
             f"{len(result['passes'])} passes "
             f"(PYTHONHASHSEED={result['hash_seed']}, "
             f"nproc={result['machine']['nproc']}{kernel})"]
    for name, metric in result.get("metrics", {}).items():
        what = f"median of {metric['n']} passes"
        if "calls" in metric:
            what += f" of >= {metric['calls']} admission calls each"
        if "cpu" in metric:
            what += f"; {metric['cpu']:.6g} {metric['unit']} in CPU time"
        lines.append(f"  {name:<16} {metric['value']:>14.6g} "
                     f"{metric['unit']:<3} ({what})")
    if "per_layer" in result:
        run_s = result["traced_run_s"]
        lines.append(f"  per-layer, traced run_s={run_s:.4f} s CPU time "
                     f"(median of {sum(1 for p in ok if p['traced'])} "
                     f"traced passes):")
        layer_rows: Dict[str, List[str]] = {}
        for name, metric in result["per_layer"].items():
            layer, _, what = name.partition(".")
            value = metric["value"]
            if what == "self_s":
                text = f"self {value:.4f}s ({value / run_s:6.1%})"
            elif metric["unit"] == "ratio":
                text = f"{what}={value:.3f}"
            else:
                text = f"{what}={int(value)}"
            layer_rows.setdefault(layer, []).append(text)
        for layer, texts in layer_rows.items():
            lines.append(f"    {layer:<10} " + "  ".join(texts))
    lines.append(f"  operations: attempted={result['attempted']} "
                 f"failed={result['failed']}")
    for seed, digest in result["digests"].items():
        lines.append(f"  input seed {seed} digest {digest['*'][:16]}: "
                     f"{result['pinned'][seed]}")
    for problem in result["problems"]:
        lines.append(f"  FAILED: {problem}")
    return lines


def summary_line(result: dict) -> dict:
    section = "per_layer" if result["trace"] else "metrics"
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result.get(section, {}).items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# -- commands ----------------------------------------------------------------

def pin(names: List[str], seed: int) -> int:
    """Re-pin the digests of *names* at *seed*'s input seeds.

    Two passes of each input seed must agree; one whose outcome misses
    the workload's pinned-seed requirements (``slo``'s closed loop) is
    left unpinned, and its runs only print its digest.
    """
    pinned = digests.load_pinned()
    for workload in names:
        for input_seed in input_seeds(seed, False):
            server = PassServer()
            try:
                passes = [{"seed": input_seed,
                           **server.run(workload, input_seed, "full", False,
                                        RUN_DEADLINE_S)} for _ in range(2)]
            finally:
                server.close()
            verdict = check(workload, passes, {})
            if verdict["failed"]:
                print(f"{workload}: not pinned: {verdict['problems']}")
                return 1
            pinned.get(workload, {}).pop(str(input_seed), None)
            missing = passes[0]["requirements"]
            if missing:
                print(f"{workload}: input seed {input_seed} left unpinned: "
                      + "; ".join(missing))
                continue
            digest = verdict["digests"][str(input_seed)]
            pinned.setdefault(workload, {})[str(input_seed)] = digest
            print(f"{workload}: pinned input seed {input_seed} "
                  f"{digest['*'][:16]}")
    digests.save_pinned(pinned)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default with --workload all: both)")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the self-tests' quick configuration")
    parser.add_argument("--compare", nargs=2, metavar="RECORD",
                        help="compare two run records and exit")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the outcome digests at --seed")
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        print("\n".join(records.compare(a, b)))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.pin:
        return pin(names, args.seed)

    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    results = []
    for workload in names:
        for traced in traces:
            result = run_workload(workload, args.seed, args.seconds, traced,
                                  args.size)
            path = records.write(RECORDS, result)
            print("\n".join(describe(result)))
            print(f"  record: {path.relative_to(ROOT)}")
            results.append(result)
    if len(results) == 1:
        line = summary_line(results[0])
    else:
        line = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}.{name}": metric
                            for r in results
                            for name, metric in
                            summary_line(r)["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
