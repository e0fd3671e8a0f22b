"""Self-tests of the benchmark at small sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Each traced pass runs in its own forked process through
``run.PassServer``, as the benchmark runs it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import digests  # noqa: E402
import run  # noqa: E402

COUNTERS = [name for name, unit in run.PER_LAYER if unit != "s"
            and not name.startswith("trace.")]


@pytest.fixture(scope="module")
def traced():
    """Two same-seed traced passes per workload, each in a fresh process."""
    server = run.PassServer()
    try:
        return {workload: [server.run(workload, 0, "small", True, 170)
                           for _ in range(2)]
                for workload in run.WORKLOADS}
    finally:
        server.close()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_traced_passes_agree(traced, workload):
    first, second = traced[workload]
    assert first["error"] is None, first["error"]
    assert not first["problems"], first["problems"]
    assert {n: first["layers"][n] for n in COUNTERS} == {
        n: second["layers"][n] for n in COUNTERS}
    assert first["digest"] == second["digest"]


def test_layer_separation(traced):
    layer = {w: passes[0]["layers"] for w, passes in traced.items()}
    for flowless in ("replay", "chaos"):
        assert layer[flowless]["fabric.flows_started"] == 0
        assert layer[flowless]["solver.fills"] == 0
        assert layer[flowless]["fabric.cap_calls"] > 0
        assert (layer[flowless]["fabric.cap_calls_flowless"]
                == layer[flowless]["fabric.cap_calls"])
    assert layer["host"]["scheduler.submits"] == 0
    assert layer["host"]["clock.advances"] == 0
    assert layer["host"]["fabric.flows_started"] > 0
    assert layer["host"]["solver.fills"] > 0
    assert layer["slo"]["slo.samples"] > 0
    assert layer["slo"]["latency.calls"] > 0
    for kind in ("crashes", "degrades", "partitions"):
        assert layer["chaos"][f"faults.{kind}"] >= 1, kind
    assert layer["chaos"]["invariants.audits"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_trace_covers_the_run(traced, workload):
    result = traced[workload][0]
    coverage = 1.0 - result["layers"]["driver.self_s"] / result["cpu.run_s"]
    assert coverage >= 0.9, f"{workload}: coverage {coverage:.3f}"


def test_first_difference_names_the_field():
    base = digests.digest({"counts": {"admitted": 3, "rejected": 1},
                           "jct": [1.0, 2.0]})
    moved = digests.digest({"counts": {"admitted": 3, "rejected": 2},
                            "jct": [1.0, 2.0]})
    assert digests.first_difference(base, base) is None
    assert digests.first_difference(base, moved) == "counts.rejected"


def test_pinned_mismatch_fails_every_operation():
    good = {"seed": 0, "ops": 10, "problems": [], "requirements": [],
            "digest": {"*": "a", "x": "1"}}
    other = {**good, "seed": 1, "digest": {"*": "c", "x": "3"}}
    passes = [good, dict(good), other]
    verdict = run.check("replay", passes,
                        {"replay": {"0": {"*": "b", "x": "2"}}})
    assert verdict["failed"] == verdict["attempted"] == 30
    assert "replay" in verdict["problems"][0]
    assert "'x'" in verdict["problems"][0]
    assert verdict["pinned"] == {"0": "MISMATCH at field 'x'",
                                 "1": "not pinned"}


def test_input_seeds_do_not_overlap():
    seen = [run.input_seeds(seed, False) for seed in range(4)]
    assert len({s for seeds in seen for s in seeds}) == 4 * len(seen[0])
    assert run.input_seeds(2, True) == seen[2][:1]


def test_one_run_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "host",
         "--size", "small", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {name for name, _ in run.END_TO_END}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "host", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
