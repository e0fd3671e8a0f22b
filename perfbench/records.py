"""Run records: what a run measured, on which machine and code.

Every benchmark run writes one ``perfbench.run-record/v2`` JSON file
holding the machine fingerprint, the code's git sha and dirty flag, the
hash seed, the workload's seed, input seeds and configuration, the
end-to-end metrics with their sample counts (normalised, and as CPU
time), the per-layer counters and self times (traced runs), every
pass's raw figures, and the outcome digest of each input seed.
Comparing two records warns when their machines differ.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from digests import first_difference

SCHEMA = "perfbench.run-record/v2"

#: Fields of :func:`machine` that must agree for timings to compare.
FINGERPRINT = ("nproc", "cpu_model", "python", "numpy")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> Dict[str, object]:
    """The fingerprint of the machine and interpreter running the run."""
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
    }


def git_state(root: Path) -> Dict[str, object]:
    """``{"sha", "dirty"}`` of *root*, both ``None`` outside a git tree."""

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(("git", *args), cwd=root, text=True,
                                  capture_output=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != root.resolve():
        return {"sha": None, "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def write(directory: Path, record: Dict[str, object]) -> Path:
    """Write *record* under *directory*; returns the file's path."""
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = (f"{record['workload']}-seed{record['seed']}-"
            f"trace{int(record['trace'])}-{stamp}-{os.getpid()}.json")
    path = directory / name
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Human-readable comparison of two run records (A then B)."""
    lines = []
    for rec in (a, b):
        if rec.get("schema") != SCHEMA:
            raise ValueError(f"not a {SCHEMA} record: {rec.get('schema')!r}")
    diff = [k for k in FINGERPRINT
            if a["machine"].get(k) != b["machine"].get(k)]
    if diff:
        lines.append("WARNING: the records come from different machines ("
                     + ", ".join(f"{k}: {a['machine'].get(k)!r} vs "
                                 f"{b['machine'].get(k)!r}" for k in diff)
                     + "); their timings do not compare")
    for label, rec in (("A", a), ("B", b)):
        lines.append(f"{label}: {rec['workload']} seed={rec['seed']} "
                     f"trace={int(rec['trace'])} git={rec['git']['sha']} "
                     f"dirty={rec['git']['dirty']} "
                     f"hash_seed={rec['hash_seed']}")
    if (a["workload"], a["seed"], a["config"]) != (
            b["workload"], b["seed"], b["config"]):
        lines.append("WARNING: different workload, seed or configuration")
    for seed in a["digests"]:
        if seed in b["digests"]:
            field = first_difference(a["digests"][seed], b["digests"][seed])
            lines.append(f"input seed {seed} digest: identical"
                         if field is None else f"input seed {seed} digest: "
                         f"first differing field {field!r}")
    for section in ("metrics", "per_layer"):
        names = [n for n in a.get(section, {}) if n in b.get(section, {})]
        for name in names:
            va = a[section][name]["value"]
            vb = b[section][name]["value"]
            ratio = f"{vb / va:7.3f}x" if va else "      -"
            lines.append(f"  {name:<30} {va:>14.6g} {vb:>14.6g} {ratio}")
    # Counters are recorded in layer order (engine first), so the first
    # one that moved names the lowest layer whose work changed.
    counters_a, counters_b = a.get("counters", {}), b.get("counters", {})
    moved = [n for n in counters_a if counters_a.get(n) != counters_b.get(n)]
    if moved:
        lines.append(f"first diverging counter: {moved[0]} "
                     f"({counters_a.get(moved[0])} vs "
                     f"{counters_b.get(moved[0])})")
    return lines
