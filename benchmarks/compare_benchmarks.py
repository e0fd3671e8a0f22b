"""Compare two pytest-benchmark JSON files and fail on regressions.

Usage::

    python benchmarks/compare_benchmarks.py BASELINE.json CURRENT.json \
        [--tolerance 0.20]

Benchmarks are matched by test name.  A benchmark regresses when its
current mean exceeds the baseline mean by more than the tolerance
(default 20%, chosen to ride out shared-runner noise while still
catching the order-of-magnitude slips this suite guards against — an
incremental solve silently re-solving from scratch, an accidental O(n^2)
re-partition).  Benchmarks present only in the current run are reported
as informational (new benchmarks need a refreshed baseline, not a red
build); benchmarks that disappeared fail the comparison, since a
deleted benchmark is exactly how a regression would hide.

Exit status: 0 when clean, 1 on any regression or missing benchmark.

The committed baseline is stored *compacted* — raw per-sample timing
arrays (``stats.data``) and ``machine_info`` dropped, summary stats
kept — which shrinks it an order of magnitude without losing anything
the gate reads.  Both the compact and the full pytest-benchmark layout
load identically here.  Recompact a freshly regenerated baseline with::

    python benchmarks/compare_benchmarks.py --compact BENCH.json
"""

from __future__ import annotations

import argparse
import json
import sys


def load_means(path: str) -> dict[str, float]:
    """Benchmark name -> mean seconds; reads full or compacted JSON."""
    with open(path) as handle:
        data = json.load(handle)
    return {
        bench["name"]: bench["stats"]["mean"]
        for bench in data.get("benchmarks", [])
    }


def compact(path: str, out: str | None = None) -> int:
    """Rewrite a pytest-benchmark JSON keeping only summary stats.

    Drops the raw per-sample ``stats.data`` arrays and ``machine_info``
    (the bulk of the file); everything the gate and a human reader use —
    names, groups, params, extra_info, min/max/mean/stddev/percentiles —
    survives.  Returns the number of benchmarks written.
    """
    with open(path) as handle:
        data = json.load(handle)
    data.pop("machine_info", None)
    for bench in data.get("benchmarks", []):
        bench.get("stats", {}).pop("data", None)
    with open(out or path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return len(data.get("benchmarks", []))


def format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


def compare(baseline: dict[str, float], current: dict[str, float],
            tolerance: float) -> int:
    failures = 0
    for name in sorted(baseline):
        if name not in current:
            print(f"MISSING  {name}: in baseline but not in current run")
            failures += 1
            continue
        old, new = baseline[name], current[name]
        ratio = new / old if old > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSED"
            failures += 1
        elif ratio < 1.0 - tolerance:
            verdict = "improved"
        print(f"{verdict:<9} {name}: {format_seconds(old)} -> "
              f"{format_seconds(new)} ({ratio:.2f}x)")
    for name in sorted(set(current) - set(baseline)):
        print(f"NEW      {name}: {format_seconds(current[name])} "
              "(no baseline; refresh BENCH_sim_performance.json)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON "
                                         "(or the file to --compact)")
    parser.add_argument("current", nargs="?", default=None,
                        help="freshly produced JSON")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional mean increase "
                             "(default: 0.20)")
    parser.add_argument("--compact", action="store_true",
                        help="instead of comparing, rewrite BASELINE "
                             "in place (or to CURRENT when given) with "
                             "raw sample arrays dropped")
    args = parser.parse_args(argv)

    if args.compact:
        count = compact(args.baseline, args.current)
        print(f"compacted {count} benchmark(s) into "
              f"{args.current or args.baseline}")
        return 0
    if args.current is None:
        parser.error("CURRENT is required unless --compact is given")

    baseline = load_means(args.baseline)
    current = load_means(args.current)
    if not baseline:
        print(f"error: no benchmarks found in {args.baseline}",
              file=sys.stderr)
        return 1
    failures = compare(baseline, current, args.tolerance)
    if failures:
        print(f"\n{failures} benchmark(s) regressed beyond "
              f"{args.tolerance:.0%} tolerance")
        return 1
    print("\nall benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
