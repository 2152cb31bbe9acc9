#!/usr/bin/env python
"""Run the scalar-vs-batch benchmark suite and emit ``BENCH_batch.json``.

The machine-readable output tracks the perf trajectory across PRs: per case,
the scalar and batch wall-clock and CPU seconds (the median of three
alternating runs each, with the fastest and slowest wall-clock run beside
it), rounds/second (total and per core) on both engines, the speedup, and —
crucially — how many runs
actually took the vectorised path (``batched_runs``) versus the scalar
fallback (``fallback_runs``).  Every entry is stamped with the UTC
timestamp and the git commit it measured (``git_dirty`` marks uncommitted
changes on top of it), and each invocation *appends* the payload as one
line to ``BENCH_history.jsonl`` so the trajectory survives across PRs
instead of being overwritten; ``BENCH_batch.json`` remains the
latest-snapshot view.  The CI benchmark-smoke job runs this in ``--quick``
mode, fails when a kernel-covered case silently fell back to scalar or the
NullObserver overhead budget is blown (``--max-null-overhead``), and
uploads both files as artifacts.

Usage::

    PYTHONPATH=src python scripts/run_benchmarks.py                 # full suite
    PYTHONPATH=src python scripts/run_benchmarks.py --quick         # CI smoke
    PYTHONPATH=src python scripts/run_benchmarks.py --require-speedup 10
    PYTHONPATH=src python scripts/run_benchmarks.py --quick --max-null-overhead 2
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPTS_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from bench_batch import BENCH_CASES, scaled, time_engines  # noqa: E402

#: The acceptance-criterion case: n >= 16, >= 200 trials, randomised.
HEADLINE_CASE = "figure1-style-randomized-n16"

#: Alternating scalar/batch runs per case; the median is reported, with the
#: fastest and slowest run beside it.  ``--quick`` makes one.
REPEATS = 3

#: Both engines run in-process on a single core; the per-core rounds/second
#: columns therefore equal the totals today, but stay honest if a future
#: executor fans out.
ENGINE_CORES = 1


def git_sha() -> str | None:
    """The current commit hash, or None outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def git_dirty() -> bool | None:
    """Whether tracked files differ from the commit (None outside git).

    A dirty run measured ``git_sha`` plus uncommitted changes, such as a
    change whose numbers are recorded before it is committed.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return bool(out.stdout.strip()) if out.returncode == 0 else None


def stamp(comparison: dict, timestamp: str, sha: str | None, dirty: bool | None) -> dict:
    """Stamp one case entry with provenance and derived per-core rates."""
    comparison = dict(comparison)
    comparison["timestamp"] = timestamp
    comparison["git_sha"] = sha
    comparison["git_dirty"] = dirty
    comparison["cores"] = ENGINE_CORES
    for engine in ("scalar", "batch"):
        comparison[f"{engine}_rounds_per_second_per_core"] = (
            comparison[f"{engine}_rounds_per_second"] / ENGINE_CORES
        )
    return comparison


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the scalar vs the vectorised batch engine."
    )
    parser.add_argument(
        "--out",
        default=os.path.join(REPO_ROOT, "BENCH_batch.json"),
        help="where to write the machine-readable results",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny grid for CI smoke (timings are indicative only)",
    )
    parser.add_argument(
        "--cases",
        default=None,
        help="comma-separated case names (default: all)",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        metavar="X",
        help=(
            "exit non-zero unless the headline Figure-1-style case reaches "
            "at least this speedup (use on quiet machines only)"
        ),
    )
    parser.add_argument(
        "--max-null-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help=(
            "also measure the NullObserver batch-hot-path overhead "
            "(benchmarks/bench_obs.py) and exit non-zero above this "
            "percentage (CI passes 2)"
        ),
    )
    parser.add_argument(
        "--history",
        default=os.path.join(REPO_ROOT, "BENCH_history.jsonl"),
        help=(
            "JSONL file the payload is appended to (one line per "
            "invocation; empty string disables)"
        ),
    )
    args = parser.parse_args(argv)

    wanted = (
        {name.strip() for name in args.cases.split(",") if name.strip()}
        if args.cases
        else None
    )
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    sha = git_sha()
    dirty = git_dirty()
    comparisons = []
    for case in BENCH_CASES:
        if wanted is not None and case.name not in wanted:
            continue
        effective = scaled(case, case.quick_runs) if args.quick else case
        repeats = 1 if args.quick else REPEATS
        comparison = stamp(time_engines(effective, repeats), timestamp, sha, dirty)
        comparisons.append(comparison)
        print(
            f"{comparison['case']}: {comparison['runs']} runs, "
            f"median of {repeats}: "
            f"scalar {comparison['scalar_seconds']:.3f}s "
            f"[{comparison['scalar_seconds_min']:.3f}-"
            f"{comparison['scalar_seconds_max']:.3f}] "
            f"({comparison['scalar_rounds_per_second']:.0f} rounds/s), "
            f"batch {comparison['batch_seconds']:.3f}s "
            f"[{comparison['batch_seconds_min']:.3f}-"
            f"{comparison['batch_seconds_max']:.3f}] "
            f"({comparison['batch_rounds_per_second']:.0f} rounds/s), "
            f"speedup {comparison['speedup']:.1f}x, "
            f"batched {comparison['batched_runs']}, "
            f"fallback {comparison['fallback_runs']}"
            + (
                f", identical={comparison['identical_results']}"
                if comparison["deterministic"]
                else ""
            )
        )

    null_overhead = None
    if args.max_null_overhead is not None:
        from bench_obs import measure_null_overhead

        null_overhead = measure_null_overhead(
            runs=40 if args.quick else 120,
            repeats=3 if args.quick else 5,
            attempts=4,
            threshold=args.max_null_overhead / 100.0,
        )
        print(
            f"null-observer overhead: {null_overhead['overhead'] * 100:+.2f}% "
            f"(budget {args.max_null_overhead:.1f}%, live observer "
            f"{null_overhead['observed_overhead'] * 100:+.2f}%)"
        )

    payload = {
        "suite": "scalar-vs-batch",
        "quick": args.quick,
        "timestamp": timestamp,
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cases": comparisons,
        "null_observer_overhead": null_overhead,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    if args.history:
        with open(args.history, "a", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
        print(f"appended to {args.history}")

    failures = []
    for comparison in comparisons:
        if comparison["fallback_runs"]:
            failures.append(
                f"{comparison['case']}: {comparison['fallback_runs']} runs "
                "silently fell back to the scalar engine"
            )
        if comparison["deterministic"] and comparison["identical_results"] is not True:
            failures.append(
                f"{comparison['case']}: batch results diverged from scalar"
            )
    if args.require_speedup is not None:
        headline = next(
            (c for c in comparisons if c["case"] == HEADLINE_CASE), None
        )
        if headline is None:
            failures.append(f"headline case {HEADLINE_CASE!r} was not run")
        elif headline["speedup"] < args.require_speedup:
            failures.append(
                f"{HEADLINE_CASE}: speedup {headline['speedup']:.1f}x is below "
                f"the required {args.require_speedup:.1f}x"
            )
    if null_overhead is not None and not null_overhead["within_threshold"]:
        failures.append(
            f"null-observer overhead {null_overhead['overhead'] * 100:.2f}% "
            f"exceeds the {args.max_null_overhead:.1f}% budget"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
